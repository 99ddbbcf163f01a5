// Sharded serving, end to end: the graph-search workload answered by N
// in-process BoundedEngine shards behind one QueryService.
//
// Each shard owns a hash-partitioned replica of the database (rows
// replicated to every shard owning one of their fetch keys), its own
// indices, plan cache and writer-priority gate. Plans run through the
// planning shard's ordinary executors; only their fetch steps read from
// the owning shards, through the sharded engine's routed fetch source, so
// the answers are byte-identical to a single engine — while a delta batch
// writer-locks only the shards whose slots it touches, leaving readers
// on the other shards running. See docs/architecture.md, "Hash-
// partitioned sharding".
//
// Build & run:  ./build/example_sharded_serving

#include <iostream>

#include "cluster/sharded_engine.h"
#include "core/engine.h"
#include "serve/query_service.h"
#include "workload/graph_churn.h"

using namespace bqe;

int main() {
  workload::GraphChurnConfig cfg;
  workload::GraphChurnFixture fx = workload::MakeGraphChurnFixture(cfg);

  cluster::ShardedOptions opts;
  opts.shards = 4;
  Result<std::unique_ptr<cluster::ShardedEngine>> sharded =
      cluster::ShardedEngine::Create(fx.db, fx.schema, opts);
  if (!sharded.ok()) {
    std::cerr << sharded.status().ToString() << "\n";
    return 1;
  }

  // Oracle: the same data on one unsharded engine.
  BoundedEngine single(&fx.db, fx.schema);
  if (!single.BuildIndices().ok()) return 1;

  serve::QueryService service(sharded->get());

  // Serve a few covered queries, churn the data, serve again.
  std::vector<RaExprPtr> queries = {
      workload::FriendsNycCafesQuery(cfg.Pid(0)),
      workload::FriendsCafesMonthQuery(cfg.Pid(1), 5),
      workload::FriendsMayNotJuneCafesQuery(cfg.Pid(2)),
  };
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < queries.size(); ++i) {
      serve::QueryResponse resp = service.Query(queries[i]);
      Result<ExecuteResult> want = single.Execute(queries[i]);
      if (!resp.status.ok() || !want.ok()) return 1;
      std::cout << "round " << round << " query " << i << ": "
                << resp.table->NumRows() << " rows, matches single engine: "
                << (Table::SameSet(*resp.table, want->table) ? "yes" : "NO")
                << "\n";
    }
    if (round == 0) {
      std::vector<Delta> batch =
          workload::GraphChurnBatch(cfg, "example", round);
      if (!single.Apply(batch).ok()) return 1;
      serve::DeltaResponse d = service.ApplyDeltas(std::move(batch));
      if (!d.status.ok()) return 1;
      std::cout << "-- applied a delta batch (slot-split across shards) --\n";
    }
  }

  // Per-shard observability: where the scatter tasks and deltas landed.
  serve::ServiceStats stats = service.stats();
  std::cout << "\nshard  schema_epoch  data_epoch  scatter_tasks  deltas\n";
  for (size_t s = 0; s < stats.engine_shards.size(); ++s) {
    const serve::ServiceStats::ShardSection& sh = stats.engine_shards[s];
    std::cout << "    " << s << "  " << sh.schema_epoch << "            "
              << sh.data_epoch << "           " << sh.scatter_tasks
              << "              " << sh.deltas_routed << "\n";
  }
  std::cout << "total scatter tasks: " << stats.scatter_tasks
            << ", routed-delta skew max/min: " << stats.shard_skew_max << "/"
            << stats.shard_skew_min << "\n";
  std::cout << "\nSame answers as one engine, but a delta batch only stalls\n"
               "the shards it touches — reads elsewhere keep flowing.\n";
  return 0;
}
