#include "cluster/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/shard_router.h"
#include "core/engine.h"
#include "core/plan_exec.h"
#include "exec/fetch_source.h"
#include "exec/key_codec.h"
#include "ra/builder.h"
#include "serve/query_service.h"
#include "workload/graph_churn.h"

namespace bqe {
namespace {

/// Differential testing of the hash-partitioned multi-engine path: for the
/// same query, execution across N BoundedEngine shards — fetch steps routed
/// to the owning shards — must return a row stream *byte-identical* to the
/// single-engine row path — same rows, same order, same types — for every
/// operator kind, including the set ops (difference, dedupe-union) whose
/// inputs span shards. 48 differential cases (8 queries x shards {1,2,4} x
/// pre/post churn) pin that on the shards' row path and 96 more on their
/// serial and morsel-parallel executors, plus slot-routing units, the
/// routed patch log, serving-mode differentials, the lazy
/// maintenance-rebuild satellite, and thread stress for the CI TSan lane.

using cluster::ShardedEngine;
using cluster::ShardedOptions;
using cluster::ShardRouter;
using serve::DeltaResponse;
using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceStats;
using workload::FriendsCafesMonthQuery;
using workload::FriendsMayNotJuneCafesQuery;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnBatch;
using workload::GraphChurnConfig;
using workload::GraphChurnFixture;
using workload::GraphChurnJuneBatch;
using workload::GraphChurnMixedBatch;
using workload::MakeGraphChurnFixture;

/// A huge threshold keeps every execution on the row-at-a-time
/// interpreter, whose output order is fully deterministic — the oracle the
/// scatter/gather path promises to match byte for byte.
EngineOptions RowPathOptions() {
  EngineOptions opts;
  opts.exec_threads = 1;
  opts.row_path_threshold = ~size_t{0};
  return opts;
}

ShardedOptions MakeShardedOptions(size_t shards) {
  ShardedOptions opts;
  opts.shards = shards;
  opts.slots = 64;
  opts.engine = RowPathOptions();
  return opts;
}

void ExpectRowForRowEqual(const Table& got, const Table& want,
                          const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  for (size_t r = 0; r < got.rows().size(); ++r) {
    ASSERT_EQ(got.rows()[r], want.rows()[r]) << context << " row " << r;
  }
  EXPECT_EQ(got.ColumnTypes(), want.ColumnTypes()) << context;
}

/// The operator-coverage corpus: plain fetch/join/project chains, the
/// month-parameterized variant (distinct fetch key ranges), covered
/// *difference* (cross-shard subtrahend), and dedupe-*union* of two
/// occurrence-renamed subqueries. Every plan-step kind the row path can
/// emit appears: kConst, kFetch, kFilter, kJoin, dedupe kProject, kUnion,
/// kDiff (kProduct/kEmpty are covered by the hand-plan test below).
std::vector<std::pair<std::string, RaExprPtr>> Corpus(
    const GraphChurnConfig& cfg) {
  std::vector<std::pair<std::string, RaExprPtr>> corpus;
  corpus.emplace_back("nyc_p0", FriendsNycCafesQuery(cfg.Pid(0)));
  corpus.emplace_back("nyc_p7", FriendsNycCafesQuery(cfg.Pid(7)));
  corpus.emplace_back("may_p1", FriendsCafesMonthQuery(cfg.Pid(1), 5));
  corpus.emplace_back("june_p2", FriendsCafesMonthQuery(cfg.Pid(2), 6));
  corpus.emplace_back("diff_p3", FriendsMayNotJuneCafesQuery(cfg.Pid(3)));
  corpus.emplace_back("diff_p0", FriendsMayNotJuneCafesQuery(cfg.Pid(0)));
  corpus.emplace_back(
      "union_p4", Union(FriendsCafesMonthQuery(cfg.Pid(4), 5),
                        FriendsCafesMonthQuery(cfg.Pid(4), 6, "J")));
  corpus.emplace_back(
      "union_p5_p6", Union(FriendsCafesMonthQuery(cfg.Pid(5), 5),
                           FriendsCafesMonthQuery(cfg.Pid(6), 5, "J")));
  return corpus;
}

TEST(ShardRouterTest, BuildValidatesParameters) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  EXPECT_FALSE(
      ShardRouter::Build(fx.schema, fx.db.catalog(), 256, 0).ok());
  EXPECT_FALSE(  // Slots must be a power of two.
      ShardRouter::Build(fx.schema, fx.db.catalog(), 100, 2).ok());
  EXPECT_FALSE(  // Slots must be >= shards.
      ShardRouter::Build(fx.schema, fx.db.catalog(), 2, 4).ok());
  EXPECT_TRUE(ShardRouter::Build(fx.schema, fx.db.catalog(), 1, 1).ok());
  EXPECT_TRUE(ShardRouter::Build(fx.schema, fx.db.catalog(), 256, 3).ok());
}

TEST(ShardRouterTest, RoutingIsDeterministicAndSpreads) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<ShardRouter> r =
      ShardRouter::Build(fx.schema, fx.db.catalog(), 64, 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<size_t> hits(4, 0);
  for (int i = 0; i < 200; ++i) {
    Tuple key = {Value::Str("p" + std::to_string(i))};
    size_t slot = r->SlotOfKey(key);
    ASSERT_LT(slot, 64u);
    EXPECT_EQ(r->SlotOfKey(key), slot);  // Stable.
    EXPECT_EQ(r->ShardOfKey(key), r->ShardOfSlot(slot));
    ASSERT_LT(r->ShardOfKey(key), 4u);
    ++hits[r->ShardOfKey(key)];
  }
  // The high-bit hash must actually spread: no shard owns everything.
  for (size_t s = 0; s < 4; ++s) EXPECT_GT(hits[s], 0u) << "shard " << s;

  // A single slot degenerates to shard 0 for every key.
  Result<ShardRouter> one =
      ShardRouter::Build(fx.schema, fx.db.catalog(), 1, 1);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->ShardOfKey({Value::Str("anything")}), 0u);
}

TEST(ShardRouterTest, ShardsOfRowFollowsConstraints) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<ShardRouter> r =
      ShardRouter::Build(fx.schema, fx.db.catalog(), 64, 4);
  ASSERT_TRUE(r.ok());

  // friend has one constraint ((pid) -> (fid)): exactly one owner, and it
  // is the owner of the pid fetch key.
  Tuple frow = {Value::Str("p3"), Value::Str("f77")};
  std::vector<size_t> owners = r->ShardsOfRow("friend", frow);
  ASSERT_EQ(owners.size(), 1u);
  ASSERT_EQ(r->ConstraintsFor("friend").size(), 1u);
  int fc = r->ConstraintsFor("friend")[0];
  EXPECT_EQ(r->FetchKeyFor(fc, frow), Tuple({Value::Str("p3")}));
  EXPECT_EQ(owners[0], r->ShardOfKey({Value::Str("p3")}));

  // dine has two constraints: up to two distinct owners, ascending.
  Tuple drow = {Value::Str("f1"), Value::Str("c2"), Value::Int(5),
                Value::Int(2015)};
  std::vector<size_t> downers = r->ShardsOfRow("dine", drow);
  ASSERT_GE(downers.size(), 1u);
  ASSERT_LE(downers.size(), 2u);
  EXPECT_TRUE(std::is_sorted(downers.begin(), downers.end()));
  EXPECT_TRUE(std::adjacent_find(downers.begin(), downers.end()) ==
              downers.end());

  // A relation with no access constraint routes nowhere.
  EXPECT_TRUE(r->ShardsOfRow("unconstrained", frow).empty());
}

TEST(ShardRouterTest, SplitDeltasReplicatesToEveryOwner) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<ShardRouter> r =
      ShardRouter::Build(fx.schema, fx.db.catalog(), 64, 4);
  ASSERT_TRUE(r.ok());

  std::vector<Delta> batch;
  for (int b = 0; b < 8; ++b) {
    for (Delta& d : GraphChurnMixedBatch(fx.cfg, "split", b)) {
      batch.push_back(std::move(d));
    }
  }
  std::vector<std::vector<Delta>> split = r->SplitDeltas(batch);
  ASSERT_EQ(split.size(), 4u);

  // Every delta lands on exactly its owning shards, batch order preserved
  // within each sub-batch.
  size_t expected = 0;
  for (const Delta& d : batch) expected += r->ShardsOfRow(d.rel, d.row).size();
  size_t routed = 0;
  for (size_t s = 0; s < split.size(); ++s) {
    routed += split[s].size();
    size_t pos = 0;
    for (const Delta& d : split[s]) {
      std::vector<size_t> owners = r->ShardsOfRow(d.rel, d.row);
      EXPECT_TRUE(std::find(owners.begin(), owners.end(), s) != owners.end());
      // Order check: this delta appears in `batch` at or after the
      // previous sub-batch element's position.
      while (pos < batch.size() &&
             !(batch[pos].rel == d.rel && batch[pos].row == d.row &&
               batch[pos].kind == d.kind)) {
        ++pos;
      }
      ASSERT_LT(pos, batch.size()) << "sub-batch delta not found in order";
    }
  }
  EXPECT_EQ(routed, expected);
}

/// The tentpole differential: 8 queries x shards {1,2,4} x {pre, post}
/// churn = 48 cases, each compared row-for-row (and type-for-type) against
/// a single-engine row-path execution of the same query on identical data.
TEST(ShardedEngineDifferentialTest, ByteIdenticalToSingleEngine48Cases) {
  size_t cases = 0;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    GraphChurnFixture fx = MakeGraphChurnFixture();
    BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
    ASSERT_TRUE(oracle.BuildIndices().ok());
    // Create() copies the database per shard, so the oracle's in-place
    // Apply below never leaks into the shards (both sides apply the same
    // batches through their own path).
    Result<std::unique_ptr<ShardedEngine>> sharded =
        ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(shards));
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_EQ((*sharded)->num_shards(), shards);

    std::vector<std::pair<std::string, RaExprPtr>> corpus = Corpus(fx.cfg);
    auto run_phase = [&](const std::string& phase) {
      for (const auto& [name, q] : corpus) {
        std::string ctx =
            "shards=" + std::to_string(shards) + " " + phase + " " + name;
        Result<ExecuteResult> want = oracle.Execute(q);
        ASSERT_TRUE(want.ok()) << ctx << ": " << want.status().ToString();
        ASSERT_TRUE(want->used_bounded_plan) << ctx;
        Result<ExecuteResult> got = (*sharded)->Execute(q);
        ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();
        EXPECT_TRUE(got->used_bounded_plan) << ctx;
        ExpectRowForRowEqual(got->table, want->table, ctx);
        ++cases;
      }
    };

    run_phase("pre");
    // Mixed insert+delete churn through friend/dine, plus june churn so
    // the difference subtrahend and the union's second branch both move.
    for (int b = 0; b < 12; ++b) {
      std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "sharddiff", b);
      ASSERT_TRUE(oracle.Apply(batch).ok()) << "batch " << b;
      Result<MaintenanceStats> st = (*sharded)->Apply(batch);
      ASSERT_TRUE(st.ok()) << "batch " << b << ": " << st.status().ToString();
    }
    for (int b = 0; b < 6; ++b) {
      std::vector<Delta> batch = GraphChurnJuneBatch(fx.cfg, b);
      ASSERT_TRUE(oracle.Apply(batch).ok()) << "june batch " << b;
      ASSERT_TRUE((*sharded)->Apply(batch).ok()) << "june batch " << b;
    }
    run_phase("post");
  }
  EXPECT_EQ(cases, 48u);
}

/// The compiled executors over the routed source: the 48-case corpus and
/// churn with the shard engines on the serial vectorized executor and on
/// the morsel-parallel one, each compared row for row (and type for type)
/// against the single-engine row path — 96 cases.
TEST(ShardedEngineDifferentialTest, CompiledExecutorsByteIdentical96Cases) {
  EngineOptions serial;
  serial.exec_threads = 1;
  serial.row_path_threshold = 0;
  EngineOptions parallel = serial;
  parallel.exec_threads = 2;
  size_t cases = 0;
  for (const EngineOptions& shard_opts : {serial, parallel}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      GraphChurnFixture fx = MakeGraphChurnFixture();
      BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
      ASSERT_TRUE(oracle.BuildIndices().ok());
      ShardedOptions opts = MakeShardedOptions(shards);
      opts.engine = shard_opts;
      Result<std::unique_ptr<ShardedEngine>> sharded =
          ShardedEngine::Create(fx.db, fx.schema, opts);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

      std::vector<std::pair<std::string, RaExprPtr>> corpus = Corpus(fx.cfg);
      auto run_phase = [&](const std::string& phase) {
        for (const auto& [name, q] : corpus) {
          std::string ctx = "threads=" +
                            std::to_string(shard_opts.exec_threads) +
                            " shards=" + std::to_string(shards) + " " +
                            phase + " " + name;
          Result<ExecuteResult> want = oracle.Execute(q);
          ASSERT_TRUE(want.ok()) << ctx << ": " << want.status().ToString();
          Result<ExecuteResult> got = (*sharded)->Execute(q);
          ASSERT_TRUE(got.ok()) << ctx << ": " << got.status().ToString();
          EXPECT_TRUE(got->used_bounded_plan) << ctx;
          EXPECT_FALSE(got->bounded_stats.used_row_path) << ctx;
          ExpectRowForRowEqual(got->table, want->table, ctx);
          ++cases;
        }
      };

      run_phase("pre");
      for (int b = 0; b < 12; ++b) {
        std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "sharddiff", b);
        ASSERT_TRUE(oracle.Apply(batch).ok()) << "batch " << b;
        ASSERT_TRUE((*sharded)->Apply(batch).ok()) << "batch " << b;
      }
      for (int b = 0; b < 6; ++b) {
        std::vector<Delta> batch = GraphChurnJuneBatch(fx.cfg, b);
        ASSERT_TRUE(oracle.Apply(batch).ok()) << "june batch " << b;
        ASSERT_TRUE((*sharded)->Apply(batch).ok()) << "june batch " << b;
      }
      run_phase("post");
    }
  }
  EXPECT_EQ(cases, 96u);
}

/// Prepared 3-shard plans through ExecutePrepared against the exported
/// row-path interpreter, plan for plan — pins that routed execution
/// replicates ExecutePlanRowAtATime exactly (including stats shape), with a
/// shard count that does not divide the slot count evenly.
TEST(ShardedEngineDifferentialTest, ScatteredPlanMatchesRowPathInterpreter) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(3));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  for (const auto& [name, q] : Corpus(fx.cfg)) {
    Result<std::shared_ptr<const PreparedQuery>> pq =
        (*sharded)->PrepareCompiled(q);
    ASSERT_TRUE(pq.ok()) << name << ": " << pq.status().ToString();
    ASSERT_TRUE((*pq)->info.covered) << name;
    const BoundedPlan& plan = (*pq)->physical->source_plan();

    Result<Table> want = ExecutePlanRowAtATime(plan, oracle.indices());
    ASSERT_TRUE(want.ok()) << name;
    Result<ExecuteResult> got = (*sharded)->ExecutePrepared(**pq, 0, 2);
    ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
    ExpectRowForRowEqual(got->table, *want, name);
    EXPECT_EQ(got->bounded_stats.output_rows, got->table.NumRows()) << name;
  }
  // At least one query's fetches engaged more than one shard.
  uint64_t scatter = 0;
  for (size_t s = 0; s < 3; ++s) {
    scatter += (*sharded)->shard_stats(s).scatter_tasks;
  }
  EXPECT_GT(scatter, 0u);
}

TEST(ShardedEngineTest, NonCoveredQueryUsesReplicaOrRefuses) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine single(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(single.BuildIndices().ok());
  // cafe's only constraint is (cid) -> (city): filtering by city without a
  // cid binding is not covered.
  RaExprPtr q = Project(
      Select(Rel("cafe"), {EqC(A("cafe", "city"), Value::Str("nyc"))}),
      {A("cafe", "cid")});

  Result<std::unique_ptr<ShardedEngine>> with_replica =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(2));
  ASSERT_TRUE(with_replica.ok());
  Result<ExecuteResult> got = (*with_replica)->Execute(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->used_bounded_plan);
  Result<ExecuteResult> want = single.Execute(q);
  ASSERT_TRUE(want.ok());
  EXPECT_FALSE(want->used_bounded_plan);
  EXPECT_TRUE(Table::SameSet(got->table, want->table));

  ShardedOptions no_replica = MakeShardedOptions(2);
  no_replica.fallback_replica = false;
  Result<std::unique_ptr<ShardedEngine>> bare =
      ShardedEngine::Create(fx.db, fx.schema, no_replica);
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE((*bare)->Execute(q).ok());
}

TEST(ShardedEngineTest, ApplySplitsByOwnerAndCoherenceSums) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(4));
  ASSERT_TRUE(sharded.ok());

  // A prepared covered plan must survive data-only churn (the per-shard
  // zero-re-prepare guarantee, fingerprint-routed).
  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::string fp = BoundedEngine::QueryFingerprint(q);
  Result<std::shared_ptr<const PreparedQuery>> pq =
      (*sharded)->PrepareCompiled(q);
  ASSERT_TRUE(pq.ok());

  CoherenceSnapshot pre = (*sharded)->Coherence();
  std::vector<Delta> batch = GraphChurnBatch(fx.cfg, "apply", 0);
  Result<MaintenanceStats> st = (*sharded)->Apply(batch);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->inserts, 2u);  // Logical stats, not per-shard copies.
  CoherenceSnapshot post = (*sharded)->Coherence();
  EXPECT_GT(post.data_epoch, pre.data_epoch);
  EXPECT_EQ(post.schema_epoch, pre.schema_epoch);  // No bound grew.
  EXPECT_EQ((*sharded)->last_applied().deltas.size(), 2u);

  // The friend insert owns 1 shard, the dine insert up to 2 — the routed
  // total must match the router's own split, and every counter must agree.
  const ShardRouter& router = (*sharded)->router();
  size_t expected_routed = 0;
  for (const Delta& d : batch) {
    expected_routed += router.ShardsOfRow(d.rel, d.row).size();
  }
  uint64_t routed = 0;
  for (size_t s = 0; s < 4; ++s) {
    routed += (*sharded)->shard_stats(s).deltas_routed;
  }
  EXPECT_EQ(routed, expected_routed);

  EXPECT_TRUE((*sharded)->StillCoherent(fp, **pq));
  bool hit = false;
  Result<std::shared_ptr<const PreparedQuery>> again =
      (*sharded)->PrepareCompiled(q, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);  // Same planning shard, cached plan intact.
}

/// One patch-log event as a sortable string: encoded key, row and sign.
std::string EncodedEvent(const BucketPatch& ev) {
  std::string out;
  AppendEncodedTuple(ev.key, &out);
  AppendEncodedTuple(ev.row, &out);
  out += ev.sign > 0 ? '+' : '-';
  return out;
}

/// The routed source's patch-log ownership filter, read directly: for
/// every constraint and every churn batch, the events it returns must equal
/// the single engine's log for that constraint as a multiset. A row
/// replicated to a non-owner shard logs the same bucket event there; a
/// double +1 on a set-valued bucket is invisible in answers, so only this
/// comparison catches it.
TEST(ShardedEngineTest, RoutedPatchLogMatchesSingleEngineLog) {
  for (size_t shards : {size_t{2}, size_t{4}}) {
    GraphChurnFixture fx = MakeGraphChurnFixture();
    // A budget-forced mirror rebuild truncates the log; keep every mirror
    // patching in place so each batch's events are all retained.
    EngineOptions eopts = RowPathOptions();
    eopts.mirror_patch_budget = size_t{1} << 30;
    BoundedEngine single(&fx.db, fx.schema, eopts);
    ASSERT_TRUE(single.BuildIndices().ok());
    ShardedOptions opts = MakeShardedOptions(shards);
    opts.engine = eopts;
    Result<std::unique_ptr<ShardedEngine>> sharded =
        ShardedEngine::Create(fx.db, fx.schema, opts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    const FetchSource& routed = (*sharded)->fetch_source();

    // Per constraint: the single engine's index and stamp, the routed
    // cursor (bound through shard 0's index), and raw per-shard stamps that
    // count what the filter drops.
    struct Log {
      const AccessIndex* single = nullptr;
      const AccessIndex* binding = nullptr;
      uint64_t stamp = 0;
      std::vector<uint64_t> cursor;
      std::vector<uint64_t> raw;
    };
    std::vector<Log> logs;
    for (const AccessConstraint& c : fx.schema.constraints()) {
      Log log;
      log.single = single.indices().Get(c.id);
      log.binding = (*sharded)->shard_engine(0).indices().Get(c.id);
      ASSERT_NE(log.single, nullptr);
      ASSERT_NE(log.binding, nullptr);
      log.single->EnsureFrozen();
      log.stamp = log.single->patch_log_stamp();
      ASSERT_TRUE(routed.PatchLogSince(*log.binding, &log.cursor, nullptr));
      ASSERT_EQ(log.cursor.size(), shards);
      for (size_t s = 0; s < shards; ++s) {
        const AccessIndex* idx =
            (*sharded)->shard_engine(s).indices().Get(c.id);
        idx->EnsureFrozen();
        log.raw.push_back(idx->patch_log_stamp());
      }
      logs.push_back(std::move(log));
    }

    std::vector<std::vector<Delta>> batches;
    for (int b = 0; b < 12; ++b) {
      batches.push_back(GraphChurnMixedBatch(fx.cfg, "patchlog", b));
    }
    for (int b = 0; b < 6; ++b) {
      batches.push_back(GraphChurnJuneBatch(fx.cfg, b));
    }
    size_t events = 0, raw_events = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(single.Apply(batches[b]).ok()) << "batch " << b;
      ASSERT_TRUE((*sharded)->Apply(batches[b]).ok()) << "batch " << b;
      for (Log& log : logs) {
        std::string ctx = "shards=" + std::to_string(shards) + " batch " +
                          std::to_string(b) + " constraint " +
                          log.single->constraint().ToString();
        std::vector<BucketPatch> want, got;
        ASSERT_TRUE(log.single->PatchLogSince(log.stamp, &want)) << ctx;
        log.stamp = log.single->patch_log_stamp();
        ASSERT_TRUE(routed.PatchLogSince(*log.binding, &log.cursor, &got))
            << ctx;
        std::vector<std::string> w, g;
        for (const BucketPatch& ev : want) w.push_back(EncodedEvent(ev));
        for (const BucketPatch& ev : got) g.push_back(EncodedEvent(ev));
        std::sort(w.begin(), w.end());
        std::sort(g.begin(), g.end());
        EXPECT_EQ(g, w) << ctx;
        events += got.size();
        for (size_t s = 0; s < shards; ++s) {
          const AccessIndex* idx =
              (*sharded)->shard_engine(s).indices().Get(
                  log.single->constraint().id);
          std::vector<BucketPatch> raw;
          ASSERT_TRUE(idx->PatchLogSince(log.raw[s], &raw)) << ctx;
          log.raw[s] = idx->patch_log_stamp();
          raw_events += raw.size();
        }
      }
    }
    EXPECT_GT(events, 0u) << "shards=" << shards;
    // Replication did log foreign-key events, and the filter dropped them.
    EXPECT_GT(raw_events, events) << "shards=" << shards;
  }
}

/// Serving-mode differential: the sharded QueryService answers exactly
/// like a direct single row-path engine across query/delta interleavings,
/// while the per-shard stats section and the five-way request accounting
/// stay exact.
TEST(ShardedServiceTest, AnswersMatchSingleEngineAcrossChurn) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(2));
  ASSERT_TRUE(sharded.ok());
  QueryService service(sharded->get());
  ASSERT_EQ(&service.engine(), sharded->get());

  size_t requests = 0;
  auto check_queries = [&](const std::string& phase) {
    for (int i = 0; i < 6; ++i) {
      RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(i));
      QueryResponse resp = service.Query(q);
      ++requests;
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      ASSERT_NE(resp.table, nullptr);
      Result<ExecuteResult> want = oracle.Execute(q);
      ASSERT_TRUE(want.ok());
      ExpectRowForRowEqual(*resp.table, want->table,
                           phase + " query " + std::to_string(i));
    }
  };

  check_queries("pre");
  for (int b = 0; b < 8; ++b) {
    std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "svc", b);
    ASSERT_TRUE(oracle.Apply(batch).ok());
    DeltaResponse dr = service.ApplyDeltas(batch);
    ASSERT_TRUE(dr.status.ok()) << "batch " << b;
    check_queries("after batch " + std::to_string(b));
  }

  ServiceStats s = service.stats();
  // Per-shard section: one entry per shard, folded consistently.
  ASSERT_EQ(s.engine_shards.size(), 2u);
  uint64_t scatter = 0, max_routed = 0, min_routed = ~uint64_t{0};
  for (const ServiceStats::ShardSection& sec : s.engine_shards) {
    scatter += sec.scatter_tasks;
    max_routed = std::max(max_routed, sec.deltas_routed);
    min_routed = std::min(min_routed, sec.deltas_routed);
  }
  EXPECT_EQ(s.scatter_tasks, scatter);
  EXPECT_EQ(s.shard_skew_max, max_routed);
  EXPECT_EQ(s.shard_skew_min, min_routed);
  EXPECT_GE(s.shard_skew_max, s.shard_skew_min);
  EXPECT_EQ(s.delta_batches, 8u);
  // Merged epochs: every applied batch moved the summed snapshot.
  EXPECT_GT(s.data_epoch, 0u);
  // Five-way accounting: every query request is answered exactly once.
  EXPECT_EQ(s.executed + s.coalesced + s.result_hits_admission +
                s.result_hits_window + s.result_hits_refreshed,
            requests);
}

/// Satellite 1: after an IVM refresh fallback, the fingerprint's next
/// execution skips the handle rebuild (counted in maint_lazy_rebuilds) and
/// the one after rebuilds normally — in both single-engine and sharded
/// mode (where maintenance probes read through the routed fetch source).
void RunLazyRebuildScenario(QueryService& service, BoundedEngine& oracle,
                            const GraphChurnConfig& cfg) {
  RaExprPtr q = FriendsMayNotJuneCafesQuery(cfg.Pid(0));

  // ASSERT macros only work in void-returning scopes, so the lambda hands
  // its response back through `last` instead of a return value.
  QueryResponse last;
  auto query_and_check = [&](const std::string& ctx) {
    QueryResponse resp = service.Query(q);
    ASSERT_TRUE(resp.status.ok()) << ctx << ": " << resp.status.ToString();
    ASSERT_NE(resp.table, nullptr) << ctx;
    Result<ExecuteResult> want = oracle.Execute(q);
    ASSERT_TRUE(want.ok()) << ctx;
    // IVM-refreshed tables keep surviving rows in place, so compare as an
    // exact sorted bag rather than row-for-row.
    std::vector<Tuple> g = resp.table->rows(), w = want->table.rows();
    std::sort(g.begin(), g.end());
    std::sort(w.begin(), w.end());
    ASSERT_EQ(g, w) << ctx;
    last = std::move(resp);
  };
  auto apply_both = [&](std::vector<Delta> batch, const std::string& ctx) {
    ASSERT_TRUE(oracle.Apply(batch).ok()) << ctx;
    DeltaResponse dr = service.ApplyDeltas(std::move(batch));
    ASSERT_TRUE(dr.status.ok()) << ctx << ": " << dr.status.ToString();
  };

  query_and_check("first execution (no handle: no demonstrated reuse)");
  apply_both(GraphChurnJuneBatch(cfg, 0), "june 0");  // Insert-only.
  query_and_check("second execution (pin hit: handle built)");
  // Insert-only june churn: maintainable, entries patched in place.
  for (int b = 1; b <= 3; ++b) {
    apply_both(GraphChurnJuneBatch(cfg, b), "june " + std::to_string(b));
  }
  query_and_check("after maintainable batches");
  EXPECT_TRUE(last.result_cache_hit)
      << "maintainable churn must keep the entry serving from cache";
  EXPECT_TRUE(last.result_refreshed);

  // Batch 4 deletes batch 0's june row: a subtrahend deletion, the one
  // delta shape the difference plan refuses to maintain. The entry falls
  // back and its rebuild is deferred.
  apply_both(GraphChurnJuneBatch(cfg, 4), "june 4 (subtrahend delete)");
  query_and_check("post-fallback execution (rebuild skipped)");
  ServiceStats mid = service.stats();
  EXPECT_EQ(mid.maint_lazy_rebuilds, 1u);
  EXPECT_GE(mid.result_cache.refresh_fallbacks, 1u);

  // Next cycle: the entry (cached handle-less) is swept by the batch, and
  // the following execution rebuilds normally — proven by the entry
  // surviving the batch after *that* via a refresh.
  apply_both(GraphChurnJuneBatch(cfg, 10, /*lag=*/20), "june 10");
  query_and_check("rebuild execution");
  apply_both(GraphChurnJuneBatch(cfg, 11, /*lag=*/20), "june 11");
  query_and_check("after rebuilt handle refresh");
  EXPECT_TRUE(last.result_cache_hit);
  EXPECT_TRUE(last.result_refreshed);
  ServiceStats end = service.stats();
  EXPECT_EQ(end.maint_lazy_rebuilds, 1u) << "exactly one deferred rebuild";
  EXPECT_GT(end.result_cache.refreshes, 0u);
}

TEST(ShardedServiceTest, LazyRebuildAfterIvmFallbackSingleEngine) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  GraphChurnFixture fx_oracle = MakeGraphChurnFixture();  // Identical twin.
  BoundedEngine engine(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  BoundedEngine oracle(&fx_oracle.db, fx_oracle.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  QueryService service(&engine);
  RunLazyRebuildScenario(service, oracle, fx.cfg);
}

TEST(ShardedServiceTest, LazyRebuildAfterIvmFallbackSharded) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(2));
  ASSERT_TRUE(sharded.ok());
  QueryService service(sharded->get());
  RunLazyRebuildScenario(service, oracle, fx.cfg);
}

/// Thread stress for the TSan CI lane: concurrent scatter/gather readers
/// against per-shard delta writers on the bare engine (per-fetch
/// atomicity: answers mid-churn need only be well-formed), then full
/// convergence against a single-engine oracle at quiescence.
TEST(ShardedEngineStressTest, ConcurrentReadersAndWritersConverge) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(2));
  ASSERT_TRUE(sharded.ok());

  constexpr int kBatches = 16;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 24;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int b = 0; b < kBatches; ++b) {
      if (!(*sharded)->Apply(GraphChurnMixedBatch(fx.cfg, "stress", b)).ok()) {
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid((t * 7 + i) % 6));
        Result<ExecuteResult> r = (*sharded)->Execute(q);
        if (!r.ok()) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load(std::memory_order_relaxed));

  // Quiescent convergence: the oracle applies the same batches in the
  // writer's order; every answer must again be byte-identical.
  BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(oracle.Apply(GraphChurnMixedBatch(fx.cfg, "stress", b)).ok());
  }
  for (int i = 0; i < 6; ++i) {
    RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(i));
    Result<ExecuteResult> got = (*sharded)->Execute(q);
    Result<ExecuteResult> want = oracle.Execute(q);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ExpectRowForRowEqual(got->table, want->table,
                         "converged query " + std::to_string(i));
  }
}

/// Same storm through the sharded serving layer, where the global gate
/// restores whole-query snapshot isolation: every concurrent answer (not
/// just the quiescent ones) must be internally consistent, and the
/// five-way accounting must balance at the end.
TEST(ShardedServiceStressTest, ConcurrentServingStaysCoherent) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Result<std::unique_ptr<ShardedEngine>> sharded =
      ShardedEngine::Create(fx.db, fx.schema, MakeShardedOptions(2));
  ASSERT_TRUE(sharded.ok());
  QueryService service(sharded->get());

  constexpr int kBatches = 12;
  constexpr int kReaders = 3;
  constexpr int kReadsPerReader = 20;
  std::atomic<bool> failed{false};
  std::atomic<size_t> requests{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int b = 0; b < kBatches; ++b) {
      DeltaResponse dr =
          service.ApplyDeltas(GraphChurnMixedBatch(fx.cfg, "svcstress", b));
      if (!dr.status.ok()) failed.store(true, std::memory_order_relaxed);
    }
  });
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kReadsPerReader; ++i) {
        RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid((t * 5 + i) % 6));
        QueryResponse resp = service.Query(q);
        requests.fetch_add(1, std::memory_order_relaxed);
        if (!resp.status.ok() || resp.table == nullptr) {
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_FALSE(failed.load(std::memory_order_relaxed));

  ServiceStats s = service.stats();
  EXPECT_EQ(s.executed + s.coalesced + s.result_hits_admission +
                s.result_hits_window + s.result_hits_refreshed,
            requests.load(std::memory_order_relaxed));
  EXPECT_EQ(s.delta_batches, static_cast<uint64_t>(kBatches));
  ASSERT_EQ(s.engine_shards.size(), 2u);

  // Quiescent convergence against a fresh oracle.
  BoundedEngine oracle(&fx.db, fx.schema, RowPathOptions());
  ASSERT_TRUE(oracle.BuildIndices().ok());
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(
        oracle.Apply(GraphChurnMixedBatch(fx.cfg, "svcstress", b)).ok());
  }
  for (int i = 0; i < 6; ++i) {
    RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(i));
    QueryResponse resp = service.Query(q);
    ASSERT_TRUE(resp.status.ok());
    Result<ExecuteResult> want = oracle.Execute(q);
    ASSERT_TRUE(want.ok());
    ExpectRowForRowEqual(*resp.table, want->table,
                         "converged query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace bqe
