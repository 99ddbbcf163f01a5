// fanout: one closed-loop client repeats Example-1 Q1 over wide friend
// buckets through BoundedEngine::Execute (plan-cache hits, no result cache),
// so the executor's operators do the work. A traced run ends with a cluster
// leg that sends the same queries through a 2-shard cluster::ShardedEngine.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/sharded_engine.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/plan_exec.h"
#include "exec/physical_plan.h"
#include "workload/graph_churn.h"

namespace perfbench {
namespace {

using bqe::RaExprPtr;
using bqe::cluster::ShardedEngine;

constexpr int kSetups = 9;
constexpr size_t kExecThreads = 2;
constexpr size_t kShards = 2;
/// Closed loop: one write batch after every kReadsPerWrite reads. Writes
/// exist so that the write metrics do; perfbench/METRICS.md says why this
/// ratio.
constexpr size_t kReadsPerWrite = 10;
constexpr size_t kStreamLength = 1 << 18;
/// The requests ask about the first kQueriedPids people, so every
/// fingerprint stays in the plan cache (256).
constexpr int kQueriedPids = 200;

/// 30 friends per person: with 100, each read built about 23k
/// intermediate rows, and its tail latency followed the host's memory
/// contention more (perfbench/METRICS.md). The people no request asks
/// about bring |D| to about 80k tuples.
bqe::workload::GraphChurnConfig Config() {
  bqe::workload::GraphChurnConfig cfg;
  cfg.pids = 670;
  cfg.friends_per_pid = 30;
  cfg.cafes = 200;
  return cfg;
}

bqe::EngineOptions EngineOpts() {
  bqe::EngineOptions o;
  o.exec_threads = kExecThreads;
  return o;
}

bqe::cluster::ShardedOptions ShardedOpts() {
  bqe::cluster::ShardedOptions o;
  o.shards = kShards;
  o.slots = 256;
  o.engine.exec_threads = 1;
  o.fallback_replica = false;  // Every query in the stream is covered.
  return o;
}

/// GraphChurnMixedBatch aimed at a person no query of the stream asks
/// about, so every answer stays fixed: batch b adds a friend who dined
/// once and, from b >= lag, removes the one batch b - lag added.
std::vector<bqe::Delta> WriteBatch(const bqe::workload::GraphChurnConfig& cfg,
                                   int b) {
  constexpr int kLag = 8;
  const bqe::Value pid = bqe::Value::Str("writer");
  auto fid = [](int k) { return bqe::Value::Str("w" + std::to_string(k)); };
  auto dine = [&](int k) {
    return bqe::Tuple{fid(k), bqe::Value::Str(cfg.Cid(k)), bqe::Value::Int(5),
                      bqe::Value::Int(2015)};
  };
  std::vector<bqe::Delta> batch;
  if (b >= kLag) {
    batch.push_back(bqe::Delta::Delete("dine", dine(b - kLag)));
    batch.push_back(bqe::Delta::Delete("friend", {pid, fid(b - kLag)}));
  }
  batch.push_back(bqe::Delta::Insert("friend", {pid, fid(b)}));
  batch.push_back(bqe::Delta::Insert("dine", dine(b)));
  return batch;
}

struct Answer {
  size_t pid;
  bqe::Table table;
};

/// Every answer must equal, row for row, the row interpreter's answer on a
/// freshly generated copy of the data.
void CheckAnswers(const std::vector<RaExprPtr>& queries,
                  const std::vector<Answer>& answers, Report* report) {
  Clock::time_point t0 = Clock::now();
  bqe::workload::GraphChurnFixture fx =
      bqe::workload::MakeGraphChurnFixture(Config());
  bqe::BoundedEngine oracle(&fx.db, fx.schema, EngineOpts());
  if (!oracle.BuildIndices().ok()) {
    report->Wrong("oracle engine does not build");
    return;
  }
  std::vector<bqe::Table> row(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    bqe::Result<std::shared_ptr<const bqe::PreparedQuery>> pq =
        oracle.PrepareCompiled(queries[i]);
    bqe::Result<bqe::Table> r =
        pq.ok() ? bqe::ExecutePlanRowAtATime((*pq)->info.plan, oracle.indices())
                : bqe::Result<bqe::Table>(pq.status());
    if (!r.ok()) {
      report->Wrong("oracle fails on pid " + std::to_string(i));
      return;
    }
    row[i] = std::move(*r);
  }
  for (const Answer& a : answers) {
    if (!RowForRow(a.table, row[a.pid])) {
      report->Wrong("pid " + std::to_string(a.pid) +
                    ": differs from the row interpreter");
    }
  }
  report->Note("checked %zu answers row for row, %.1f s", answers.size(),
               SecondsSince(t0));
}

/// The traced front of one request: fingerprint, then cached preparation.
/// Returns the prepared query when it is covered; sets `bound` to its
/// plan's static access bound.
template <typename Engine>
std::shared_ptr<const bqe::PreparedQuery> TracedPrepare(const Engine& engine,
                                                        const RaExprPtr& q,
                                                        uint64_t req,
                                                        Tracer* tr,
                                                        double* bound) {
  { Span s(tr, "core.fingerprint", req); (void)bqe::BoundedEngine::QueryFingerprint(q); }
  tr->Begin("core.prepare", req);
  bqe::Result<std::shared_ptr<const bqe::PreparedQuery>> pq =
      engine.PrepareCompiled(q);
  tr->End();
  if (!pq.ok() || !(*pq)->info.covered) return nullptr;
  *bound = (*pq)->info.plan.StaticAccessBound();
  return *pq;
}

/// The cluster leg of a traced run: the fixed set (one pass over the queries)
/// through a freshly created 2-shard ShardedEngine, each answer checked row
/// for row against `single`, the run's own fixed-set answers. It is where
/// the benchmark measures the cluster layer.
void ClusterLeg(const bqe::workload::GraphChurnFixture& fx,
                const std::vector<RaExprPtr>& queries,
                const std::vector<bqe::Table>& single, Tracer* tr,
                Report* report) {
  Clock::time_point c0 = Clock::now();
  bqe::Result<std::unique_ptr<ShardedEngine>> made =
      ShardedEngine::Create(fx.db, fx.schema, ShardedOpts());
  double create_s = SecondsSince(c0);
  if (!made.ok()) {
    report->Wrong("ShardedEngine::Create: " + made.status().ToString());
    return;
  }
  const ShardedEngine& cluster = **made;
  for (const RaExprPtr& q : queries) (void)cluster.Execute(q);  // Warm-up.
  std::vector<uint64_t> tasks(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    tasks[s] = cluster.shard_stats(s).scatter_tasks;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    double bound = 0;
    tr->Begin("request", i);
    std::shared_ptr<const bqe::PreparedQuery> pq =
        TracedPrepare(cluster, queries[i], i, tr, &bound);
    bqe::Result<bqe::ExecuteResult> r = bqe::Status::Internal("not covered");
    if (pq != nullptr) {
      Span s(tr, "cluster.execute", i);
      r = cluster.ExecutePrepared(*pq);
    }
    tr->End();
    report->Attempt(r.ok(), "cluster-leg read");
    if (r.ok() && !RowForRow(r->table, single[i])) {
      report->Wrong("pid " + std::to_string(i) +
                    ": cluster answer differs from the single engine");
    }
  }
  uint64_t total = 0, hi = 0, lo = UINT64_MAX;
  for (size_t s = 0; s < kShards; ++s) {
    uint64_t d = cluster.shard_stats(s).scatter_tasks - tasks[s];
    total += d;
    hi = std::max(hi, d);
    lo = std::min(lo, d);
  }
  report->Set("cluster.create_s", create_s);
  report->Set("cluster.execute_us",
              tr->PerRequestUs("cluster.execute", queries.size()));
  report->Set("cluster.scatter_tasks_per_exec", Ratio(total, queries.size()));
  report->Set("cluster.shard_skew", Ratio(hi, lo));
}

}  // namespace

void RunFanout(const RunOptions& opts, Report* report) {
  bqe::workload::GraphChurnConfig cfg = Config();
  bqe::workload::GraphChurnFixture fx = bqe::workload::MakeGraphChurnFixture(cfg);
  size_t db_tuples = fx.db.TotalTuples();
  std::vector<RaExprPtr> queries;
  for (int p = 0; p < kQueriedPids; ++p) {
    queries.push_back(bqe::workload::FriendsNycCafesQuery(cfg.Pid(p)));
  }
  bqe::Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<size_t> stream(kStreamLength);
  for (size_t& p : stream) p = rng.PickIndex(queries.size());
  std::vector<std::vector<bqe::Delta>> batches(kStreamLength / kReadsPerWrite);
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b] = WriteBatch(cfg, static_cast<int>(b));
  }
  report->Note(
      "fanout: |D|=%zu tuples, %zu constraints, %d pids x %d friends, %d "
      "of them queried; 1 closed-loop client (a write after every %zu "
      "reads), engine exec_threads=%zu",
      db_tuples, fx.schema.size(), cfg.pids, cfg.friends_per_pid,
      kQueriedPids, kReadsPerWrite, kExecThreads);

  std::unique_ptr<bqe::BoundedEngine> engine;
  HostSpeed speed;
  std::vector<double> setups, builds;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    SetupTimer timer(&speed);
    engine = std::make_unique<bqe::BoundedEngine>(&fx.db, fx.schema, EngineOpts());
    bqe::Status st = engine->BuildIndices();
    builds.push_back(timer.Stop());
    setups.push_back(timer.rescaled());
    if (!st.ok()) {
      std::fprintf(stderr, "BuildIndices: %s\n", st.ToString().c_str());
      return;
    }
  }
  for (const RaExprPtr& q : queries) (void)engine->Execute(q);  // Warm-up.
  double ready_rss_mb = PeakRssMb();

  std::vector<Answer> answers;
  LatencyLog reads, writes;
  double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  size_t next = 0;
  Clock::time_point w0 = Clock::now();
  while (SecondsSince(w0) < window && next < stream.size()) {
    size_t pid = stream[next++];
    Clock::time_point r0 = Clock::now();
    bqe::Result<bqe::ExecuteResult> r = engine->Execute(queries[pid]);
    reads.Add(MicrosBetween(r0, Clock::now()));
    speed.MaybeProbe();
    report->Attempt(r.ok(), "fanout read");
    if (r.ok()) answers.push_back(Answer{pid, std::move(r->table)});
    if (next % kReadsPerWrite == 0) {
      Clock::time_point a0 = Clock::now();
      bool ok = engine->Apply(batches[next / kReadsPerWrite - 1]).ok();
      writes.Add(MicrosBetween(a0, Clock::now()));
      report->Attempt(ok, "fanout write");
    }
  }

  if (!opts.trace) {
    report->SetEndToEnd(setups, reads, 1, writes, ready_rss_mb, speed);
    engine.reset();
    CheckAnswers(queries, answers, report);
    return;
  }

  // Traced half. The fixed set is one pass over the queries in order; its
  // access counts are exact for a given build.
  Tracer tr;
  ExecAccount acct(db_tuples);
  LatencyLog traced;
  std::vector<bqe::Table> fixed_answers;
  size_t fixed = queries.size();
  bqe::ExecOptions eo;
  eo.per_op_timing = true;
  eo.num_threads = kExecThreads;
  eo.row_path_threshold = bqe::EngineOptions{}.row_path_threshold;
  Clock::time_point w1 = Clock::now();
  for (size_t i = 0; i < fixed || SecondsSince(w1) < window; ++i) {
    size_t pid = i < fixed ? i : stream[next++ % stream.size()];
    bqe::ExecStats st;
    double bound = 0;
    tr.Begin("request", i);
    std::shared_ptr<const bqe::PreparedQuery> pq =
        TracedPrepare(*engine, queries[pid], i, &tr, &bound);
    bqe::Result<bqe::Table> t = bqe::Status::Internal("not covered");
    if (pq != nullptr) {
      Span s(&tr, "exec.execute", i);
      t = bqe::ExecutePhysicalPlan(*pq->physical, &st, eo);
    }
    traced.Add(tr.End());
    report->Attempt(t.ok(), "fanout traced request");
    if (!t.ok()) continue;
    if (i < fixed) {
      fixed_answers.push_back(*t);
      if (!acct.Add(st, bound)) {
        report->Wrong("pid " + std::to_string(pid) +
                      " fetched more than its static bound");
      }
    }
    answers.push_back(Answer{pid, std::move(*t)});
  }
  uint64_t n = traced.size();
  report->Set("core.fingerprint_us", tr.PerRequestUs("core.fingerprint", n));
  report->Set("exec.execute_us", tr.PerRequestUs("exec.execute", n));
  report->Set("constraints.build_s", Quantile(builds, 0.25));
  acct.Fill(report);
  bqe::PlanCacheStats pc = engine->plan_cache_stats();
  report->Set("core.plan_cache_hit_ratio", Ratio(pc.hits, pc.hits + pc.misses));
  report->Set("constraints.entries_per_tuple",
              Ratio(engine->IndexFootprint(), db_tuples));
  report->Set("trace.overhead_us", traced.P50() - reads.P50());
  if (fixed_answers.size() == fixed) {
    Tracer leg;
    ClusterLeg(fx, queries, fixed_answers, &leg, report);
    tr.Merge(leg);
  }
  WriteTrace(opts, tr, n, report);
  engine.reset();
  CheckAnswers(queries, answers, report);
}

}  // namespace perfbench
