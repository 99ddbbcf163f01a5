// hot_churn: two closed-loop clients read a Zipf-skewed working set of
// Example-1 queries through QueryService while one open-loop writer submits
// delta batches on a fixed schedule. Serving, IVM refresh and constraint
// maintenance do the work; planning does none.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/engine.h"
#include "exec/physical_plan.h"
#include "serve/query_service.h"
#include "workload/graph_churn.h"

namespace perfbench {
namespace {

using bqe::RaExprPtr;

constexpr int kSetups = 9;
constexpr int kClients = 2;
constexpr size_t kDispatchers = 2;
constexpr int kWorkingPids = 32;  // Two queries each: 64 fingerprints.
constexpr double kWritePeriodUs = 25000;
constexpr int kJuneLag = 4;
constexpr size_t kStreamLength = 1 << 20;

/// The working set's people hold 1/32 of D: set-up builds indices over
/// data the reads never touch, and |D| is large enough for its time to be
/// steady.
bqe::workload::GraphChurnConfig Config() {
  bqe::workload::GraphChurnConfig cfg;
  cfg.pids = 1024;
  cfg.friends_per_pid = 20;
  cfg.cafes = 200;
  return cfg;
}

/// GraphChurnJuneBatch cycled over the working set's friends, so june churn
/// keeps landing on the difference queries' subtrahends however long the
/// run: batch b gives friend b mod M a june visit and takes back the visit
/// of batch b - lag (never a duplicate row, since M > lag).
std::vector<bqe::Delta> JuneBatch(const bqe::workload::GraphChurnConfig& cfg,
                                  int b) {
  const int m = kWorkingPids * cfg.friends_per_pid;
  auto row = [&](int k) {
    return bqe::Tuple{bqe::Value::Str(cfg.Fid(k % m)), bqe::Value::Str(cfg.Cid(k)),
                      bqe::Value::Int(6), bqe::Value::Int(2015)};
  };
  std::vector<bqe::Delta> batch;
  if (b >= kJuneLag) batch.push_back(bqe::Delta::Delete("dine", row(b - kJuneLag)));
  batch.push_back(bqe::Delta::Insert("dine", row(b)));
  return batch;
}

/// The writer's schedule: batch i is due at i * kWritePeriodUs, alternating
/// GraphChurnMixedBatch over the working set's people and the june churn
/// above.
std::vector<std::vector<bqe::Delta>> WriterBatches(
    const bqe::workload::GraphChurnConfig& cfg, double seconds) {
  bqe::workload::GraphChurnConfig working = cfg;
  working.pids = kWorkingPids;
  size_t n = static_cast<size_t>(seconds * 1e6 / kWritePeriodUs);
  std::vector<std::vector<bqe::Delta>> out;
  for (size_t i = 0; i < n; ++i) {
    int b = static_cast<int>(i / 2);
    out.push_back(i % 2 == 0
                      ? bqe::workload::GraphChurnMixedBatch(working, "w", b)
                      : JuneBatch(cfg, b));
  }
  return out;
}

bqe::Table FreshlyPreparedAnswer(const bqe::BoundedEngine& engine,
                                 const RaExprPtr& q, bqe::ExecStats* st,
                                 double* bound, bool* ok) {
  *ok = false;
  bqe::Result<bqe::PrepareInfo> info = engine.Prepare(q);
  if (!info.ok() || !info->covered) return bqe::Table();
  bqe::Result<bqe::PhysicalPlan> pp =
      bqe::PhysicalPlan::Compile(info->plan, engine.indices());
  if (!pp.ok()) return bqe::Table();
  bqe::ExecOptions eo;
  eo.per_op_timing = true;
  bqe::Result<bqe::Table> t = bqe::ExecutePhysicalPlan(*pp, st, eo);
  if (!t.ok()) return bqe::Table();
  *bound = info->plan.StaticAccessBound();
  *ok = true;
  return std::move(*t);
}

struct ClientResult {
  LatencyLog untraced, traced;
  Tracer tracer;
  uint64_t attempted = 0, failed = 0;
};

}  // namespace

void RunHotChurn(const RunOptions& opts, Report* report) {
  bqe::workload::GraphChurnConfig cfg = Config();
  bqe::workload::GraphChurnFixture fx = bqe::workload::MakeGraphChurnFixture(cfg);
  size_t db_tuples = fx.db.TotalTuples();
  std::vector<RaExprPtr> queries;
  for (int p = 0; p < kWorkingPids; ++p) {
    queries.push_back(bqe::workload::FriendsNycCafesQuery(cfg.Pid(p)));
    queries.push_back(bqe::workload::FriendsMayNotJuneCafesQuery(cfg.Pid(p)));
  }
  // Zipf over popularity ranks. The seed decides which person has which
  // pair of ranks; even ranks are the join query and odd ranks its
  // difference, so every seed reads the same mix of query shapes.
  bqe::Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<size_t> people(kWorkingPids);
  for (size_t i = 0; i < people.size(); ++i) people[i] = i;
  rng.Shuffle(&people);
  std::vector<size_t> by_rank(queries.size());
  for (size_t r = 0; r < by_rank.size(); ++r) {
    by_rank[r] = 2 * people[r / 2] + r % 2;
  }
  std::vector<std::vector<size_t>> streams(kClients,
                                           std::vector<size_t>(kStreamLength));
  for (std::vector<size_t>& s : streams) {
    for (size_t& q : s) {
      q = by_rank[static_cast<size_t>(
          rng.Skewed(static_cast<int64_t>(queries.size())))];
    }
  }
  std::vector<std::vector<bqe::Delta>> batches = WriterBatches(cfg, opts.seconds);

  bqe::EngineOptions eopts;
  eopts.exec_threads = 1;
  bqe::serve::ServiceOptions sopts;
  sopts.shards = kDispatchers;
  sopts.exec_threads = 1;
  report->Note(
      "hot_churn: |D|=%zu tuples, %zu constraints; working set %zu "
      "fingerprints (plan cache %zu, pin map %zu, result cache %zu MiB); %d "
      "closed-loop clients; open-loop writer, one batch per %.0f us (%zu "
      "batches); service shards=%zu exec_threads=1, engine exec_threads=1",
      db_tuples, fx.schema.size(), queries.size(),
      bqe::EngineOptions{}.plan_cache_capacity, sopts.pin_capacity,
      sopts.result_cache_bytes >> 20, kClients, kWritePeriodUs, batches.size(),
      kDispatchers);

  std::unique_ptr<bqe::BoundedEngine> engine;
  std::unique_ptr<bqe::serve::QueryService> service;
  HostSpeed speed;
  std::vector<double> setups, builds;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    engine.reset();
    SetupTimer timer(&speed);
    Clock::time_point s0 = Clock::now();
    engine = std::make_unique<bqe::BoundedEngine>(&fx.db, fx.schema, eopts);
    bqe::Status st = engine->BuildIndices();
    builds.push_back(SecondsSince(s0));
    if (!st.ok()) {
      std::fprintf(stderr, "BuildIndices: %s\n", st.ToString().c_str());
      return;
    }
    service = std::make_unique<bqe::serve::QueryService>(engine.get(), sopts);
    timer.Stop();
    setups.push_back(timer.rescaled());
  }
  for (const RaExprPtr& q : queries) (void)service->Query(q);  // Warm-up.
  double ready_rss_mb = PeakRssMb();
  bqe::serve::ServiceStats before = service->stats();

  // A traced run traces the second half of the window.
  const double window = opts.seconds;
  const double traced_from = opts.trace ? window / 2 : window;
  Clock::time_point w0 = Clock::now();
  std::vector<ClientResult> clients(kClients);
  std::vector<std::thread> threads;
  // Joins the readers on every way out of this scope, exceptions included.
  struct JoinAll {
    std::vector<std::thread>* threads;
    ~JoinAll() {
      for (std::thread& t : *threads) {
        if (t.joinable()) t.join();
      }
    }
  } join_all{&threads};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& me = clients[static_cast<size_t>(c)];
      // Reserved up front: a log reallocating mid-run would make the peak
      // RSS depend on when it happened to grow.
      me.untraced.Reserve(kStreamLength);
      me.traced.Reserve(opts.trace ? kStreamLength : 0);
      const std::vector<size_t>& stream = streams[static_cast<size_t>(c)];
      for (size_t k = 0;; ++k) {
        double t = SecondsSince(w0);
        if (t >= window) break;
        const RaExprPtr& q = queries[stream[k % stream.size()]];
        bool ok = false;
        if (t < traced_from) {
          Clock::time_point r0 = Clock::now();
          bqe::serve::QueryResponse r = service->Query(q);
          me.untraced.Add(MicrosBetween(r0, Clock::now()));
          ok = r.status.ok() && r.table != nullptr;
        } else {
          Tracer* tr = &me.tracer;
          tr->Begin("request", k);
          {
            Span s(tr, "core.fingerprint", k);
            (void)bqe::BoundedEngine::QueryFingerprint(q);
          }
          tr->Begin("serve.query", k);
          bqe::serve::QueryResponse r = service->Query(q);
          tr->End();
          me.traced.Add(tr->End());
          ok = r.status.ok() && r.table != nullptr;
        }
        ++me.attempted;
        if (!ok) ++me.failed;
      }
    });
  }
  LatencyLog writes, late;
  uint64_t writes_failed = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    Clock::time_point due =
        w0 + std::chrono::microseconds(static_cast<int64_t>(
                 static_cast<double>(i) * kWritePeriodUs));
    std::this_thread::sleep_until(due);
    late.Add(MicrosBetween(due, Clock::now()));
    bqe::serve::DeltaResponse r = service->ApplyDeltas(batches[i]);
    writes.Add(MicrosBetween(due, Clock::now()));
    if (!r.status.ok()) ++writes_failed;
    // The writer is the one thread that probes the host: it idles between
    // batches, so the probe takes no core from the readers.
    speed.MaybeProbe();
  }
  for (std::thread& t : threads) t.join();
  bqe::serve::ServiceStats ss = service->stats();

  LatencyLog reads, traced;
  Tracer tr;
  for (ClientResult& c : clients) {
    reads.Append(c.untraced);
    traced.Append(c.traced);
    tr.Merge(c.tracer);
    report->AddAttempts(c.attempted, c.failed, "hot_churn read");
  }
  report->AddAttempts(batches.size(), writes_failed, "hot_churn write");
  if (!opts.trace) {
    report->SetEndToEnd(setups, reads, kClients, writes, ready_rss_mb, speed);
  }

  // The writer has quiesced: every working-set answer must equal a freshly
  // prepared plan's. The same executions are the traced run's fixed set.
  ExecAccount acct(db_tuples);
  for (size_t i = 0; i < queries.size(); ++i) {
    bqe::serve::QueryResponse r = service->Query(queries[i]);
    bqe::ExecStats st;
    double bound = 0;
    bool ok = false;
    bqe::Table fresh = FreshlyPreparedAnswer(*engine, queries[i], &st, &bound, &ok);
    report->Attempt(r.status.ok() && r.table != nullptr, "hot_churn check read");
    if (!ok || r.table == nullptr || !SameBag(*r.table, fresh)) {
      report->Wrong("working-set query " + std::to_string(i) +
                    " differs from a freshly prepared plan");
    }
    if (ok && !acct.Add(st, bound)) {
      report->Wrong("working-set query " + std::to_string(i) +
                    " fetched more than its static bound");
    }
  }
  report->Note("checked %zu working-set answers after the writer quiesced",
               queries.size());
  if (!opts.trace) return;

  uint64_t reads_total = 0;
  for (const ClientResult& c : clients) reads_total += c.attempted;
  report->Set("core.fingerprint_us",
              tr.PerRequestUs("core.fingerprint", traced.size()));
  acct.Fill(report);
  bqe::PlanCacheStats pc = engine->plan_cache_stats();
  report->Set("core.plan_cache_hit_ratio", Ratio(pc.hits, pc.hits + pc.misses));
  const bqe::serve::ResultCacheStats& rc = ss.result_cache;
  uint64_t attempts = rc.refreshes + rc.refresh_fallbacks;
  report->Set("exec.ivm.refresh_us",
              Ratio(rc.refresh_classify_us + rc.refresh_propagate_us +
                        rc.refresh_patch_us,
                    attempts));
  report->Set("exec.ivm.fallback_ratio", Ratio(rc.refresh_fallbacks, attempts));
  report->Set("constraints.build_s", Quantile(builds, 0.25));
  report->Set("constraints.entries_per_tuple",
              Ratio(engine->IndexFootprint(), db_tuples));
  report->Set("constraints.mirror_freezes", ss.freezes - before.freezes);
  report->Set("serve.result_hit_ratio",
              Ratio(ss.result_hits_admission + ss.result_hits_window +
                        ss.result_hits_refreshed -
                        (before.result_hits_admission +
                         before.result_hits_window +
                         before.result_hits_refreshed),
                    reads_total));
  report->Set("serve.coalesced_ratio",
              Ratio(ss.coalesced - before.coalesced, reads_total));
  report->Set("serve.pin_hit_ratio", Ratio(ss.pin_hits - before.pin_hits,
                                           ss.executed - before.executed));
  report->Set("serve.writer_late_us", late.Mean());
  report->Set("trace.overhead_us", traced.P50() - reads.P50());

  // The same batch stream applied straight to a twin engine.
  service.reset();
  engine.reset();
  bqe::workload::GraphChurnFixture twin_fx =
      bqe::workload::MakeGraphChurnFixture(cfg);
  bqe::BoundedEngine twin(&twin_fx.db, twin_fx.schema, eopts);
  if (twin.BuildIndices().ok()) {
    double total_us = 0;
    for (const std::vector<bqe::Delta>& b : batches) {
      Clock::time_point a0 = Clock::now();
      bool ok = twin.Apply(b).ok();
      total_us += MicrosBetween(a0, Clock::now());
      if (!ok) report->Wrong("twin engine rejects a writer batch");
    }
    report->Set("constraints.apply_us", Ratio(total_us, batches.size()));
  }
  WriteTrace(opts, tr, traced.size(), report);
}

}  // namespace perfbench
