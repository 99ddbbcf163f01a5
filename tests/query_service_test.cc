#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "workload/graph_churn.h"

namespace bqe {
namespace {

using serve::DeltaResponse;
using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceStats;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnBatch;
using workload::GraphChurnFixture;
using workload::MakeGraphChurnFixture;

EngineOptions DeterministicOptions() {
  EngineOptions opts;
  opts.exec_threads = 1;
  opts.row_path_threshold = 0;
  return opts;
}

void ExpectRowForRowEqual(const Table& got, const Table& want,
                          const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  for (size_t r = 0; r < got.rows().size(); ++r) {
    ASSERT_EQ(got.rows()[r], want.rows()[r]) << context << " row " << r;
  }
}

/// Exact multiset equality, order-free: an IVM-refreshed table keeps its
/// surviving rows in place and appends net additions, so its row order
/// legitimately differs from a fresh execution's.
void ExpectSameBag(const Table& got, const Table& want,
                   const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  std::vector<Tuple> g = got.rows(), w = want.rows();
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(g, w) << context;
}

TEST(QueryServiceTest, AnswersMatchDirectExecution) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  for (int i = 0; i < 6; ++i) {
    RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(i));
    QueryResponse resp = service.Query(q);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_NE(resp.table, nullptr);
    EXPECT_TRUE(resp.used_bounded_plan);
    Result<ExecuteResult> direct = engine.Execute(q);
    ASSERT_TRUE(direct.ok());
    ExpectRowForRowEqual(*resp.table, direct->table,
                         "query " + std::to_string(i));
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.executed, 6u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(QueryServiceTest, CoalescesSameFingerprintRequests) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.shards = 1;         // One dispatcher: a single deterministic chunk.
  opts.batch_window = 32;  // Large enough to drain everything queued below.
  opts.adaptive_batch_window = false;  // Fixed window: exact batch counts.
  opts.start_paused = true;
  QueryService service(&engine, opts);

  RaExprPtr hot = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(service.Submit(hot));
  futures.push_back(service.Submit(FriendsNycCafesQuery(fx.cfg.Pid(1))));
  futures.push_back(service.Submit(FriendsNycCafesQuery(fx.cfg.Pid(2))));
  service.Start();

  std::vector<QueryResponse> responses;
  for (std::future<QueryResponse>& f : futures) responses.push_back(f.get());
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_NE(r.table, nullptr);
  }
  // One execution for the 10-way hot group, one each for the others; the
  // hot group's followers share the leader's immutable table.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.coalesced, 9u);
  EXPECT_EQ(stats.batches, 1u);
  int hot_coalesced = 0;
  for (int i = 0; i < 10; ++i) {
    if (responses[static_cast<size_t>(i)].coalesced) ++hot_coalesced;
    EXPECT_EQ(responses[static_cast<size_t>(i)].table, responses[0].table);
  }
  EXPECT_EQ(hot_coalesced, 9);
  EXPECT_FALSE(responses[10].coalesced);
  EXPECT_FALSE(responses[11].coalesced);
}

TEST(QueryServiceTest, DeltasApplyThroughServiceAndAreVisible) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(3));
  QueryResponse before = service.Query(q);
  ASSERT_TRUE(before.status.ok());

  // GraphChurnBatch(b) adds one friend of Pid(b % pids) dining at Cid(b):
  // batch 3 targets Pid(3), and Cid(b) is "nyc" for b % 3 == 0.
  DeltaResponse applied = service.ApplyDeltas(GraphChurnBatch(fx.cfg, "qd", 3));
  ASSERT_TRUE(applied.status.ok()) << applied.status.ToString();
  EXPECT_EQ(applied.stats.inserts, 2u);

  QueryResponse after = service.Query(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.table->NumRows(), before.table->NumRows() + 1);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.delta_batches, 1u);
  EXPECT_EQ(stats.deltas_applied, 2u);
  EXPECT_EQ(engine.DataEpoch(), 1u);
}

TEST(QueryServiceTest, PinnedServingAcrossDataOnlyChurnNeverReprepares) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  // Refresh off: every delta batch sweeps the result cache, so each
  // post-batch read re-executes — which is the point here: prove those
  // re-executions ride the pinned plans without a single re-prepare. (With
  // refresh on they would be cache hits and never touch a pin at all.)
  opts.result_cache_refresh = false;
  QueryService service(&engine, opts);

  std::vector<RaExprPtr> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(FriendsNycCafesQuery(fx.cfg.Pid(i)));
  for (const RaExprPtr& q : queries) ASSERT_TRUE(service.Query(q).status.ok());
  ServiceStats warm = service.stats();
  EXPECT_EQ(warm.repins, 4u);  // One PrepareCompiled per fingerprint, ever.

  for (int b = 0; b < 25; ++b) {
    ASSERT_TRUE(service.ApplyDeltas(GraphChurnBatch(fx.cfg, "pc", b)).status.ok());
    for (const RaExprPtr& q : queries) {
      QueryResponse r = service.Query(q);
      ASSERT_TRUE(r.status.ok());
      EXPECT_TRUE(r.pin_hit) << "batch " << b;
    }
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.engine.reprepares, 0u);
  EXPECT_EQ(stats.engine.misses, warm.engine.misses)
      << "data-only churn must not re-enter the plan cache";
  EXPECT_EQ(stats.repins, 4u);
  EXPECT_EQ(stats.coalesced, 0u);  // Serial blocking client: no batching.
  EXPECT_EQ(stats.pin_hits, 4u * 25u);
  // Refresh disabled: every batch eagerly swept the 4 entries cached since
  // the previous batch, and nothing was ever patched.
  EXPECT_EQ(stats.result_cache.evicted_stale, 4u * 25u);
  EXPECT_EQ(stats.result_cache.refreshes, 0u);
  EXPECT_EQ(stats.result_cache.invalidations, 0u)
      << "the eager sweep must beat the lazy lookup-time drop";
}

TEST(QueryServiceTest, TrySubmitLoadShedsWhenQueueFull) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.queue_capacity = 2;
  opts.start_paused = true;  // Nothing drains: the queue genuinely fills.
  QueryService service(&engine, opts);

  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::future<QueryResponse> f1 = service.TrySubmit(q);
  std::future<QueryResponse> f2 = service.TrySubmit(q);
  std::future<QueryResponse> shed = service.TrySubmit(q);
  QueryResponse shed_resp = shed.get();  // Resolves immediately.
  EXPECT_FALSE(shed_resp.status.ok());
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().queue_depth, 2u);

  // Shutdown answers what was admitted before closing.
  service.Shutdown();
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

TEST(QueryServiceTest, SubmitAfterShutdownResolvesWithError) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);
  service.Shutdown();
  QueryResponse resp = service.Query(FriendsNycCafesQuery(fx.cfg.Pid(0)));
  EXPECT_FALSE(resp.status.ok());
  DeltaResponse dresp = service.ApplyDeltas(GraphChurnBatch(fx.cfg, "sd", 0));
  EXPECT_FALSE(dresp.status.ok());
  EXPECT_EQ(service.stats().rejected, 2u);
}

TEST(QueryServiceTest, LoadShedReturnsResourceExhausted) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.queue_capacity = 1;
  opts.start_paused = true;  // Nothing drains: the queue genuinely fills.
  QueryService service(&engine, opts);

  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::future<QueryResponse> admitted = service.TrySubmit(q);
  QueryResponse shed = service.TrySubmit(q).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  service.Shutdown();
  EXPECT_TRUE(admitted.get().status.ok());
}

TEST(QueryServiceTest, EverySubmitAfterShutdownReturnsUnavailable) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);
  service.Shutdown();
  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  QueryResponse sub = service.Submit(q).get();
  EXPECT_EQ(sub.status.code(), StatusCode::kUnavailable) << sub.status.ToString();
  QueryResponse try_sub = service.TrySubmit(q).get();
  EXPECT_EQ(try_sub.status.code(), StatusCode::kUnavailable)
      << try_sub.status.ToString();
  DeltaResponse deltas =
      service.SubmitDeltas(GraphChurnBatch(fx.cfg, "un", 0)).get();
  EXPECT_EQ(deltas.status.code(), StatusCode::kUnavailable)
      << deltas.status.ToString();
}

// ------------------------------------------------ adaptive batch window ---

TEST(BatchWindowControllerTest, NoGapSignalReportsMaxWindow) {
  serve::BatchWindowController c(/*max_window=*/32, /*horizon_us=*/250.0);
  EXPECT_EQ(c.Window(), 32u);  // No arrivals at all.
  c.RecordArrival(1000);
  EXPECT_EQ(c.Window(), 32u);  // One arrival: still no gap sample.
}

TEST(BatchWindowControllerTest, BurstTrafficSaturatesAtMaxWindow) {
  serve::BatchWindowController c(32, 250.0);
  // Back-to-back arrivals (1µs apart): the window should cover the whole
  // cap — maximal coalescing per drain.
  uint64_t t = 0;
  for (int i = 0; i < 50; ++i) c.RecordArrival(t += 1);
  EXPECT_EQ(c.Window(), 32u);
}

TEST(BatchWindowControllerTest, SparseTrafficCollapsesToOne) {
  serve::BatchWindowController c(32, 250.0);
  // Arrivals 10ms apart: far beyond the horizon, a lone request must not
  // wait on a wide drain.
  uint64_t t = 0;
  for (int i = 0; i < 10; ++i) c.RecordArrival(t += 10'000);
  EXPECT_EQ(c.Window(), 1u);
}

TEST(BatchWindowControllerTest, SteadyRateTracksHorizonOverGap) {
  serve::BatchWindowController c(64, 250.0);
  // 50µs steady gaps -> the EWMA converges to 50 and the window to
  // horizon / gap = 5.
  uint64_t t = 0;
  for (int i = 0; i < 100; ++i) c.RecordArrival(t += 50);
  EXPECT_EQ(c.Window(), 5u);
}

TEST(BatchWindowControllerTest, DrainTimeWidensTheHorizon) {
  serve::BatchWindowController c(64, 250.0);
  // 500µs gaps against the 250µs minimum horizon: window collapses to 1...
  uint64_t t = 0;
  for (int i = 0; i < 100; ++i) c.RecordArrival(t += 500);
  EXPECT_EQ(c.Window(), 1u);
  // ...but once chunks are observed to take 8ms to process, the batching
  // law says a drain should cover 8ms of arrivals: 8000 / 500 = 16.
  for (int i = 0; i < 100; ++i) c.RecordDrain(8000.0);
  EXPECT_EQ(c.Window(), 16u);
}

TEST(BatchWindowControllerTest, ReCentersAfterWorkloadShift) {
  serve::BatchWindowController c(32, 250.0);
  uint64_t t = 0;
  for (int i = 0; i < 100; ++i) c.RecordArrival(t += 10'000);  // Sparse.
  EXPECT_EQ(c.Window(), 1u);
  for (int i = 0; i < 100; ++i) c.RecordArrival(t += 2);  // Burst begins.
  EXPECT_EQ(c.Window(), 32u);  // EWMA re-centered within the burst.
}

TEST(QueryServiceTest, AdaptiveWindowSurfacesInStatsAndStaysCorrect) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.batch_window = 16;  // The adaptive ceiling.
  QueryService service(&engine, opts);  // adaptive_batch_window defaults on.

  for (int i = 0; i < 8; ++i) {
    RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(i % 4));
    QueryResponse resp = service.Query(q);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    Result<ExecuteResult> direct = engine.Execute(q);
    ASSERT_TRUE(direct.ok());
    ExpectRowForRowEqual(*resp.table, direct->table,
                         "adaptive query " + std::to_string(i));
  }
  ServiceStats stats = service.stats();
  // 4 distinct fingerprints asked twice each: the second round is absorbed
  // by the result cache at admission (serial client, no deltas), so only
  // the first round was ever admitted.
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.result_hits_admission, 4u);
  EXPECT_EQ(stats.admitted + stats.result_hits_admission, 8u);
  EXPECT_GE(stats.batch_window, 1u);
  EXPECT_LE(stats.batch_window, 16u);
}

// ------------------------------------------------------ result cache ---

TEST(QueryServiceTest, ResultCacheAndCoalescingInterplay) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.shards = 1;
  opts.batch_window = 32;
  opts.adaptive_batch_window = false;
  opts.start_paused = true;
  QueryService service(&engine, opts);

  // Cold cache: six same-fingerprint submissions all queue (no admission
  // hit), then drain as ONE chunk — one execution, five coalesced.
  RaExprPtr hot = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit(hot));
  EXPECT_EQ(service.stats().result_hits_admission, 0u);
  service.Start();
  std::vector<QueryResponse> first;
  for (std::future<QueryResponse>& f : futures) first.push_back(f.get());
  for (const QueryResponse& r : first) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_FALSE(r.result_cache_hit);
    EXPECT_EQ(r.table, first[0].table);  // Shared immutable table.
  }

  // Warm cache, no delta since: five more submissions resolve at admission
  // — never admitted, never executed, not coalesced — and share the very
  // table the leader execution inserted.
  for (int i = 0; i < 5; ++i) {
    QueryResponse r = service.Query(hot);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.result_cache_hit);
    EXPECT_FALSE(r.coalesced);
    EXPECT_EQ(r.table, first[0].table);
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.coalesced, 5u);
  EXPECT_EQ(stats.result_hits_admission, 5u);
  EXPECT_EQ(stats.result_cache.insertions, 1u);
  EXPECT_EQ(stats.result_cache.hits, 5u);
  EXPECT_EQ(stats.result_cache.entries, 1u);
  EXPECT_GT(stats.result_cache.bytes, 0u);
}

TEST(QueryServiceTest, ResultCacheWindowHitSkipsDuplicateExecution) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  opts.shards = 1;
  opts.batch_window = 1;  // Every request is its own chunk.
  opts.adaptive_batch_window = false;
  opts.start_paused = true;
  QueryService service(&engine, opts);

  // Both requests are admitted while the cache is cold (paused service), so
  // neither resolves at admission; the first chunk executes and inserts,
  // and the second chunk's dispatcher finds the entry at dispatch time.
  RaExprPtr hot = FriendsNycCafesQuery(fx.cfg.Pid(0));
  std::future<QueryResponse> f1 = service.Submit(hot);
  std::future<QueryResponse> f2 = service.Submit(hot);
  service.Start();
  QueryResponse r1 = f1.get();
  QueryResponse r2 = f2.get();
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_FALSE(r1.result_cache_hit);
  EXPECT_TRUE(r2.result_cache_hit);
  EXPECT_EQ(r1.table, r2.table);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.result_hits_window, 1u);
  EXPECT_EQ(stats.result_hits_admission, 0u);
}

TEST(QueryServiceTest, DeltaBatchRefreshesCachedResultInPlace) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(3));
  QueryResponse miss = service.Query(q);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.result_cache_hit);
  QueryResponse hit = service.Query(q);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.result_cache_hit);
  EXPECT_FALSE(hit.result_refreshed);
  EXPECT_EQ(hit.table, miss.table);

  // Handles are reuse-promoted: the first execution cached without one, so
  // batch 2 (touching Pid(2), not this query's answer) sweeps the entry
  // and the next read re-executes — *that* execution resolves its pin from
  // the map and retains the maintenance handle.
  ASSERT_TRUE(service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rc", 2)).status.ok());
  QueryResponse repop = service.Query(q);
  ASSERT_TRUE(repop.status.ok());
  EXPECT_FALSE(repop.result_cache_hit);
  EXPECT_EQ(repop.table->NumRows(), miss.table->NumRows());

  // Batch 3 adds a new nyc dining friend of Pid(3): the data epoch moves,
  // and IVM patches the cached entry inside the batch's own gate hold —
  // the next read is a *refreshed cache hit* already carrying the new row,
  // with no re-execution anywhere. (Before IVM this was an invalidation
  // plus a full recompute.)
  ASSERT_TRUE(service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rc", 3)).status.ok());
  QueryResponse after = service.Query(q);
  ASSERT_TRUE(after.status.ok());
  EXPECT_TRUE(after.result_cache_hit);
  EXPECT_TRUE(after.result_refreshed);
  ASSERT_NE(after.table, nullptr);
  EXPECT_EQ(after.table->NumRows(), miss.table->NumRows() + 1);
  Result<ExecuteResult> direct = engine.Execute(q);
  ASSERT_TRUE(direct.ok());
  ExpectSameBag(*after.table, direct->table, "refreshed hit vs recompute");

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.executed, 2u);  // The populate + the promoting re-execute.
  EXPECT_EQ(stats.result_hits_refreshed, 1u);
  EXPECT_EQ(stats.result_cache.refreshes, 1u);
  EXPECT_EQ(stats.result_cache.refresh_fallbacks, 0u);
  EXPECT_GE(stats.result_cache.refreshed_rows, 1u);
  EXPECT_EQ(stats.result_cache.evicted_stale, 1u);  // The unpromoted entry.
  EXPECT_EQ(stats.result_cache.invalidations, 0u);
  EXPECT_EQ(stats.data_epoch, 2u);
}

TEST(QueryServiceTest, SubtrahendDeleteFallsBackToRecompute) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  // May cafes MINUS june cafes: the june branch is the subtrahend.
  RaExprPtr q = workload::FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0));
  QueryResponse base = service.Query(q);
  ASSERT_TRUE(base.status.ok()) << base.status.ToString();
  EXPECT_TRUE(base.used_bounded_plan);
  // Promote the entry: churn Pid(1) (not this query's answer) so the swept
  // fingerprint re-executes and its second execution retains a handle.
  ASSERT_TRUE(
      service.ApplyDeltas(GraphChurnBatch(fx.cfg, "sd", 1)).status.ok());
  QueryResponse promoted = service.Query(q);
  ASSERT_TRUE(promoted.status.ok());
  EXPECT_EQ(promoted.table->NumRows(), base.table->NumRows());

  // A june *insert* for friend f0 at nyc cafe c0 (which IS in the may
  // answer) is a subtrahend plus: maintainable, and the refreshed hit has
  // c0 suppressed.
  ASSERT_TRUE(service.ApplyDeltas(workload::GraphChurnJuneBatch(fx.cfg, 0))
                  .status.ok());
  QueryResponse suppressed = service.Query(q);
  ASSERT_TRUE(suppressed.status.ok());
  EXPECT_TRUE(suppressed.result_cache_hit);
  EXPECT_TRUE(suppressed.result_refreshed);
  EXPECT_EQ(suppressed.table->NumRows() + 1, base.table->NumRows());
  {
    Result<ExecuteResult> direct = engine.Execute(q);
    ASSERT_TRUE(direct.ok());
    ExpectSameBag(*suppressed.table, direct->table, "after june insert");
  }

  // Batch 4 *deletes* batch 0's june visit — a minus on the subtrahend can
  // resurrect suppressed rows only a recompute can find, so this is the
  // delta shape refresh must refuse: the entry drops, the next read
  // re-executes, and c0 is back.
  ASSERT_TRUE(service.ApplyDeltas(workload::GraphChurnJuneBatch(fx.cfg, 4))
                  .status.ok());
  QueryResponse recomputed = service.Query(q);
  ASSERT_TRUE(recomputed.status.ok());
  EXPECT_FALSE(recomputed.result_cache_hit);
  EXPECT_EQ(recomputed.table->NumRows(), base.table->NumRows());
  {
    Result<ExecuteResult> direct = engine.Execute(q);
    ASSERT_TRUE(direct.ok());
    ExpectSameBag(*recomputed.table, direct->table, "after june delete");
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.result_cache.refreshes, 1u);
  EXPECT_EQ(stats.result_cache.refresh_fallbacks, 1u);
  // The populate, the promoting re-execute, and the fallback recompute.
  EXPECT_EQ(stats.executed, 3u);
}

TEST(QueryServiceTest, OversizedMaintenanceHandleIsDeclinedOnce) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  ServiceOptions opts;
  // The handle for this 3-relation join view retains ~120 KB of join
  // bags; a 224 KiB cache makes the size bound (capacity / 8 = 28 KiB)
  // refuse it while the few-hundred-byte result itself caches fine.
  opts.result_cache_bytes = 224u << 10;
  QueryService service(&engine, opts);

  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(3));
  ASSERT_TRUE(service.Query(q).status.ok());  // Populate (no reuse yet).
  ASSERT_TRUE(service.ApplyDeltas(GraphChurnBatch(fx.cfg, "ov", 1)).status.ok());
  ASSERT_TRUE(service.Query(q).status.ok());  // Promotes, Builds, declines.
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.maint_declined, 1u);

  // Declined for good: the entry serves hits between batches but is swept
  // (never refreshed) across them, and no second Build is ever attempted.
  for (int b = 2; b < 5; ++b) {
    ASSERT_TRUE(
        service.ApplyDeltas(GraphChurnBatch(fx.cfg, "ov", b)).status.ok());
    QueryResponse r = service.Query(q);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.result_cache_hit) << "batch " << b;
    QueryResponse again = service.Query(q);
    ASSERT_TRUE(again.status.ok());
    EXPECT_TRUE(again.result_cache_hit) << "batch " << b;
    EXPECT_FALSE(again.result_refreshed) << "batch " << b;
  }
  stats = service.stats();
  EXPECT_EQ(stats.maint_declined, 1u);
  EXPECT_EQ(stats.result_cache.refreshes, 0u);
  EXPECT_EQ(stats.result_cache.refresh_fallbacks, 0u);
}

TEST(QueryServiceTest, RequestAccountingStaysFiveWayExactUnderRefresh) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  constexpr int kWarm = 4;
  constexpr int kRounds = 10;
  std::vector<RaExprPtr> queries;
  for (int i = 0; i < kWarm; ++i) {
    queries.push_back(FriendsNycCafesQuery(fx.cfg.Pid(i)));
    ASSERT_TRUE(service.Query(queries.back()).status.ok());
  }
  for (int b = 0; b < kRounds; ++b) {
    ASSERT_TRUE(
        service.ApplyDeltas(GraphChurnBatch(fx.cfg, "fw", b)).status.ok());
    for (const RaExprPtr& q : queries) {
      QueryResponse r = service.Query(q);
      ASSERT_TRUE(r.status.ok());
      for (int rep = 0; rep < 1; ++rep) {
        QueryResponse r2 = service.Query(q);
        ASSERT_TRUE(r2.status.ok());
      }
    }
  }

  // Regression for the accounting identity after IVM split the hit
  // counters three ways: every request resolves as exactly one of leader
  // execution, coalesced follower, plain admission hit, window hit, or
  // refreshed hit — nothing double-counts, nothing leaks.
  ServiceStats s = service.stats();
  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kWarm) + 2ull * kWarm * kRounds;
  EXPECT_EQ(s.executed + s.coalesced + s.result_hits_admission +
                s.result_hits_window + s.result_hits_refreshed,
            kTotal);
  EXPECT_EQ(s.result_cache.hits, s.result_hits_admission +
                                     s.result_hits_window +
                                     s.result_hits_refreshed);
  EXPECT_GT(s.result_hits_refreshed, 0u);
  // Serial client + maintainable plans: the warmup populates without
  // handles (no reuse yet), round 0 re-executes each fingerprint once —
  // promoting it — and from round 1 on nothing re-executes.
  EXPECT_EQ(s.executed, 2ull * kWarm);
  EXPECT_EQ(s.result_cache.refreshes,
            static_cast<uint64_t>(kWarm) * (kRounds - 1));
  EXPECT_EQ(s.result_cache.refresh_fallbacks, 0u);
}

// -------------------------------------------- one-pass stats snapshot ---

TEST(QueryServiceTest, StatsSnapshotStaysConsistentUnderConcurrentDeltas) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  // Regression for the old stats() implementation, which read the engine
  // counters detached from the service counters: polling during a delta
  // storm could observe the engine's epoch bump without the corresponding
  // delta_batches increment (or vice versa). With the one-pass snapshot
  // (read gate held, counters bumped inside the write hold) the identities
  // below hold at EVERY observation, not just at quiescence.
  constexpr int kBatches = 60;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      DeltaResponse r = service.ApplyDeltas(GraphChurnBatch(fx.cfg, "st", b));
      ASSERT_TRUE(r.status.ok());
    }
    done.store(true);
  });
  while (!done.load()) {
    ServiceStats s = service.stats();
    // Every GraphChurnBatch applies exactly two inserts and never grows a
    // bound, so these are exact at any instant.
    EXPECT_EQ(s.data_epoch, s.delta_batches);
    EXPECT_EQ(s.deltas_applied, 2 * s.delta_batches);
    EXPECT_EQ(s.schema_epoch, 1u);
  }
  writer.join();

  ServiceStats end = service.stats();
  EXPECT_EQ(end.delta_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(end.data_epoch, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(end.deltas_applied, 2u * kBatches);
}

TEST(QueryServiceTest, NonCoveredQueryFallsBackThroughService) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions());
  ASSERT_TRUE(engine.BuildIndices().ok());
  QueryService service(&engine);

  // cafe is only accessible by cid; selecting on city is not covered and
  // must reach the baseline evaluator through the service.
  RaExprPtr q = Project(
      Select(Rel("cafe"), {EqC(A("cafe", "city"), Value::Str("nyc"))}),
      {A("cafe", "cid")});
  QueryResponse resp = service.Query(q);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  Result<ExecuteResult> direct = engine.Execute(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(resp.used_bounded_plan, direct->used_bounded_plan);
  EXPECT_TRUE(Table::SameSet(*resp.table, direct->table));
}

}  // namespace
}  // namespace bqe
