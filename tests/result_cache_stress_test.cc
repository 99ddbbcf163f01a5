#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/physical_plan.h"
#include "serve/query_service.h"
#include "workload/graph_churn.h"

namespace bqe {
namespace {

/// Result-cache stress: the tentpole claim is that duplicate reads served
/// straight off the cache are indistinguishable from re-execution, even
/// while a writer keeps moving the data epoch — and, with incremental view
/// maintenance, that a delta batch *patches* resident entries instead of
/// invalidating them. Three phases pin that:
///   1. a concurrent storm (clients + delta writer) for TSan coverage of
///      the lock-free admission lookup racing Apply and the in-gate
///      Refresh,
///   2. a serial delta/read interleave proving every post-batch read is a
///      REFRESHED cache hit whose patched table matches a freshly prepared
///      plan as an exact bag and an uncached oracle engine as a set, and
///   3. a distinct-query flood over a small byte budget proving LRU
///      eviction actually runs under service traffic.
/// The final stats snapshot must satisfy the exact five-way request
/// accounting with non-zero refreshed hits AND evictions.

using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceStats;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnBatch;
using workload::GraphChurnConfig;
using workload::GraphChurnFixture;
using workload::MakeGraphChurnFixture;

EngineOptions DeterministicOptions(size_t threads) {
  EngineOptions opts;
  opts.exec_threads = threads;
  opts.row_path_threshold = 0;
  return opts;
}

/// Exact multiset equality, order-free: a refreshed table keeps surviving
/// rows in place and appends net additions, so its row order legitimately
/// differs from a fresh execution's.
void ExpectSameBag(const Table& got, const Table& want,
                   const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  std::vector<Tuple> g = got.rows(), w = want.rows();
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(g, w) << context;
}

Table FreshlyPreparedAnswer(const BoundedEngine& engine, const RaExprPtr& q,
                            size_t threads) {
  Result<PrepareInfo> info = engine.Prepare(q);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->covered);
  Result<PhysicalPlan> pp = PhysicalPlan::Compile(info->plan, engine.indices());
  EXPECT_TRUE(pp.ok()) << pp.status().ToString();
  ExecOptions eo;
  eo.num_threads = threads;
  Result<Table> t = ExecutePhysicalPlan(*pp, nullptr, eo);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(*t);
}

TEST(ResultCacheStressTest, CachedReadsStayCoherentUnderDeltaChurn) {
  GraphChurnConfig cfg;
  cfg.pids = 40;  // Enough distinct fingerprints to flood the byte budget.
  GraphChurnFixture fx = MakeGraphChurnFixture(cfg);
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 40;
  constexpr int kStormBatches = 30;
  constexpr int kHotQueries = 6;
  constexpr int kInterleaveRounds = 20;
  constexpr int kCheckedQueries = 4;
  constexpr int kFloodQueries = 40;

  std::vector<RaExprPtr> hot;
  for (int i = 0; i < kHotQueries; ++i) {
    hot.push_back(FriendsNycCafesQuery(fx.cfg.Pid(i)));
  }

  ServiceOptions sopts;
  sopts.shards = 3;
  sopts.batch_window = 16;
  // A maintenance handle retains the plan's intermediate bags (~120 KB for
  // these 3-relation join queries — far more than the 19-row result it
  // maintains, and all charged to the entry honestly). Size the budget so
  // the kHotQueries working set is never evicted mid-check and no single
  // entry is oversized, but kFloodQueries distinct entries cannot all fit.
  sopts.result_cache_bytes = 1700u << 10;
  QueryService service(&engine, sopts);

  // Phase 1: concurrent storm. Clients hammer the hot fingerprints while a
  // writer applies paced delta batches; TSan watches the admission-time
  // Coherence() loads race Apply's epoch bumps.
  std::atomic<int> answered{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        size_t qi = static_cast<size_t>(c + i) % hot.size();
        QueryResponse r = service.Query(hot[qi]);
        if (!r.status.ok() || !r.used_bounded_plan || r.table == nullptr) {
          failed.store(true);
        }
        answered.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int b = 0; b < kStormBatches; ++b) {
      while (answered.load() < b * 3 && !failed.load()) {
        std::this_thread::yield();
      }
      serve::DeltaResponse dr =
          service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rcs", b));
      if (!dr.status.ok() || dr.stats.constraints_grown != 0) {
        failed.store(true);
      }
    }
  });
  for (std::thread& t : clients) t.join();
  writer.join();
  ASSERT_FALSE(failed.load());

  // Phase 2: serial delta/read interleave. Every round moves the data
  // epoch, and the batch's own gate hold pushes the deltas through every
  // resident entry's maintenance handle: BOTH post-batch reads must be
  // refreshed cache hits sharing one patched table — never a re-execution
  // — and that table must match a freshly prepared plan as an exact bag
  // and an independent uncached engine as a set.
  EngineOptions uncached_opts = DeterministicOptions(2);
  uncached_opts.plan_cache = false;
  BoundedEngine oracle(&fx.db, fx.schema, uncached_opts);
  // Promotion step: handles are reuse-promoted, and a pathological storm
  // schedule (all reads before any batch) leaves the checked entries
  // without one. One batch plus one read per checked fingerprint pins the
  // invariant the interleave needs — resident AND maintained — whatever
  // the storm did: the read is either a refreshed hit (already maintained)
  // or a promoting re-execution.
  ASSERT_TRUE(
      service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rcp", 0)).status.ok());
  for (int qi = 0; qi < kCheckedQueries; ++qi) {
    ASSERT_TRUE(service.Query(hot[qi]).status.ok());
  }
  for (int b = 0; b < kInterleaveRounds; ++b) {
    serve::DeltaResponse dr =
        service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rci", b));
    ASSERT_TRUE(dr.status.ok());
    ASSERT_TRUE(oracle.BuildIndices().ok());  // Re-mirror the fresh data.
    for (int qi = 0; qi < kCheckedQueries; ++qi) {
      std::string ctx =
          "round " + std::to_string(b) + " query " + std::to_string(qi);
      QueryResponse r1 = service.Query(hot[qi]);  // Patched in place: hit.
      ASSERT_TRUE(r1.status.ok()) << ctx;
      EXPECT_TRUE(r1.result_cache_hit) << ctx;
      EXPECT_TRUE(r1.result_refreshed) << ctx;
      QueryResponse r2 = service.Query(hot[qi]);  // Still served off cache.
      ASSERT_TRUE(r2.status.ok()) << ctx;
      EXPECT_TRUE(r2.result_cache_hit) << ctx;
      EXPECT_TRUE(r2.used_bounded_plan) << ctx;
      EXPECT_EQ(r2.table, r1.table) << ctx;  // Same pinned patched table.
      ExpectSameBag(*r2.table, FreshlyPreparedAnswer(engine, hot[qi], 2), ctx);
      Result<ExecuteResult> fresh = oracle.Execute(hot[qi]);
      ASSERT_TRUE(fresh.ok()) << ctx;
      EXPECT_TRUE(Table::SameSet(*r2.table, fresh->table)) << ctx;
    }
  }

  // Targeted row-moving refresh. The storm and interleave tags recycle the
  // same (pid, cafe) combinations, so under set semantics their patches
  // legitimately move zero rows; to pin refreshed_rows deterministically,
  // give Pid(0) a brand-new friend dining at an nyc cafe provably absent
  // from the current answer — the in-gate refresh must surface exactly
  // that row on the very next (cached, refreshed) read.
  {
    QueryResponse cur = service.Query(hot[0]);
    ASSERT_TRUE(cur.status.ok());
    int free_cafe = -1;
    for (int m = 0; m < fx.cfg.cafes && free_cafe < 0; m += 3) {
      bool present = false;
      for (const Tuple& row : cur.table->rows()) {
        if (row[0] == Value::Str(fx.cfg.Cid(m))) present = true;
      }
      if (!present) free_cafe = m;
    }
    ASSERT_GE(free_cafe, 0) << "no free nyc cafe to target";
    uint64_t rows_before = service.stats().result_cache.refreshed_rows;
    ASSERT_TRUE(service
                    .ApplyDeltas({Delta::Insert("friend",
                                                {Value::Str(fx.cfg.Pid(0)),
                                                 Value::Str("rct-new")}),
                                  Delta::Insert(
                                      "dine",
                                      {Value::Str("rct-new"),
                                       Value::Str(fx.cfg.Cid(free_cafe)),
                                       Value::Int(5), Value::Int(2015)})})
                    .status.ok());
    QueryResponse patched = service.Query(hot[0]);
    ASSERT_TRUE(patched.status.ok());
    EXPECT_TRUE(patched.result_cache_hit);
    EXPECT_TRUE(patched.result_refreshed);
    EXPECT_EQ(patched.table->NumRows(), cur.table->NumRows() + 1);
    EXPECT_GT(service.stats().result_cache.refreshed_rows, rows_before);
  }

  // Phase 3: flood with distinct fingerprints so total entry bytes exceed
  // the byte budget and LRU eviction provably runs. Handles are
  // reuse-promoted and carry the weight (~120 KB of retained join bags vs
  // a few hundred result bytes), so each fingerprint is read once, swept
  // by one more batch, and read again — the second executions retain
  // handles and their bytes overflow the budget.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kFloodQueries; ++i) {
      QueryResponse r = service.Query(FriendsNycCafesQuery(fx.cfg.Pid(i)));
      ASSERT_TRUE(r.status.ok()) << "flood pass " << pass << " query " << i;
    }
    if (pass == 0) {
      ASSERT_TRUE(
          service.ApplyDeltas(GraphChurnBatch(fx.cfg, "rcf", 0)).status.ok());
    }
  }

  ServiceStats s = service.stats();
  service.Shutdown();

  constexpr uint64_t kTotalQueries =
      static_cast<uint64_t>(kClients) * kRequestsPerClient +
      /*promotion step=*/kCheckedQueries + /*targeted refresh reads=*/2 +
      static_cast<uint64_t>(kInterleaveRounds) * kCheckedQueries * 2 +
      2ull * kFloodQueries;
  constexpr uint64_t kTotalBatches =
      static_cast<uint64_t>(kStormBatches) +
      /*promotion + targeted + flood batches=*/3 + kInterleaveRounds;
  // Exact five-way accounting: every request was a leader execution, a
  // coalesced follower, an admission-time cache hit, a window-time hit, or
  // a hit on an IVM-refreshed entry.
  EXPECT_EQ(s.executed + s.coalesced + s.result_hits_admission +
                s.result_hits_window + s.result_hits_refreshed,
            kTotalQueries);
  // Admission accounting brackets: refreshed hits are not split by site,
  // so the exact pre-IVM identity becomes a two-sided bound — admission
  // absorbed at least the plain admission hits and at most also every
  // refreshed hit.
  EXPECT_LE(s.admitted + s.result_hits_admission,
            kTotalQueries + kTotalBatches);
  EXPECT_GE(s.admitted + s.result_hits_admission + s.result_hits_refreshed,
            kTotalQueries + kTotalBatches);
  EXPECT_EQ(s.rejected, 0u);
  // Phase 2 alone guarantees 2 refreshed hits per checked query per round.
  EXPECT_GE(s.result_hits_refreshed,
            2ull * kInterleaveRounds * kCheckedQueries);
  EXPECT_GE(s.result_cache.refreshes,
            static_cast<uint64_t>(kInterleaveRounds) * kCheckedQueries);
  EXPECT_EQ(s.result_cache.refresh_fallbacks, 0u)
      << "insert-only churn through fetch/join plans must stay maintainable";
  EXPECT_GT(s.result_cache.refreshed_rows, 0u);
  EXPECT_GT(s.result_cache.evictions, 0u);  // Phase 3 overflowed the budget.
  EXPECT_EQ(s.result_cache.oversized, 0u);
  EXPECT_EQ(s.result_cache.hits, s.result_hits_admission +
                                     s.result_hits_window +
                                     s.result_hits_refreshed);
  EXPECT_EQ(s.result_cache.hits + s.result_cache.misses,
            s.result_cache.lookups);
  EXPECT_EQ(s.delta_batches, kTotalBatches);
  EXPECT_EQ(s.data_epoch, kTotalBatches);
  // Data-only churn: the bounded plans never went stale, so the engine
  // never re-prepared and the schema epoch never moved.
  EXPECT_EQ(s.engine.reprepares, 0u);
  EXPECT_EQ(s.schema_epoch, 1u);
}

}  // namespace
}  // namespace bqe
