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

/// IVM-focused serving stress: a reader storm races a delta writer whose
/// batches contain *deletions* (GraphChurnMixedBatch) and subtrahend churn
/// (GraphChurnJuneBatch against a resident difference query), so the
/// in-gate ResultCache::Refresh() exercises both the patch path and the
/// kNotMaintainable fallback while lock-free admission lookups run — the
/// TSan shape for exec/ivm layered under serve/. Afterwards every answer
/// the service hands out must equal a freshly prepared plan as an exact
/// bag and an uncached oracle engine as a set, and a serial coda proves
/// deterministically that (a) a refreshed entry serves a marked refreshed
/// hit and (b) a subtrahend deletion forces exactly the fallback counter.

using serve::QueryResponse;
using serve::QueryService;
using serve::ServiceOptions;
using serve::ServiceStats;
using workload::FriendsMayNotJuneCafesQuery;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnConfig;
using workload::GraphChurnFixture;
using workload::GraphChurnJuneBatch;
using workload::GraphChurnMixedBatch;
using workload::MakeGraphChurnFixture;

EngineOptions DeterministicOptions(size_t threads) {
  EngineOptions opts;
  opts.exec_threads = threads;
  opts.row_path_threshold = 0;
  return opts;
}

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

TEST(IvmStressTest, RefreshAndFallbackStayCoherentUnderReaderStorm) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 30;
  constexpr int kStormBatches = 20;  // Alternating mixed / june batches.

  // Four plain fetch/join queries plus one *difference* query whose
  // subtrahend the june batches delete from — the delta shape IVM must
  // refuse, landing mid-storm on a resident maintained entry.
  std::vector<RaExprPtr> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(FriendsNycCafesQuery(fx.cfg.Pid(i)));
  hot.push_back(FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0)));

  ServiceOptions sopts;
  sopts.shards = 3;
  sopts.batch_window = 16;
  // Maintenance handles retain intermediate join bags (~120 KB each for
  // these 3-relation queries); budget so all five hot entries stay
  // resident.
  sopts.result_cache_bytes = 8u << 20;
  QueryService service(&engine, sopts);

  // Warm every fingerprint so the storm starts with maintained entries.
  for (const RaExprPtr& q : hot) {
    QueryResponse r = service.Query(q);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_TRUE(r.used_bounded_plan);
  }

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
      while (answered.load() < b * 4 && !failed.load()) {
        std::this_thread::yield();
      }
      // Even batches: insert+delete churn through every fetch/join (stays
      // maintainable). Odd batches: june churn whose deletions (once the
      // lag fills) hit the difference query's subtrahend mid-storm.
      std::vector<Delta> batch =
          b % 2 == 0 ? GraphChurnMixedBatch(fx.cfg, "ivs", b / 2)
                     : GraphChurnJuneBatch(fx.cfg, b / 2);
      serve::DeltaResponse dr = service.ApplyDeltas(batch);
      if (!dr.status.ok() || dr.stats.constraints_grown != 0) {
        failed.store(true);
      }
    }
  });
  for (std::thread& t : clients) t.join();
  writer.join();
  ASSERT_FALSE(failed.load());

  // Every post-storm answer matches a freshly prepared plan as an exact
  // bag and an independent uncached engine as a set.
  EngineOptions uncached_opts = DeterministicOptions(2);
  uncached_opts.plan_cache = false;
  BoundedEngine oracle(&fx.db, fx.schema, uncached_opts);
  ASSERT_TRUE(oracle.BuildIndices().ok());
  for (size_t qi = 0; qi < hot.size(); ++qi) {
    QueryResponse r = service.Query(hot[qi]);
    ASSERT_TRUE(r.status.ok());
    std::string ctx = "post-storm query " + std::to_string(qi);
    ExpectSameBag(*r.table, FreshlyPreparedAnswer(engine, hot[qi], 2), ctx);
    Result<ExecuteResult> fresh = oracle.Execute(hot[qi]);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(Table::SameSet(*r.table, fresh->table)) << ctx;
  }

  // Serial coda, deterministic regardless of storm timing. Support counts
  // mean a june deletion only falls back when it actually resurrects a
  // suppressed may row, and a fallback leaves the entry handle-less for
  // one execution (lazy rebuild) — so the coda (a) seeds an explicit
  // suppressed pair (a new friend of Pid(0) with both a may and a june
  // visit to a new nyc cafe), and (b) runs two batch+read rounds first,
  // which converge hot[0] and hot[4] to cached-fresh-with-handle from any
  // storm-exit state (absent, handle-less, or pending a deferred rebuild).
  // Deleting the seeded june row is then a guaranteed resurrection: the
  // refresh MUST refuse into exactly the fallback counter, while hot[0]
  // absorbs the same batch and MUST serve a marked refreshed hit.
  serve::DeltaResponse seed = service.ApplyDeltas({
      Delta::Insert("friend", {Value::Str(fx.cfg.Pid(0)), Value::Str("coda-f")}),
      Delta::Insert("cafe", {Value::Str("codacafe"), Value::Str("nyc")}),
      Delta::Insert("dine", {Value::Str("coda-f"), Value::Str("codacafe"),
                             Value::Int(5), Value::Int(2015)}),
      Delta::Insert("dine", {Value::Str("coda-f"), Value::Str("codacafe"),
                             Value::Int(6), Value::Int(2015)}),
  });
  ASSERT_TRUE(seed.status.ok());
  (void)service.Query(hot[0]);
  (void)service.Query(hot[4]);
  serve::DeltaResponse settle =
      service.ApplyDeltas(GraphChurnMixedBatch(fx.cfg, "coda", 0));
  ASSERT_TRUE(settle.status.ok());
  (void)service.Query(hot[0]);
  (void)service.Query(hot[4]);
  uint64_t fallbacks_before = service.stats().result_cache.refresh_fallbacks;
  std::vector<Delta> coda = GraphChurnJuneBatch(fx.cfg, kStormBatches / 2);
  coda.push_back(Delta::Delete("dine", {Value::Str("coda-f"),
                                        Value::Str("codacafe"), Value::Int(6),
                                        Value::Int(2015)}));
  serve::DeltaResponse dr = service.ApplyDeltas(coda);
  ASSERT_TRUE(dr.status.ok());
  QueryResponse refreshed_read = service.Query(hot[0]);
  ASSERT_TRUE(refreshed_read.status.ok());
  EXPECT_TRUE(refreshed_read.result_cache_hit);
  EXPECT_TRUE(refreshed_read.result_refreshed);
  ExpectSameBag(*refreshed_read.table, FreshlyPreparedAnswer(engine, hot[0], 2),
                "refreshed coda read");
  ServiceStats s = service.stats();
  EXPECT_GE(s.result_cache.refresh_fallbacks, fallbacks_before + 1)
      << "a resurrecting subtrahend deletion on a resident difference entry "
         "must fall back to invalidate-and-recompute";
  EXPECT_GE(s.result_cache.resurrection_fallbacks, 1u)
      << "the coda deletion zeroes a support count while its may row is "
         "suppressed — it must be classified as a resurrection";
  QueryResponse diff_read = service.Query(hot[4]);  // Recompute, not a hit.
  ASSERT_TRUE(diff_read.status.ok());
  ExpectSameBag(*diff_read.table, FreshlyPreparedAnswer(engine, hot[4], 2),
                "post-fallback diff read");

  s = service.stats();
  service.Shutdown();

  constexpr uint64_t kTotalQueries =
      static_cast<uint64_t>(kClients) * kRequestsPerClient +
      /*warmup=*/5 + /*post-storm=*/5 + /*coda reads=*/6;
  constexpr uint64_t kTotalBatches = static_cast<uint64_t>(kStormBatches) + 3;
  // Exact five-way accounting under mixed refresh/fallback churn.
  EXPECT_EQ(s.executed + s.coalesced + s.result_hits_admission +
                s.result_hits_window + s.result_hits_refreshed,
            kTotalQueries);
  EXPECT_LE(s.admitted + s.result_hits_admission, kTotalQueries + kTotalBatches);
  EXPECT_GE(s.admitted + s.result_hits_admission + s.result_hits_refreshed,
            kTotalQueries + kTotalBatches);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.result_hits_refreshed, 0u);
  EXPECT_GT(s.result_cache.refreshes, 0u);
  EXPECT_GE(s.result_cache.refresh_fallbacks, 1u);
  EXPECT_EQ(s.result_cache.hits, s.result_hits_admission +
                                     s.result_hits_window +
                                     s.result_hits_refreshed);
  EXPECT_EQ(s.delta_batches, kTotalBatches);
  // Data-only churn: pinned plans never re-prepared, schema epoch fixed.
  EXPECT_EQ(s.engine.reprepares, 0u);
  EXPECT_EQ(s.schema_epoch, 1u);
}

}  // namespace
}  // namespace bqe
