#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/ivm.h"
#include "storage/table.h"
#include "workload/graph_churn.h"

namespace bqe {
namespace {

using serve::ResultCache;
using serve::ResultCacheStats;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnBatch;
using workload::GraphChurnFixture;
using workload::MakeGraphChurnFixture;

/// A result-shaped table: `rows` single-string tuples with `payload`-sized
/// values, so tests can dial entry byte weights via ApproxBytes.
std::shared_ptr<const Table> MakeResult(size_t rows, size_t payload = 8) {
  Table t(RelationSchema("r", {Attribute{"cid", ValueType::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    t.InsertUnchecked({Value::Str(std::string(payload, 'a' + i % 26))});
  }
  return std::make_shared<const Table>(std::move(t));
}

ResultCache::CachedResult Cached(std::shared_ptr<const Table> t) {
  return ResultCache::CachedResult{std::move(t), /*used_bounded_plan=*/true};
}

TEST(ResultCacheTest, MissInsertHitSharesOneTable) {
  ResultCache cache(1 << 20);
  CoherenceSnapshot now{1, 0};
  ResultCache::CachedResult out;
  EXPECT_FALSE(cache.Lookup("q1", now, &out));

  std::shared_ptr<const Table> table = MakeResult(4);
  cache.Insert("q1", now, Cached(table));
  ASSERT_TRUE(cache.Lookup("q1", now, &out));
  EXPECT_EQ(out.table, table);  // The shared pinned table, not a copy.
  EXPECT_TRUE(out.used_bounded_plan);

  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

TEST(ResultCacheTest, EpochMoveInvalidatesOnLookup) {
  ResultCache cache(1 << 20);
  cache.Insert("q1", CoherenceSnapshot{1, 7}, Cached(MakeResult(4)));

  // A delta batch bumped the data epoch: the entry must be dropped, not
  // served.
  ResultCache::CachedResult out;
  EXPECT_FALSE(cache.Lookup("q1", CoherenceSnapshot{1, 8}, &out));
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);

  // Same story for a schema-epoch move at equal data epoch.
  cache.Insert("q1", CoherenceSnapshot{1, 8}, Cached(MakeResult(4)));
  EXPECT_FALSE(cache.Lookup("q1", CoherenceSnapshot{2, 8}, &out));
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // Fresh insert under the current snapshot serves again.
  cache.Insert("q1", CoherenceSnapshot{2, 8}, Cached(MakeResult(4)));
  EXPECT_TRUE(cache.Lookup("q1", CoherenceSnapshot{2, 8}, &out));
}

TEST(ResultCacheTest, StaleOverwriteCountsInvalidationKeepsOneEntry) {
  ResultCache cache(1 << 20);
  CoherenceSnapshot a{1, 1}, b{1, 2};
  cache.Insert("q1", a, Cached(MakeResult(2)));
  cache.Insert("q1", b, Cached(MakeResult(3)));  // Stale predecessor.
  cache.Insert("q1", b, Cached(MakeResult(3)));  // Same-snapshot race.
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.invalidations, 1u);  // Only the cross-epoch overwrite.
}

TEST(ResultCacheTest, LruEvictionPrefersColdEntries) {
  // Calibrate the per-entry byte weight with a probe cache so the real
  // capacity holds exactly three of these entries.
  CoherenceSnapshot now{1, 0};
  size_t unit = 0;
  {
    ResultCache probe(1 << 20);
    probe.Insert("qA", now, Cached(MakeResult(8, 64)));
    unit = probe.stats().bytes;
  }
  ASSERT_GT(unit, 0u);
  ResultCache cache(3 * unit + unit / 2);

  cache.Insert("qA", now, Cached(MakeResult(8, 64)));
  cache.Insert("qB", now, Cached(MakeResult(8, 64)));
  cache.Insert("qC", now, Cached(MakeResult(8, 64)));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch qA so qB is the LRU victim when qD overflows the capacity.
  ResultCache::CachedResult out;
  ASSERT_TRUE(cache.Lookup("qA", now, &out));
  cache.Insert("qD", now, Cached(MakeResult(8, 64)));

  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 3u);
  EXPECT_TRUE(cache.Lookup("qA", now, &out));   // Kept: recently used.
  EXPECT_FALSE(cache.Lookup("qB", now, &out));  // The LRU victim.
  EXPECT_TRUE(cache.Lookup("qC", now, &out));
  EXPECT_TRUE(cache.Lookup("qD", now, &out));
  EXPECT_LE(cache.stats().bytes, 3 * unit + unit / 2);
}

TEST(ResultCacheTest, OversizedResultIsNeverInserted) {
  ResultCache cache(256);  // Smaller than any real result entry below.
  CoherenceSnapshot now{1, 0};
  cache.Insert("q1", now, Cached(MakeResult(64, 64)));
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.oversized, 1u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);
  ResultCache::CachedResult out;
  EXPECT_FALSE(cache.Lookup("q1", now, &out));
}

TEST(ResultCacheTest, SweepStaleEagerlyDropsOldEpochEntries) {
  ResultCache cache(1 << 20);
  cache.Insert("q1", CoherenceSnapshot{1, 1}, Cached(MakeResult(2)));
  cache.Insert("q2", CoherenceSnapshot{1, 2}, Cached(MakeResult(2)));
  cache.Insert("q3", CoherenceSnapshot{1, 2}, Cached(MakeResult(2)));

  // The epoch-bump sweep drops q1 immediately — before IVM the stale table
  // would have pinned the byte budget until its next lookup — and counts
  // it in evicted_stale, NOT invalidations (those stay lazy-lookup-only).
  cache.SweepStale(CoherenceSnapshot{1, 2});
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evicted_stale, 1u);
  EXPECT_EQ(s.invalidations, 0u);
  ResultCache::CachedResult out;
  EXPECT_FALSE(cache.Lookup("q1", CoherenceSnapshot{1, 2}, &out));
  EXPECT_TRUE(cache.Lookup("q2", CoherenceSnapshot{1, 2}, &out));

  // A schema-epoch move sweeps everything that remains.
  cache.SweepStale(CoherenceSnapshot{2, 2});
  s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.evicted_stale, 3u);
}

TEST(ResultCacheTest, RefreshWithoutHandlesSweepsStaleKeepsFresh) {
  ResultCache cache(1 << 20);
  CoherenceSnapshot pre{1, 4}, post{1, 5};
  cache.Insert("stale", pre, Cached(MakeResult(2)));    // No handle.
  cache.Insert("fresh", post, Cached(MakeResult(2)));   // Already at post.
  cache.Insert("older", CoherenceSnapshot{1, 2}, Cached(MakeResult(2)));

  // With no maintenance handles nothing can be patched: entries keyed at
  // `pre` or older are swept, entries already at `post` survive untouched.
  // Refresh() requires the caller's writer gate held exclusively.
  WriterPriorityGate gate;
  serve::RefreshSummary sum;
  {
    WriterGateLock wl(&gate);
    sum = cache.Refresh(gate, {}, pre, post);
  }
  EXPECT_EQ(sum.refreshed, 0u);
  EXPECT_EQ(sum.fallbacks, 0u);
  EXPECT_EQ(sum.swept, 2u);
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evicted_stale, 2u);
  EXPECT_EQ(s.refreshes, 0u);
  ResultCache::CachedResult out;
  EXPECT_TRUE(cache.Lookup("fresh", post, &out));
  EXPECT_FALSE(cache.Lookup("stale", post, &out));
}

TEST(ResultCacheTest, ClearDropsEverythingButKeepsCounters) {
  ResultCache cache(1 << 20);
  CoherenceSnapshot now{1, 0};
  cache.Insert("q1", now, Cached(MakeResult(2)));
  cache.Insert("q2", now, Cached(MakeResult(2)));
  cache.Clear();
  ResultCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.insertions, 2u);
  ResultCache::CachedResult out;
  EXPECT_FALSE(cache.Lookup("q1", now, &out));
}

/// One real maintained entry: Q1 for Pid(0) over the graph-churn fixture,
/// cached at the engine's snapshot with the handle its execution built.
struct MaintainedEntry {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine{&fx.db, fx.schema};
  WriterPriorityGate gate;
  ResultCache cache{64u << 20};
  std::shared_ptr<const PreparedQuery> prepared;
  std::shared_ptr<const Table> table;

  void SetUp() {
    ASSERT_TRUE(engine.BuildIndices().ok());
    Result<std::shared_ptr<const PreparedQuery>> pq =
        engine.PrepareCompiled(FriendsNycCafesQuery(fx.cfg.Pid(0)));
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    prepared = *pq;
    Result<ExecuteResult> r = engine.ExecutePrepared(*prepared);
    ASSERT_TRUE(r.ok());
    table = std::make_shared<const Table>(std::move(r->table));
    std::unique_ptr<PlanMaintenance> maint;
    {
      WriterGateLock wl(&gate);
      maint = PlanMaintenance::Build(gate, prepared->physical, *table);
    }
    ASSERT_NE(maint, nullptr);
    cache.Insert("q", engine.Coherence(), Cached(table), std::move(maint));
  }

  /// Applies `batch` and pushes it through the cache as the serving layer
  /// does, under the exclusive gate.
  serve::RefreshSummary ApplyAndRefresh(const std::vector<Delta>& batch) {
    WriterGateLock wl(&gate);
    CoherenceSnapshot pre = engine.Coherence();
    EXPECT_TRUE(engine.Apply(batch).ok());
    return cache.Refresh(gate, batch, pre, engine.Coherence());
  }
};

TEST(ResultCacheMaintainedTest, StaleMaintainedEntryMissesAndStaysResident) {
  MaintainedEntry m;
  ASSERT_NO_FATAL_FAILURE(m.SetUp());
  ResultCacheStats before = m.cache.stats();
  CoherenceSnapshot pre = m.engine.Coherence();
  std::vector<Delta> batch = GraphChurnBatch(m.fx.cfg, "other", 10);
  ASSERT_TRUE(m.engine.Apply(batch).ok());
  CoherenceSnapshot post = m.engine.Coherence();
  ASSERT_NE(pre, post);

  // A reader that sees the new snapshot before the writer's Refresh misses
  // but leaves the maintained entry for the writer to settle.
  ResultCache::CachedResult out;
  EXPECT_FALSE(m.cache.Lookup("q", post, &out));
  ResultCacheStats s = m.cache.stats();
  EXPECT_EQ(s.misses, before.misses + 1);
  EXPECT_EQ(s.invalidations, 0u);
  EXPECT_EQ(s.entries, before.entries);
  EXPECT_EQ(s.bytes, before.bytes);

  // The batch is a new friend of Pid(10): no key the view retains, so the
  // Refresh re-keys the very same table in place.
  serve::RefreshSummary sum;
  {
    WriterGateLock wl(&m.gate);
    sum = m.cache.Refresh(m.gate, batch, pre, post);
  }
  EXPECT_EQ(sum.refreshed, 1u);
  EXPECT_EQ(sum.refresh_skips, 1u);
  EXPECT_EQ(sum.fallbacks, 0u);
  s = m.cache.stats();
  EXPECT_EQ(s.refreshes, 1u);
  EXPECT_EQ(s.refresh_skips, 1u);
  EXPECT_EQ(s.entries, before.entries);
  EXPECT_EQ(s.bytes, before.bytes);
  ASSERT_TRUE(m.cache.Lookup("q", post, &out));
  EXPECT_EQ(out.table, m.table);
  EXPECT_TRUE(out.refreshed);
}

TEST(ResultCacheMaintainedTest, RefreshPatchesOnlyWhenTheBatchHitsAKey) {
  MaintainedEntry m;
  ASSERT_NO_FATAL_FAILURE(m.SetUp());
  // Two batches on other people's keys are skipped ...
  for (int b : {10, 11}) {
    serve::RefreshSummary sum =
        m.ApplyAndRefresh(GraphChurnBatch(m.fx.cfg, "other", b));
    EXPECT_EQ(sum.refreshed, 1u);
    EXPECT_EQ(sum.refresh_skips, 1u);
  }
  // ... then a new friend of Pid(0) dining at a nyc cafe the view lacks
  // goes through the handle and grows the table by that row.
  std::string free_cid;
  for (int k = 0; k < m.fx.cfg.cafes && free_cid.empty(); k += 3) {
    bool present = false;
    for (const Tuple& row : m.table->rows()) {
      present |= row[0] == Value::Str(m.fx.cfg.Cid(k));
    }
    if (!present) free_cid = m.fx.cfg.Cid(k);
  }
  ASSERT_FALSE(free_cid.empty());
  serve::RefreshSummary sum = m.ApplyAndRefresh(
      {Delta::Insert("friend", {Value::Str(m.fx.cfg.Pid(0)),
                                Value::Str("new")}),
       Delta::Insert("dine", {Value::Str("new"), Value::Str(free_cid),
                              Value::Int(5), Value::Int(2015)})});
  EXPECT_EQ(sum.refreshed, 1u);
  EXPECT_EQ(sum.refresh_skips, 0u);
  ResultCache::CachedResult out;
  ASSERT_TRUE(m.cache.Lookup("q", m.engine.Coherence(), &out));
  EXPECT_EQ(out.table->NumRows(), m.table->NumRows() + 1);
  Result<ExecuteResult> fresh = m.engine.ExecutePrepared(*m.prepared);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(Table::SameSet(*out.table, fresh->table));
  EXPECT_EQ(m.cache.stats().refresh_skips, 2u);
  EXPECT_EQ(m.cache.stats().refreshes, 3u);
}

}  // namespace
}  // namespace bqe
