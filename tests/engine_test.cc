#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/plan2sql.h"
#include "core/qplan.h"
#include "ra/builder.h"
#include "workload/graph_churn.h"
#include "testutil.h"

namespace bqe {
namespace {

using testutil::MakeGraphSearch;
using testutil::MakeQ0;
using testutil::MakeQ0Prime;
using testutil::MakeQ1;
using testutil::MakeQ2;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = MakeGraphSearch();
    engine_ = std::make_unique<BoundedEngine>(&fx_.db, fx_.schema);
    ASSERT_TRUE(engine_->BuildIndices().ok());
  }

  testutil::GraphSearchFixture fx_;
  std::unique_ptr<BoundedEngine> engine_;
};

TEST_F(EngineTest, ExecuteBeforeBuildFails) {
  auto fx = MakeGraphSearch();
  BoundedEngine engine(&fx.db, fx.schema);
  EXPECT_EQ(engine.Execute(MakeQ1()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, BuildIndicesRejectsViolatingData) {
  auto fx = MakeGraphSearch();
  ASSERT_TRUE(
      fx.db.Insert("cafe", {Value::Str("c1"), Value::Str("boston")}).ok());
  BoundedEngine engine(&fx.db, fx.schema);
  EXPECT_EQ(engine.BuildIndices().code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, PrepareCoveredQuery) {
  Result<PrepareInfo> info = engine_->Prepare(MakeQ1());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->covered);
  EXPECT_FALSE(info->used_rewrite);
  EXPECT_GT(info->plan.Length(), 0u);
  Result<std::string> sql = PlanToSql(info->plan);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_FALSE(sql->empty());
  // Minimization dropped at least psi3 for Q1.
  EXPECT_LT(info->constraints_used, fx_.schema.size());
}

TEST_F(EngineTest, PreparePlansFromTheMinimizedSchema) {
  // Prepare plans from MinimizeResult::report; the plan must be exactly
  // GeneratePlan(CovChk(Q, A_m)). A1 = A0 + psi5 (dine((pid, year) -> (cid),
  // 366)), so A_m = {psi1, psi2, psi4} drops two constraints.
  AccessSchema a1 = fx_.schema;
  ASSERT_TRUE(
      a1.Add(*AccessConstraint::Parse("dine((pid, year) -> (cid), 366)"),
             fx_.db.catalog())
          .ok());
  BoundedEngine engine(&fx_.db, a1);
  ASSERT_TRUE(engine.BuildIndices().ok());
  Result<PrepareInfo> info = engine.Prepare(MakeQ1());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  Result<NormalizedQuery> nq = Normalize(MakeQ1(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<MinimizeResult> m =
      MinimizeAccess(*nq, a1, EngineOptions{}.minimize_algo);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Result<CoverageReport> minimized = CheckCoverage(*nq, m->minimized);
  ASSERT_TRUE(minimized.ok());
  Result<BoundedPlan> want = GeneratePlan(*nq, *minimized);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(info->plan.ToString(), want->ToString());
  EXPECT_EQ(info->constraints_used, m->kept_ids.size());
}

TEST_F(EngineTest, PrepareRewritesQ0) {
  Result<PrepareInfo> info = engine_->Prepare(MakeQ0());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->covered);
  EXPECT_TRUE(info->used_rewrite);
}

TEST_F(EngineTest, PrepareWithoutRewriteLeavesQ0Uncovered) {
  EngineOptions opts;
  opts.rewrite = false;
  BoundedEngine engine(&fx_.db, fx_.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  Result<PrepareInfo> info = engine.Prepare(MakeQ0());
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->covered);
}

TEST_F(EngineTest, ExecuteCoveredUsesBoundedPlan) {
  Result<ExecuteResult> r = engine_->Execute(MakeQ1());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->used_bounded_plan);
  EXPECT_GT(r->bounded_stats.tuples_fetched, 0u);
  EXPECT_EQ(r->table.NumRows(), 2u);  // {c1, c2}.
}

TEST_F(EngineTest, ExecuteQ0ViaRewriteGivesPaperAnswer) {
  Result<ExecuteResult> r = engine_->Execute(MakeQ0());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->used_bounded_plan);
  ASSERT_EQ(r->table.NumRows(), 1u);
  EXPECT_EQ(r->table.rows()[0][0], Value::Str("c2"));
}

TEST_F(EngineTest, UncoveredFallsBackToBaseline) {
  Result<ExecuteResult> r = engine_->Execute(MakeQ2());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->used_bounded_plan);
  EXPECT_GT(r->baseline_stats.tuples_scanned, 0u);
  EXPECT_EQ(r->table.NumRows(), 2u);  // {c1, c4}.
}

TEST_F(EngineTest, NoFallbackOptionReturnsNotCovered) {
  EngineOptions opts;
  opts.baseline_fallback = false;
  opts.rewrite = false;
  BoundedEngine engine(&fx_.db, fx_.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  EXPECT_EQ(engine.Execute(MakeQ2()).status().code(), StatusCode::kNotCovered);
}

TEST_F(EngineTest, BoundedAndBaselineAgree) {
  for (const RaExprPtr& q : {MakeQ1(), MakeQ0Prime(), MakeQ0()}) {
    Result<ExecuteResult> bounded = engine_->Execute(q);
    ASSERT_TRUE(bounded.ok());
    Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
    ASSERT_TRUE(nq.ok());
    Result<Table> oracle = EvaluateBaseline(*nq, fx_.db, nullptr);
    ASSERT_TRUE(oracle.ok());
    EXPECT_TRUE(Table::SameSet(bounded->table, *oracle));
  }
}

TEST_F(EngineTest, MinimizationCanBeDisabled) {
  EngineOptions opts;
  opts.minimize = false;
  BoundedEngine engine(&fx_.db, fx_.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  Result<PrepareInfo> info = engine.Prepare(MakeQ1());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->constraints_used, fx_.schema.size());
}

TEST_F(EngineTest, ApplyDeltasKeepsAnswersFresh) {
  // New friend f3 dines at c3 (sf) and at c2 (nyc): Q1 unchanged answer set
  // check after maintenance.
  std::vector<Delta> deltas = {
      Delta::Insert("friend", {Value::Str("p0"), Value::Str("f3")}),
      Delta::Insert("dine", {Value::Str("f3"), Value::Str("c4"), Value::Int(5),
                             Value::Int(2015)}),
  };
  ASSERT_TRUE(engine_->Apply(deltas).ok());
  Result<ExecuteResult> r = engine_->Execute(MakeQ1());
  ASSERT_TRUE(r.ok());
  // c4 is in nyc: the answer now includes it.
  EXPECT_EQ(r->table.NumRows(), 3u);
  // Baseline agrees after the update.
  Result<NormalizedQuery> nq = Normalize(MakeQ1(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<Table> oracle = EvaluateBaseline(*nq, fx_.db, nullptr);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(Table::SameSet(r->table, *oracle));
}

TEST(EngineLocatorTest, BuildIndicesBuildsEveryRowLocatorSoFirstDeleteBuildsNone) {
  // Set-up pays each base table's row-locator build: the first delete runs
  // under a writer's exclusive hold and must not hash the whole table.
  workload::GraphChurnFixture fx = workload::MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema);
  for (const std::string& rel : fx.db.catalog().RelationNames()) {
    EXPECT_FALSE(fx.db.Get(rel)->has_locator()) << rel;
  }
  ASSERT_TRUE(engine.BuildIndices().ok());
  for (const std::string& rel : fx.db.catalog().RelationNames()) {
    EXPECT_TRUE(fx.db.Get(rel)->has_locator()) << rel;
  }
  const Table& dine = *fx.db.Get("dine");
  ASSERT_GT(dine.NumRows(), 1000u);  // A locator outweighs any one row.
  Tuple victim = dine.rows().front();
  const size_t before = dine.ApproxBytes();
  ASSERT_TRUE(engine.Apply({Delta::Delete("dine", victim)}).ok());
  // One row fewer and no locator allocated: the footprint cannot grow.
  EXPECT_LE(dine.ApproxBytes(), before);
}

TEST_F(EngineTest, IndexFootprintReported) {
  EXPECT_GT(engine_->IndexFootprint(), 0u);
  EXPECT_LE(engine_->IndexFootprint(),
            fx_.db.TotalTuples() * fx_.schema.size());
}

TEST_F(EngineTest, PlanCacheHitOnRepeatedExecute) {
  Result<ExecuteResult> first = engine_->Execute(MakeQ1());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->plan_cache_hit);
  Result<ExecuteResult> second = engine_->Execute(MakeQ1());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_TRUE(Table::SameSet(first->table, second->table));

  PlanCacheStats stats = engine_->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(engine_->plan_cache_size(), 1u);

  // A structurally different query is its own entry.
  Result<ExecuteResult> other = engine_->Execute(MakeQ0());
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->plan_cache_hit);
  EXPECT_EQ(engine_->plan_cache_size(), 2u);
}

TEST_F(EngineTest, PlanCacheSkipsPrepareWorkOnHit) {
  // A cache hit must reuse the compiled physical plan object, not re-run
  // C2-C5: PrepareCompiled returns the same shared instance.
  bool hit = false;
  Result<std::shared_ptr<const PreparedQuery>> a =
      engine_->PrepareCompiled(MakeQ1(), &hit);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_FALSE(hit);
  ASSERT_TRUE((*a)->physical != nullptr);
  Result<std::shared_ptr<const PreparedQuery>> b =
      engine_->PrepareCompiled(MakeQ1(), &hit);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ((*a)->physical.get(), (*b)->physical.get());
}

TEST_F(EngineTest, DataOnlyApplyKeepsPlanCacheWarmAndAnswersFresh) {
  // Boundedness is a property of the access schema, not the data: a
  // data-only delta batch must leave the compiled plan cached (schema epoch
  // unchanged) while execution sees the maintained indices.
  uint64_t schema0 = engine_->SchemaEpoch();
  uint64_t data0 = engine_->DataEpoch();
  ASSERT_TRUE(engine_->Execute(MakeQ1()).ok());
  ASSERT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);

  std::vector<Delta> deltas = {
      Delta::Insert("friend", {Value::Str("p0"), Value::Str("f3")}),
      Delta::Insert("dine", {Value::Str("f3"), Value::Str("c4"), Value::Int(5),
                             Value::Int(2015)}),
  };
  ASSERT_TRUE(engine_->Apply(deltas).ok());
  EXPECT_EQ(engine_->SchemaEpoch(), schema0);
  EXPECT_EQ(engine_->DataEpoch(), data0 + 1);

  // Cache hit AND fresh data: the cached plan binds live indices, so c4
  // joins the answer set without a re-prepare.
  Result<ExecuteResult> fresh = engine_->Execute(MakeQ1());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->plan_cache_hit);
  EXPECT_EQ(fresh->table.NumRows(), 3u);
  EXPECT_EQ(engine_->plan_cache_stats().reprepares, 0u);
}

TEST_F(EngineTest, RejectedApplyDoesNotPerturbCacheOrDataEpoch) {
  // Regression: Apply() used to bump the coherence epoch *before* running
  // the batch, so a rejected batch staled every cached plan for nothing.
  ASSERT_TRUE(engine_->Execute(MakeQ1()).ok());
  uint64_t data0 = engine_->DataEpoch();

  // Cleanly rejected: unknown table, nothing applied.
  std::vector<Delta> bad = {Delta::Insert("nope", {Value::Str("x")})};
  EXPECT_EQ(engine_->Apply(bad).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine_->DataEpoch(), data0);
  EXPECT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);

  // Partially applied under kStrict: the violating insert itself lands
  // (documented ApplyDeltas semantics), so the data epoch must move — but
  // no bound changed, so cached plans still serve hits.
  std::vector<Delta> overflow = {
      Delta::Insert("cafe", {Value::Str("c1"), Value::Str("boston")})};
  EXPECT_EQ(engine_->Apply(overflow, OverflowPolicy::kStrict).status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->DataEpoch(), data0 + 1);
  EXPECT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);
  EXPECT_EQ(engine_->plan_cache_stats().reprepares, 0u);
}

TEST_F(EngineTest, BoundGrowthBumpsSchemaEpochAndReprepares) {
  // kGrow raising an N is a schema-level event: SetBound moves the
  // bounds/schema epoch and every cached plan re-prepares on next use.
  ASSERT_TRUE(engine_->Execute(MakeQ1()).ok());
  uint64_t schema0 = engine_->SchemaEpoch();

  // cafe((cid) -> (city), 1): a second city for c1 overflows and grows N.
  std::vector<Delta> grow = {
      Delta::Insert("cafe", {Value::Str("c1"), Value::Str("boston")})};
  Result<MaintenanceStats> st = engine_->Apply(grow, OverflowPolicy::kGrow);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->constraints_grown, 1u);
  EXPECT_GT(engine_->SchemaEpoch(), schema0);

  Result<ExecuteResult> r = engine_->Execute(MakeQ1());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(engine_->plan_cache_stats().reprepares, 1u);
  EXPECT_EQ(r->table.NumRows(), 2u);  // Answer set unchanged by the delta.
  // The refreshed entry serves hits again.
  EXPECT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);
}

TEST_F(EngineTest, CachedPlanReengagesVectorizedPathAfterGrowth) {
  // Regression for stale adaptivity: the row-path-vs-vectorized decision is
  // taken per execution from live index sizes, so a plan compiled (and
  // cached) below row_path_threshold must switch to the vectorized executor
  // on a cache *hit* once deltas grow its fetch entries past the threshold.
  EngineOptions opts;
  opts.exec_threads = 1;
  opts.row_path_threshold = 32;
  BoundedEngine engine(&fx_.db, fx_.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());

  Result<ExecuteResult> small = engine.Execute(MakeQ1());
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_TRUE(small->bounded_stats.used_row_path);

  // Grow dine well past the threshold but inside the mirror patch budget
  // (entries/4 + 64), so the cached plan stays coherent throughout.
  std::vector<Delta> growth;
  for (int i = 0; i < 40; ++i) {
    growth.push_back(Delta::Insert(
        "dine", {Value::Str("zz" + std::to_string(i)), Value::Str("c9"),
                 Value::Int(1), Value::Int(2000)}));
  }
  ASSERT_TRUE(engine.Apply(growth).ok());

  Result<ExecuteResult> big = engine.Execute(MakeQ1());
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big->plan_cache_hit);
  EXPECT_FALSE(big->bounded_stats.used_row_path);
  EXPECT_GT(big->bounded_stats.batches_produced, 0u);
  EXPECT_EQ(big->table.NumRows(), 2u);  // New diners don't affect Q1.
}

TEST_F(EngineTest, MirrorRebuildReprepairesOnlyPlansTouchingThatRelation) {
  // Per-relation granularity: blowing one relation's mirror patch budget
  // re-prepares the plans bound to it and nothing else.
  RaExprPtr friends_q =
      Project(Select(Rel("friend"), {EqC(A("friend", "pid"), Value::Str("p0"))}),
              {A("friend", "fid")});
  ASSERT_TRUE(engine_->Execute(friends_q).ok());
  ASSERT_TRUE(engine_->Execute(MakeQ1()).ok());  // Binds cafe (and others).
  ASSERT_TRUE(engine_->Execute(friends_q)->plan_cache_hit);
  ASSERT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);

  // Far more distinct cafe inserts than the patch budget: the cafe mirror
  // rebuilds. friend is untouched.
  std::vector<Delta> churn;
  for (int i = 0; i < 200; ++i) {
    churn.push_back(Delta::Insert(
        "cafe", {Value::Str("new" + std::to_string(i)), Value::Str("nyc")}));
  }
  ASSERT_TRUE(engine_->Apply(churn).ok());

  EXPECT_TRUE(engine_->Execute(friends_q)->plan_cache_hit);
  uint64_t reprepares0 = engine_->plan_cache_stats().reprepares;
  EXPECT_EQ(reprepares0, 0u);
  Result<ExecuteResult> q1 = engine_->Execute(MakeQ1());
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(q1->plan_cache_hit);
  EXPECT_EQ(engine_->plan_cache_stats().reprepares, 1u);
  // Both stabilize again.
  EXPECT_TRUE(engine_->Execute(MakeQ1())->plan_cache_hit);
  EXPECT_TRUE(engine_->Execute(friends_q)->plan_cache_hit);
}

TEST_F(EngineTest, PlanCacheDistinguishesNearbyDoubleConstants) {
  // The printed algebra form truncates doubles to 6 significant digits, so
  // queries over constants that differ only beyond that would collide on a
  // print-based cache key while computing different answers (double
  // comparison is exact). The fingerprint's exact constant encoding must
  // keep them in separate entries.
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationSchema(
                                 "m", {Attribute{"k", ValueType::kString},
                                       Attribute{"v", ValueType::kDouble}}))
                  .ok());
  const double v1 = 1.00000011, v2 = 1.00000012;
  ASSERT_TRUE(db.Insert("m", {Value::Str("a"), Value::Double(v1)}).ok());
  ASSERT_TRUE(db.Insert("m", {Value::Str("a"), Value::Double(v2)}).ok());
  AccessSchema schema;
  ASSERT_TRUE(
      schema.Add(AccessConstraint::Parse("m((k) -> (v), 4)").value(),
                 db.catalog())
          .ok());
  BoundedEngine engine(&db, schema);
  ASSERT_TRUE(engine.BuildIndices().ok());

  auto q_with = [](double c) {
    return Project(Select(Rel("m"), {EqC(A("m", "k"), Value::Str("a")),
                                     EqC(A("m", "v"), Value::Double(c))}),
                   {A("m", "v")});
  };
  Result<ExecuteResult> first = engine.Execute(q_with(v1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->table.NumRows(), 1u);
  EXPECT_EQ(first->table.rows()[0][0], Value::Double(v1));

  Result<ExecuteResult> second = engine.Execute(q_with(v2));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(second->plan_cache_hit);
  ASSERT_EQ(second->table.NumRows(), 1u);
  EXPECT_EQ(second->table.rows()[0][0], Value::Double(v2));
}

TEST_F(EngineTest, PlanCacheCanBeDisabled) {
  EngineOptions opts;
  opts.plan_cache = false;
  BoundedEngine engine(&fx_.db, fx_.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  ASSERT_TRUE(engine.Execute(MakeQ1()).ok());
  Result<ExecuteResult> second = engine.Execute(MakeQ1());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cache_hit);
  EXPECT_EQ(engine.plan_cache_stats().hits, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST_F(EngineTest, ParallelExecutionMatchesSerial) {
  EngineOptions serial_opts;
  serial_opts.exec_threads = 1;
  serial_opts.row_path_threshold = 0;
  BoundedEngine serial(&fx_.db, fx_.schema, serial_opts);
  ASSERT_TRUE(serial.BuildIndices().ok());

  EngineOptions par_opts = serial_opts;
  par_opts.exec_threads = 4;
  BoundedEngine parallel(&fx_.db, fx_.schema, par_opts);
  ASSERT_TRUE(parallel.BuildIndices().ok());

  for (const RaExprPtr& q : {MakeQ1(), MakeQ0Prime(), MakeQ0()}) {
    Result<ExecuteResult> s = serial.Execute(q);
    Result<ExecuteResult> p = parallel.Execute(q);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(Table::SameSet(s->table, p->table));
    EXPECT_EQ(s->bounded_stats.tuples_fetched, p->bounded_stats.tuples_fetched);
  }
}

TEST_F(EngineTest, SqlForPlanIsNonTrivial) {
  Result<PrepareInfo> info = engine_->Prepare(MakeQ1());
  ASSERT_TRUE(info.ok());
  Result<std::string> sql = PlanToSql(info->plan);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_NE(sql->find("WITH"), std::string::npos);
  EXPECT_NE(sql->find("ind_"), std::string::npos);
  EXPECT_NE(sql->find("SELECT DISTINCT"), std::string::npos);
}

TEST_F(EngineTest, PlanCacheStatsSnapshotIsLockFreeUnderConcurrency) {
  // plan_cache_stats() is specified as a lock-free const snapshot a stats
  // endpoint may poll while other threads execute. Regression for the
  // pre-serving behavior where reading stats took the cache lock (and,
  // under TSan, for any unsynchronized counter access): pollers here race
  // executors on purpose; the engine_test TSan CI job checks the engine
  // holds up its side.
  std::vector<RaExprPtr> queries = {MakeQ1(), MakeQ0Prime(), MakeQ0()};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polled{0};
  std::thread poller([&] {
    uint64_t last_lookups = 0;
    while (!stop.load()) {
      PlanCacheStats s = engine_->plan_cache_stats();
      // Total lookups are monotone across snapshots: a torn or garbage
      // snapshot would eventually violate this.
      uint64_t lookups = s.hits + s.misses;
      EXPECT_GE(lookups, last_lookups);
      EXPECT_LE(lookups, 3u * 40u);
      last_lookups = lookups;
      polled.fetch_add(1);
    }
  });
  std::vector<std::thread> executors;
  for (int t = 0; t < 3; ++t) {
    executors.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        Result<ExecuteResult> r =
            engine_->Execute(queries[static_cast<size_t>(t + i) % 3]);
        EXPECT_TRUE(r.ok());
      }
    });
  }
  for (std::thread& t : executors) t.join();
  stop.store(true);
  poller.join();
  EXPECT_GT(polled.load(), 0u);
  PlanCacheStats stats = engine_->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 3u * 40u);
  // Concurrent executors may race a cold entry (both miss, both prepare),
  // so misses is bounded by the racing thread count, not exactly 3.
  EXPECT_GE(stats.misses, 3u);
  EXPECT_LE(stats.misses, 9u);
  EXPECT_EQ(stats.reprepares, 0u);
}

}  // namespace
}  // namespace bqe
