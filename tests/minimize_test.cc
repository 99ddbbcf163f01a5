#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/minimize.h"
#include "ra/builder.h"
#include "ra/printer.h"
#include "testutil.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

using testutil::MakeGraphSearch;
using testutil::MakeQ1;

class MinimizeTest : public ::testing::Test {
 protected:
  MinimizeTest() : fx_(MakeGraphSearch(false)) {}

  NormalizedQuery Norm(const RaExprPtr& q) {
    Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
    EXPECT_TRUE(nq.ok()) << nq.status().ToString();
    return std::move(*nq);
  }

  static bool Contains(const std::vector<int>& ids, int id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  }

  testutil::GraphSearchFixture fx_;
};

// -------------------------------------------------- Example 9 (minA) -------

TEST_F(MinimizeTest, ExampleNineGreedyDropsPsi5AndPsi3) {
  // A1 = A0 + psi5: dine((pid, year) -> cid, 366). For Q1, minA must return
  // {psi1, psi2, psi4}: psi5 loses to psi2 on weight (366 vs 31), psi3 is
  // redundant for Q1.
  AccessSchema a1 = fx_.schema;
  ASSERT_TRUE(
      a1.Add(*AccessConstraint::Parse("dine((pid, year) -> (cid), 366)"),
             fx_.db.catalog())
          .ok());
  int psi5 = 4;
  NormalizedQuery nq = Norm(MakeQ1());
  Result<MinimizeResult> m = MinimizeAccess(nq, a1, MinimizeAlgo::kGreedy);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_TRUE(Contains(m->kept_ids, fx_.psi1));
  EXPECT_TRUE(Contains(m->kept_ids, fx_.psi2));
  EXPECT_TRUE(Contains(m->kept_ids, fx_.psi4));
  EXPECT_FALSE(Contains(m->kept_ids, psi5));
  EXPECT_FALSE(Contains(m->kept_ids, fx_.psi3));
  EXPECT_EQ(m->total_n, 5000 + 31 + 1);
}

TEST_F(MinimizeTest, KeptIdsIndexTheGivenSchemaWhenItIsASubset) {
  // A subset's constraints carry source_id into the schema it was cut
  // from; kept_ids must still be ids of the schema passed in.
  AccessSchema a1 = fx_.schema;
  ASSERT_TRUE(
      a1.Add(*AccessConstraint::Parse("dine((pid, year) -> (cid), 366)"),
             fx_.db.catalog())
          .ok());
  // sub: 0 = psi1, 1 = psi2, 2 = psi4, 3 = psi5 (source ids 0, 1, 3, 4).
  AccessSchema sub = a1.Subset({fx_.psi1, fx_.psi2, fx_.psi4, 4});
  NormalizedQuery nq = Norm(MakeQ1());
  Result<MinimizeResult> greedy =
      MinimizeAccess(nq, sub, MinimizeAlgo::kGreedy);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_EQ(greedy->kept_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(greedy->total_n, 5000 + 31 + 1);
  Result<MinimizeResult> acyclic =
      MinimizeAccess(nq, sub, MinimizeAlgo::kAcyclic);
  ASSERT_TRUE(acyclic.ok()) << acyclic.status().ToString();
  EXPECT_EQ(acyclic->kept_ids, (std::vector<int>{0, 1, 2}));
}

TEST_F(MinimizeTest, RejectsAReportOfAnotherSchema) {
  NormalizedQuery nq = Norm(MakeQ1());
  AccessSchema fewer = fx_.schema.Subset({fx_.psi1, fx_.psi2, fx_.psi4});
  Result<CoverageReport> report = CheckCoverage(nq, fewer);
  ASSERT_TRUE(report.ok());
  Result<MinimizeResult> m =
      MinimizeAccess(nq, fx_.schema, *report, MinimizeAlgo::kGreedy);
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MinimizeTest, GreedyResultIsMinimal) {
  NormalizedQuery nq = Norm(MakeQ1());
  Result<MinimizeResult> m =
      MinimizeAccess(nq, fx_.schema, MinimizeAlgo::kGreedy);
  ASSERT_TRUE(m.ok());
  // Removing any kept constraint must break coverage.
  for (size_t drop = 0; drop < m->kept_ids.size(); ++drop) {
    std::vector<int> fewer;
    for (size_t i = 0; i < m->kept_ids.size(); ++i) {
      if (i != drop) fewer.push_back(m->kept_ids[i]);
    }
    Result<CoverageReport> r = CheckCoverage(nq, fx_.schema.Subset(fewer));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->covered) << "dropping id " << m->kept_ids[drop]
                             << " kept the query covered";
  }
}

TEST_F(MinimizeTest, MinimizedSchemaStillCovers) {
  NormalizedQuery nq = Norm(testutil::MakeQ0Prime());
  for (MinimizeAlgo algo : {MinimizeAlgo::kGreedy, MinimizeAlgo::kAcyclic,
                            MinimizeAlgo::kElementary}) {
    Result<MinimizeResult> m = MinimizeAccess(nq, fx_.schema, algo);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    Result<CoverageReport> r = CheckCoverage(nq, m->minimized);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->covered);
    EXPECT_LE(m->total_n, fx_.schema.TotalN());
  }
}

TEST_F(MinimizeTest, FailsOnUncoveredQuery) {
  NormalizedQuery nq = Norm(testutil::MakeQ2());
  Result<MinimizeResult> m =
      MinimizeAccess(nq, fx_.schema, MinimizeAlgo::kGreedy);
  EXPECT_EQ(m.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(MinimizeTest, DropsConstraintsOnUnrelatedRelations) {
  // Constraints on cafe are irrelevant to a friend-only query.
  RaExprPtr q = Project(
      Select(Rel("friend"), {EqC(A("friend", "pid"), Value::Str("p0"))}),
      {A("friend", "fid")});
  NormalizedQuery nq = Norm(q);
  Result<MinimizeResult> m =
      MinimizeAccess(nq, fx_.schema, MinimizeAlgo::kGreedy);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(Contains(m->kept_ids, fx_.psi4));
  EXPECT_TRUE(Contains(m->kept_ids, fx_.psi1));
}

// ------------------------------------------- Example 10 (minADAG, acyclic) --

TEST_F(MinimizeTest, ExampleTenAcyclicShortestPaths) {
  AccessSchema a1 = fx_.schema;
  ASSERT_TRUE(
      a1.Add(*AccessConstraint::Parse("dine((pid, year) -> (cid), 366)"),
             fx_.db.catalog())
          .ok());
  int psi5 = 4;
  NormalizedQuery nq = Norm(MakeQ1());
  ASSERT_TRUE(*IsAcyclicCase(nq, a1));
  Result<MinimizeResult> m = MinimizeAccess(nq, a1, MinimizeAlgo::kAcyclic);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // Example 10: the shortest hyperpath to cid uses psi2 (31 < 366).
  EXPECT_TRUE(Contains(m->kept_ids, fx_.psi2));
  EXPECT_FALSE(Contains(m->kept_ids, psi5));
  Result<CoverageReport> r = CheckCoverage(nq, m->minimized);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->covered);
}

TEST_F(MinimizeTest, AcyclicPredicateDetectsRecursion) {
  // a -> b and b -> a on the same relation creates a cycle between classes.
  AccessSchema cyc;
  ASSERT_TRUE(cyc.Add(*AccessConstraint::Parse("friend((pid) -> (fid), 10)"),
                      fx_.db.catalog())
                  .ok());
  ASSERT_TRUE(cyc.Add(*AccessConstraint::Parse("friend((fid) -> (pid), 10)"),
                      fx_.db.catalog())
                  .ok());
  RaExprPtr q = Project(
      Select(Rel("friend"), {EqC(A("friend", "pid"), Value::Str("p0"))}),
      {A("friend", "fid")});
  NormalizedQuery nq = Norm(q);
  Result<bool> acyclic = IsAcyclicCase(nq, cyc);
  ASSERT_TRUE(acyclic.ok());
  EXPECT_FALSE(*acyclic);
  // A0 on Q1 is acyclic (stated below Example 1's discussion in Sec. 6.1).
  EXPECT_TRUE(*IsAcyclicCase(Norm(MakeQ1()), fx_.schema));
}

// ------------------------------------------------- minAE (elementary) ------

TEST_F(MinimizeTest, ElementaryPredicate) {
  // A0 \ {psi2} is elementary (the paper notes this after Theorem 9):
  // psi1, psi4 are unit; psi3 is an indexing constraint.
  AccessSchema no_psi2 = fx_.schema.Subset({fx_.psi1, fx_.psi3, fx_.psi4});
  EXPECT_TRUE(IsElementaryCase(no_psi2));
  EXPECT_FALSE(IsElementaryCase(fx_.schema));  // psi2 has |X| = 3.
}

TEST_F(MinimizeTest, ElementarySteinerPicksCheapChain) {
  // Unit chain with two options: pid -> fid with N = 100 or via two hops
  // costing 2 + 3. friend(pid -> fid): terminals {fid}.
  AccessSchema schema;
  ASSERT_TRUE(schema.Add(*AccessConstraint::Parse("friend((pid) -> (fid), 100)"),
                         fx_.db.catalog())
                  .ok());
  ASSERT_TRUE(schema.Add(*AccessConstraint::Parse("cafe((cid) -> (city), 2)"),
                         fx_.db.catalog())
                  .ok());
  RaExprPtr q = Project(
      Select(Product(Rel("friend"), Rel("cafe")),
             {EqC(A("friend", "pid"), Value::Str("p0")),
              EqA(A("friend", "fid"), A("cafe", "cid"))}),
      {A("cafe", "city")});
  NormalizedQuery nq = Norm(q);
  ASSERT_TRUE(IsElementaryCase(schema));
  Result<MinimizeResult> m =
      MinimizeAccess(nq, schema, MinimizeAlgo::kElementary);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Result<CoverageReport> r = CheckCoverage(nq, m->minimized);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->covered);
}

TEST_F(MinimizeTest, TotalNNeverIncreases) {
  NormalizedQuery nq = Norm(MakeQ1());
  for (MinimizeAlgo algo : {MinimizeAlgo::kGreedy, MinimizeAlgo::kAcyclic,
                            MinimizeAlgo::kElementary}) {
    Result<MinimizeResult> m = MinimizeAccess(nq, fx_.schema, algo);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_LE(m->total_n, fx_.schema.TotalN());
    EXPECT_LE(m->kept_ids.size(), fx_.schema.size());
  }
}

TEST_F(MinimizeTest, WeightCoefficientsRespected) {
  // With c1 >> small, behavior unchanged (weights scale uniformly).
  AccessSchema a1 = fx_.schema;
  ASSERT_TRUE(
      a1.Add(*AccessConstraint::Parse("dine((pid, year) -> (cid), 366)"),
             fx_.db.catalog())
          .ok());
  NormalizedQuery nq = Norm(MakeQ1());
  MinimizeOptions opts;
  opts.c1 = 10.0;
  opts.c2 = 0.5;
  Result<MinimizeResult> m =
      MinimizeAccess(nq, a1, MinimizeAlgo::kGreedy, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(Contains(m->kept_ids, 4));  // psi5 still dropped.
}

// ------------------------------------- minA against a set-based oracle ----

/// Reference minA: the textbook greedy of Theorem 10(1), which runs CovChk
/// on a fresh Subset for every candidate in every round. The shipped minA
/// decides coverage from one analysis of Q against A; this oracle decides
/// it from scratch, so the two share no coverage code beyond CheckCoverage.
size_t OracleCoveredClasses(const CoverageReport& report) {
  size_t n = 0;
  for (const SpcCoverage& sc : report.spcs) {
    n += static_cast<size_t>(std::count(sc.cov.begin(), sc.cov.end(), true));
  }
  return n;
}

Result<MinimizeResult> OracleGreedy(const NormalizedQuery& query,
                                    const AccessSchema& schema,
                                    const MinimizeOptions& opts) {
  std::set<std::string> bases;
  for (const auto& [occ, base] : query.occurrences()) bases.insert(base);
  std::set<int> kept;
  for (const AccessConstraint& c : schema.constraints()) {
    if (bases.count(c.rel) > 0) kept.insert(c.id);
  }
  auto coverage_of = [&](const std::set<int>& ids) {
    return CheckCoverage(query, schema.Subset({ids.begin(), ids.end()}));
  };
  BQE_ASSIGN_OR_RETURN(CoverageReport current, coverage_of(kept));
  if (!current.covered) return Status::FailedPrecondition("not covered");
  size_t cov_now = OracleCoveredClasses(current);
  while (true) {
    int best = -1;
    double best_w = -1.0;
    size_t best_cov = 0;
    for (int cand : kept) {
      std::set<int> without = kept;
      without.erase(cand);
      BQE_ASSIGN_OR_RETURN(CoverageReport r, coverage_of(without));
      if (!r.covered) continue;
      size_t cov_without = OracleCoveredClasses(r);
      double denom = opts.c2 * static_cast<double>(cov_now - cov_without + 1);
      double w = opts.c1 * static_cast<double>(schema.at(cand).n) / denom;
      if (w > best_w) {
        best_w = w;
        best = cand;
        best_cov = cov_without;
      }
    }
    if (best < 0) break;
    kept.erase(best);
    cov_now = best_cov;
  }
  MinimizeResult out;
  out.kept_ids.assign(kept.begin(), kept.end());
  for (int id : out.kept_ids) out.total_n += schema.at(id).n;
  return out;
}

const GeneratedDataset& CachedDataset(const std::string& name) {
  static std::map<std::string, GeneratedDataset>* cache =
      new std::map<std::string, GeneratedDataset>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    Result<GeneratedDataset> ds = MakeDataset(name, 0.02, 1234);
    EXPECT_TRUE(ds.ok()) << ds.status().ToString();
    it = cache->emplace(name, std::move(*ds)).first;
  }
  return it->second;
}

/// `count` covered queries over `ds`, deterministic in `seed`, spread over
/// the generator's #sel x #join x #unidiff cells (Section 8 ranges).
std::vector<NormalizedQuery> CoveredQueries(const GeneratedDataset& ds,
                                            uint64_t seed, size_t count) {
  std::vector<NormalizedQuery> out;
  Rng rng(seed);
  while (out.size() < count) {
    QueryGenConfig cfg;
    cfg.num_sel = static_cast<int>(rng.UniformInt(4, 9));
    cfg.num_join = static_cast<int>(rng.UniformInt(0, 5));
    cfg.num_unidiff = static_cast<int>(rng.UniformInt(0, 3));
    cfg.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    Result<RaExprPtr> q = GenerateCoveredQuery(ds, cfg);
    if (!q.ok()) continue;
    Result<NormalizedQuery> nq = Normalize(*q, ds.db.catalog());
    EXPECT_TRUE(nq.ok()) << nq.status().ToString();
    if (nq.ok()) out.push_back(std::move(*nq));
  }
  return out;
}

/// Asserts the shipped minA equals the oracle on `query` under `opts`.
void ExpectMatchesOracle(const NormalizedQuery& query,
                         const AccessSchema& schema,
                         const MinimizeOptions& opts,
                         const std::string& where) {
  Result<MinimizeResult> want = OracleGreedy(query, schema, opts);
  ASSERT_TRUE(want.ok()) << where << ": " << want.status().ToString();
  Result<MinimizeResult> got =
      MinimizeAccess(query, schema, MinimizeAlgo::kGreedy, opts);
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  EXPECT_EQ(got->kept_ids, want->kept_ids) << where;
  EXPECT_EQ(got->total_n, want->total_n) << where;
  EXPECT_TRUE(got->report.covered) << where;
}

class MinimizeDifferentialTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(MinimizeDifferentialTest, GreedyMatchesOracle) {
  const GeneratedDataset& ds = CachedDataset(GetParam());
  std::vector<NormalizedQuery> queries = CoveredQueries(ds, 20161, 200);
  MinimizeOptions skewed;
  skewed.c1 = 0.5;
  skewed.c2 = 2.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string where = std::string(GetParam()) + " query " +
                        std::to_string(i) + ": " +
                        ToAlgebraString(queries[i].root());
    ExpectMatchesOracle(queries[i], ds.schema, MinimizeOptions{}, where);
    ExpectMatchesOracle(queries[i], ds.schema, skewed,
                        where + " (c1=0.5 c2=2)");
  }
}

TEST_P(MinimizeDifferentialTest, ReportOverloadMatchesPlainSignature) {
  const GeneratedDataset& ds = CachedDataset(GetParam());
  for (const NormalizedQuery& nq : CoveredQueries(ds, 7, 40)) {
    Result<CoverageReport> report = CheckCoverage(nq, ds.schema);
    ASSERT_TRUE(report.ok());
    for (MinimizeAlgo algo : {MinimizeAlgo::kGreedy, MinimizeAlgo::kAcyclic,
                              MinimizeAlgo::kElementary}) {
      Result<MinimizeResult> plain = MinimizeAccess(nq, ds.schema, algo);
      Result<MinimizeResult> with_report =
          MinimizeAccess(nq, ds.schema, *report, algo);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(with_report.ok()) << with_report.status().ToString();
      EXPECT_EQ(plain->kept_ids, with_report->kept_ids);
      EXPECT_EQ(plain->total_n, with_report->total_n);
      EXPECT_EQ(plain->report.Explain(), with_report->report.Explain());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, MinimizeDifferentialTest,
                         ::testing::Values("airca", "tfacc", "mcbm"));

TEST(MinimizeWideSchemaTest, MoreThanSixtyFourConstraintsMatchOracle) {
  // AIRCA's 25 constraints plus 50 duplicates of its ontime constraints
  // with larger N: queries on ontime and a few other relations give minA
  // more than 64 candidates, and ids up to 74.
  const GeneratedDataset& ds = CachedDataset("airca");
  AccessSchema wide = ds.schema;
  std::vector<int> ontime = ds.schema.ForRelation("ontime");
  for (int i = 0; i < 50; ++i) {
    AccessConstraint c =
        ds.schema.at(ontime[static_cast<size_t>(i) % ontime.size()]);
    c.n += 1 + i;
    ASSERT_TRUE(wide.Add(c, ds.db.catalog()).ok());
  }
  ASSERT_EQ(wide.size(), 75u);
  size_t wide_queries = 0;
  for (const NormalizedQuery& nq : CoveredQueries(ds, 64, 12)) {
    std::set<std::string> bases;
    for (const auto& [occ, base] : nq.occurrences()) bases.insert(base);
    size_t candidates = 0;
    for (const AccessConstraint& c : wide.constraints()) {
      if (bases.count(c.rel) > 0) ++candidates;
    }
    if (candidates <= 64) continue;
    ++wide_queries;
    ExpectMatchesOracle(nq, wide, MinimizeOptions{},
                        ToAlgebraString(nq.root()));
  }
  EXPECT_GT(wide_queries, 0u);
}

TEST(CoverageMonotonicityTest, CoveredBySubsetImpliesCoveredBySuperset) {
  // minA's essential-pruning rests on this: S subset of T subset of A and
  // Q covered by S imply Q covered by T.
  size_t s_covered = 0, t_uncovered = 0;
  for (const char* name : {"airca", "tfacc", "mcbm"}) {
    const GeneratedDataset& ds = CachedDataset(name);
    Rng rng(2016);
    for (const NormalizedQuery& nq : CoveredQueries(ds, 99, 30)) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<int> t, s;
        for (const AccessConstraint& c : ds.schema.constraints()) {
          if (!rng.Bernoulli(0.85)) continue;
          t.push_back(c.id);
          if (rng.Bernoulli(0.85)) s.push_back(c.id);
        }
        Result<CoverageReport> rs = CheckCoverage(nq, ds.schema.Subset(s));
        Result<CoverageReport> rt = CheckCoverage(nq, ds.schema.Subset(t));
        ASSERT_TRUE(rs.ok() && rt.ok());
        if (rs->covered) {
          ++s_covered;
          EXPECT_TRUE(rt->covered) << name << ": "
                                   << ToAlgebraString(nq.root());
        }
        if (!rt->covered) ++t_uncovered;
      }
    }
  }
  // Both sides of the implication were exercised.
  EXPECT_GT(s_covered, 0u);
  EXPECT_GT(t_uncovered, 0u);
}

}  // namespace
}  // namespace bqe
