#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/eval.h"
#include "common/rng.h"
#include "common/strings.h"
#include "constraints/index.h"
#include "core/cov.h"
#include "core/minimize.h"
#include "core/plan_exec.h"
#include "core/qplan.h"
#include "ra/builder.h"
#include "ra/printer.h"
#include "testutil.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

using testutil::MakeGraphSearch;
using testutil::MakeQ0Prime;
using testutil::MakeQ1;
using testutil::MakeQ3;

bool IsIndexingStep(const PlanStep& s) { return s.label.rfind("xiI(", 0) == 0; }

/// Asserts the plan shape that keeps every intermediate within the rows
/// fetched: a kProduct only builds a fetch's X input (its consumers are
/// products, fetches, or the "align X positions" projection feeding a
/// fetch), and every xiI step is a chain of filters, projections and
/// semi-joins against one-column deduplicated units down to a kFetch.
void ExpectProductsOnlyBuildFetchInputs(const BoundedPlan& plan,
                                        const std::string& where) {
  for (size_t c = 0; c < plan.steps.size(); ++c) {
    const PlanStep& s = plan.steps[c];
    for (int ref : {s.input, s.left, s.right}) {
      if (ref < 0) continue;
      const PlanStep& p = plan.steps[static_cast<size_t>(ref)];
      if (p.kind == PlanStep::Kind::kProduct) {
        bool builds_input = s.kind == PlanStep::Kind::kFetch ||
                            s.kind == PlanStep::Kind::kProduct ||
                            (s.kind == PlanStep::Kind::kProject &&
                             s.label == "align X positions");
        EXPECT_TRUE(builds_input)
            << where << ": product T" << ref << " feeds T" << c << "\n"
            << plan.ToString();
      }
      if (p.label == "align X positions") {
        EXPECT_EQ(s.kind, PlanStep::Kind::kFetch)
            << where << ": T" << ref << " feeds T" << c << "\n"
            << plan.ToString();
      }
    }
    if (!IsIndexingStep(s)) continue;
    int at = static_cast<int>(c);
    while (plan.steps[static_cast<size_t>(at)].kind != PlanStep::Kind::kFetch) {
      const PlanStep& x = plan.steps[static_cast<size_t>(at)];
      if (x.kind == PlanStep::Kind::kJoin) {
        const PlanStep& unit = plan.steps[static_cast<size_t>(x.right)];
        bool one_col_set =
            unit.kind == PlanStep::Kind::kConst
                ? unit.row.size() == 1
                : unit.kind == PlanStep::Kind::kProject && unit.dedupe &&
                      unit.cols.size() == 1;
        ASSERT_TRUE(one_col_set && x.join_cols.size() == 1)
            << where << ": xiI semi-join T" << at << "\n" << plan.ToString();
        at = x.left;
      } else {
        ASSERT_TRUE(x.kind == PlanStep::Kind::kFilter ||
                    x.kind == PlanStep::Kind::kProject)
            << where << ": xiI step T" << at << "\n" << plan.ToString();
        at = x.input;
      }
    }
  }
}

/// The first kFetch below xiI step `i`: the fetch whose rows it restricts.
int FetchUnder(const BoundedPlan& plan, int i) {
  while (plan.steps[static_cast<size_t>(i)].kind != PlanStep::Kind::kFetch) {
    const PlanStep& s = plan.steps[static_cast<size_t>(i)];
    i = s.kind == PlanStep::Kind::kJoin ? s.left : s.input;
  }
  return i;
}

/// Rows step `i` materializes: the plan cut off after it, executed.
size_t StepRows(const BoundedPlan& plan, int i, const IndexSet& indices) {
  BoundedPlan cut = plan;
  cut.steps.resize(static_cast<size_t>(i) + 1);
  cut.output = i;
  cut.output_names = cut.steps.back().col_names;
  Result<Table> t = ExecutePlan(cut, indices);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return t.ok() ? t->NumRows() : 0;
}

class QPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = MakeGraphSearch();
    Result<IndexSet> set = IndexSet::Build(fx_.db, fx_.schema);
    ASSERT_TRUE(set.ok());
    indices_ = std::move(*set);
  }

  BoundedPlan Plan(const RaExprPtr& q) {
    Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
    EXPECT_TRUE(nq.ok()) << nq.status().ToString();
    Result<CoverageReport> report = CheckCoverage(*nq, fx_.schema);
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report->covered) << report->Explain();
    Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? std::move(*plan) : BoundedPlan();
  }

  Table Run(const BoundedPlan& plan, ExecStats* stats = nullptr) {
    Result<Table> t = ExecutePlan(plan, indices_, stats);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(*t) : Table();
  }

  Table Oracle(const RaExprPtr& q) {
    Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
    EXPECT_TRUE(nq.ok());
    Result<Table> t = EvaluateBaseline(*nq, fx_.db, nullptr);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? std::move(*t) : Table();
  }

  testutil::GraphSearchFixture fx_;
  IndexSet indices_;
};

// ------------------------------------------------------- Hypergraph build ---

TEST_F(QPlanTest, HypergraphShapeForQ1) {
  Result<NormalizedQuery> nq = Normalize(MakeQ1(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, fx_.schema);
  ASSERT_TRUE(report.ok());
  const SpcCoverage& sc = report->spcs[0];
  QaHypergraph hg = BuildQaHypergraph(sc, report->actualized);
  // r + one node per class + one set node per non-trivial FD.
  // Q1 classes: pid, fid(=dine.pid), cid(=cafe.cid), month, year, city = 6.
  EXPECT_EQ(sc.uni.num_classes, 6);
  // psi3's induced FD is trivial ({pid,cid} -> {pid,cid}); 3 set nodes.
  EXPECT_EQ(hg.graph.num_nodes(), 1 + 6 + 3);
  // Root edges: 4 constant classes (p0, may, 2015, nyc).
  int root_edges = 0;
  for (const Hyperedge& e : hg.graph.edges()) {
    if (e.head.size() == 1 && e.head[0] == hg.root) ++root_edges;
  }
  EXPECT_EQ(root_edges, 4);
  // Every class node reachable from r (the query is fetchable).
  std::vector<bool> reach = hg.graph.Reachable({hg.root});
  for (int c = 0; c < sc.uni.num_classes; ++c) {
    EXPECT_TRUE(reach[static_cast<size_t>(hg.class_node[static_cast<size_t>(c)])])
        << "class " << sc.uni.class_name[static_cast<size_t>(c)];
  }
}

TEST_F(QPlanTest, HypergraphWeightsFollowConstraints) {
  Result<NormalizedQuery> nq = Normalize(MakeQ1(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, fx_.schema);
  ASSERT_TRUE(report.ok());
  QaHypergraph hg = BuildQaHypergraph(report->spcs[0], report->actualized);
  // The psi1 FD edge (pid -> fid~) must carry weight 5000.
  bool found5000 = false;
  for (const Hyperedge& e : hg.graph.edges()) {
    if (e.weight == 5000.0) found5000 = true;
  }
  EXPECT_TRUE(found5000);
}

// ------------------------------------------------------------- Plan shape ---

TEST_F(QPlanTest, PlanForQ1HasFetchSteps) {
  BoundedPlan plan = Plan(MakeQ1());
  EXPECT_GT(plan.Length(), 5u);
  int fetches = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kind == PlanStep::Kind::kFetch) ++fetches;
  }
  // Unit fetching via psi1, psi2, psi4 (+ indexing fetches, memoized).
  EXPECT_GE(fetches, 3);
  EXPECT_EQ(plan.output_names.size(), 1u);
}

TEST_F(QPlanTest, PlanLengthBounded) {
  // Lemma 8: plan length O(|Q||A|).
  BoundedPlan plan = Plan(MakeQ0Prime());
  Result<NormalizedQuery> nq = Normalize(MakeQ0Prime(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  size_t q_size = nq->root()->TreeSize();
  size_t a_len = fx_.schema.TotalLength();
  EXPECT_LE(plan.Length(), 4 * q_size * a_len);
}

TEST_F(QPlanTest, RejectsUncoveredQuery) {
  Result<NormalizedQuery> nq =
      Normalize(testutil::MakeQ0(), fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, fx_.schema);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->covered);
  EXPECT_EQ(GeneratePlan(*nq, *report).status().code(),
            StatusCode::kNotCovered);
}

TEST_F(QPlanTest, StaticAccessBoundMatchesPaperArithmetic) {
  // The paper: Q1's plan accesses at most 5000 + 5000*31*2 tuples. Our
  // canonical plan's static bound is of the same order (psi-products).
  BoundedPlan plan = Plan(MakeQ1());
  double bound = plan.StaticAccessBound();
  EXPECT_GT(bound, 0.0);
  EXPECT_LE(bound, 5000.0 + 5000.0 * 31.0 * 4.0);
}

TEST_F(QPlanTest, Q1IndexingPlansRestrictTheirFetches) {
  BoundedPlan plan = Plan(MakeQ1());
  ExpectProductsOnlyBuildFetchInputs(plan, "Q1");
  // Only psi2's X input (fid x 2015 x 5) is a product.
  int products = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kind == PlanStep::Kind::kProduct) ++products;
  }
  EXPECT_EQ(products, 2);
  // xiI(friend) and xiI(dine) are projections of their fetches: friend's
  // pid is psi1's X and fid's unit is that same fetch column; dine's
  // attributes are psi2's X, and cid's unit is psi2's own cid column.
  // xiI(cafe) keeps psi4's rows with city = 'nyc'.
  for (const char* occ : {"friend", "dine", "cafe"}) {
    std::string label = StrCat("xiI(", occ, ")");
    int at = -1;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      if (plan.steps[i].label == label) at = static_cast<int>(i);
    }
    ASSERT_GE(at, 0) << label;
    const PlanStep& proj = plan.steps[static_cast<size_t>(at)];
    ASSERT_EQ(proj.kind, PlanStep::Kind::kProject) << label;
    const PlanStep& below = plan.steps[static_cast<size_t>(proj.input)];
    if (std::string(occ) == "cafe") {
      ASSERT_EQ(below.kind, PlanStep::Kind::kFilter);
      ASSERT_EQ(below.preds.size(), 1u);
      EXPECT_EQ(below.preds[0].constant, Value::Str("nyc"));
      EXPECT_EQ(plan.steps[static_cast<size_t>(below.input)].kind,
                PlanStep::Kind::kFetch);
    } else {
      EXPECT_EQ(below.kind, PlanStep::Kind::kFetch) << label;
    }
  }
  // The fetches are those of the candidate-product plan, so the access
  // accounting is too: 9 tuples here, and the 315,000 static bound.
  ExecStats stats;
  Table got = Run(plan, &stats);
  EXPECT_TRUE(Table::SameSet(got, Oracle(MakeQ1())));
  EXPECT_EQ(stats.tuples_fetched, 9u);
  EXPECT_EQ(plan.StaticAccessBound(), 315000.0);
}

TEST_F(QPlanTest, ToStringShowsFetchSyntax) {
  BoundedPlan plan = Plan(MakeQ1());
  std::string s = plan.ToString();
  EXPECT_NE(s.find("fetch(X in T"), std::string::npos);
  EXPECT_NE(s.find("output: T"), std::string::npos);
}

// --------------------------------------------------------------- Execution --

TEST_F(QPlanTest, Q1PlanMatchesOracle) {
  BoundedPlan plan = Plan(MakeQ1());
  Table got = Run(plan);
  EXPECT_TRUE(Table::SameSet(got, Oracle(MakeQ1())))
      << got.ToString() << "\nvs\n"
      << Oracle(MakeQ1()).ToString();
}

TEST_F(QPlanTest, Q3PlanMatchesOracle) {
  BoundedPlan plan = Plan(MakeQ3());
  EXPECT_TRUE(Table::SameSet(Run(plan), Oracle(MakeQ3())));
}

TEST_F(QPlanTest, Q0PrimePlanMatchesOracleAndQ0) {
  BoundedPlan plan = Plan(MakeQ0Prime());
  Table got = Run(plan);
  EXPECT_TRUE(Table::SameSet(got, Oracle(MakeQ0Prime())));
  // And Q0' is A0-equivalent to Q0 (the fixture satisfies A0).
  EXPECT_TRUE(Table::SameSet(got, Oracle(testutil::MakeQ0())));
  // The expected answer from Example 1's story: c2 (friends dined there,
  // p0 did not).
  ASSERT_EQ(got.NumRows(), 1u);
  EXPECT_EQ(got.rows()[0][0], Value::Str("c2"));
}

TEST_F(QPlanTest, ExecStatsCountFetches) {
  BoundedPlan plan = Plan(MakeQ1());
  ExecStats stats;
  Run(plan, &stats);
  EXPECT_GT(stats.tuples_fetched, 0u);
  EXPECT_GT(stats.fetch_probes, 0u);
  // On the tiny fixture the plan touches far less than the whole database
  // would be at scale; sanity: bounded by the static bound.
  EXPECT_LE(static_cast<double>(stats.tuples_fetched),
            plan.StaticAccessBound());
}

TEST_F(QPlanTest, AccessIndependentOfIrrelevantData) {
  // Add many tuples NOT reachable from p0's neighborhood: fetch count for
  // the Q1 plan must not change (bounded evaluability in action).
  BoundedPlan plan = Plan(MakeQ1());
  ExecStats before;
  Run(plan, &before);

  for (int i = 0; i < 500; ++i) {
    std::string pid = "other_" + std::to_string(i);
    ASSERT_TRUE(
        fx_.db.Insert("friend", {Value::Str(pid), Value::Str("fx")}).ok());
    ASSERT_TRUE(fx_.db
                    .Insert("dine", {Value::Str(pid), Value::Str("cx"),
                                     Value::Int(5), Value::Int(2015)})
                    .ok());
  }
  Result<IndexSet> set = IndexSet::Build(fx_.db, fx_.schema);
  ASSERT_TRUE(set.ok());
  indices_ = std::move(*set);

  ExecStats after;
  Run(plan, &after);
  EXPECT_EQ(before.tuples_fetched, after.tuples_fetched);
}

TEST_F(QPlanTest, UnsatisfiableSubqueryYieldsEmptyPlan) {
  RaExprPtr q = Project(
      Select(Rel("cafe"), {EqC(A("cafe", "cid"), Value::Str("c1")),
                           EqC(A("cafe", "cid"), Value::Str("c2"))}),
      {A("cafe", "cid")});
  BoundedPlan plan = Plan(q);
  Table got = Run(plan);
  EXPECT_EQ(got.NumRows(), 0u);
}

TEST_F(QPlanTest, UnionPlanMatchesOracle) {
  RaExprPtr left = MakeQ1();
  RaExprPtr right = Project(
      Select(RelAs("cafe", "cafe5"),
             {EqC(A("cafe5", "city"), Value::Str("sf"))}),
      {A("cafe5", "cid")});
  // cafe5 needs an indexing constraint with covered X: city is constant,
  // but psi4's X = {cid} is not covered... add () -> cid style? Instead use
  // cid from the finite domain via a join-free anchored query: skip; use a
  // covered right side: cafes of dine2 with pid+cid bound.
  AccessSchema bigger = fx_.schema;
  ASSERT_TRUE(bigger.Add(*AccessConstraint::Parse("cafe(() -> (cid), 100)"),
                         fx_.db.catalog())
                  .ok());
  RaExprPtr q = Union(left, right);
  Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, bigger);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->covered) << report->Explain();
  Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<IndexSet> bigger_set = IndexSet::Build(fx_.db, bigger);
  ASSERT_TRUE(bigger_set.ok());
  Result<Table> got = ExecutePlan(*plan, *bigger_set, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(Table::SameSet(*got, Oracle(q)));
}

TEST_F(QPlanTest, EmptyLhsFetchPlan) {
  AccessSchema schema;
  ASSERT_TRUE(schema.Add(*AccessConstraint::Parse("cafe(() -> (cid), 50)"),
                         fx_.db.catalog())
                  .ok());
  ASSERT_TRUE(schema.Add(*AccessConstraint::Parse("cafe((cid) -> (city), 1)"),
                         fx_.db.catalog())
                  .ok());
  RaExprPtr q = Project(Rel("cafe"), {A("cafe", "city")});
  Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, schema);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->covered);
  Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<IndexSet> set = IndexSet::Build(fx_.db, schema);
  ASSERT_TRUE(set.ok());
  Result<Table> got = ExecutePlan(*plan, *set, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(Table::SameSet(*got, Oracle(q)));
}

TEST_F(QPlanTest, SharedClassAttributesHandled) {
  // sigma_{pid = cid}: both attrs share one class; X input duplication.
  AccessSchema schema;
  ASSERT_TRUE(schema.Add(
                  *AccessConstraint::Parse("dine((pid, cid) -> (pid, cid), 1)"),
                  fx_.db.catalog())
                  .ok());
  RaExprPtr q = Project(
      Select(Rel("dine"), {EqA(A("dine", "pid"), A("dine", "cid")),
                           EqC(A("dine", "pid"), Value::Str("c1"))}),
      {A("dine", "cid")});
  Result<NormalizedQuery> nq = Normalize(q, fx_.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, schema);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->covered) << report->Explain();
  Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<IndexSet> set = IndexSet::Build(fx_.db, schema);
  ASSERT_TRUE(set.ok());
  Result<Table> got = ExecutePlan(*plan, *set, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(Table::SameSet(*got, Oracle(q)));
}

// ------------------------------------------------- Indexing plan size ---

/// hub(a, b, c) is indexed by hub((a) -> (b, c), 5); a's and b's classes
/// are also fetched whole from ra(a) and rb(b), 1000 values each. The units
/// of hub's needed attributes a, b, c hold 1000, >= 50 and 50 values, so a
/// candidate product over them has >= 2.5 million rows, while the indexing
/// fetch returns hub's 50 rows whose a is in ra. Every fifth of those has a
/// b outside rb.
struct WideUnitFixture {
  Database db;
  AccessSchema schema;
};

WideUnitFixture MakeWideUnits() {
  WideUnitFixture fx;
  auto col = [](const char* n) { return Attribute{n, ValueType::kInt}; };
  EXPECT_TRUE(fx.db.CreateTable(RelationSchema("ra", {col("a")})).ok());
  EXPECT_TRUE(fx.db.CreateTable(RelationSchema("rb", {col("b")})).ok());
  EXPECT_TRUE(
      fx.db.CreateTable(RelationSchema("hub", {col("a"), col("b"), col("c")}))
          .ok());
  for (const char* text : {"ra(() -> (a), 1000)", "rb(() -> (b), 1000)",
                           "hub((a) -> (b, c), 5)"}) {
    EXPECT_TRUE(
        fx.schema.Add(*AccessConstraint::Parse(text), fx.db.catalog()).ok());
  }
  for (int64_t v = 0; v < 1000; ++v) {
    EXPECT_TRUE(fx.db.Insert("ra", {Value::Int(v)}).ok());
    EXPECT_TRUE(fx.db.Insert("rb", {Value::Int(v)}).ok());
  }
  for (int64_t i = 0; i < 50; ++i) {
    int64_t b = i % 5 == 0 ? 5000 + i : 20 * i;
    EXPECT_TRUE(fx.db.Insert("hub", {Value::Int(10 * i), Value::Int(b),
                                     Value::Int(i)})
                    .ok());
  }
  for (int64_t i = 0; i < 30; ++i) {  // Never fetched: a is not in ra.
    EXPECT_TRUE(fx.db.Insert("hub", {Value::Int(100000 + i), Value::Int(i),
                                     Value::Int(1000 + i)})
                    .ok());
  }
  return fx;
}

TEST(QPlanIndexingSizeTest, WideUnitsStayWithinTheFetchedRows) {
  WideUnitFixture fx = MakeWideUnits();
  RaExprPtr q = Project(
      Select(Product(Product(Rel("hub"), Rel("ra")), Rel("rb")),
             {EqA(A("hub", "a"), A("ra", "a")),
              EqA(A("hub", "b"), A("rb", "b"))}),
      {A("hub", "c")});
  Result<NormalizedQuery> nq = Normalize(q, fx.db.catalog());
  ASSERT_TRUE(nq.ok()) << nq.status().ToString();
  Result<CoverageReport> report = CheckCoverage(*nq, fx.schema);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->covered) << report->Explain();
  Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<IndexSet> indices = IndexSet::Build(fx.db, fx.schema);
  ASSERT_TRUE(indices.ok());
  ExpectProductsOnlyBuildFetchInputs(*plan, "wide units");

  ExecStats stats;
  Result<Table> got = ExecutePlan(*plan, *indices, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Result<Table> want = EvaluateBaseline(*nq, fx.db, nullptr);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(Table::SameSet(*got, *want));
  EXPECT_EQ(got->NumRows(), 40u);

  // The fetches read ra and rb whole and hub's 50 reachable rows; the
  // static bound is 1000 + 1000 + 1000 x 5.
  EXPECT_EQ(stats.tuples_fetched, 2050u);
  EXPECT_EQ(plan->StaticAccessBound(), 7000.0);
  EXPECT_LE(stats.intermediate_rows, 4 * stats.tuples_fetched);

  int indexing_steps = 0;
  for (size_t i = 0; i < plan->steps.size(); ++i) {
    if (!IsIndexingStep(plan->steps[i])) continue;
    ++indexing_steps;
    int at = static_cast<int>(i);
    size_t fetched = StepRows(*plan, FetchUnder(*plan, at), *indices);
    EXPECT_LE(StepRows(*plan, at, *indices), fetched)
        << plan->steps[i].label << "\n" << plan->ToString();
  }
  EXPECT_GE(indexing_steps, 3);
}

class QPlanShapeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(QPlanShapeTest, GeneratedPlansOnlyMultiplyFetchInputs) {
  Result<GeneratedDataset> ds = MakeDataset(GetParam(), 0.02, 1234);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  Result<IndexSet> indices = IndexSet::Build(ds->db, ds->schema);
  ASSERT_TRUE(indices.ok());
  constexpr int kQueries = 100;
  Rng rng(2016);
  int planned = 0;
  for (int attempt = 0; planned < kQueries && attempt < 10 * kQueries;
       ++attempt) {
    QueryGenConfig cfg;
    cfg.num_sel = static_cast<int>(rng.UniformInt(4, 9));
    cfg.num_join = static_cast<int>(rng.UniformInt(0, 5));
    cfg.num_unidiff = static_cast<int>(rng.UniformInt(0, 3));
    cfg.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 30));
    Result<RaExprPtr> q = GenerateCoveredQuery(*ds, cfg);
    if (!q.ok()) continue;
    ++planned;
    Result<NormalizedQuery> nq = Normalize(*q, ds->db.catalog());
    ASSERT_TRUE(nq.ok()) << nq.status().ToString();
    std::string where = StrCat(GetParam(), " query ", planned, ": ",
                               ToAlgebraString(nq->root()));
    Result<CoverageReport> report = CheckCoverage(*nq, ds->schema);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->covered) << where;
    Result<MinimizeResult> m =
        MinimizeAccess(*nq, ds->schema, *report, MinimizeAlgo::kGreedy);
    ASSERT_TRUE(m.ok()) << where << ": " << m.status().ToString();
    Result<Table> want = EvaluateBaseline(*nq, ds->db, nullptr);
    ASSERT_TRUE(want.ok()) << where;
    for (const CoverageReport* r : {&*report, &m->report}) {
      std::string schema = r == &*report ? " (full schema)" : " (minimized)";
      Result<BoundedPlan> plan = GeneratePlan(*nq, *r);
      ASSERT_TRUE(plan.ok()) << where << schema;
      ExpectProductsOnlyBuildFetchInputs(*plan, where + schema);
      Result<Table> got = ExecutePlan(*plan, *indices);
      ASSERT_TRUE(got.ok()) << where << schema;
      EXPECT_TRUE(Table::SameSet(*got, *want)) << where << schema;
    }
  }
  EXPECT_EQ(planned, kQueries);
}

INSTANTIATE_TEST_SUITE_P(Datasets, QPlanShapeTest,
                         ::testing::Values("airca", "tfacc", "mcbm"));

}  // namespace
}  // namespace bqe
