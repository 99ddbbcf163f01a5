#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "baseline/eval.h"
#include "constraints/index.h"
#include "core/cov.h"
#include "core/plan_exec.h"
#include "core/qplan.h"
#include "exec/parallel.h"
#include "exec/physical_plan.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

/// Differential testing of the compiled executor and the morsel-driven
/// parallel executor: random bounded plans are compiled once
/// (PhysicalPlan::Compile) and executed single- and multi-threaded; result
/// sets, access accounting (probes, fetched tuples), and output row counts
/// must be identical. The same 48 dataset/seed cases as
/// vec_differential_test.cc.

struct DiffCase {
  const char* dataset;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return std::string(info.param.dataset) + "_s" +
         std::to_string(info.param.seed);
}

class ParallelExecTest : public ::testing::TestWithParam<DiffCase> {
 protected:
  static const GeneratedDataset& Dataset(const std::string& name) {
    static std::map<std::string, GeneratedDataset> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      Result<GeneratedDataset> ds = MakeDataset(name, 0.02, 4321);
      EXPECT_TRUE(ds.ok()) << ds.status().ToString();
      it = cache.emplace(name, std::move(*ds)).first;
    }
    return it->second;
  }

  static const IndexSet& Indices(const std::string& name) {
    static std::map<std::string, IndexSet> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      const GeneratedDataset& ds = Dataset(name);
      Result<IndexSet> set = IndexSet::Build(ds.db, ds.schema);
      EXPECT_TRUE(set.ok()) << set.status().ToString();
      it = cache.emplace(name, std::move(*set)).first;
    }
    return it->second;
  }

  Result<BoundedPlan> MakePlan(const GeneratedDataset& ds, uint64_t seed) {
    QueryGenConfig cfg;
    cfg.seed = seed * 7919 + 17;
    cfg.num_sel = 2 + static_cast<int>(seed % 5);
    cfg.num_join = static_cast<int>(seed % 5);
    cfg.num_unidiff = static_cast<int>(seed % 3);
    BQE_ASSIGN_OR_RETURN(RaExprPtr q, GenerateCoveredQuery(ds, cfg));
    BQE_ASSIGN_OR_RETURN(NormalizedQuery nq, Normalize(q, ds.db.catalog()));
    BQE_ASSIGN_OR_RETURN(CoverageReport report, CheckCoverage(nq, ds.schema));
    return GeneratePlan(nq, report);
  }
};

TEST_P(ParallelExecTest, ParallelMatchesSerialCompiled) {
  const DiffCase& param = GetParam();
  const GeneratedDataset& ds = Dataset(param.dataset);
  const IndexSet& indices = Indices(param.dataset);
  Result<BoundedPlan> plan = MakePlan(ds, param.seed);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, indices);
  ASSERT_TRUE(pp.ok()) << pp.status().ToString();

  ExecOptions serial_opts;
  // Small batches so plans produce multiple morsels even on tiny data.
  serial_opts.batch_size = param.seed % 7 == 0 ? 1 : size_t{16}
                                                         << (param.seed % 4);
  ExecStats serial_stats;
  Result<Table> serial = ExecutePhysicalPlan(*pp, &serial_stats, serial_opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (size_t threads : {2u, 4u}) {
    ExecOptions par_opts = serial_opts;
    par_opts.num_threads = threads;
    ExecStats par_stats;
    Result<Table> par = ExecutePhysicalPlan(*pp, &par_stats, par_opts);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_TRUE(Table::SameSet(*serial, *par))
        << "threads=" << threads << " plan:\n"
        << plan->ToString() << "\nserial: " << serial->NumRows()
        << " rows, parallel: " << par->NumRows() << " rows";
    // The parallel row *stream* is specified to equal the serial one, not
    // just the set: morsel outputs are merged in morsel order.
    ASSERT_EQ(serial->NumRows(), par->NumRows());
    for (size_t r = 0; r < serial->NumRows(); ++r) {
      EXPECT_EQ(serial->rows()[r], par->rows()[r]) << "row " << r;
    }
    // Access accounting is thread-count invariant.
    EXPECT_EQ(serial_stats.tuples_fetched, par_stats.tuples_fetched);
    EXPECT_EQ(serial_stats.fetch_probes, par_stats.fetch_probes);
    EXPECT_EQ(serial_stats.output_rows, par_stats.output_rows);
    EXPECT_EQ(serial_stats.intermediate_rows, par_stats.intermediate_rows);
  }
}

TEST_P(ParallelExecTest, ParallelMatchesBaselineOracle) {
  const DiffCase& param = GetParam();
  const GeneratedDataset& ds = Dataset(param.dataset);
  const IndexSet& indices = Indices(param.dataset);

  QueryGenConfig cfg;
  cfg.seed = param.seed * 7919 + 17;
  cfg.num_sel = 2 + static_cast<int>(param.seed % 5);
  cfg.num_join = static_cast<int>(param.seed % 5);
  cfg.num_unidiff = static_cast<int>(param.seed % 3);
  Result<RaExprPtr> q = GenerateCoveredQuery(ds, cfg);
  ASSERT_TRUE(q.ok());
  Result<NormalizedQuery> nq = Normalize(*q, ds.db.catalog());
  ASSERT_TRUE(nq.ok());
  Result<CoverageReport> report = CheckCoverage(*nq, ds.schema);
  ASSERT_TRUE(report.ok());
  Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
  ASSERT_TRUE(plan.ok());

  Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, indices);
  ASSERT_TRUE(pp.ok());
  ExecOptions opts;
  opts.num_threads = 4;
  Result<Table> par = ExecutePhysicalPlan(*pp, nullptr, opts);
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  Result<Table> oracle = EvaluateBaseline(*nq, ds.db, nullptr);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(Table::SameSet(*par, *oracle))
      << "plan:\n"
      << plan->ToString() << "\nparallel: " << par->NumRows()
      << " rows, baseline: " << oracle->NumRows() << " rows";
}

TEST_P(ParallelExecTest, RowPathFallbackMatches) {
  const DiffCase& param = GetParam();
  const GeneratedDataset& ds = Dataset(param.dataset);
  const IndexSet& indices = Indices(param.dataset);
  Result<BoundedPlan> plan = MakePlan(ds, param.seed);
  ASSERT_TRUE(plan.ok());
  Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, indices);
  ASSERT_TRUE(pp.ok());

  Result<Table> vec = ExecutePhysicalPlan(*pp, nullptr, {});
  ASSERT_TRUE(vec.ok());
  // A huge threshold forces the adaptive row-at-a-time fallback.
  ExecOptions row_opts;
  row_opts.row_path_threshold = ~size_t{0};
  ExecStats row_stats;
  Result<Table> row = ExecutePhysicalPlan(*pp, &row_stats, row_opts);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(Table::SameSet(*vec, *row));
  EXPECT_EQ(vec->ColumnTypes(), row->ColumnTypes());
}

TEST_F(ParallelExecTest, CompiledPlanIsReusableAcrossExecutions) {
  const GeneratedDataset& ds = Dataset("airca");
  const IndexSet& indices = Indices("airca");
  Result<BoundedPlan> plan = MakePlan(ds, 3);
  ASSERT_TRUE(plan.ok());
  Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, indices);
  ASSERT_TRUE(pp.ok());
  Result<Table> first = ExecutePhysicalPlan(*pp, nullptr, {});
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 3; ++i) {
    Result<Table> again = ExecutePhysicalPlan(*pp, nullptr, {});
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(Table::SameSet(*first, *again));
    EXPECT_EQ(first->NumRows(), again->NumRows());
  }
}

std::vector<DiffCase> AllCases() {
  std::vector<DiffCase> cases;
  for (const char* ds : {"airca", "tfacc", "mcbm"}) {
    for (uint64_t seed = 0; seed < 16; ++seed) {
      cases.push_back(DiffCase{ds, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Datasets, ParallelExecTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// A join workload with breaker builds above 4,096 rows (0.25-scale airca,
// 4 joins, the bench_fig5_join cell with the largest build sides): 4
// threads must still emit the serial executor's row stream.
TEST(LargeBuildParallelTest, FourThreadsMatchSerialOnAircaFourJoins) {
  Result<GeneratedDataset> ds_r = MakeDataset("airca", 0.25, 1234);
  ASSERT_TRUE(ds_r.ok());
  GeneratedDataset ds = std::move(*ds_r);
  Result<IndexSet> indices = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(indices.ok());

  QueryGenConfig cfg;
  cfg.num_sel = 5;
  cfg.num_join = 4;
  cfg.seed = 4 * 13 + 3;  // The bench_fig5_join airca 4-join cell.
  int compared = 0;
  for (int i = 0; i < 8; ++i) {
    cfg.seed = cfg.seed * 31 + 1000 + static_cast<uint64_t>(i) * 17;
    Result<RaExprPtr> q = GenerateCoveredQuery(ds, cfg);
    if (!q.ok()) continue;
    Result<NormalizedQuery> nq = Normalize(*q, ds.db.catalog());
    ASSERT_TRUE(nq.ok());
    Result<CoverageReport> report = CheckCoverage(*nq, ds.schema);
    if (!report.ok() || !report->covered) continue;
    Result<BoundedPlan> plan = GeneratePlan(*nq, *report);
    ASSERT_TRUE(plan.ok());
    Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, *indices);
    ASSERT_TRUE(pp.ok());

    Result<Table> serial = ExecutePhysicalPlan(*pp, nullptr, {});
    ASSERT_TRUE(serial.ok());
    ExecOptions opts;
    opts.num_threads = 4;
    Result<Table> par = ExecutePhysicalPlan(*pp, nullptr, opts);
    ASSERT_TRUE(par.ok());
    ASSERT_EQ(serial->NumRows(), par->NumRows());
    for (size_t r = 0; r < serial->NumRows(); ++r) {
      ASSERT_EQ(serial->rows()[r], par->rows()[r]) << "row " << r;
    }
    ++compared;
  }
  ASSERT_GT(compared, 0);
}

// ------------------------------------------------- task-group scheduling ---
// The serving layer dispatches concurrent queries as concurrent tagged task
// groups; these tests pin the WorkerPool refactor that makes that possible.

TEST(WorkerPoolTaskGroupTest, ConcurrentGroupsBothMakeProgress) {
  // Group A's items block until group B has executed an item. Under the
  // pre-refactor pool (one job at a time, callers serialized) this
  // deadlocks: B could never start while A was in flight. With task groups
  // B's caller thread always works B's own items, so A unblocks.
  WorkerPool& pool = WorkerPool::Shared();
  const uint64_t groups0 = pool.stats().groups;
  std::atomic<bool> b_ran{false};
  std::atomic<bool> gave_up{false};
  std::thread b_caller([&] {
    // Let A register first so the old behavior would actually serialize.
    while (pool.stats().groups == groups0) std::this_thread::yield();
    pool.ParallelFor(4, WorkerPool::GroupOptions{2, /*tag=*/7},
                     [&](size_t, size_t) { b_ran.store(true); });
  });
  pool.ParallelFor(8, WorkerPool::GroupOptions{2, /*tag=*/3},
                   [&](size_t, size_t) {
                     auto deadline = std::chrono::steady_clock::now() +
                                     std::chrono::seconds(30);
                     while (!b_ran.load()) {
                       if (std::chrono::steady_clock::now() > deadline) {
                         gave_up.store(true);
                         return;
                       }
                       std::this_thread::yield();
                     }
                   });
  b_caller.join();
  EXPECT_TRUE(b_ran.load());
  EXPECT_FALSE(gave_up.load()) << "concurrent task group never progressed";
  EXPECT_GE(pool.stats().max_concurrent_groups, 2u);
}

TEST(WorkerPoolTaskGroupTest, WorkerIdsAreDensePerGroup) {
  WorkerPool& pool = WorkerPool::Shared();
  constexpr size_t kWorkers = 4;
  constexpr size_t kItems = 64;
  std::atomic<int> bad_ids{0};
  std::atomic<uint64_t> covered{0};
  pool.ParallelFor(kItems, kWorkers, [&](size_t w, size_t item) {
    if (w >= kWorkers) bad_ids.fetch_add(1);
    covered.fetch_add(item + 1);  // Sum 1..kItems checks each item ran once.
  });
  EXPECT_EQ(bad_ids.load(), 0);
  EXPECT_EQ(covered.load(), kItems * (kItems + 1) / 2);
}

TEST(WorkerPoolTaskGroupTest, ExceptionCurtailsGroupAndRethrows) {
  WorkerPool& pool = WorkerPool::Shared();
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(256, 4,
                       [&](size_t, size_t item) {
                         if (item == 5) throw std::runtime_error("boom");
                         ran.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 256u);  // Remaining items were curtailed.
  // The pool stays serviceable for later groups.
  std::atomic<size_t> after{0};
  pool.ParallelFor(16, 4, [&](size_t, size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16u);
}

TEST(WorkerPoolTaskGroupTest, ManyConcurrentCallersDrainCorrectly) {
  WorkerPool& pool = WorkerPool::Shared();
  constexpr int kCallers = 6;
  constexpr size_t kItems = 200;
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kItems,
                       WorkerPool::GroupOptions{3, static_cast<uint64_t>(c)},
                       [&](size_t, size_t) { total.fetch_add(1); });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), static_cast<uint64_t>(kCallers) * kItems);
}

}  // namespace
}  // namespace bqe
