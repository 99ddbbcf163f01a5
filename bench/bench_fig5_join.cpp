// Figure 5 (c), (g), (k): impact of #-join (0..5) on bounded evaluation
// time and accessed data.
//
// Paper shape: more joins -> slower plans and larger D_Q (each hop through
// a constraint multiplies the candidate values); evalDBMS degrades sharply
// with joins (it cannot finish with >= 2 joins within the paper's timeout).
//
// Columns:
//   evalDBMS   — the conventional evaluator,
//   evalQP     — the vectorized columnar executor (plan lowered per call),
//   evalQP-row — the legacy row-at-a-time Tuple interpreter,
//   evalQP-cmp — the compile-once physical plan, serial execution
//                (what a plan-cache hit costs per execution),
//   evalQP-par — the same compiled plan under morsel-driven parallel
//                execution (thread count printed in the footer).
//
// `--reps N` controls measurement repetitions; `--json out.json` writes the
// per-cell metrics for BENCH trajectory tracking.

#include <cstdio>
#include <thread>

#include "bench_util.h"

using namespace bqe;
using namespace bqe::bench;

int main(int argc, char** argv) {
  BenchOptions bopts = ParseBenchOptions(argc, argv);
  unsigned hw = std::thread::hardware_concurrency();
  size_t par_threads = bopts.threads != 0
                           ? bopts.threads
                           : (hw == 0 ? 4 : std::min<size_t>(hw, 8));
  BenchReport report("fig5_join", bopts.reps);

  PrintHeader("Figure 5(c,g,k): varying #-join in [0..5]");
  std::printf(
      "%-7s %-6s | %11s %11s %11s %11s %11s | %12s | %8s %8s\n",
      "dataset", "#-join", "evalDBMS", "evalQP", "evalQP-row", "evalQP-cmp",
      "evalQP-par", "P(DQ)", "cmp-spd", "par-spd");

  double total_vec_ms = 0, total_row_ms = 0, total_cmp_ms = 0,
         total_par_ms = 0;
  for (const char* name : {"airca", "tfacc", "mcbm"}) {
    Result<GeneratedDataset> ds_r = MakeDataset(name, 0.25, 1234);
    if (!ds_r.ok()) return 1;
    GeneratedDataset ds = std::move(*ds_r);
    Result<IndexSet> indices = IndexSet::Build(ds.db, ds.schema);
    if (!indices.ok()) return 1;

    for (int njoin = 0; njoin <= 5; ++njoin) {
      QueryGenConfig cfg;
      cfg.num_sel = 5;
      cfg.num_join = njoin;
      cfg.seed = static_cast<uint64_t>(njoin) * 13 + 3;
      std::vector<RaExprPtr> queries = CoveredQueries(ds, cfg, 12);

      double dbms_ms = 0, qp_ms = 0, row_ms = 0, cmp_ms = 0, par_ms = 0;
      uint64_t fetched = 0;
      int measured = 0;
      for (const RaExprPtr& q : queries) {
        Result<NormalizedQuery> nq = Normalize(q, ds.db.catalog());
        if (!nq.ok()) continue;
        BoundedRun run = RunBounded(*nq, ds.schema, *indices, bopts.reps);
        if (!run.ok) continue;
        BoundedRun row_run =
            RunBoundedLegacy(*nq, ds.schema, *indices, bopts.reps);
        BoundedRun cmp_run =
            RunCompiled(*nq, ds.schema, *indices, bopts.reps);
        BoundedRun par_run = RunCompiled(*nq, ds.schema, *indices, bopts.reps,
                                         par_threads);
        BaselineRun base = RunBaseline(*nq, ds.db, bopts.reps);
        ++measured;
        qp_ms += run.ms;
        row_ms += row_run.ms;
        cmp_ms += cmp_run.ms;
        par_ms += par_run.ms;
        dbms_ms += base.ms;
        fetched += run.fetched;
      }
      if (measured == 0) continue;
      total_vec_ms += qp_ms;
      total_row_ms += row_ms;
      total_cmp_ms += cmp_ms;
      total_par_ms += par_ms;
      double pdq = static_cast<double>(fetched) /
                   (static_cast<double>(ds.db.TotalTuples()) * measured);
      std::printf(
          "%-7s %-6d | %9.2fms %9.3fms %9.3fms %9.3fms %9.3fms | %12.3e | "
          "%7.2fx %7.2fx\n",
          name, njoin, dbms_ms / measured, qp_ms / measured, row_ms / measured,
          cmp_ms / measured, par_ms / measured, pdq,
          cmp_ms > 0 ? qp_ms / cmp_ms : 0.0,
          par_ms > 0 ? qp_ms / par_ms : 0.0);
      report.AddCell(name)
          .Label("njoin", njoin)
          .Metric("queries", measured)
          .Metric("dbms_ms", dbms_ms / measured)
          .Metric("qp_ms", qp_ms / measured)
          .Metric("row_ms", row_ms / measured)
          .Metric("compiled_ms", cmp_ms / measured)
          .Metric("parallel_ms", par_ms / measured)
          .Metric("pdq", pdq)
          .Metric("threads", static_cast<double>(par_threads));
    }
  }
  std::printf(
      "\nOverall vectorized speedup over row-at-a-time: %.2fx\n",
      total_vec_ms > 0 ? total_row_ms / total_vec_ms : 0.0);
  std::printf(
      "Overall compile-once speedup over per-call lowering: %.2fx\n",
      total_cmp_ms > 0 ? total_vec_ms / total_cmp_ms : 0.0);
  std::printf(
      "Overall parallel (%zu threads) speedup over vectorized: %.2fx\n",
      par_threads, total_par_ms > 0 ? total_vec_ms / total_par_ms : 0.0);
  std::printf(
      "\nPaper shape: evalQP time and P(DQ) grow with #-join; evalDBMS is\n"
      "very sensitive to joins (with >= 2 joins it exceeded the paper's\n"
      "3000s timeout on all datasets).\n");
  if (!report.WriteJson(bopts.json_path)) return 1;
  return 0;
}
