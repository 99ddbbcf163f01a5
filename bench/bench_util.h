#ifndef BQE_BENCH_BENCH_UTIL_H_
#define BQE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/eval.h"
#include "constraints/index.h"
#include "core/cov.h"
#include "core/minimize.h"
#include "core/plan_exec.h"
#include "core/qplan.h"
#include "exec/physical_plan.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace bench {

/// Common benchmark command line: `--reps N` overrides the measurement
/// repetition count, `--json PATH` additionally writes machine-readable
/// per-cell results (BenchReport) for trajectory tracking, `--threads N`
/// overrides the parallel-execution thread count (0 = auto from hardware
/// concurrency — the only way to exercise parallel columns on a machine
/// reporting one core).
struct BenchOptions {
  int reps = 3;
  size_t threads = 0;
  std::string json_path;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) != 0) return "";
      if (arg.size() > n && arg[n] == '=') return arg.substr(n + 1);
      if (arg.size() == n && i + 1 < argc) return argv[++i];
      return "";
    };
    std::string v;
    if (!(v = value("--reps")).empty()) {
      opts.reps = std::max(1, std::atoi(v.c_str()));
    } else if (!(v = value("--threads")).empty()) {
      opts.threads = static_cast<size_t>(std::max(0, std::atoi(v.c_str())));
    } else if (!(v = value("--json")).empty()) {
      opts.json_path = v;
    }
  }
  return opts;
}

/// Machine-readable benchmark results: one cell per measurement point
/// (dataset x parameter combination), each holding string labels and double
/// metrics, serialized as JSON for BENCH_*.json trajectory tracking.
class BenchReport {
 public:
  struct Cell {
    std::string dataset;
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> metrics;

    Cell& Label(const std::string& k, const std::string& v) {
      labels.emplace_back(k, v);
      return *this;
    }
    Cell& Label(const std::string& k, int64_t v) {
      return Label(k, std::to_string(v));
    }
    Cell& Metric(const std::string& k, double v) {
      metrics.emplace_back(k, std::isfinite(v) ? v : 0.0);
      return *this;
    }
  };

  explicit BenchReport(std::string name, int reps)
      : name_(std::move(name)), reps_(reps) {}

  Cell& AddCell(const std::string& dataset) {
    cells_.emplace_back();
    cells_.back().dataset = dataset;
    return cells_.back();
  }

  /// Writes the report as JSON; no-op (returning true) when `path` empty.
  bool WriteJson(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"reps\":%d,\"cells\":[",
                 Escaped(name_).c_str(), reps_);
    for (size_t c = 0; c < cells_.size(); ++c) {
      const Cell& cell = cells_[c];
      std::fprintf(f, "%s{\"dataset\":\"%s\",\"labels\":{",
                   c == 0 ? "" : ",", Escaped(cell.dataset).c_str());
      for (size_t i = 0; i < cell.labels.size(); ++i) {
        std::fprintf(f, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                     Escaped(cell.labels[i].first).c_str(),
                     Escaped(cell.labels[i].second).c_str());
      }
      std::fprintf(f, "},\"metrics\":{");
      for (size_t i = 0; i < cell.metrics.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%.6g", i == 0 ? "" : ",",
                     Escaped(cell.metrics[i].first).c_str(),
                     cell.metrics[i].second);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out.push_back('\\');
        out.push_back(ch);
      } else if (static_cast<unsigned char>(ch) >= 0x20) {
        out.push_back(ch);
      }
    }
    return out;
  }

  std::string name_;
  int reps_;
  std::vector<Cell> cells_;
};

/// Latency distribution + throughput of one measured request population —
/// what a serving benchmark reports per mode. Percentiles use the
/// nearest-rank method on the sorted per-request latencies; qps is the
/// request count over the measured wall time (not the sum of latencies:
/// concurrent requests overlap).
struct LatencySummary {
  size_t count = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double mean_ms = 0, max_ms = 0;
  double qps = 0;
};

/// Nearest-rank percentile (q in [0,100]) over an already *sorted* sample.
inline double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  double rank = q / 100.0 * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(rank));
  if (idx > 0) --idx;  // 1-based nearest rank -> 0-based index.
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

/// Summarizes per-request latencies (milliseconds; consumed/sorted in
/// place) measured over `wall_ms` of wall time.
inline LatencySummary SummarizeLatencies(std::vector<double>* latencies_ms,
                                         double wall_ms) {
  LatencySummary s;
  s.count = latencies_ms->size();
  if (s.count == 0) return s;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  s.p50_ms = PercentileSorted(*latencies_ms, 50);
  s.p95_ms = PercentileSorted(*latencies_ms, 95);
  s.p99_ms = PercentileSorted(*latencies_ms, 99);
  s.max_ms = latencies_ms->back();
  double total = 0;
  for (double v : *latencies_ms) total += v;
  s.mean_ms = total / static_cast<double>(s.count);
  s.qps = wall_ms <= 0 ? 0.0
                       : static_cast<double>(s.count) / (wall_ms / 1000.0);
  return s;
}

/// Standard latency/throughput metric block for a BenchReport cell, so
/// every bench reports the same JSON keys for trajectory tracking.
inline BenchReport::Cell& AddLatencyMetrics(BenchReport::Cell& cell,
                                            const LatencySummary& s) {
  return cell.Metric("requests", static_cast<double>(s.count))
      .Metric("qps", s.qps)
      .Metric("p50_ms", s.p50_ms)
      .Metric("p95_ms", s.p95_ms)
      .Metric("p99_ms", s.p99_ms)
      .Metric("mean_ms", s.mean_ms)
      .Metric("max_ms", s.max_ms);
}

/// Milliseconds spent in `fn`, averaged over `runs` runs (the paper averages
/// over 3 runs).
inline double TimeMs(const std::function<void()>& fn, int runs = 3) {
  double total = 0.0;
  for (int i = 0; i < runs; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    total += std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  return total / runs;
}

/// The workload of one Fig. 5 measurement point: `count` covered queries
/// (the paper uses "5 covered queries randomly chosen").
inline std::vector<RaExprPtr> CoveredQueries(const GeneratedDataset& ds,
                                             QueryGenConfig cfg, int count) {
  std::vector<RaExprPtr> out;
  for (int i = 0; i < count; ++i) {
    cfg.seed = cfg.seed * 31 + 1000 + static_cast<uint64_t>(i) * 17;
    Result<RaExprPtr> q = GenerateCoveredQuery(ds, cfg);
    if (q.ok()) out.push_back(*q);
  }
  return out;
}

/// One measured query evaluation through the bounded path.
struct BoundedRun {
  double ms = 0;
  uint64_t fetched = 0;
  bool ok = false;
};

/// Plans (against `schema`, which may be a minimized subset) and executes a
/// covered query through the given indices — by default through the
/// vectorized columnar executor; set `row_at_a_time` to measure the legacy
/// Tuple interpreter instead.
inline BoundedRun RunBounded(const NormalizedQuery& nq,
                             const AccessSchema& schema,
                             const IndexSet& indices, int runs = 3,
                             bool row_at_a_time = false) {
  BoundedRun out;
  Result<CoverageReport> report = CheckCoverage(nq, schema);
  if (!report.ok() || !report->covered) return out;
  Result<BoundedPlan> plan = GeneratePlan(nq, *report);
  if (!plan.ok()) return out;
  ExecStats stats;
  out.ms = TimeMs(
      [&] {
        stats = ExecStats{};
        Result<Table> t =
            row_at_a_time ? ExecutePlanRowAtATime(*plan, indices, &stats)
                          : ExecutePlan(*plan, indices, &stats);
        (void)t;
      },
      runs);
  out.fetched = stats.tuples_fetched;
  out.ok = true;
  return out;
}

/// The legacy row-at-a-time executor on the same plan (the pre-vectorization
/// baseline benchmarks compare against).
inline BoundedRun RunBoundedLegacy(const NormalizedQuery& nq,
                                   const AccessSchema& schema,
                                   const IndexSet& indices, int runs = 3) {
  return RunBounded(nq, schema, indices, runs, /*row_at_a_time=*/true);
}

/// The compile-once path: plans and compiles outside the timing loop, then
/// measures ExecutePhysicalPlan alone — what a plan-cache hit costs per
/// execution. `threads` > 1 measures the morsel-driven parallel executor;
/// `row_path_threshold` > 0 enables the adaptive micro-plan fallback.
inline BoundedRun RunCompiled(const NormalizedQuery& nq,
                              const AccessSchema& schema,
                              const IndexSet& indices, int runs = 3,
                              size_t threads = 1,
                              size_t row_path_threshold = 0) {
  BoundedRun out;
  Result<CoverageReport> report = CheckCoverage(nq, schema);
  if (!report.ok() || !report->covered) return out;
  Result<BoundedPlan> plan = GeneratePlan(nq, *report);
  if (!plan.ok()) return out;
  Result<PhysicalPlan> pp = PhysicalPlan::Compile(*plan, indices);
  if (!pp.ok()) return out;
  ExecOptions opts;
  opts.num_threads = threads;
  opts.row_path_threshold = row_path_threshold;
  ExecStats stats;
  out.ms = TimeMs(
      [&] {
        stats = ExecStats{};
        Result<Table> t = ExecutePhysicalPlan(*pp, &stats, opts);
        (void)t;
      },
      runs);
  out.fetched = stats.tuples_fetched;
  out.ok = true;
  return out;
}

struct BaselineRun {
  double ms = 0;
  uint64_t scanned = 0;
  bool ok = false;
};

inline BaselineRun RunBaseline(const NormalizedQuery& nq, const Database& db,
                               int runs = 3) {
  BaselineRun out;
  BaselineStats stats;
  out.ms = TimeMs(
      [&] {
        stats = BaselineStats{};
        Result<Table> t = EvaluateBaseline(nq, db, &stats);
        if (!t.ok()) return;
        out.ok = true;
      },
      runs);
  out.scanned = stats.tuples_scanned;
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  for (size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n");
}

}  // namespace bench
}  // namespace bqe

#endif  // BQE_BENCH_BENCH_UTIL_H_
