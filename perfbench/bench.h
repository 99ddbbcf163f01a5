// Shared harness of the repository benchmark: run options, the report that
// becomes the final JSON line, latency logs, the span tracer and the
// per-execution accounting every workload reuses.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/exec_stats.h"
#include "storage/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;  ///< Where the traced run writes its spans.
};

/// Linearly interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// The host's speed over a run. The reference host's cores slow down, at
/// times to less than half speed, for seconds to minutes whatever the
/// benchmark does, so every reported time is rescaled to one reference
/// speed: a fixed CPU and allocator kernel (the probe), which never touches
/// the program under test, is timed every ~100 ms of the run, and a time
/// measured at t is multiplied by kReferenceProbeUs / (median probe time
/// within 0.5 s of t). A change in the program moves the rescaled times in
/// full; a slow phase of the host moves the probe as well and cancels out.
class HostSpeed {
 public:
  /// Probe time, in microseconds, that defines the reference speed (about
  /// the probe on an unloaded core of the 4-core reference host).
  static constexpr double kReferenceProbeUs = 500;

  /// Probes when at least 100 ms have passed since the last probe. Only
  /// one thread may probe.
  void MaybeProbe();
  /// Five probes back to back, for the edges of a span of program work
  /// that cannot be interrupted (a set-up).
  void ProbeBurst();
  /// Factor that rescales a time measured over [a, b] to the reference
  /// speed: kReferenceProbeUs / the median probe within 0.5 s of it (1
  /// when there is no probe).
  double Scale(Clock::time_point a, Clock::time_point b) const;
  double Scale(Clock::time_point t) const { return Scale(t, t); }
  size_t probes() const { return probes_.size(); }
  /// Median probe time over the run, in microseconds.
  double MedianProbeUs() const;

 private:
  void Probe();

  struct Sample {
    Clock::time_point at;
    double us;
  };
  std::vector<Sample> probes_;  ///< In time order.
};

/// Read or write latencies of one run, in microseconds, each stamped with
/// its completion time. The host's speed drifts on a scale of seconds, so
/// the rate is a median over ~1-second slices of the run rather than one
/// count over the whole run.
class LatencyLog {
 public:
  void Add(double us) { samples_.push_back(Sample{Clock::now(), us}); }
  void Append(const LatencyLog& o) {
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
  }
  size_t size() const { return samples_.size(); }
  double Mean() const;
  double P50() const;
  /// Median over slices of each slice's completions per second of the
  /// clients' time spent in these operations: count / (summed latency /
  /// clients). A closed loop that also writes thus reports its reads per
  /// second of read time, which write time does not dilute.
  double Rate(int clients) const;
  double Quantile(double q) const;
  void Reserve(size_t n) { samples_.reserve(n); }
  /// This log with every latency rescaled to the reference speed.
  LatencyLog Rescaled(const HostSpeed& speed) const;

 private:
  struct Sample {
    Clock::time_point end;
    double us;
  };
  struct Slice {
    size_t count = 0;
    double busy_us = 0;  ///< Summed latency of the slice's samples.
  };
  /// Splits the run into at least 5 slices of about a second each by
  /// completion time.
  std::vector<Slice> Slices() const;

  std::vector<Sample> samples_;
};

/// Everything one run prints: outcome counts, correctness, and metrics by
/// name. Per-layer metric names must come from the canonical list in
/// bench.cc, so every traced run prints the same set.
class Report {
 public:
  /// One operation attempted. At the baseline no operation fails, so a
  /// failed or refused one is a defect: it counts as failed and marks the
  /// run incorrect, as a wrong answer does.
  void Attempt(bool ok, const char* what) {
    ++attempted_;
    if (!ok) Wrong(std::string(what) + " failed");
  }
  void AddAttempts(uint64_t attempted, uint64_t failed, const char* what) {
    attempted_ += attempted;
    for (uint64_t i = 0; i < failed; ++i) Wrong(std::string(what) + " failed");
  }
  /// A previously counted operation turned out wrong (failed answer check
  /// or bound violation): counts as failed and marks the run incorrect.
  void Wrong(const std::string& what);
  void Set(const std::string& name, double value);
  /// Prints an informational line (never the last line of the output).
  void Note(const char* fmt, ...) const __attribute__((format(printf, 2, 3)));

  /// The end-to-end metrics from the timed window, every time rescaled to
  /// the reference speed of `speed`. `setup_s` holds every set-up of the
  /// run, already rescaled (see SetupTimer); their lower quartile is
  /// reported, which one slow set-up cannot raise.
  /// `clients` is the number of closed-loop readers. `ready_rss_mb` is the
  /// peak RSS sampled once set-up and warm-up are done: the ready system's
  /// footprint. A later sample would also hold the transient peak of
  /// whichever heavy query the seed put in the window.
  void SetEndToEnd(const std::vector<double>& setup_s, const LatencyLog& reads,
                   int clients, const LatencyLog& writes, double ready_rss_mb,
                   const HostSpeed& speed);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints the final JSON line: end-to-end metrics when untraced, the
  /// per-layer list when traced.
  void PrintJson(bool trace) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0, failed_ = 0;
  size_t wrong_logged_ = 0;
  std::map<std::string, double> values_;
};

/// In-memory spans of one thread: name, start, end, parent span, request
/// id. Spans nest strictly (Begin/End in stack order), so a span's self
/// time is its duration minus the summed durations of its direct children.
/// Per-name totals are kept for every span; span records only up to a cap.
class Tracer {
 public:
  struct Record {
    const char* name;
    uint64_t request;
    int64_t parent;  ///< Record index of the parent span, -1 at the root.
    int64_t start_ns, end_ns, self_ns;
  };
  struct Totals {
    uint64_t count = 0;
    double total_us = 0, self_us = 0;
  };

  explicit Tracer(size_t max_records = 50000) : max_records_(max_records) {}

  void Begin(const char* name, uint64_t request);
  /// Ends the innermost open span and returns its duration in microseconds.
  double End();

  const std::map<std::string, Totals>& totals() const { return totals_; }
  /// Mean time per request of the spans named `name` (summed over them).
  double PerRequestUs(const std::string& name, uint64_t requests) const;
  /// Folds another thread's tracer into this one.
  void Merge(const Tracer& other);

  /// Writes the records as Chrome trace-event JSON ("X" events; args hold
  /// the request id, parent span and self time).
  bool Write(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    int64_t record;
    int64_t start_ns;
    int64_t child_ns;
  };
  static int64_t NowNs();

  size_t max_records_;
  std::vector<Record> records_;
  std::vector<Open> open_;
  std::map<std::string, Totals> totals_;
  uint64_t dropped_ = 0;
};

/// Times one set-up: probes the host right before and right after it
/// (the set-up itself cannot be interrupted to probe) and keeps both the
/// measured seconds and the seconds at the reference speed.
class SetupTimer {
 public:
  explicit SetupTimer(HostSpeed* speed) : speed_(speed) {
    speed_->ProbeBurst();
    start_ = Clock::now();
  }
  /// Ends the set-up; returns its measured seconds.
  double Stop() {
    Clock::time_point end = Clock::now();
    speed_->ProbeBurst();
    seconds_ = std::chrono::duration<double>(end - start_).count();
    rescaled_ = seconds_ * speed_->Scale(start_, end);
    return seconds_;
  }
  double rescaled() const { return rescaled_; }

 private:
  HostSpeed* speed_;
  Clock::time_point start_;
  double seconds_ = 0, rescaled_ = 0;
};

/// RAII span.
class Span {
 public:
  Span(Tracer* t, const char* name, uint64_t request) : t_(t) {
    if (t_ != nullptr) t_->Begin(name, request);
  }
  ~Span() {
    if (t_ != nullptr) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

/// Accounting over a fixed set of bounded executions: |D_Q| per execution,
/// P(D_Q), fetched against the plan's static bound, and operator times.
class ExecAccount {
 public:
  explicit ExecAccount(size_t db_tuples) : db_tuples_(db_tuples) {}
  /// Records one execution; returns false (a bound violation) when it
  /// fetched more than `static_bound`.
  bool Add(const bqe::ExecStats& st, double static_bound);
  uint64_t executions() const { return executions_; }
  /// Sets the exec.* per-layer metrics.
  void Fill(Report* r) const;

 private:
  size_t db_tuples_;
  uint64_t executions_ = 0, fetched_ = 0, intermediate_ = 0, row_path_ = 0;
  double max_over_bound_ = 0;
  double op_ms_[bqe::kNumPlanStepKinds] = {};
};

/// Writes the tracer's spans to opts.trace_file (when set) and prints, per
/// span name, its count and its total and self time per request.
void WriteTrace(const RunOptions& opts, const Tracer& tr, uint64_t requests,
                Report* report);

/// Row-for-row equality (same rows in the same order).
bool RowForRow(const bqe::Table& a, const bqe::Table& b);
/// Equality as bags (order-free, duplicates counted).
bool SameBag(const bqe::Table& a, const bqe::Table& b);

/// Keeps this process, and every thread it starts later, on the CPU the
/// calling thread runs on now. Returns false when the CPU cannot be told.
bool PinToCurrentCpu();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

// The workloads. Each builds its inputs from opts.seed, measures for
// opts.seconds, checks every answer, and fills `report`.
void RunAdhoc(const RunOptions& opts, Report* report);
void RunHotChurn(const RunOptions& opts, Report* report);
void RunFanout(const RunOptions& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
