#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <unordered_map>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by an untraced run. Keep in sync with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"read_qps", "1/s"},
    {"read_p50_us", "us"},     {"read_p90_us", "us"},
    {"write_p50_us", "us"},    {"write_p90_us", "us"},
    {"peak_rss_mb", "MB"},
};

// Printed by a traced run. A workload that does not engage a layer leaves
// its metrics at 0. Keep in sync with BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"ra.normalize_us", "us"},
    {"core.fingerprint_us", "us"},
    {"core.coverage_us", "us"},
    {"core.minimize_us", "us"},
    {"core.plan_us", "us"},
    {"core.sql_us", "us"},
    {"core.plan_cache_hit_ratio", "ratio"},
    {"exec.compile_us", "us"},
    {"exec.execute_us", "us"},
    {"exec.op.fetch_ms", "ms"},
    {"exec.op.product_ms", "ms"},
    {"exec.op.join_ms", "ms"},
    {"exec.op.project_ms", "ms"},
    {"exec.intermediate_per_fetched", "ratio"},
    {"exec.row_path_share", "ratio"},
    {"exec.fetched_per_exec", "tuples"},
    {"exec.dq_ratio", "ratio"},
    {"exec.fetched_over_bound", "ratio"},
    {"exec.ivm.refresh_us", "us"},
    {"exec.ivm.fallback_ratio", "ratio"},
    {"constraints.build_s", "s"},
    {"constraints.apply_us", "us"},
    {"constraints.entries_per_tuple", "ratio"},
    {"constraints.mirror_freezes", "count"},
    {"serve.result_hit_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.pin_hit_ratio", "ratio"},
    {"serve.self_us", "us"},
    {"serve.writer_late_us", "us"},
    {"cluster.create_s", "s"},
    {"cluster.execute_us", "us"},
    {"cluster.scatter_tasks_per_exec", "count"},
    {"cluster.shard_skew", "ratio"},
    {"trace.overhead_us", "us"},
};

bool Known(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return true;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return true;
  }
  return false;
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

void HostSpeed::MaybeProbe() {
  if (probes_.empty() ||
      Clock::now() - probes_.back().at >= std::chrono::milliseconds(100)) {
    Probe();
  }
}

void HostSpeed::ProbeBurst() {
  for (int i = 0; i < 5; ++i) Probe();
}

void HostSpeed::Probe() {
  // Hash-map inserts, a copy and a sort over a few hundred KiB: the mix of
  // allocation, hashing and branchy compares the planner and executor do.
  static volatile uint64_t sink = 0;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    std::unordered_map<uint64_t, uint64_t> m;
    uint64_t x = 88172645463325252ull;
    for (uint64_t i = 0; i < 4000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      m[x & 0xfffff] += i;
    }
    std::vector<uint64_t> keys;
    keys.reserve(m.size());
    for (const auto& [k, v] : m) keys.push_back(k ^ (v << 20));
    std::sort(keys.begin(), keys.end());
    sink = sink + keys[keys.size() / 2];
    double us = MicrosBetween(t0, Clock::now());
    // The least of three: a timer interrupt or a preemption inside one
    // repetition is not a slow host.
    best = rep == 0 ? us : std::min(best, us);
  }
  probes_.push_back(Sample{Clock::now(), best});
}

double HostSpeed::Scale(Clock::time_point a, Clock::time_point b) const {
  if (probes_.empty()) return 1.0;
  const auto window = std::chrono::milliseconds(500);
  auto lo = std::lower_bound(
      probes_.begin(), probes_.end(), a - window,
      [](const Sample& s, Clock::time_point t) { return s.at < t; });
  auto hi = std::upper_bound(
      probes_.begin(), probes_.end(), b + window,
      [](Clock::time_point t, const Sample& s) { return t < s.at; });
  std::vector<double> near;
  for (auto it = lo; it != hi; ++it) near.push_back(it->us);
  if (near.empty()) {
    // No probe within the window: the nearest one.
    auto it = lo == probes_.end() ? lo - 1 : lo;
    if (it != probes_.begin() && a - (it - 1)->at < it->at - a) --it;
    near.push_back(it->us);
  }
  return kReferenceProbeUs / Median(std::move(near));
}

double HostSpeed::MedianProbeUs() const {
  std::vector<double> us;
  for (const Sample& s : probes_) us.push_back(s.us);
  return Median(std::move(us));
}

LatencyLog LatencyLog::Rescaled(const HostSpeed& speed) const {
  LatencyLog out;
  if (samples_.empty()) return out;
  // Scale factors on a 50 ms grid over the run: one Scale() per sample
  // would cost seconds on a million reads.
  Clock::time_point first = samples_.front().end;
  for (const Sample& x : samples_) first = std::min(first, x.end);
  const auto step = std::chrono::milliseconds(50);
  std::vector<double> grid;
  out.samples_.reserve(samples_.size());
  for (const Sample& x : samples_) {
    size_t g = static_cast<size_t>((x.end - first) / step);
    while (grid.size() <= g) {
      grid.push_back(speed.Scale(first + step * grid.size() + step / 2));
    }
    out.samples_.push_back(Sample{x.end, x.us * grid[g]});
  }
  return out;
}

double LatencyLog::Mean() const {
  double sum = 0;
  for (const Sample& x : samples_) sum += x.us;
  return samples_.empty() ? 0 : sum / static_cast<double>(samples_.size());
}

std::vector<LatencyLog::Slice> LatencyLog::Slices() const {
  std::vector<Slice> out;
  if (samples_.size() < 2) return out;
  Clock::time_point first = samples_.front().end, last = first;
  for (const Sample& x : samples_) {
    first = std::min(first, x.end);
    last = std::max(last, x.end);
  }
  double span = std::chrono::duration<double>(last - first).count();
  size_t n = std::max<size_t>(5, static_cast<size_t>(span + 0.5));
  double slice_s = span / static_cast<double>(n);
  if (slice_s <= 0) return out;
  out.resize(n);
  for (const Sample& x : samples_) {
    double t = std::chrono::duration<double>(x.end - first).count();
    Slice& s = out[std::min(n - 1, static_cast<size_t>(t / slice_s))];
    ++s.count;
    s.busy_us += x.us;
  }
  return out;
}

double LatencyLog::Quantile(double q) const {
  std::vector<double> all;
  all.reserve(samples_.size());
  for (const Sample& x : samples_) all.push_back(x.us);
  return perfbench::Quantile(std::move(all), q);
}

double LatencyLog::P50() const { return Quantile(0.5); }

double LatencyLog::Rate(int clients) const {
  std::vector<double> rates;
  for (const Slice& s : Slices()) {
    if (s.busy_us > 0) {
      rates.push_back(static_cast<double>(s.count) * clients * 1e6 / s.busy_us);
    }
  }
  return Median(std::move(rates));
}

void Report::Wrong(const std::string& what) {
  correct_ = false;
  ++failed_;
  if (wrong_logged_++ < 10) std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

void Report::Set(const std::string& name, double value) {
  if (!Known(name)) {
    std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Report::Note(const char* fmt, ...) const {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::SetEndToEnd(const std::vector<double>& setup_s,
                         const LatencyLog& reads, int clients,
                         const LatencyLog& writes, double ready_rss_mb,
                         const HostSpeed& speed) {
  LatencyLog r = reads.Rescaled(speed), w = writes.Rescaled(speed);
  Set("setup_s", Quantile(setup_s, 0.25));
  Set("read_qps", r.Rate(clients));
  Set("read_p50_us", r.P50());
  Set("read_p90_us", r.Quantile(0.90));
  Set("write_p50_us", w.P50());
  Set("write_p90_us", w.Quantile(0.90));
  Set("peak_rss_mb", ready_rss_mb);
  Note("host: %zu probes, median %.1f us against the reference %.0f us",
       speed.probes(), speed.MedianProbeUs(), HostSpeed::kReferenceProbeUs);
  for (auto [name, raw, log] :
       {std::tuple{"reads", &reads, &r}, {"writes", &writes, &w}}) {
    Note("%s: %zu; rescaled p95 %.1f us, p99 %.1f us; as measured p50 "
         "%.1f us, p90 %.1f us",
         name, log->size(), log->Quantile(0.95), log->Quantile(0.99),
         raw->P50(), raw->Quantile(0.90));
  }
  Note("setup_s: lower quartile of %zu rescaled set-ups (min %.4f s, "
       "median %.4f s)",
       setup_s.size(), Quantile(setup_s, 0), Median(setup_s));
}

void Report::PrintJson(bool trace) const {
  std::map<std::string, double> v = values_;
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    double x = v.count(m.name) ? v[m.name] : 0.0;
    if (!std::isfinite(x)) x = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Tracer::Begin(const char* name, uint64_t request) {
  int64_t now = NowNs();
  int64_t rec = -1;
  if (records_.size() < max_records_) {
    rec = static_cast<int64_t>(records_.size());
    int64_t parent = open_.empty() ? -1 : open_.back().record;
    records_.push_back(Record{name, request, parent, now, 0, 0});
  } else {
    ++dropped_;
  }
  open_.push_back(Open{name, rec, now, 0});
}

double Tracer::End() {
  int64_t now = NowNs();
  Open o = open_.back();
  open_.pop_back();
  int64_t dur = now - o.start_ns;
  int64_t self = dur - o.child_ns;
  if (!open_.empty()) open_.back().child_ns += dur;
  if (o.record >= 0) {
    Record& r = records_[static_cast<size_t>(o.record)];
    r.end_ns = now;
    r.self_ns = self;
  }
  Totals& t = totals_[o.name];
  ++t.count;
  t.total_us += static_cast<double>(dur) / 1000.0;
  t.self_us += static_cast<double>(self) / 1000.0;
  return static_cast<double>(dur) / 1000.0;
}

double Tracer::PerRequestUs(const std::string& name, uint64_t requests) const {
  auto it = totals_.find(name);
  if (it == totals_.end() || requests == 0) return 0;
  return it->second.total_us / static_cast<double>(requests);
}

void Tracer::Merge(const Tracer& other) {
  int64_t base = static_cast<int64_t>(records_.size());
  for (const Record& r : other.records_) {
    Record c = r;
    if (c.parent >= 0) c.parent += base;
    records_.push_back(c);
  }
  for (const auto& [name, t] : other.totals_) {
    Totals& mine = totals_[name];
    mine.count += t.count;
    mine.total_us += t.total_us;
    mine.self_us += t.self_us;
  }
  dropped_ += other.dropped_;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) t0 = std::min(t0, r.start_ns);
  std::fprintf(f, "{\"dropped_spans\": %llu, \"traceEvents\": [",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %lld, \"request\": %llu, "
                 "\"self_us\": %.3f}}",
                 i == 0 ? "" : ",", r.name,
                 static_cast<unsigned long long>(r.request),
                 static_cast<double>(r.start_ns - t0) / 1000.0,
                 static_cast<double>(r.end_ns - r.start_ns) / 1000.0, i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 static_cast<double>(r.self_ns) / 1000.0);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool ExecAccount::Add(const bqe::ExecStats& st, double static_bound) {
  ++executions_;
  fetched_ += st.tuples_fetched;
  intermediate_ += st.intermediate_rows;
  if (st.used_row_path) ++row_path_;
  for (size_t k = 0; k < bqe::kNumPlanStepKinds; ++k) op_ms_[k] += st.op[k].ms;
  double ratio = static_bound > 0
                     ? static_cast<double>(st.tuples_fetched) / static_bound
                     : (st.tuples_fetched == 0 ? 0.0 : INFINITY);
  max_over_bound_ = std::max(max_over_bound_, ratio);
  return ratio <= 1.0;
}

void ExecAccount::Fill(Report* r) const {
  if (executions_ == 0) return;
  double n = static_cast<double>(executions_);
  auto op = [&](bqe::PlanStep::Kind k) {
    return op_ms_[static_cast<size_t>(k)] / n;
  };
  r->Set("exec.fetched_per_exec", static_cast<double>(fetched_) / n);
  r->Set("exec.dq_ratio", static_cast<double>(fetched_) / n /
                              static_cast<double>(db_tuples_));
  r->Set("exec.fetched_over_bound",
         std::isfinite(max_over_bound_) ? max_over_bound_ : 1e300);
  r->Set("exec.intermediate_per_fetched",
         fetched_ > 0 ? static_cast<double>(intermediate_) /
                            static_cast<double>(fetched_)
                      : 0.0);
  r->Set("exec.row_path_share", static_cast<double>(row_path_) / n);
  r->Set("exec.op.fetch_ms", op(bqe::PlanStep::Kind::kFetch));
  r->Set("exec.op.product_ms", op(bqe::PlanStep::Kind::kProduct));
  r->Set("exec.op.join_ms", op(bqe::PlanStep::Kind::kJoin));
  r->Set("exec.op.project_ms", op(bqe::PlanStep::Kind::kProject));
  r->Note("exec: %llu executions in the fixed set, %llu tuples fetched",
          static_cast<unsigned long long>(executions_),
          static_cast<unsigned long long>(fetched_));
}

void WriteTrace(const RunOptions& opts, const Tracer& tr, uint64_t requests,
                Report* report) {
  report->Note("%-22s %10s %14s %14s", "span", "count", "us/request",
               "self us/req");
  double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  for (const auto& [name, t] : tr.totals()) {
    report->Note("%-22s %10llu %14.3f %14.3f", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_us / n,
                 t.self_us / n);
  }
  if (opts.trace_file.empty()) return;
  if (tr.Write(opts.trace_file)) {
    report->Note("trace written to %s", opts.trace_file.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", opts.trace_file.c_str());
  }
}

bool RowForRow(const bqe::Table& a, const bqe::Table& b) {
  return a.rows() == b.rows();
}

bool SameBag(const bqe::Table& a, const bqe::Table& b) {
  if (a.NumRows() != b.NumRows()) return false;
  std::vector<bqe::Tuple> x = a.rows(), y = b.rows();
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

bool PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace perfbench

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload adhoc|hot_churn|fanout "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(val.c_str());
    } else if (flag == "--trace") {
      opts.trace = val == "1";
    } else if (flag == "--trace-file") {
      opts.trace_file = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || opts.seconds <= 0) {
    Usage();
    return 2;
  }
  perfbench::Report report;
  if (opts.workload == "adhoc") {
    perfbench::RunAdhoc(opts, &report);
  } else if (opts.workload == "hot_churn") {
    perfbench::RunHotChurn(opts, &report);
  } else if (opts.workload == "fanout") {
    perfbench::RunFanout(opts, &report);
  } else {
    Usage();
    return 2;
  }
  if (report.attempted() == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  report.PrintJson(opts.trace);
  return 0;
}
