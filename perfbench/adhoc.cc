// adhoc: one closed-loop client sends a stream of distinct covered queries
// (the paper's Section 8 generator over the AIRCA stand-in) through
// QueryService::Query. Every request is new, so planning does the work.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baseline/eval.h"
#include "bench.h"
#include "common/rng.h"
#include "core/cov.h"
#include "core/engine.h"
#include "core/minimize.h"
#include "core/plan2sql.h"
#include "core/plan_exec.h"
#include "core/qplan.h"
#include "exec/key_codec.h"
#include "exec/physical_plan.h"
#include "ra/normalize.h"
#include "serve/query_service.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace perfbench {
namespace {

using bqe::RaExpr;
using bqe::RaExprPtr;
using bqe::RaOp;

constexpr double kAircaScale = 1.0;
/// The AIRCA instance is the same in every run, so set-up time and memory
/// compare across seeds; the seed draws the queries and the writes.
constexpr uint64_t kDataSeed = 1;
constexpr int kSetups = 7;
constexpr size_t kWarmupQueries = 32;
/// Distinct queries generated per measured second; the window stops early
/// (and says so) if a faster planner exhausts the stream.
constexpr size_t kQueriesPerSecond = 150;
/// Closed loop: one write batch after every kReadsPerWrite reads. Writes
/// exist so that the write metrics do; perfbench/METRICS.md says why this
/// ratio.
constexpr size_t kReadsPerWrite = 2;
/// Answers checked against EvaluateBaseline (the rest against the row
/// interpreter), and the traced executions counted exactly.
constexpr size_t kBaselineChecks = 50;
constexpr size_t kFixedSet = 200;
/// Upper bound on the rows the conventional evaluator may materialize for
/// a query to be checked against it; beyond it the row interpreter is the
/// oracle (a cross product of two filtered fact tables can exhaust memory).
constexpr double kBaselineRowBudget = 2e6;

struct Inputs {
  bqe::GeneratedDataset ds;
  std::vector<RaExprPtr> warmup;
  std::vector<RaExprPtr> stream;
};

/// Distinct covered queries with the Section 8 ranges (#sel 4-9, #join
/// 0-5, #unidiff 0-5), stratified: the i-th query comes from the i-th cell
/// of one fixed permutation of the 216 range combinations, so every run and
/// every prefix of a run draws the same mix of query shapes; the seed picks
/// the constants and join walks.
std::vector<RaExprPtr> GenerateQueries(const bqe::GeneratedDataset& ds,
                                       bqe::Rng* rng, size_t count,
                                       std::unordered_set<std::string>* seen) {
  struct Cell {
    int sel, join, unidiff;
  };
  std::vector<Cell> cells;
  for (int sel = 4; sel <= 9; ++sel) {
    for (int join = 0; join <= 5; ++join) {
      for (int unidiff = 0; unidiff <= 5; ++unidiff) {
        cells.push_back(Cell{sel, join, unidiff});
      }
    }
  }
  bqe::Rng order(216);
  order.Shuffle(&cells);
  std::vector<RaExprPtr> out;
  for (size_t i = 0; out.size() < count; ++i) {
    const Cell& cell = cells[i % cells.size()];
    bqe::QueryGenConfig cfg;
    cfg.num_sel = cell.sel;
    cfg.num_join = cell.join;
    cfg.num_unidiff = cell.unidiff;
    cfg.seed = rng->gen()();
    bqe::Result<RaExprPtr> q = bqe::GenerateCoveredQuery(ds, cfg);
    if (!q.ok()) continue;
    if (seen->insert(bqe::BoundedEngine::QueryFingerprint(*q)).second) {
      out.push_back(*q);
    }
  }
  return out;
}

/// Decides whether EvaluateBaseline can answer a query within the row
/// budget, by bounding what it materializes at every node: a select/product
/// block whose equality atoms connect all its leaves is evaluated by hash
/// joins, so it holds at most (smallest filtered leaf) x (per leaf, the
/// largest group of any of its join attributes); a block that needs a cross
/// product holds at most the product of its filtered leaves.
class BaselineScreen {
 public:
  explicit BaselineScreen(const bqe::Database& db) : db_(db) {}

  bool Safe(const bqe::NormalizedQuery& nq) {
    max_rows_ = 0;
    Bound(nq, nq.root().get());
    return max_rows_ <= kBaselineRowBudget;
  }

 private:
  struct AttrStats {
    std::unordered_map<uint64_t, uint32_t> count;  // Value hash -> rows.
    uint32_t max_group = 0;
  };

  const AttrStats& Stats(const std::string& rel, size_t attr) {
    std::string key = rel + "#" + std::to_string(attr);
    auto it = stats_.find(key);
    if (it != stats_.end()) return it->second;
    AttrStats& s = stats_[key];
    std::string enc;
    for (const bqe::Tuple& row : db_.Get(rel)->rows()) {
      enc.clear();
      bqe::AppendEncodedValue(row[attr], &enc);
      uint32_t c = ++s.count[bqe::HashBytes(enc)];
      s.max_group = std::max(s.max_group, c);
    }
    return s;
  }

  double Bound(const bqe::NormalizedQuery& nq, const RaExpr* node) {
    double b = 0;
    switch (node->op()) {
      case RaOp::kRel:
        b = static_cast<double>(db_.Get(node->base())->NumRows());
        break;
      case RaOp::kProject:
        b = Bound(nq, node->left().get());
        break;
      case RaOp::kUnion:
        b = Bound(nq, node->left().get()) + Bound(nq, node->right().get());
        break;
      case RaOp::kDiff:
        b = Bound(nq, node->left().get());
        Bound(nq, node->right().get());
        break;
      case RaOp::kSelect:
      case RaOp::kProduct:
        b = BlockBound(nq, node);
        break;
    }
    max_rows_ = std::max(max_rows_, b);
    return b;
  }

  double BlockBound(const bqe::NormalizedQuery& nq, const RaExpr* node) {
    std::vector<bqe::Predicate> conjuncts;
    const RaExpr* cur = node;
    while (cur->op() == RaOp::kSelect) {
      conjuncts.insert(conjuncts.end(), cur->preds().begin(),
                       cur->preds().end());
      cur = cur->left().get();
    }
    std::vector<const RaExpr*> leaves;
    CollectLeaves(cur, &leaves);
    auto col_of = [&](size_t leaf, const bqe::AttrRef& ref) -> int {
      const std::vector<bqe::AttrRef>& cols = nq.OutputOf(leaves[leaf]);
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] == ref) return static_cast<int>(i);
      }
      return -1;
    };
    auto leaf_of = [&](const bqe::AttrRef& ref) -> int {
      for (size_t i = 0; i < leaves.size(); ++i) {
        if (col_of(i, ref) >= 0) return static_cast<int>(i);
      }
      return -1;
    };

    size_t n = leaves.size();
    std::vector<double> size(n), fanout(n, 1.0);
    std::vector<bool> joined(n, false);
    for (size_t i = 0; i < n; ++i) size[i] = Bound(nq, leaves[i]);
    // Union-find over leaves connected by cross-leaf equalities.
    std::vector<size_t> parent(n);
    for (size_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const bqe::Predicate& p : conjuncts) {
      int li = leaf_of(p.lhs);
      if (li < 0) continue;
      if (p.kind == bqe::Predicate::Kind::kAttrConst) {
        if (p.op != bqe::CmpOp::kEq || leaves[li]->op() != RaOp::kRel) continue;
        const AttrStats& s = Stats(leaves[li]->base(),
                                   static_cast<size_t>(col_of(li, p.lhs)));
        std::string enc;
        bqe::AppendEncodedValue(p.constant, &enc);
        auto it = s.count.find(bqe::HashBytes(enc));
        size[li] = std::min(size[li],
                            it == s.count.end() ? 0.0 : it->second);
        continue;
      }
      int ri = leaf_of(p.rhs);
      if (ri < 0 || ri == li || p.op != bqe::CmpOp::kEq) continue;
      parent[find(static_cast<size_t>(li))] = find(static_cast<size_t>(ri));
      for (auto [l, ref] : {std::pair{li, p.lhs}, std::pair{ri, p.rhs}}) {
        size_t leaf = static_cast<size_t>(l);
        double group = leaves[leaf]->op() == RaOp::kRel
                           ? Stats(leaves[leaf]->base(),
                                   static_cast<size_t>(col_of(leaf, ref)))
                                 .max_group
                           : size[leaf];
        fanout[leaf] = joined[leaf] ? std::max(fanout[leaf], group) : group;
        joined[leaf] = true;
      }
    }
    bool connected = true;
    for (size_t i = 1; i < n; ++i) connected &= find(i) == find(0);
    double smallest = *std::min_element(size.begin(), size.end());
    double bound = connected ? smallest : 1.0;
    for (size_t i = 0; i < n; ++i) {
      double f = connected ? std::max(1.0, std::min(fanout[i], size[i]))
                           : size[i];
      bound = std::min(bound * f, 1e30);
    }
    return bound;
  }

  static void CollectLeaves(const RaExpr* node,
                            std::vector<const RaExpr*>* out) {
    if (node->op() == RaOp::kProduct) {
      CollectLeaves(node->left().get(), out);
      CollectLeaves(node->right().get(), out);
    } else {
      out->push_back(node);
    }
  }

  const bqe::Database& db_;
  std::unordered_map<std::string, AttrStats> stats_;
  double max_rows_ = 0;
};

struct Answer {
  size_t query;
  std::shared_ptr<const bqe::Table> table;
};

/// Every answer must equal the row interpreter's over the query's
/// unminimized plan (a second, independent plan for the same query); the
/// first kBaselineChecks answers whose baseline evaluation fits the row
/// budget must also equal EvaluateBaseline on the normalized query.
void CheckAnswers(const Inputs& in, const bqe::BoundedEngine& engine,
                  const std::vector<Answer>& answers, Report* report) {
  Clock::time_point t0 = Clock::now();
  BaselineScreen screen(in.ds.db);
  size_t baseline_checked = 0, screened_out = 0;
  for (const Answer& a : answers) {
    std::string where = "adhoc query " + std::to_string(a.query);
    bqe::Result<bqe::NormalizedQuery> nq =
        bqe::Normalize(in.stream[a.query], in.ds.db.catalog());
    bqe::Result<bqe::CoverageReport> cov =
        nq.ok() ? bqe::CheckCoverage(*nq, engine.schema())
                : bqe::Result<bqe::CoverageReport>(nq.status());
    bqe::Result<bqe::BoundedPlan> plan =
        cov.ok() ? bqe::GeneratePlan(*nq, *cov)
                 : bqe::Result<bqe::BoundedPlan>(cov.status());
    bqe::Result<bqe::Table> row =
        plan.ok() ? bqe::ExecutePlanRowAtATime(*plan, engine.indices())
                  : bqe::Result<bqe::Table>(plan.status());
    if (!row.ok() || !bqe::Table::SameSet(*a.table, *row)) {
      report->Wrong(where + ": differs from the row interpreter");
      continue;
    }
    if (baseline_checked >= kBaselineChecks) continue;
    if (!screen.Safe(*nq)) {
      ++screened_out;
      continue;
    }
    ++baseline_checked;
    bqe::Result<bqe::Table> base = bqe::EvaluateBaseline(*nq, in.ds.db);
    if (!base.ok() || !bqe::Table::SameSet(*a.table, *base)) {
      report->Wrong(where + ": differs from EvaluateBaseline");
    }
  }
  report->Note(
      "checked %zu answers against the row interpreter, %zu of them also "
      "against EvaluateBaseline (%zu over the baseline row budget), %.1f s",
      answers.size(), baseline_checked, screened_out, SecondsSince(t0));
}

/// One data-preserving write: delete a uniformly chosen row of the fact
/// table `ontime` (five sixths of D) and insert it back. Every batch has
/// the same shape, so the write latency does not depend on which relation
/// the seed happened to pick.
std::vector<bqe::Delta> ReinsertBatch(const bqe::Database& db, bqe::Rng* rng) {
  const bqe::Table* t = db.Get("ontime");
  const bqe::Tuple& row = t->rows()[rng->PickIndex(t->NumRows())];
  return {bqe::Delta::Delete("ontime", row), bqe::Delta::Insert("ontime", row)};
}

/// The traced replay of one request: the steps BoundedEngine::Prepare and
/// PrepareCompiled run, each in its own span, then the execution with
/// per-operator timing. Returns false when a step fails.
bool TracedRequest(const bqe::BoundedEngine& engine, const RaExprPtr& q,
                   uint64_t req, Tracer* tr, bqe::ExecStats* st,
                   double* bound, std::shared_ptr<const bqe::Table>* answer) {
  { Span s(tr, "core.fingerprint", req); (void)engine.QueryFingerprint(q); }
  tr->Begin("ra.normalize", req);
  bqe::Result<bqe::NormalizedQuery> nq = bqe::Normalize(q, engine.db().catalog());
  tr->End();
  if (!nq.ok()) return false;
  tr->Begin("core.coverage", req);
  bqe::Result<bqe::CoverageReport> cov = bqe::CheckCoverage(*nq, engine.schema());
  tr->End();
  if (!cov.ok() || !cov->covered) return false;
  tr->Begin("core.minimize", req);
  bqe::Result<bqe::MinimizeResult> m = bqe::MinimizeAccess(
      *nq, engine.schema(), bqe::EngineOptions{}.minimize_algo);
  tr->End();
  const bqe::AccessSchema& plan_schema = m.ok() ? m->minimized : engine.schema();
  tr->Begin("core.coverage", req);
  bqe::Result<bqe::CoverageReport> plan_cov = bqe::CheckCoverage(*nq, plan_schema);
  tr->End();
  if (!plan_cov.ok()) return false;
  tr->Begin("core.plan", req);
  bqe::Result<bqe::BoundedPlan> plan = bqe::GeneratePlan(*nq, *plan_cov);
  tr->End();
  if (!plan.ok()) return false;
  tr->Begin("core.sql", req);
  bqe::Result<std::string> sql = bqe::PlanToSql(*plan);
  tr->End();
  if (!sql.ok()) return false;
  tr->Begin("exec.compile", req);
  bqe::Result<bqe::PhysicalPlan> pp =
      bqe::PhysicalPlan::Compile(*plan, engine.indices());
  tr->End();
  if (!pp.ok()) return false;
  bqe::ExecOptions eo;
  eo.per_op_timing = true;
  eo.num_threads = 1;
  eo.row_path_threshold = bqe::EngineOptions{}.row_path_threshold;
  tr->Begin("exec.execute", req);
  bqe::Result<bqe::Table> t = bqe::ExecutePhysicalPlan(*pp, st, eo);
  tr->End();
  if (!t.ok()) return false;
  *bound = plan->StaticAccessBound();
  *answer = std::make_shared<const bqe::Table>(std::move(*t));
  return true;
}

}  // namespace

void RunAdhoc(const RunOptions& opts, Report* report) {
  // One client that waits for each reply never has two threads of this
  // process runnable at once, so one CPU does all the work. On one CPU the
  // host-speed probe runs where the work runs; a host whose cores slow down
  // one at a time otherwise skews the rescaling.
  if (!PinToCurrentCpu()) report->Note("adhoc: could not pin to one CPU");
  Clock::time_point t0 = Clock::now();
  bqe::Result<bqe::GeneratedDataset> ds =
      bqe::MakeAirca(kAircaScale, kDataSeed);
  if (!ds.ok()) {
    std::fprintf(stderr, "MakeAirca: %s\n", ds.status().ToString().c_str());
    return;
  }
  Inputs in{std::move(*ds), {}, {}};
  bqe::Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 1);
  std::unordered_set<std::string> seen;
  in.warmup = GenerateQueries(in.ds, &rng, kWarmupQueries, &seen);
  in.stream = GenerateQueries(
      in.ds, &rng,
      static_cast<size_t>(opts.seconds * static_cast<double>(kQueriesPerSecond)),
      &seen);
  size_t db_tuples = in.ds.db.TotalTuples();
  std::vector<std::vector<bqe::Delta>> batches(in.stream.size() /
                                               kReadsPerWrite);
  for (std::vector<bqe::Delta>& b : batches) b = ReinsertBatch(in.ds.db, &rng);
  report->Note(
      "adhoc: |D|=%zu tuples, %zu constraints, %zu distinct covered queries "
      "(inputs made in %.1f s, not timed); 1 closed-loop client, a write "
      "after every %zu reads; service shards=1 exec_threads=1, engine "
      "exec_threads=1",
      db_tuples, in.ds.schema.size(), in.stream.size(), SecondsSince(t0),
      kReadsPerWrite);

  bqe::EngineOptions eopts;
  eopts.exec_threads = 1;
  bqe::serve::ServiceOptions sopts;
  sopts.shards = 1;
  sopts.exec_threads = 1;
  std::unique_ptr<bqe::BoundedEngine> engine;
  std::unique_ptr<bqe::serve::QueryService> service;
  HostSpeed speed;
  std::vector<double> setups, builds;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    engine.reset();
    SetupTimer timer(&speed);
    Clock::time_point s0 = Clock::now();
    engine = std::make_unique<bqe::BoundedEngine>(&in.ds.db, in.ds.schema,
                                                  eopts);
    bqe::Status st = engine->BuildIndices();
    builds.push_back(SecondsSince(s0));
    if (!st.ok()) {
      std::fprintf(stderr, "BuildIndices: %s\n", st.ToString().c_str());
      return;
    }
    service = std::make_unique<bqe::serve::QueryService>(engine.get(), sopts);
    timer.Stop();
    setups.push_back(timer.rescaled());
  }
  for (const RaExprPtr& q : in.warmup) (void)service->Query(q);
  double ready_rss_mb = PeakRssMb();

  // The untraced closed loop; a traced run spends half its window here.
  std::vector<Answer> answers;
  LatencyLog reads, writes;
  double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  size_t next = 0;
  Clock::time_point w0 = Clock::now();
  while (next < in.stream.size() && SecondsSince(w0) < window) {
    Clock::time_point r0 = Clock::now();
    bqe::serve::QueryResponse resp = service->Query(in.stream[next]);
    reads.Add(MicrosBetween(r0, Clock::now()));
    speed.MaybeProbe();
    bool ok = resp.status.ok() && resp.table != nullptr;
    report->Attempt(ok, "adhoc read");
    if (ok) answers.push_back(Answer{next, resp.table});
    ++next;
    if (next % kReadsPerWrite == 0) {
      Clock::time_point a0 = Clock::now();
      bqe::serve::DeltaResponse d =
          service->ApplyDeltas(batches[next / kReadsPerWrite - 1]);
      writes.Add(MicrosBetween(a0, Clock::now()));
      report->Attempt(d.status.ok(), "adhoc write");
    }
  }
  if (next == in.stream.size()) {
    report->Note("adhoc: query stream exhausted after %.2f s",
                 SecondsSince(w0));
  }

  if (!opts.trace) {
    report->SetEndToEnd(setups, reads, 1, writes, ready_rss_mb, speed);
    CheckAnswers(in, *engine, answers, report);
    return;
  }

  // Traced half: replay the rest of the stream step by step, at least the
  // fixed set of kFixedSet requests whose access counts are reported.
  bqe::serve::ServiceStats ss = service->stats();
  Tracer tr;
  ExecAccount acct(db_tuples);
  LatencyLog traced;
  size_t first_traced = next;
  Clock::time_point w1 = Clock::now();
  while (next < in.stream.size() &&
         (SecondsSince(w1) < window || next - first_traced < kFixedSet)) {
    bqe::ExecStats st;
    double bound = 0;
    std::shared_ptr<const bqe::Table> table;
    tr.Begin("request", next);
    bool ok = TracedRequest(*engine, in.stream[next], next, &tr, &st, &bound,
                            &table);
    traced.Add(tr.End());
    report->Attempt(ok, "adhoc traced request");
    if (ok) {
      answers.push_back(Answer{next, table});
      if (next - first_traced < kFixedSet && !acct.Add(st, bound)) {
        report->Wrong("adhoc query " + std::to_string(next) +
                      " fetched more than its static bound");
      }
    }
    ++next;
  }
  uint64_t n = traced.size();
  for (const char* name :
       {"ra.normalize", "core.fingerprint", "core.coverage", "core.minimize",
        "core.plan", "core.sql", "exec.compile", "exec.execute"}) {
    report->Set(std::string(name) + "_us", tr.PerRequestUs(name, n));
  }
  acct.Fill(report);
  bqe::PlanCacheStats pc = engine->plan_cache_stats();
  report->Set("core.plan_cache_hit_ratio", Ratio(pc.hits, pc.hits + pc.misses));
  report->Set("constraints.build_s", Quantile(builds, 0.25));
  report->Set("constraints.entries_per_tuple",
              Ratio(engine->IndexFootprint(), db_tuples));
  report->Set("constraints.mirror_freezes", ss.freezes);
  report->Set("serve.result_hit_ratio",
              Ratio(ss.result_hits_admission + ss.result_hits_window +
                        ss.result_hits_refreshed,
                    reads.size()));
  report->Set("serve.coalesced_ratio", Ratio(ss.coalesced, reads.size()));
  report->Set("serve.pin_hit_ratio", Ratio(ss.pin_hits, ss.executed));
  report->Set("serve.self_us", reads.P50() - traced.P50());
  report->Set("trace.overhead_us", traced.P50() - reads.P50());
  WriteTrace(opts, tr, n, report);
  CheckAnswers(in, *engine, answers, report);
}

}  // namespace perfbench
