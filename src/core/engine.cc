#include "core/engine.h"

#include <algorithm>
#include <thread>

#include "common/strings.h"
#include "constraints/validate.h"
#include "core/qplan.h"
#include "core/rewrite.h"
#include "exec/key_codec.h"
#include "exec/parallel.h"
#include "ra/printer.h"

namespace bqe {

namespace {

void AppendConstantEncoding(const RaExprPtr& e, std::string* out) {
  if (e == nullptr) return;
  for (const Predicate& p : e->preds()) {
    if (p.kind == Predicate::Kind::kAttrConst) {
      AppendEncodedValue(p.constant, out);
    }
  }
  AppendConstantEncoding(e->left(), out);
  AppendConstantEncoding(e->right(), out);
}

}  // namespace

/// Plan-cache key: the printed algebra form plus an exact type-tagged
/// byte encoding of every predicate constant (key_codec layout). The
/// printed form alone is lossy — Value::ToString renders Int(1) and
/// Double(1.0) identically and truncates doubles to 6 significant digits —
/// and comparisons are type-tag-sensitive, so two queries must never share
/// an entry unless their constants are exactly Value-equal.
std::string BoundedEngine::QueryFingerprint(const RaExprPtr& query) {
  std::string fp = ToAlgebraString(query);
  fp.push_back('\0');
  AppendConstantEncoding(query, &fp);
  return fp;
}

BoundedEngine::BoundedEngine(Database* db, AccessSchema schema,
                             EngineOptions options, const FetchSource& source)
    : db_(db), schema_(std::move(schema)), options_(options), source_(&source) {}

Status BoundedEngine::BuildIndices() {
  BQE_ASSIGN_OR_RETURN(ValidationReport report, Validate(*db_, schema_));
  if (!report.satisfied) {
    return Status::ConstraintViolation(
        StrCat("database does not satisfy the access schema:\n",
               report.ToString()));
  }
  // Rebuilding indices invalidates every compiled plan: their AccessIndex
  // bindings point into the replaced IndexSet. The schema-epoch bump makes
  // any entry that somehow survives the clear (or a stale shared_ptr held
  // by a caller) detectably incoherent without chasing dangling pointers —
  // which requires folding in the outgoing IndexSet's bounds epochs first,
  // or SchemaEpoch() could repeat a past value when the sum resets to zero.
  schema_epoch_ += indices_.BoundsEpoch() + 1;
  BQE_ASSIGN_OR_RETURN(indices_, IndexSet::Build(*db_, schema_,
                                                 options_.mirror_patch_budget));
  // Set-up, not the first delete, pays each base table's row-locator build:
  // a delete runs under the writer's exclusive hold.
  for (const std::string& rel : db_->catalog().RelationNames()) {
    db_->GetMutable(rel)->BuildLocator();
  }
  indices_built_ = true;
  ClearPlanCache();
  schema_stamp_.store(SchemaEpoch(), std::memory_order_release);
  return Status::Ok();
}

Result<PrepareInfo> BoundedEngine::Prepare(const RaExprPtr& query) const {
  PrepareInfo info;
  BQE_ASSIGN_OR_RETURN(NormalizedQuery nq, Normalize(query, db_->catalog()));
  BQE_ASSIGN_OR_RETURN(info.report, CheckCoverage(nq, schema_));

  RaExprPtr effective = query;
  if (!info.report.covered && options_.rewrite) {
    BQE_ASSIGN_OR_RETURN(RewriteResult rw, RewriteForCoverage(nq, schema_));
    if (rw.covered) {
      effective = rw.expr;
      info.used_rewrite = true;
      BQE_ASSIGN_OR_RETURN(nq, Normalize(effective, db_->catalog()));
      BQE_ASSIGN_OR_RETURN(info.report, CheckCoverage(nq, schema_));
    }
  }
  info.covered = info.report.covered;
  info.explanation = info.report.Explain();
  if (!info.covered) return info;

  // C3: access minimization; planning proceeds on the minimized subset,
  // from the coverage report minimization already made of it.
  const CoverageReport* plan_report = &info.report;
  info.constraints_used = schema_.size();
  MinimizeResult minimized;
  if (options_.minimize) {
    Result<MinimizeResult> m =
        MinimizeAccess(nq, schema_, info.report, options_.minimize_algo);
    if (m.ok()) {
      minimized = std::move(*m);
      plan_report = &minimized.report;
      info.constraints_used = minimized.minimized.size();
    }
  }
  BQE_ASSIGN_OR_RETURN(info.plan, GeneratePlan(nq, *plan_report));
  return info;
}

bool BoundedEngine::IsCoherent(const PreparedQuery& pq,
                               uint64_t schema_epoch) const {
  // The epoch check must come first: a stale epoch means BuildIndices()
  // replaced the IndexSet and the snapshots' pointers dangle.
  if (pq.schema_epoch != schema_epoch) return false;
  for (const BoundIndexSnapshot& s : pq.bound_indices) {
    if (s.index->mirror_generation() != s.mirror_generation) return false;
  }
  return true;
}

Result<std::shared_ptr<const PreparedQuery>> BoundedEngine::PrepareCompiled(
    const RaExprPtr& query, bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  // Normalization, coverage and planning are pure functions of the
  // fingerprint (given a fixed catalog and bounds/schema epoch), so two
  // queries that fingerprint alike prepare alike. Both key parts are
  // computed only when caching is on — with the cache disabled this
  // function must not add per-query work.
  std::string fp;
  uint64_t schema_epoch = 0;
  if (options_.plan_cache) {
    fp = QueryFingerprint(query);
    schema_epoch = SchemaEpoch();
    MutexLock lk(&cache_mu_);
    auto it = cache_.find(fp);
    if (it != cache_.end()) {
      if (IsCoherent(*it->second, schema_epoch)) {
        stat_hits_.fetch_add(1, std::memory_order_relaxed);
        if (cache_hit != nullptr) *cache_hit = true;
        return it->second;
      }
      stat_reprepares_.fetch_add(1, std::memory_order_relaxed);
    }
    stat_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  auto pq = std::make_shared<PreparedQuery>();
  BQE_ASSIGN_OR_RETURN(pq->info, Prepare(query));
  if (pq->info.covered) {
    BQE_ASSIGN_OR_RETURN(
        PhysicalPlan pp,
        PhysicalPlan::Compile(pq->info.plan, indices_, *source_));
    pq->physical = std::make_shared<const PhysicalPlan>(std::move(pp));
    // The plan's read set over the index layer: per-relation coherence
    // signals for schema-granular re-validation. Only needed when the
    // entry will actually live in the cache.
    if (options_.plan_cache) {
      for (const AccessIndex* idx : pq->physical->fetch_indices()) {
        pq->bound_indices.push_back(
            BoundIndexSnapshot{idx, idx->mirror_generation()});
      }
    }
  }
  pq->schema_epoch = schema_epoch;

  if (options_.plan_cache) {
    MutexLock lk(&cache_mu_);
    if (cache_.size() >= options_.plan_cache_capacity) {
      // Evict incoherent entries first; if every entry is current the
      // cache is simply full of live plans — drop it wholesale (rare, and
      // re-preparing is exactly the cached work).
      for (auto it = cache_.begin(); it != cache_.end();) {
        if (!IsCoherent(*it->second, schema_epoch)) {
          it = cache_.erase(it);
          stat_evictions_.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++it;
        }
      }
      if (cache_.size() >= options_.plan_cache_capacity) {
        stat_evictions_.fetch_add(cache_.size(), std::memory_order_relaxed);
        cache_.clear();
      }
    }
    cache_[fp] = pq;
  }
  return std::shared_ptr<const PreparedQuery>(pq);
}

size_t BoundedEngine::EffectiveThreads() const {
  if (options_.exec_threads != 0) {
    return std::min(options_.exec_threads, WorkerPool::kMaxThreads);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return std::min<size_t>(hw == 0 ? 1 : hw, 8);
}

Result<ExecuteResult> BoundedEngine::ExecutePrepared(const PreparedQuery& pq,
                                                     uint64_t task_tag,
                                                     size_t num_threads) const {
  if (!indices_built_) {
    return Status::FailedPrecondition("call BuildIndices() first");
  }
  if (!pq.info.covered || pq.physical == nullptr) {
    return Status::FailedPrecondition(
        "ExecutePrepared requires a covered prepared query (route non-covered "
        "queries through Execute() for the baseline fallback)");
  }
  ExecuteResult out;
  ExecOptions eo;
  eo.num_threads = num_threads != 0 ? std::min(num_threads, WorkerPool::kMaxThreads)
                                    : EffectiveThreads();
  eo.row_path_threshold = options_.row_path_threshold;
  eo.task_tag = task_tag;
  BQE_ASSIGN_OR_RETURN(
      out.table, ExecutePhysicalPlan(*pq.physical, &out.bounded_stats, eo));
  out.used_bounded_plan = true;
  return out;
}

Result<ExecuteResult> BoundedEngine::Execute(const RaExprPtr& query) const {
  if (!indices_built_) {
    return Status::FailedPrecondition("call BuildIndices() first");
  }
  bool cache_hit = false;
  BQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> pq,
                       PrepareCompiled(query, &cache_hit));
  if (pq->info.covered) {
    BQE_ASSIGN_OR_RETURN(ExecuteResult out, ExecutePrepared(*pq));
    out.plan_cache_hit = cache_hit;
    return out;
  }
  ExecuteResult out;
  out.plan_cache_hit = cache_hit;
  if (!options_.baseline_fallback) {
    return Status::NotCovered(pq->info.explanation);
  }
  BQE_ASSIGN_OR_RETURN(NormalizedQuery nq, Normalize(query, db_->catalog()));
  BQE_ASSIGN_OR_RETURN(out.table,
                       EvaluateBaseline(nq, *db_, &out.baseline_stats));
  out.used_bounded_plan = false;
  return out;
}

Result<MaintenanceStats> BoundedEngine::Apply(const std::vector<Delta>& deltas,
                                              OverflowPolicy policy) {
  if (!indices_built_) {
    return Status::FailedPrecondition("call BuildIndices() first");
  }
  // Data-only maintenance leaves every cached plan valid: plans bind live
  // AccessIndices whose mirrors are patched in place, and the adaptive
  // row-path decision is re-taken per execution. Only the data epoch moves,
  // and only when something was actually applied — a rejected batch must
  // not perturb any cached state. Bound growth (kGrow -> SetBound) and
  // patch-budget mirror rebuilds surface through IndexSet::BoundsEpoch()
  // and the per-plan BoundIndexSnapshots; no engine-level bump needed here.
  MaintenanceStats applied;
  Result<MaintenanceStats> r =
      ApplyDeltas(db_, &schema_, &indices_, deltas, policy, &applied);
  if (applied.inserts + applied.deletes > 0) {
    data_epoch_.fetch_add(1, std::memory_order_release);
    // Expose the *cleanly applied prefix* behind this epoch bump so result
    // maintenance can push exactly what happened through compiled plans. A
    // part-way failure can leave its failing delta half-applied (table but
    // not every index); that delta is excluded, and the serving layer only
    // refreshes on fully successful batches anyway.
    last_applied_.deltas.assign(
        deltas.begin(),
        deltas.begin() + static_cast<ptrdiff_t>(applied.deltas_applied));
    last_applied_.data_epoch = DataEpoch();
  }
  // Refresh the schema stamp unconditionally: the batch may have grown a
  // bound (kGrow -> SetBound), which moves SchemaEpoch() without touching
  // the data epoch. Result-cache entries keyed on the old stamp go stale.
  schema_stamp_.store(SchemaEpoch(), std::memory_order_release);
  return r;
}

PlanCacheStats BoundedEngine::plan_cache_stats() const {
  PlanCacheStats out;
  out.hits = stat_hits_.load(std::memory_order_relaxed);
  out.misses = stat_misses_.load(std::memory_order_relaxed);
  out.evictions = stat_evictions_.load(std::memory_order_relaxed);
  out.reprepares = stat_reprepares_.load(std::memory_order_relaxed);
  return out;
}

size_t BoundedEngine::plan_cache_size() const {
  MutexLock lk(&cache_mu_);
  return cache_.size();
}

void BoundedEngine::ClearPlanCache() {
  MutexLock lk(&cache_mu_);
  cache_.clear();
}

}  // namespace bqe
