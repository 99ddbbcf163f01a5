#ifndef BQE_EXEC_IVM_H_
#define BQE_EXEC_IVM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rw_gate.h"
#include "common/thread_annotations.h"
#include "constraints/maintain.h"
#include "exec/physical_plan.h"
#include "storage/table.h"

namespace bqe {

/// Outcome of one PlanMaintenance::Refresh().
enum class RefreshOutcome {
  kRefreshed,        ///< `*patched` holds the post-batch result.
  kNotMaintainable,  ///< The handle is dead; recompute and rebuild.
};

/// Per-refresh observability: how much the patch moved, which index-side
/// path resolved it, and where the wall time went.
struct RefreshStats {
  size_t rows_added = 0;    ///< Rows the patch appended to the result.
  size_t rows_removed = 0;  ///< Rows the patch removed from the result.
  size_t deltas_relevant = 0;  ///< Batch deltas inside the plan's read set.
  /// Index-side bucket mutations applied off the mirror patch log to
  /// retained (probed) buckets — the O(delta) path that replaced wholesale
  /// bucket re-resolution.
  size_t bucket_diff_hits = 0;
  /// Probed buckets re-resolved wholesale because the index's patch log
  /// was truncated by a budget-forced mirror rebuild since the last
  /// refresh (the rare O(bucket) fallback).
  size_t bucket_refetch_fallbacks = 0;
  /// Difference-subtrahend deletions absorbed as support-count work: the
  /// deleted row either still has surviving duplicates or never suppressed
  /// any retained minuend row, so nothing can resurrect and no output
  /// changes.
  size_t subtrahend_decrements = 0;
  /// Subtrahend deletions that zeroed the support of a key some retained
  /// minuend row carries: a previously-suppressed row actually resurrects,
  /// the one remaining difference shape that reports kNotMaintainable.
  size_t resurrection_fallbacks = 0;
  /// Per-phase wall time in microseconds: classifying the batch against
  /// the read set, propagating signed rows through the op DAG, patching
  /// the cached table. Only populated when a stats pointer is passed (the
  /// clock reads are per refresh, not per row).
  double classify_us = 0.0;
  double propagate_us = 0.0;
  double patch_us = 0.0;
};

/// The encoded fetch keys one applied delta batch lands on, per bound
/// index: `Enc(binding.FetchKeyOf(d.row))` over the batch's deltas on the
/// binding's relation, built on first request and shared by every handle
/// the batch is pushed through. A delta changes only that one bucket of each
/// index over its relation, so the set covers every bucket patch-log event
/// the batch logged — however the log was truncated since, and whichever
/// shard of a routed source owns the key.
class TouchedKeys {
 public:
  explicit TouchedKeys(const std::vector<Delta>& deltas) : deltas_(deltas) {}

  const std::unordered_set<std::string>& Of(const AccessIndex& binding);

 private:
  const std::vector<Delta>& deltas_;
  std::unordered_map<const AccessIndex*, std::unordered_set<std::string>>
      by_binding_;
};

/// Incremental view maintenance of one cached bounded-query result: the
/// retained build state that lets a delta batch be pushed *through* the
/// compiled plan as a micro-batch, patching the materialized table in
/// O(delta) instead of recomputing it in O(query).
///
/// Bounded plans are finite fetch/filter/project/join DAGs whose only data
/// access is the fetch steps' AccessIndex probes (the paper's core
/// property), so a plan's read set over the base data is exactly the
/// relations its `fetch_indices()` bind, and per-delta provenance is
/// computable op by op. Every probe and every bucket patch-log read goes
/// through the plan's FetchSource, so a handle over a sharded engine's plan
/// reads each key's owning shard exactly as its executions do. Build()
/// pushes the snapshot through the plan as one all-insert batch into empty
/// state — the very propagation Refresh() runs — which leaves per-operator
/// state:
///
///   - kFetch: the distinct probe keys with input multiplicities and the
///     bucket each returned, held as a hash set of distinct rows (the fetch
///     step probes with *distinct input rows*, so an input delta changes
///     the output only on a 0 <-> 1 key transition — resolved against the
///     live post-batch index — while an index-side delta replays the
///     index's bucket patch log onto the retained buckets in O(1) per
///     logged event; only a log truncated by a budget-forced mirror
///     rebuild falls back to wholesale re-resolution of the touched keys),
///   - kJoin / kProduct: both join sides as key-bucketed bags, so a delta
///     row on one side meets exactly its matching bucket on the other
///     (sequential two-stage propagation: dL joins R-old, then dR joins
///     L-new, which covers the dL x dR cross term with the right sign),
///   - dedupe kProject / kUnion / kDiff: multiplicity maps, so set-semantic
///     outputs emit a patch row only on a support transition (count
///     0 <-> positive), never on a mere recount,
///   - kFilter / non-dedupe kProject / kConst / kEmpty: stateless; deltas
///     stream through.
///
/// Refresh() then turns an applied delta batch into exact signed
/// insert/delete patches against the cached table. Plans with ops that are
/// not delta-friendly report kNotMaintainable and the caller falls back to
/// invalidate-and-recompute; today that is (a) a difference-subtrahend
/// deletion that zeroes the support of a key some retained minuend row
/// carries — a previously-suppressed row actually resurrects; deletions
/// whose key keeps support, or never suppressed anything, are absorbed as
/// per-key support-count decrements — and (b) any observed count underflow
/// or missing retained row — a defensive impossibility check, since the
/// engine applies each batch to the base data before the cache refreshes.
///
/// Soundness does not rest on the vectorized executor emitting rows in any
/// particular order: Build() verifies that the bag it derives equals the
/// cached table's bag exactly and refuses the handle otherwise, so a
/// Refresh() patch is always applied to a table whose contents the retained
/// state accounts for row by row.
///
/// Threading: Build() and Refresh() mutate retained state and must run
/// under the caller's writer discipline — Build under at least the shared
/// side of the serving gate (it reads indices a concurrent writer would
/// mutate), Refresh inside the exclusive hold of the very ApplyDeltas
/// batch being pushed. Both take that gate as an annotated parameter
/// (REQUIRES_SHARED / REQUIRES), so the clang thread-safety analysis proves
/// the hold at every call site instead of a comment requesting it. The
/// handle pins the compiled plan; its AccessIndex bindings stay valid
/// because BuildIndices() is forbidden while a service is attached.
class PlanMaintenance {
 public:
  /// Pushes the live indices' snapshot through `plan` as one all-insert
  /// batch into empty state, serially, and verifies the derived output bag
  /// equals `result` exactly. Returns nullptr when the plan is not
  /// maintainable (a difference op is *not* rejected here — only deletions
  /// on its subtrahend are, at refresh time) or when the verification bag
  /// differs (never expected; defensive).
  ///
  /// `max_bytes` caps the retained state: construction aborts as soon as
  /// the accumulated ApproxBytes() estimate exceeds it — inside the loops
  /// that retain fetch buckets and join bags, before the crossing op builds
  /// its output — returning nullptr with `*size_exceeded` (when non-null)
  /// set true, so a caller refusing oversized handles pays about
  /// `max_bytes` of state construction, not a full build plus bag
  /// verification. The default cap is unbounded; `*size_exceeded` is always
  /// written when the pointer is given (false on every other outcome,
  /// success included). `gate` is the serving gate whose (at least shared)
  /// hold keeps the indices stable for the duration of the build.
  static std::unique_ptr<PlanMaintenance> Build(
      const WriterPriorityGate& gate, std::shared_ptr<const PhysicalPlan> plan,
      const Table& result, size_t max_bytes = static_cast<size_t>(-1),
      bool* size_exceeded = nullptr) REQUIRES_SHARED(gate);

  ~PlanMaintenance();

  /// Pushes one applied delta batch through the plan. `current` is the
  /// cached table the batch invalidated (the one Build() verified, as
  /// patched by prior Refresh() calls); on kRefreshed `*patched` holds the
  /// post-batch result — `current` itself when no delta touched the plan's
  /// read set, else a fresh immutable table. On kNotMaintainable the handle
  /// is dead (retained state may be partially advanced) and every later
  /// call returns kNotMaintainable immediately.
  ///
  /// Must be called with the batch already applied to the base data and
  /// indices (fetch re-resolution probes the live post-batch index), once
  /// per applied batch, in order.
  RefreshOutcome Refresh(const WriterPriorityGate& gate,
                         const std::vector<Delta>& deltas,
                         const std::shared_ptr<const Table>& current,
                         std::shared_ptr<const Table>* patched,
                         RefreshStats* stats = nullptr) REQUIRES(gate);

  /// Advances the handle past an applied batch that lands on none of its
  /// retained probe keys, and reports whether it did. Such a batch leaves
  /// every fetch's output unchanged — a delta moves only the bucket its own
  /// fetch key names — and so, op by op, the plan's output: the cached table
  /// is already the post-batch answer, and only each fetch's patch-log
  /// cursor moves to the current position, as Build() stamps it. False
  /// leaves the state untouched; the batch then goes through Refresh().
  /// Same calling discipline as Refresh().
  bool SkipIfUntouched(const WriterPriorityGate& gate, TouchedKeys* touched)
      REQUIRES(gate);

  /// Estimated heap footprint of the retained state (fetch buckets, join
  /// side bags, multiplicity maps). Counted into the result cache's byte
  /// cap so retained build state competes with result bytes honestly.
  size_t ApproxBytes() const { return approx_bytes_; }

  const std::shared_ptr<const PhysicalPlan>& plan() const { return plan_; }

 private:
  struct OpState;     // Per-operator retained state; defined in ivm.cc.
  struct SignedRows;  // Signed bag delta between ops; defined in ivm.cc.
  /// A delta batch classified against the read set, by relation.
  using DeltasByRel =
      std::unordered_map<std::string_view, std::vector<const Delta*>>;

  PlanMaintenance() = default;

  /// Pushes one signed micro-batch through the op DAG, advancing the
  /// retained state, and leaves the output op's signed rows in `*result`.
  /// Fetch steps replay the patch logs of the indices over `by_rel`'s
  /// relations; `seed` makes each kConst emit its row (Build's snapshot
  /// batch). False when the handle cannot continue: an inconsistency, an
  /// unmaintainable delta shape, or retained bytes crossing `max_bytes`.
  bool Propagate(const WriterPriorityGate& gate, const DeltasByRel& by_rel,
                 bool seed, size_t max_bytes, RefreshStats* stats,
                 SignedRows* result) REQUIRES_SHARED(gate);

  std::shared_ptr<const PhysicalPlan> plan_;
  std::vector<std::unique_ptr<OpState>> states_;  // Index-aligned with ops().
  /// The fetch ops with their retained state: what SkipIfUntouched checks.
  std::vector<std::pair<const AccessIndex*, OpState*>> fetches_;
  /// Relations the plan's fetch indices read: the delta classification set.
  std::unordered_set<std::string> read_rels_;
  size_t approx_bytes_ = 0;
  bool dead_ = false;
};

}  // namespace bqe

#endif  // BQE_EXEC_IVM_H_
