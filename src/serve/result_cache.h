#ifndef BQE_SERVE_RESULT_CACHE_H_
#define BQE_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/rw_gate.h"
#include "common/thread_annotations.h"
#include "constraints/maintain.h"
#include "core/engine.h"
#include "exec/ivm.h"
#include "storage/table.h"

namespace bqe {
namespace serve {

/// Counter snapshot of one ResultCache. Taken under the cache mutex, so —
/// unlike the engine's lock-free PlanCacheStats — the set is internally
/// consistent: hits + misses == lookups exactly at any snapshot.
struct ResultCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;        ///< Includes stale entries found at lookup.
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< Capacity (LRU) evictions.
  uint64_t invalidations = 0; ///< Entries dropped because their coherence
                              ///< snapshot went stale (epoch moved),
                              ///< detected lazily at lookup (entries without
                              ///< a maintenance handle) or overwrite.
  uint64_t oversized = 0;     ///< Results too large to ever cache.
  uint64_t bytes = 0;         ///< Resident estimated result bytes.
  uint64_t entries = 0;       ///< Resident entry count.
  /// Entries the eager stale sweep dropped on an epoch bump (no refresh
  /// attempted: no maintenance handle, a snapshot from an older epoch, or a
  /// schema-level event). Before the sweep these dead tables pinned the
  /// byte budget until their next lookup.
  uint64_t evicted_stale = 0;
  /// Entries patched in place by incremental view maintenance: still
  /// resident after a delta batch, re-keyed to the new data epoch.
  uint64_t refreshes = 0;
  /// The refreshes whose batch landed on none of the handle's retained
  /// probe keys (PlanMaintenance::SkipIfUntouched): re-keyed in place with
  /// no propagation and no unlink.
  uint64_t refresh_skips = 0;
  /// Refresh attempts whose plan reported not-maintainable (the entry was
  /// dropped and the next read recomputes + rebuilds).
  uint64_t refresh_fallbacks = 0;
  /// Total rows the refresh patches added plus removed across all
  /// refreshes — the O(delta) work the cache did instead of O(query).
  uint64_t refreshed_rows = 0;
  /// Index-side bucket mutations the refreshes replayed off the mirror
  /// patch logs onto retained fetch buckets (RefreshStats::bucket_diff_hits
  /// summed) — the O(delta) path for index-side deltas.
  uint64_t bucket_diff_hits = 0;
  /// Retained buckets re-resolved wholesale because a patch log was
  /// truncated by a budget-forced mirror rebuild.
  uint64_t bucket_refetch_fallbacks = 0;
  /// Difference-subtrahend deletions absorbed as support-count decrements
  /// (no resurrection possible, no fallback paid).
  uint64_t subtrahend_decrements = 0;
  /// Subtrahend deletions that actually resurrected a suppressed row — the
  /// remaining difference shape counted into refresh_fallbacks.
  uint64_t resurrection_fallbacks = 0;
  /// Per-phase refresh wall time, microseconds summed over all refresh
  /// attempts (classify the batch / propagate signed rows / patch tables);
  /// a skipped refresh adds nothing.
  uint64_t refresh_classify_us = 0;
  uint64_t refresh_propagate_us = 0;
  uint64_t refresh_patch_us = 0;
};

/// What one ResultCache::Refresh() call did, for the caller's logs/tests;
/// the same numbers accumulate into the stats counters.
struct RefreshSummary {
  size_t refreshed = 0;  ///< Entries patched and re-keyed, skips included.
  size_t refresh_skips = 0;  ///< Of those, re-keyed without propagation.
  size_t fallbacks = 0;  ///< Entries dropped as not-maintainable.
  size_t swept = 0;      ///< Stale entries dropped without a refresh attempt.
  /// Fingerprints of the `fallbacks` entries, so the serving layer can
  /// defer their (expensive) handle rebuilds instead of paying one eagerly
  /// on the very next read of a fingerprint that just proved churn-hostile.
  std::vector<std::string> fallback_fingerprints;
};

/// A cross-window cache of materialized query results, keyed on
/// (QueryFingerprint, CoherenceSnapshot): the serving layer's answer to
/// read-heavy steady state, where the same hot fingerprints are asked again
/// and again between delta batches. A hit returns the pinned immutable
/// `shared_ptr<const Table>` of the last execution — zero execution, zero
/// plan-cache or gate traffic.
///
/// Epoch movement no longer simply discards the cache: an entry may carry a
/// PlanMaintenance handle (exec/ivm.h) retained from its populating
/// execution, and Refresh() pushes an applied delta batch through those
/// handles to patch the cached tables in O(delta), re-keying them to the
/// new snapshot — the incremental-view-maintenance path. A handle whose
/// retained probe keys the batch misses is re-keyed in place without any
/// propagation, so a batch costs in proportion to the views it touches.
/// Entries without a handle, from older epochs, or whose plan reports
/// not-maintainable are swept eagerly (SweepStale) instead of lingering
/// until their next lookup; the lazy drop at Lookup() remains as the
/// backstop for handle-less entries. A stale entry *with* a handle is left
/// in place at Lookup() (a miss): the Refresh() or SweepStale() that
/// follows every applied batch settles it, so a reader racing the writer
/// never tears down the view the writer is about to patch.
///
/// Every entry that leaves the cache is destroyed after the mutex is
/// released, so a lookup never waits behind a large table's or handle's
/// teardown.
///
/// Eviction is size-capped LRU over estimated bytes (Table::ApproxBytes
/// plus the maintenance handle's retained state plus entry bookkeeping, so
/// retained build state competes with result bytes honestly). A result
/// larger than the whole capacity is never inserted.
///
/// Thread safety: all operations are safe from any thread (one internal
/// mutex) — except Refresh(), which additionally requires the caller to
/// exclude concurrent writers *and* every other mutation (Insert,
/// SweepStale, Clear) for the duration of the call (the QueryService calls
/// it inside the exclusive writer-gate hold of the very batch being pushed,
/// which excludes executions and therefore Insert; it calls SweepStale only
/// in such a hold, and never Clear). That requirement is no longer prose alone: Refresh() takes the
/// serving gate as an annotated parameter and the clang thread-safety
/// analysis rejects any call site not holding it exclusively. Refresh unlinks
/// the entries it patches, so concurrent lookups simply miss while a patch
/// is in flight and can never observe a half-patched table. Correctness of
/// what gets *inserted* is the caller's contract: the snapshot passed to
/// Insert() must have been taken before the execution that produced the
/// table, inside whatever discipline excludes concurrent writers, so a
/// snapshot can never claim more freshness than the table has.
class ResultCache {
 public:
  /// The cached value: the immutable result table shared by every hit, plus
  /// the execution metadata a response needs to replay.
  struct CachedResult {
    std::shared_ptr<const Table> table;
    bool used_bounded_plan = false;
    /// True once incremental maintenance has patched this entry: the table
    /// was produced by Refresh(), not verbatim by an execution.
    bool refreshed = false;
  };

  explicit ResultCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks `fingerprint` up against the caller's current coherence snapshot.
  /// A resident entry whose stored snapshot differs is a miss; without a
  /// maintenance handle it is also dropped on the spot (counted as
  /// invalidation), with one it stays for the writer's Refresh(). On a hit
  /// the entry moves to the MRU position and `*out` receives the shared
  /// table.
  bool Lookup(const std::string& fingerprint, const CoherenceSnapshot& now,
              CachedResult* out);

  /// Inserts (or overwrites) the result for `fingerprint` as produced under
  /// `snap`, then evicts LRU entries past the byte capacity. Oversized
  /// results are dropped without insertion. `maint` (optional) is the
  /// retained maintenance handle that lets Refresh() patch this entry
  /// across delta batches; its ApproxBytes() counts toward the capacity.
  void Insert(const std::string& fingerprint, const CoherenceSnapshot& snap,
              CachedResult result,
              std::unique_ptr<PlanMaintenance> maint = nullptr);

  /// Pushes one applied delta batch through every entry still keyed at
  /// `pre`: entries whose handle the batch leaves untouched are re-keyed to
  /// `post` in place (refresh_skips), the others are patched and re-keyed,
  /// not-maintainable ones are dropped (refresh_fallbacks), and everything
  /// else stale is swept eagerly (evicted_stale). See the class comment for
  /// the required caller-side exclusion.
  RefreshSummary Refresh(const WriterPriorityGate& gate,
                         const std::vector<Delta>& deltas,
                         const CoherenceSnapshot& pre,
                         const CoherenceSnapshot& post) REQUIRES(gate);

  /// Eagerly drops every entry whose snapshot differs from `now` (counted
  /// in evicted_stale): the epoch-bump invalidation path when no refresh is
  /// possible (schema event, failed batch, maintenance disabled).
  void SweepStale(const CoherenceSnapshot& now);

  void Clear();

  ResultCacheStats stats() const;

 private:
  struct Entry {
    std::string fingerprint;
    CoherenceSnapshot snap;
    CachedResult result;
    std::unique_ptr<PlanMaintenance> maint;  ///< May be null.
    size_t bytes = 0;
  };
  using Lru = std::list<Entry>;

  /// Unlinks `it` from the list and map, adjusting resident bytes, and
  /// splices it into `dead`, which the caller destroys after releasing mu_.
  void EraseLocked(Lru::iterator it, Lru* dead) REQUIRES(mu_);
  /// Links `e` (recomputing its byte estimate) at the MRU position,
  /// overwriting any same-fingerprint entry, then evicts past capacity;
  /// displaced entries go to `dead`. Returns false when the entry is
  /// oversized (counted; `e` is left with the caller).
  bool InsertLocked(Entry&& e, Lru* dead) REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_;
  Lru lru_ GUARDED_BY(mu_);  ///< Front = most recently used.
  /// Keys are views into the stable list nodes' fingerprint strings.
  std::unordered_map<std::string_view, Lru::iterator> map_ GUARDED_BY(mu_);
  size_t bytes_ GUARDED_BY(mu_) = 0;
  uint64_t lookups_ GUARDED_BY(mu_) = 0;
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ GUARDED_BY(mu_) = 0;
  uint64_t oversized_ GUARDED_BY(mu_) = 0;
  uint64_t evicted_stale_ GUARDED_BY(mu_) = 0;
  uint64_t refreshes_ GUARDED_BY(mu_) = 0;
  uint64_t refresh_skips_ GUARDED_BY(mu_) = 0;
  uint64_t refresh_fallbacks_ GUARDED_BY(mu_) = 0;
  uint64_t refreshed_rows_ GUARDED_BY(mu_) = 0;
  uint64_t bucket_diff_hits_ GUARDED_BY(mu_) = 0;
  uint64_t bucket_refetch_fallbacks_ GUARDED_BY(mu_) = 0;
  uint64_t subtrahend_decrements_ GUARDED_BY(mu_) = 0;
  uint64_t resurrection_fallbacks_ GUARDED_BY(mu_) = 0;
  uint64_t refresh_classify_us_ GUARDED_BY(mu_) = 0;
  uint64_t refresh_propagate_us_ GUARDED_BY(mu_) = 0;
  uint64_t refresh_patch_us_ GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace bqe

#endif  // BQE_SERVE_RESULT_CACHE_H_
