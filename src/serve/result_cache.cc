#include "serve/result_cache.h"

#include <utility>

namespace bqe {
namespace serve {

namespace {

size_t EntryBytes(const std::string& fingerprint,
                  const ResultCache::CachedResult& result,
                  const PlanMaintenance* maint) {
  size_t bytes = sizeof(std::string) + fingerprint.size() + 64;  // Node + map.
  if (result.table != nullptr) bytes += result.table->ApproxBytes();
  if (maint != nullptr) bytes += maint->ApproxBytes();
  return bytes;
}

}  // namespace

void ResultCache::EraseLocked(Lru::iterator it, Lru* dead) {
  bytes_ -= it->bytes;
  map_.erase(std::string_view(it->fingerprint));
  dead->splice(dead->end(), lru_, it);
}

bool ResultCache::InsertLocked(Entry&& e, Lru* dead) {
  e.bytes = EntryBytes(e.fingerprint, e.result, e.maint.get());
  if (e.bytes > capacity_) {
    ++oversized_;
    return false;
  }
  auto it = map_.find(std::string_view(e.fingerprint));
  if (it != map_.end()) {
    // Overwrite: a stale predecessor counts as invalidated; a same-snapshot
    // overwrite is just two executions racing to insert one answer.
    if (it->second->snap != e.snap) ++invalidations_;
    EraseLocked(it->second, dead);
  }
  size_t bytes = e.bytes;
  lru_.push_front(std::move(e));
  map_.emplace(std::string_view(lru_.front().fingerprint), lru_.begin());
  bytes_ += bytes;
  ++insertions_;
  while (bytes_ > capacity_ && lru_.size() > 1) {
    EraseLocked(std::prev(lru_.end()), dead);
    ++evictions_;
  }
  return true;
}

bool ResultCache::Lookup(const std::string& fingerprint,
                         const CoherenceSnapshot& now, CachedResult* out) {
  Lru dead;  // Destroyed after the lock is released.
  MutexLock lk(&mu_);
  ++lookups_;
  auto it = map_.find(std::string_view(fingerprint));
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  if (it->second->snap != now) {
    // A delta batch (or schema event) moved the engine's coherence snapshot
    // since this result was produced. A maintained entry stays: the writer
    // that moved the snapshot refreshes or sweeps it before releasing its
    // exclusive hold. Anything else takes the lazy invalidation backstop
    // (the eager Refresh/SweepStale path usually gets there first).
    ++misses_;
    if (it->second->maint == nullptr) {
      EraseLocked(it->second, &dead);
      ++invalidations_;
    }
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to MRU.
  ++hits_;
  *out = it->second->result;
  return true;
}

void ResultCache::Insert(const std::string& fingerprint,
                         const CoherenceSnapshot& snap, CachedResult result,
                         std::unique_ptr<PlanMaintenance> maint) {
  Entry e;
  e.fingerprint = fingerprint;
  e.snap = snap;
  e.result = std::move(result);
  e.maint = std::move(maint);
  Lru dead;  // Like `e` when oversized, destroyed after the lock.
  MutexLock lk(&mu_);
  InsertLocked(std::move(e), &dead);
}

RefreshSummary ResultCache::Refresh(const WriterPriorityGate& gate,
                                    const std::vector<Delta>& deltas,
                                    const CoherenceSnapshot& pre,
                                    const CoherenceSnapshot& post) {
  RefreshSummary summary;
  // Every entry leaving the cache dies with these, after the last unlock.
  std::vector<Entry> work;
  Lru dead;
  // Sweep everything stale that cannot be refreshed, and collect the refresh
  // candidates: fresh-as-of-`pre`, with a handle.
  std::vector<Lru::iterator> candidates;
  {
    MutexLock lk(&mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      auto next = std::next(it);
      if (it->snap == post) {
        // Already fresh (nothing applied, or re-inserted).
      } else if (it->snap == pre && it->maint != nullptr) {
        candidates.push_back(it);
      } else {
        EraseLocked(it, &dead);
        ++evicted_stale_;
        ++summary.swept;
      }
      it = next;
    }
  }

  // The touched-key check runs outside the mutex: it reads and re-stamps
  // only handle state, which no lookup reads, and the candidates stay
  // linked — a lookup drops only handle-less entries, and the caller's
  // exclusion keeps Insert and every other mutation out.
  TouchedKeys touched(deltas);
  std::vector<bool> skip;
  skip.reserve(candidates.size());
  for (Lru::iterator it : candidates) {
    skip.push_back(it->maint->SkipIfUntouched(gate, &touched));
  }

  // Re-key the untouched candidates in place and unlink the touched ones.
  // Unlinking before patching means a concurrent admission-time Lookup can
  // only miss, never observe a half-patched entry.
  {
    MutexLock lk(&mu_);
    for (size_t i = 0; i < candidates.size(); ++i) {
      Lru::iterator it = candidates[i];
      if (skip[i]) {
        it->snap = post;
        it->result.refreshed = true;
        ++refreshes_;
        ++refresh_skips_;
        ++summary.refreshed;
        ++summary.refresh_skips;
      } else {
        bytes_ -= it->bytes;
        map_.erase(std::string_view(it->fingerprint));
        work.push_back(std::move(*it));
        lru_.erase(it);
      }
    }
  }

  // Patch outside the cache mutex: admission lookups keep flowing while
  // the micro-batches run (they miss on the unlinked fingerprints).
  for (Entry& e : work) {
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    RefreshOutcome outcome =
        e.maint->Refresh(gate, deltas, e.result.table, &patched, &rs);
    if (outcome == RefreshOutcome::kRefreshed) {
      // The pre-batch table moves to `patched`, which dies after the lock.
      e.snap = post;
      e.result.table.swap(patched);
      e.result.refreshed = true;
    }
    MutexLock lk(&mu_);
    // The per-refresh micro-counters accumulate on every attempt: a
    // fallback still did classify/propagate work (and its
    // resurrection_fallbacks / bucket counters are exactly what explains
    // the fallback).
    bucket_diff_hits_ += rs.bucket_diff_hits;
    bucket_refetch_fallbacks_ += rs.bucket_refetch_fallbacks;
    subtrahend_decrements_ += rs.subtrahend_decrements;
    resurrection_fallbacks_ += rs.resurrection_fallbacks;
    refresh_classify_us_ += static_cast<uint64_t>(rs.classify_us);
    refresh_propagate_us_ += static_cast<uint64_t>(rs.propagate_us);
    refresh_patch_us_ += static_cast<uint64_t>(rs.patch_us);
    if (outcome != RefreshOutcome::kRefreshed) {
      ++refresh_fallbacks_;
      ++summary.fallbacks;
      summary.fallback_fingerprints.push_back(std::move(e.fingerprint));
      continue;  // Entry dropped; the next read recomputes + rebuilds.
    }
    refreshed_rows_ += rs.rows_added + rs.rows_removed;
    if (InsertLocked(std::move(e), &dead)) {
      ++refreshes_;
      ++summary.refreshed;
      --insertions_;  // A refresh re-link is not a fresh insertion.
    } else {
      // The patched entry outgrew the capacity: treat like any oversized
      // insert (already counted) — dropped, next read repopulates.
      ++refresh_fallbacks_;
      ++summary.fallbacks;
    }
  }
  return summary;
}

void ResultCache::SweepStale(const CoherenceSnapshot& now) {
  Lru dead;  // Destroyed after the lock is released.
  MutexLock lk(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (it->snap != now) {
      EraseLocked(it, &dead);
      ++evicted_stale_;
    }
    it = next;
  }
}

void ResultCache::Clear() {
  Lru dead;  // Destroyed after the lock is released.
  MutexLock lk(&mu_);
  map_.clear();
  dead.swap(lru_);
  bytes_ = 0;
}

ResultCacheStats ResultCache::stats() const {
  MutexLock lk(&mu_);
  ResultCacheStats s;
  s.lookups = lookups_;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.oversized = oversized_;
  s.bytes = bytes_;
  s.entries = lru_.size();
  s.evicted_stale = evicted_stale_;
  s.refreshes = refreshes_;
  s.refresh_skips = refresh_skips_;
  s.refresh_fallbacks = refresh_fallbacks_;
  s.refreshed_rows = refreshed_rows_;
  s.bucket_diff_hits = bucket_diff_hits_;
  s.bucket_refetch_fallbacks = bucket_refetch_fallbacks_;
  s.subtrahend_decrements = subtrahend_decrements_;
  s.resurrection_fallbacks = resurrection_fallbacks_;
  s.refresh_classify_us = refresh_classify_us_;
  s.refresh_propagate_us = refresh_propagate_us_;
  s.refresh_patch_us = refresh_patch_us_;
  return s;
}

}  // namespace serve
}  // namespace bqe
