#ifndef BQE_CLUSTER_SHARDED_ENGINE_H_
#define BQE_CLUSTER_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_router.h"
#include "common/rw_gate.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "constraints/access_schema.h"
#include "constraints/maintain.h"
#include "core/engine.h"
#include "storage/database.h"

namespace bqe {
namespace cluster {

/// Configuration of the sharded engine.
struct ShardedOptions {
  /// Number of in-process BoundedEngine shards.
  size_t shards = 2;
  /// Slot-map size (power of two >= shards). Keys hash to slots, slots map
  /// to shards by modulo; see ShardRouter.
  size_t slots = 256;
  /// Per-shard engine configuration. `baseline_fallback` is forced off on
  /// the shards (a baseline over a partial database would answer wrongly);
  /// non-covered queries run on the full-copy fallback replica instead.
  EngineOptions engine;
  /// Keep a full (unsharded) database + engine for non-covered queries.
  /// When off, Execute() returns NotCovered for them.
  bool fallback_replica = true;
};

/// N in-process BoundedEngine shards behind the Engine interface: each
/// shard owns a hash-partitioned replica of the database, its own
/// IndexSet, plan cache and writer-priority gate, so readers on different
/// shards share nothing and a delta batch writer-locks only the shards
/// whose slots it touches.
///
/// Partitioning invariant: a base row is replicated to every shard owning
/// one of its fetch keys (ShardRouter::ShardsOfRow), so for any key the
/// *owning* shard's AccessIndex bucket equals the single-engine bucket
/// byte-for-byte. Non-owner shards may hold partial buckets for foreign
/// keys; they are never probed, and a partial bucket is a subset of the
/// full one, so no shard ever sees a *larger* bucket than the constraint's
/// bound admits.
///
/// Execution: planning (coverage, minimization, plan generation,
/// compilation) runs on one fingerprint-routed shard — spreading plan-cache
/// contention across shards — and every shard compiles against one routed
/// FetchSource (fetch_source()). The compiled plan then runs through the
/// planning shard's ordinary executors (row path, serial vectorized or
/// morsel-parallel) and its fetch steps, the only data access a bounded
/// plan has, read through the routed source: distinct probe keys group by
/// owning shard, each engaged shard runs one task under its reader gate
/// that copies its buckets out, and the buckets gather in key order. Since
/// the owners' buckets equal the single engine's, every executor returns
/// the single engine's row stream.
///
/// Consistency: a direct caller gets per-fetch, per-shard atomicity (each
/// fetch task reads its shard under the shard gate; two fetch steps of one
/// query may observe different epochs if a concurrent Apply lands between
/// them). The serving layer (serve/QueryService) layers its global
/// writer-priority gate above the shard gates — global first, then shards,
/// so lock order is acyclic — restoring whole-query snapshot isolation
/// exactly as for a single engine.
class ShardedEngine final : public Engine {
 public:
  /// Builds the shards: per shard a fresh Database holding its owned rows,
  /// an AccessSchema copy, a BoundedEngine with built indices and a gate;
  /// plus the fallback replica when configured. Fails if the data violates
  /// the schema (same contract as BoundedEngine::BuildIndices).
  static Result<std::unique_ptr<ShardedEngine>> Create(
      const Database& db, const AccessSchema& schema, ShardedOptions opts);

  ~ShardedEngine() override;

  /// Cached planning on the fingerprint-routed shard. The returned plan's
  /// bindings refer to that shard's IndexSet but only supply metadata: its
  /// fetches read through the routed source.
  Result<std::shared_ptr<const PreparedQuery>> PrepareCompiled(
      const RaExprPtr& query, bool* cache_hit = nullptr) const override;

  /// StillCoherent on the shard that prepared `fingerprint`.
  bool StillCoherent(const std::string& fingerprint,
                     const PreparedQuery& pq) const override;

  /// Full pipeline: plan on the routed shard and execute when covered,
  /// fallback replica otherwise (NotCovered when the replica is off).
  Result<ExecuteResult> Execute(const RaExprPtr& query) const override;

  /// The planning shard's ExecutePrepared: the shard engine's executors
  /// and options, its fetches routed to the owning shards. `num_threads`
  /// (0 = the shard engines' exec_threads) also caps the concurrent shard
  /// tasks of one fetch step. Fails with FailedPrecondition for
  /// non-covered preparations and for plans no shard of this engine
  /// compiled.
  Result<ExecuteResult> ExecutePrepared(const PreparedQuery& pq,
                                        uint64_t task_tag = 0,
                                        size_t num_threads = 0) const override;

  /// Splits the batch by slot, writer-locks exactly the touched shards (in
  /// ascending shard order, then the replica — acyclic, so concurrent
  /// Apply calls cannot deadlock) and applies each sub-batch under its
  /// shard's gate; reads on untouched shards proceed throughout. Returns
  /// the logical (whole-batch) maintenance stats. A kStrict rejection is
  /// only atomic per shard: the owning shard of a violated key rejects
  /// exactly like the single engine, but sub-batches already applied on
  /// other shards stay applied — callers needing atomic rejection should
  /// validate with kStrict on a single engine first (the serving layer
  /// applies under its global writer gate, where the failed batch surfaces
  /// as an error and the epochs still advance coherently).
  Result<MaintenanceStats> Apply(
      const std::vector<Delta>& deltas,
      OverflowPolicy policy = OverflowPolicy::kGrow) override;

  /// The batch behind the latest data-epoch bump (the cleanly applied
  /// *logical* batch, not a per-shard split). Same external-serialization
  /// contract as BoundedEngine::last_applied().
  const AppliedBatch& last_applied() const override { return last_applied_; }

  /// Merged lock-free coherence: the component-wise *sum* of every shard's
  /// (and the replica's) snapshot. Each component is monotone
  /// non-decreasing, so the sum changes iff some component changed — a
  /// valid result-cache key with the same torn-pair-misses-never-serves-
  /// stale property as the single-engine snapshot.
  CoherenceSnapshot Coherence() const override;

  /// The routed source every shard compiles against. Its PatchLogSince
  /// drains every shard's bucket patch log for the binding's constraint
  /// (one cursor element per shard) and keeps only the events whose bucket
  /// key the logging shard *owns*: replication lands a row in every shard
  /// holding one of its fetch keys, so a non-owner replica logs the same
  /// distinct-entry transition for a foreign key and unfiltered
  /// concatenation would double-count the owner's event. The patch-log read
  /// takes no shard gate: callers hold the serving discipline's global
  /// gate, which serializes against Apply().
  const FetchSource& fetch_source() const;

  /// Installs the hook on every shard's IndexSet (and the replica's).
  /// Counts as maintenance: externally serialize like a writer.
  void SetFreezeHook(AccessIndex::FreezeHook hook) const override;

  size_t num_shards() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }

  /// Per-shard counters + epochs; lock-free.
  ShardStatsSnapshot shard_stats(size_t shard) const;
  std::vector<ShardStatsSnapshot> shard_stats() const override;

  /// Plan-cache counters folded over all shards (replica excluded: its
  /// cache only serves non-covered fallbacks).
  PlanCacheStats plan_cache_stats() const override;

  /// Direct shard access for tests/diagnostics.
  const BoundedEngine& shard_engine(size_t shard) const {
    return *shards_[shard]->engine;
  }
  const BoundedEngine* replica() const {
    return replica_ != nullptr ? replica_->engine.get() : nullptr;
  }

 private:
  /// One shard: its database slice, engine and gate. Heap-held (the gate
  /// is neither movable nor copyable).
  struct Shard {
    std::unique_ptr<Database> db;
    std::unique_ptr<BoundedEngine> engine;
    /// Readers (routed fetch tasks, replica fallbacks) take the shared
    /// side; Apply takes the exclusive side of every *touched* shard.
    mutable WriterPriorityGate gate;
    /// Mutable: const read paths (fetch tasks) count themselves.
    mutable std::atomic<uint64_t> scatter_tasks_ctr{0};
    std::atomic<uint64_t> delta_batches_ctr{0};
    std::atomic<uint64_t> deltas_routed_ctr{0};
  };
  class RoutedSource;  ///< The shards' FetchSource; defined in the .cc.

  ShardedEngine();

  size_t PlanningShard(const std::string& fingerprint) const;

  ShardRouter router_;
  ShardedOptions opts_;
  /// Declared before the shards so it outlives every shard engine (their
  /// compiled plans point at it).
  std::unique_ptr<RoutedSource> source_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Shard> replica_;  ///< Full copy; null when disabled.
  AppliedBatch last_applied_;
};

}  // namespace cluster
}  // namespace bqe

#endif  // BQE_CLUSTER_SHARDED_ENGINE_H_
