#ifndef BQE_EXEC_PHYSICAL_PLAN_H_
#define BQE_EXEC_PHYSICAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "constraints/index.h"
#include "core/plan.h"
#include "exec/column_batch.h"
#include "exec/exec_stats.h"
#include "exec/fetch_source.h"
#include "storage/table.h"

namespace bqe {

/// One operator of a compiled physical plan. Everything the logical
/// `PlanStep` left symbolic is resolved here at compile time: the fetch
/// step's AccessIndex binding, every step's derived output column types,
/// the join's split key-column lists, and the fusion mark the parallel
/// executor uses to stream this step's output into its consumer without
/// materializing it.
struct PhysicalOp {
  PlanStep::Kind kind = PlanStep::Kind::kConst;
  int input = -1;              // kFetch / kProject / kFilter.
  int left = -1, right = -1;   // kProduct / kJoin / kUnion / kDiff.
  const AccessIndex* index = nullptr;  // kFetch, resolved via source_id.
  Tuple const_row;                     // kConst.
  std::vector<int> cols;               // kProject.
  bool dedupe = false;                 // kProject.
  std::vector<PlanPredicate> preds;    // kFilter.
  std::vector<std::pair<int, int>> join_cols;  // kJoin.
  std::vector<int> lkey, rkey;                 // kJoin, join_cols split.
  std::vector<ValueType> out_types;    // Derived static column types.
  /// Compile-time output-cardinality estimate (propagated from the fetch
  /// indices' live entry counts, saturating). Coarse by construction — it
  /// exists to size the breaker build decision below, not to order joins.
  uint64_t est_rows = 0;
  /// Pipeline-breaker build fan-out picked at compile time from the build
  /// side's `est_rows`: the partition count of the two-phase partitioned
  /// build (power of two), or 0 when the estimated build looks too small
  /// for partitioning to pay. Set on kJoin (build = right), kDiff
  /// (exclusion set = right), kUnion and dedupe kProject (the candidate
  /// merge). A hint, not a verdict: the executor falls back to the serial
  /// build when the *actual* materialized build is small
  /// (ExecOptions::partitioned_build_min_rows) or workers == 1, and
  /// conversely re-picks a partition count from the actual row count when
  /// this said serial but the build grew past the threshold (cached plans
  /// stay live across data-only deltas, so compile estimates go stale).
  int build_partitions = 0;
  int num_consumers = 0;       // How many later ops read this op's result.
  /// Id of the op this op's output streams into under morsel-driven
  /// execution (-1 = materialized). Set when this op is a streamable
  /// transform (filter / non-dedupe project) with exactly one consumer that
  /// can absorb it (filter, project, or the probe side of a hash join).
  int fuse_into = -1;
};

/// A compiled, immutable, reusable physical plan: the operator DAG of one
/// `BoundedPlan` with all per-execution derivation (type propagation, fetch
/// index resolution, step validation, output schema) hoisted into
/// `Compile()`. Execution never touches plan/schema metadata again —
/// repeated executions of a cached PhysicalPlan skip straight to operator
/// dispatch. The plan *borrows* its AccessIndex bindings from the IndexSet
/// it was compiled against, its logical-plan reference from the source
/// BoundedPlan, and its FetchSource; all must outlive it (the engine's
/// PreparedQuery keeps the BoundedPlan and the compiled form side by side,
/// and the engine owns the IndexSet and outlives its source).
///
/// Every fetch step reads through `source()`: the bindings only supply
/// per-constraint metadata, so the same compiled plan runs over one engine
/// (LocalFetchSource) or over hash-partitioned shards (a routed source).
class PhysicalPlan {
 public:
  static Result<PhysicalPlan> Compile(
      const BoundedPlan& plan, const IndexSet& indices,
      const FetchSource& source = LocalFetchSource());

  const std::vector<PhysicalOp>& ops() const { return ops_; }
  int output() const { return output_; }
  const RelationSchema& output_schema() const { return output_schema_; }

  /// The logical plan this was compiled from (debugging, tests).
  const BoundedPlan& source_plan() const { return *source_plan_; }
  /// The IndexSet the fetch bindings were resolved in.
  const IndexSet& indices() const { return *indices_; }
  /// Where every fetch step reads; see FetchSource.
  const FetchSource& source() const { return *source_; }

  /// The distinct AccessIndices this plan's fetch steps bind, resolved at
  /// compile time. This is the plan's *read set* over the index layer: the
  /// engine snapshots per-index coherence signals (mirror generation) from
  /// it so maintenance re-validates exactly the cached plans touching a
  /// churned relation, and execution sizes the row-path decision through it
  /// without rescanning the op DAG.
  const std::vector<const AccessIndex*>& fetch_indices() const {
    return fetch_indices_;
  }

  /// The distinct *base relations* behind fetch_indices(), resolved at
  /// compile time: the plan's read set over the stored data. A delta on a
  /// relation outside this set provably cannot change the plan's answer —
  /// result maintenance (exec/ivm) classifies every batch against it, and
  /// it is the set whose indices' bucket patch logs a refresh consumes.
  const std::vector<std::string>& fetch_rels() const { return fetch_rels_; }

  /// Live total entry count of the fetch steps' indices, as the source
  /// reads them — the adaptive micro-plan signal
  /// (ExecOptions::row_path_threshold). Recomputed per execution (never
  /// frozen into the plan): maintenance changes it, and a cached plan must
  /// re-decide row-path vs vectorized as tables grow.
  size_t FetchIndexEntries() const;

  /// Observed-build-size feedback: per-breaker EWMAs of the actual rows
  /// materialized by past executions of this plan, updated by the parallel
  /// executor and preferred over the frozen compile-time est_rows when
  /// picking the partitioned-build fan-out (cached plans stay live across
  /// data-only deltas, so the estimate drifts while the observation
  /// tracks). Slots: op id for an op's primary breaker (join build side,
  /// difference exclusion set, union / dedupe-project candidate merge);
  /// `op id + ops().size()` for the secondary breaker of an op (the
  /// difference's candidate merge, whose input is not the hinted side).
  /// 0 means "never observed". Relaxed atomics behind a shared_ptr: the
  /// plan stays copyable and logically immutable while concurrent
  /// executions blend in observations; a lost update just delays
  /// convergence of a sizing hint.
  uint64_t ObservedBuildRows(size_t slot) const {
    return (*build_feedback_)[slot].load(std::memory_order_relaxed);
  }

  /// Blends `rows` into the slot's EWMA (integer, alpha 1/4; floored at 1
  /// so an observed-empty build still reads as observed).
  void RecordBuildRows(size_t slot, uint64_t rows) const {
    std::atomic<uint64_t>& a = (*build_feedback_)[slot];
    uint64_t old = a.load(std::memory_order_relaxed);
    uint64_t next = old == 0 ? rows : old - old / 4 + rows / 4;
    a.store(next == 0 ? 1 : next, std::memory_order_relaxed);
  }

 private:
  PhysicalPlan() = default;

  std::vector<PhysicalOp> ops_;
  std::vector<const AccessIndex*> fetch_indices_;  // Distinct, compile order.
  std::vector<std::string> fetch_rels_;            // Distinct base relations.
  int output_ = -1;
  RelationSchema output_schema_;
  const BoundedPlan* source_plan_ = nullptr;
  const IndexSet* indices_ = nullptr;
  const FetchSource* source_ = nullptr;
  /// 2 * ops_.size() slots; see ObservedBuildRows().
  std::shared_ptr<std::vector<std::atomic<uint64_t>>> build_feedback_;
};

/// Breaker build fan-out for an estimated or actual build cardinality: 0
/// below the floor where scatter setup dominates (the breaker then builds
/// serially), otherwise a power of two that grows with the size — more
/// independent partitions than workers, so finer tasks absorb key skew —
/// up to PartitionedKeyTable::kMaxPartitions. Compile time applies it to
/// cardinality estimates (PhysicalOp::build_partitions); the parallel
/// executor re-applies it to the *actual* materialized row count whenever
/// the compile-time hint said serial, so a cached plan whose build side
/// grew under data-only deltas (estimates are frozen at compile, plans
/// stay live — see core/engine.h) and second breakers whose input differs
/// from the hinted side (the difference's candidate merge vs its exclusion
/// set) still engage the partitioned build.
int PickBuildPartitions(uint64_t build_rows);

/// Executes a compiled plan: serial vectorized dispatch by default,
/// morsel-driven parallel execution when opts.num_threads > 1, and the
/// row-at-a-time interpreter below opts.row_path_threshold.
Result<Table> ExecutePhysicalPlan(const PhysicalPlan& plan,
                                  ExecStats* stats = nullptr,
                                  const ExecOptions& opts = {});

}  // namespace bqe

#endif  // BQE_EXEC_PHYSICAL_PLAN_H_
