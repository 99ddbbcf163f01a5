#ifndef BQE_EXEC_PHYSICAL_PLAN_H_
#define BQE_EXEC_PHYSICAL_PLAN_H_

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
};

/// Executes a compiled plan: serial vectorized dispatch by default,
/// morsel-driven parallel execution when opts.num_threads > 1, and the
/// row-at-a-time interpreter below opts.row_path_threshold.
Result<Table> ExecutePhysicalPlan(const PhysicalPlan& plan,
                                  ExecStats* stats = nullptr,
                                  const ExecOptions& opts = {});

}  // namespace bqe

#endif  // BQE_EXEC_PHYSICAL_PLAN_H_
