#ifndef BQE_CORE_PLAN_EXEC_H_
#define BQE_CORE_PLAN_EXEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraints/index.h"
#include "core/plan.h"
#include "exec/column_batch.h"
#include "exec/exec_stats.h"
#include "exec/physical_plan.h"
#include "storage/table.h"

namespace bqe {

/// Resolves a fetch step to the index of its (source) constraint.
Result<const AccessIndex*> ResolveFetchIndex(const BoundedPlan& plan,
                                             const PlanStep& s,
                                             const IndexSet& indices);

/// Derives the static column types of every plan step from plan/schema
/// metadata alone: fetch steps from the indexed relation's attribute types,
/// const steps from their literal types, and the rest by propagation. This
/// is how the compiled executor types its batches and its output table —
/// empty results get real attribute types, not kNull. Validates every step
/// reference and fetch binding on the way.
Result<std::vector<std::vector<ValueType>>> DerivePlanStepTypes(
    const BoundedPlan& plan, const IndexSet& indices);

/// Executes a canonical bounded plan against the indices I_A built for the
/// *original* access schema. Fetch steps reference actualized constraints;
/// each resolves to its source constraint's index via `source_id`.
///
/// Data access happens exclusively through `indices` — the executor never
/// touches base tables, which is precisely the bounded-evaluability
/// guarantee (Section 2).
///
/// This is the compile-then-run convenience wrapper: it lowers the plan
/// onto a PhysicalPlan (exec/physical_plan.h) and executes it once. Callers
/// that run the same plan repeatedly should compile once with
/// PhysicalPlan::Compile and call ExecutePhysicalPlan per execution — that
/// is what BoundedEngine's plan cache does.
Result<Table> ExecutePlan(const BoundedPlan& plan, const IndexSet& indices,
                          ExecStats* stats = nullptr, ExecOptions opts = {});

/// The pre-vectorization executor: one boxed Tuple at a time, TupleHash for
/// joins and dedupe. Kept as the comparison baseline for benchmarks, as a
/// second oracle in differential tests, and as the adaptive fast path for
/// micro-scale plans (ExecOptions::row_path_threshold). Compiles the plan
/// against `indices` and runs the overload below.
Result<Table> ExecutePlanRowAtATime(const BoundedPlan& plan,
                                    const IndexSet& indices,
                                    ExecStats* stats = nullptr);

/// The row-at-a-time interpreter over a compiled plan's operators; fetch
/// steps read through the plan's FetchSource.
Result<Table> ExecutePlanRowAtATime(const PhysicalPlan& plan,
                                    ExecStats* stats = nullptr);

}  // namespace bqe

#endif  // BQE_CORE_PLAN_EXEC_H_
