#ifndef BQE_EXEC_EXEC_STATS_H_
#define BQE_EXEC_EXEC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/plan.h"
#include "exec/column_batch.h"

namespace bqe {

/// Number of PlanStep::Kind values (per-operator stat slots).
inline constexpr size_t kNumPlanStepKinds = 9;
static_assert(kNumPlanStepKinds ==
                  static_cast<size_t>(PlanStep::Kind::kDiff) + 1,
              "resize ExecStats::op[] when adding a PlanStep::Kind");

/// Per-operator accounting, indexed by PlanStep::Kind.
struct OpStats {
  uint64_t calls = 0;        ///< Steps of this kind executed.
  uint64_t rows_out = 0;     ///< Rows produced by those steps.
  uint64_t batches_out = 0;  ///< Batches produced (vectorized path only).
  double ms = 0.0;           ///< Wall time spent in those steps.
};

/// Access accounting for bounded plans. `tuples_fetched` counts every tuple
/// returned by a fetch step — the size of the accessed fraction D_Q; the
/// paper's ratio P(D_Q) is tuples_fetched / |D|.
struct ExecStats {
  uint64_t tuples_fetched = 0;
  uint64_t fetch_probes = 0;
  uint64_t intermediate_rows = 0;
  uint64_t output_rows = 0;
  uint64_t batches_produced = 0;  ///< Total batches across all steps.
  /// True when the adaptive fallback ran the row-at-a-time interpreter for
  /// this execution (see ExecOptions::row_path_threshold). The decision is
  /// taken per execution from the live fetch-index entry count, so a cached
  /// plan re-decides as maintenance grows or shrinks its tables.
  bool used_row_path = false;
  OpStats op[kNumPlanStepKinds];  ///< Indexed by PlanStep::Kind.

  OpStats& ForKind(PlanStep::Kind k) { return op[static_cast<size_t>(k)]; }
  const OpStats& ForKind(PlanStep::Kind k) const {
    return op[static_cast<size_t>(k)];
  }

  /// Accumulates another stats block (parallel workers merge into one).
  void Merge(const ExecStats& other);

  /// Multi-line per-operator breakdown (calls / rows / batches / ms).
  std::string ToString() const;
};

/// Execution tuning knobs.
struct ExecOptions {
  size_t batch_size = kDefaultBatchSize;
  /// Collect per-operator wall times in ExecStats::op[].ms. Off by default:
  /// two clock reads per step are measurable on microsecond-scale bounded
  /// plans. Calls/rows/batches are always collected. In parallel execution,
  /// fused pipeline time is attributed to the pipeline's sink step.
  bool per_op_timing = false;
  /// Number of execution threads for compiled plans. 1 (default) runs the
  /// serial vectorized path; > 1 enables the morsel-driven parallel executor
  /// (exec/parallel.cc). The result row *stream* is identical either way.
  size_t num_threads = 1;
  /// Adaptive micro-plan fallback: when > 0 and the total entry count of the
  /// plan's fetch indices is at or below this threshold, the compiled
  /// executor runs the row-at-a-time interpreter instead — per-operator
  /// batch setup dominates at that scale. 0 disables the fallback (the
  /// default for direct ExecutePlan callers, so differential tests always
  /// exercise the vectorized operators).
  size_t row_path_threshold = 0;
  /// Scheduling identity of this execution's morsel work in the shared
  /// WorkerPool: every task group the execution spawns carries this tag, so
  /// concurrent requests are distinguishable (and fair-shared) task groups
  /// rather than one anonymous queue. The serving layer sets it to the
  /// request id; 0 for untagged direct callers.
  uint64_t task_tag = 0;
};

}  // namespace bqe

#endif  // BQE_EXEC_EXEC_STATS_H_
