#include "exec/exec_stats.h"

#include "common/strings.h"

namespace bqe {

namespace {

const char* StepKindName(PlanStep::Kind k) {
  switch (k) {
    case PlanStep::Kind::kConst:
      return "const";
    case PlanStep::Kind::kEmpty:
      return "empty";
    case PlanStep::Kind::kFetch:
      return "fetch";
    case PlanStep::Kind::kProject:
      return "project";
    case PlanStep::Kind::kFilter:
      return "filter";
    case PlanStep::Kind::kProduct:
      return "product";
    case PlanStep::Kind::kJoin:
      return "join";
    case PlanStep::Kind::kUnion:
      return "union";
    case PlanStep::Kind::kDiff:
      return "diff";
  }
  return "?";
}

}  // namespace

void ExecStats::Merge(const ExecStats& other) {
  tuples_fetched += other.tuples_fetched;
  fetch_probes += other.fetch_probes;
  intermediate_rows += other.intermediate_rows;
  output_rows += other.output_rows;
  batches_produced += other.batches_produced;
  used_row_path = used_row_path || other.used_row_path;
  for (size_t k = 0; k < kNumPlanStepKinds; ++k) {
    op[k].calls += other.op[k].calls;
    op[k].rows_out += other.op[k].rows_out;
    op[k].batches_out += other.op[k].batches_out;
    op[k].ms += other.op[k].ms;
  }
}

std::string ExecStats::ToString() const {
  std::string out = StrCat("fetched=", tuples_fetched, " probes=", fetch_probes,
                           " intermediate=", intermediate_rows,
                           " output=", output_rows,
                           " batches=", batches_produced, "\n");
  for (size_t k = 0; k < kNumPlanStepKinds; ++k) {
    if (op[k].calls == 0) continue;
    out += StrCat("  ", StepKindName(static_cast<PlanStep::Kind>(k)),
                  ": calls=", op[k].calls, " rows=", op[k].rows_out,
                  " batches=", op[k].batches_out, " ms=", op[k].ms, "\n");
  }
  return out;
}

}  // namespace bqe
