#include "exec/physical_plan.h"

#include <algorithm>
#include <chrono>

#include "core/plan_exec.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace bqe {

namespace {

/// True when op `p` can stream into a single consumer without materializing:
/// a filter or a duplicate-preserving project (both transform their morsel
/// row-by-row with no global state).
bool IsStreamableProducer(const PhysicalOp& p) {
  // Zero-column projections are excluded: empty `cols` means "all columns"
  // to the gather/encode layer, so they must go through ProjectOp's
  // dedicated path rather than a fused column mapping.
  return p.kind == PlanStep::Kind::kFilter ||
         (p.kind == PlanStep::Kind::kProject && !p.dedupe && !p.cols.empty());
}

/// True when op `c` can absorb a streamed producer on edge `via_left`:
/// filters and projects consume their sole input streaming; a hash join
/// consumes its *probe* (left) side streaming once the build side is up.
bool CanAbsorb(const PhysicalOp& c, bool via_left) {
  switch (c.kind) {
    case PlanStep::Kind::kFilter:
      return !via_left;
    case PlanStep::Kind::kProject:
      return !via_left && !c.cols.empty();
    case PlanStep::Kind::kJoin:
      return via_left && !c.join_cols.empty();
    default:
      return false;
  }
}

}  // namespace

Result<PhysicalPlan> PhysicalPlan::Compile(const BoundedPlan& plan,
                                           const IndexSet& indices,
                                           const FetchSource& source) {
  PhysicalPlan pp;
  if (plan.output < 0 || plan.output >= static_cast<int>(plan.steps.size())) {
    return Status::Internal("plan has no output step");
  }
  // Type derivation also validates every step reference and fetch
  // binding, so the lowering below copies them as they are.
  BQE_ASSIGN_OR_RETURN(std::vector<std::vector<ValueType>> types,
                       DerivePlanStepTypes(plan, indices));

  pp.ops_.reserve(plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    PhysicalOp op;
    op.kind = s.kind;
    op.out_types = types[i];
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        op.const_row = s.row;
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        BQE_ASSIGN_OR_RETURN(op.index, ResolveFetchIndex(plan, s, indices));
        op.input = s.input;
        if (std::find(pp.fetch_indices_.begin(), pp.fetch_indices_.end(),
                      op.index) == pp.fetch_indices_.end()) {
          pp.fetch_indices_.push_back(op.index);
        }
        const std::string& rel = op.index->constraint().rel;
        if (std::find(pp.fetch_rels_.begin(), pp.fetch_rels_.end(), rel) ==
            pp.fetch_rels_.end()) {
          pp.fetch_rels_.push_back(rel);
        }
        break;
      }
      case PlanStep::Kind::kProject: {
        op.input = s.input;
        op.cols = s.cols;
        op.dedupe = s.dedupe;
        break;
      }
      case PlanStep::Kind::kFilter: {
        op.input = s.input;
        op.preds = s.preds;
        break;
      }
      case PlanStep::Kind::kProduct:
      case PlanStep::Kind::kJoin:
      case PlanStep::Kind::kUnion:
      case PlanStep::Kind::kDiff: {
        op.left = s.left;
        op.right = s.right;
        if (s.kind == PlanStep::Kind::kJoin) {
          op.join_cols = s.join_cols;
          for (auto [a, b] : s.join_cols) {
            op.lkey.push_back(a);
            op.rkey.push_back(b);
          }
        }
        break;
      }
    }
    pp.ops_.push_back(std::move(op));
  }

  // Consumer counts, then fusion marks for the morsel executor: a
  // streamable producer with exactly one consumer that can absorb it never
  // materializes — the worker carries its morsel straight through the
  // fetch→filter→project→probe pipeline.
  for (size_t i = 0; i < pp.ops_.size(); ++i) {
    const PhysicalOp& op = pp.ops_[i];
    for (int ref : {op.input, op.left, op.right}) {
      if (ref >= 0) ++pp.ops_[static_cast<size_t>(ref)].num_consumers;
    }
  }
  ++pp.ops_[static_cast<size_t>(plan.output)].num_consumers;  // Output table.
  for (size_t i = 0; i < pp.ops_.size(); ++i) {
    const PhysicalOp& c = pp.ops_[i];
    int ref = -1;
    bool via_left = false;
    if (c.kind == PlanStep::Kind::kFilter ||
        c.kind == PlanStep::Kind::kProject) {
      ref = c.input;
    } else if (c.kind == PlanStep::Kind::kJoin) {
      ref = c.left;
      via_left = true;
    }
    if (ref < 0) continue;
    PhysicalOp& p = pp.ops_[static_cast<size_t>(ref)];
    if (p.num_consumers == 1 && IsStreamableProducer(p) &&
        CanAbsorb(c, via_left)) {
      p.fuse_into = static_cast<int>(i);
    }
  }

  pp.output_ = plan.output;
  std::vector<Attribute> attrs;
  const std::vector<ValueType>& out_types =
      types[static_cast<size_t>(plan.output)];
  attrs.reserve(plan.output_names.size());
  for (size_t c = 0; c < plan.output_names.size(); ++c) {
    ValueType t = c < out_types.size() ? out_types[c] : ValueType::kNull;
    attrs.push_back(Attribute{plan.output_names[c], t});
  }
  pp.output_schema_ = RelationSchema("result", std::move(attrs));
  pp.source_plan_ = &plan;
  pp.indices_ = &indices;
  pp.source_ = &source;
  return pp;
}

size_t PhysicalPlan::FetchIndexEntries() const {
  size_t n = 0;
  for (const AccessIndex* idx : fetch_indices_) n += source_->NumEntries(*idx);
  return n;
}

namespace {

Result<Table> ExecuteSerial(const PhysicalPlan& plan, ExecStats* st,
                            const ExecOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const std::vector<PhysicalOp>& ops = plan.ops();
  std::vector<BatchVec> results(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysicalOp& s = ops[i];
    Clock::time_point t0;
    if (opts.per_op_timing) t0 = Clock::now();
    BatchVec out;
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        out = ConstOp(s.const_row, s.out_types);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        FetchCounters fc;
        out = plan.source().FetchBatches(
            *s.index, results[static_cast<size_t>(s.input)], opts.batch_size,
            /*workers=*/1, opts.task_tag, &fc);
        st->fetch_probes += fc.probes;
        st->tuples_fetched += fc.tuples_fetched;
        break;
      }
      case PlanStep::Kind::kProject:
        out = ProjectOp(results[static_cast<size_t>(s.input)], s.cols,
                        s.dedupe, s.out_types, opts.batch_size);
        break;
      case PlanStep::Kind::kFilter:
        out = FilterOp(results[static_cast<size_t>(s.input)], s.preds,
                       opts.batch_size);
        break;
      case PlanStep::Kind::kProduct:
        out = ProductOp(results[static_cast<size_t>(s.left)],
                        results[static_cast<size_t>(s.right)], s.out_types,
                        opts.batch_size);
        break;
      case PlanStep::Kind::kJoin:
        out = HashJoinOp(results[static_cast<size_t>(s.left)],
                         results[static_cast<size_t>(s.right)], s.join_cols,
                         s.out_types, opts.batch_size);
        break;
      case PlanStep::Kind::kUnion:
        out = UnionOp(results[static_cast<size_t>(s.left)],
                      results[static_cast<size_t>(s.right)], s.out_types,
                      opts.batch_size);
        break;
      case PlanStep::Kind::kDiff:
        out = DiffOp(results[static_cast<size_t>(s.left)],
                     results[static_cast<size_t>(s.right)], s.out_types,
                     opts.batch_size);
        break;
    }
    size_t rows = TotalRows(out);
    OpStats& os = st->ForKind(s.kind);
    ++os.calls;
    os.rows_out += rows;
    os.batches_out += out.size();
    if (opts.per_op_timing) {
      os.ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
    st->intermediate_rows += rows;
    st->batches_produced += out.size();
    results[i] = std::move(out);
  }

  const BatchVec& last = results[static_cast<size_t>(plan.output())];
  Table out(plan.output_schema());
  for (const ColumnBatch& b : last) {
    BQE_RETURN_IF_ERROR(out.AppendBatch(b));
  }
  st->output_rows = out.NumRows();
  return out;
}

}  // namespace

Result<Table> ExecutePhysicalPlan(const PhysicalPlan& plan, ExecStats* stats,
                                  const ExecOptions& opts) {
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;
  // Adaptive micro-plan fallback, decided per execution from the *live*
  // fetch-entry count: below the threshold the boxed interpreter beats
  // per-operator batch setup (see docs/architecture.md). Cached plans
  // therefore re-decide as maintenance grows or shrinks their tables.
  if (opts.row_path_threshold > 0 &&
      plan.FetchIndexEntries() <= opts.row_path_threshold) {
    st->used_row_path = true;
    return ExecutePlanRowAtATime(plan, st);
  }
  if (opts.num_threads > 1) {
    return ExecutePhysicalPlanParallel(plan, st, opts);
  }
  return ExecuteSerial(plan, st, opts);
}

}  // namespace bqe
