#include "core/plan_exec.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "exec/physical_plan.h"

namespace bqe {

namespace {

Result<int> CheckStepRef(int ref, size_t current) {
  if (ref < 0 || static_cast<size_t>(ref) >= current) {
    return Status::Internal(
        StrCat("plan step references invalid step ", ref));
  }
  return ref;
}

// --------------------------------------------- legacy row-at-a-time path ---

void Dedupe(std::vector<Tuple>* rows) {
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  out.reserve(rows->size());
  for (Tuple& row : *rows) {
    if (seen.insert(row).second) out.push_back(std::move(row));
  }
  *rows = std::move(out);
}

}  // namespace

Result<const AccessIndex*> ResolveFetchIndex(const BoundedPlan& plan,
                                             const PlanStep& s,
                                             const IndexSet& indices) {
  const AccessConstraint& c = plan.actualized.at(s.constraint_id);
  int source = c.source_id >= 0 ? c.source_id : c.id;
  const AccessIndex* idx = indices.Get(source);
  if (idx == nullptr) {
    return Status::Internal(StrCat("no index for constraint ", c.ToString(),
                                   " (source id ", source, ")"));
  }
  return idx;
}

Result<std::vector<std::vector<ValueType>>> DerivePlanStepTypes(
    const BoundedPlan& plan, const IndexSet& indices) {
  std::vector<std::vector<ValueType>> types(plan.steps.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    std::vector<ValueType>& t = types[i];
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        t.reserve(s.row.size());
        for (const Value& v : s.row) t.push_back(v.type());
        break;
      case PlanStep::Kind::kEmpty:
        t.assign(s.col_names.size(), ValueType::kNull);
        break;
      case PlanStep::Kind::kFetch: {
        BQE_RETURN_IF_ERROR(CheckStepRef(s.input, i));
        BQE_ASSIGN_OR_RETURN(const AccessIndex* idx,
                             ResolveFetchIndex(plan, s, indices));
        t = idx->output_types();
        break;
      }
      case PlanStep::Kind::kProject: {
        BQE_ASSIGN_OR_RETURN(int in, CheckStepRef(s.input, i));
        const std::vector<ValueType>& src = types[static_cast<size_t>(in)];
        t.reserve(s.cols.size());
        for (int c : s.cols) {
          t.push_back(c >= 0 && static_cast<size_t>(c) < src.size()
                          ? src[static_cast<size_t>(c)]
                          : ValueType::kNull);
        }
        break;
      }
      case PlanStep::Kind::kFilter: {
        BQE_ASSIGN_OR_RETURN(int in, CheckStepRef(s.input, i));
        t = types[static_cast<size_t>(in)];
        break;
      }
      case PlanStep::Kind::kProduct:
      case PlanStep::Kind::kJoin: {
        BQE_ASSIGN_OR_RETURN(int l, CheckStepRef(s.left, i));
        BQE_ASSIGN_OR_RETURN(int r, CheckStepRef(s.right, i));
        t = types[static_cast<size_t>(l)];
        const std::vector<ValueType>& rt = types[static_cast<size_t>(r)];
        t.insert(t.end(), rt.begin(), rt.end());
        break;
      }
      case PlanStep::Kind::kUnion: {
        BQE_ASSIGN_OR_RETURN(int l, CheckStepRef(s.left, i));
        BQE_ASSIGN_OR_RETURN(int r, CheckStepRef(s.right, i));
        const std::vector<ValueType>& lt = types[static_cast<size_t>(l)];
        const std::vector<ValueType>& rt = types[static_cast<size_t>(r)];
        t.assign(std::max(lt.size(), rt.size()), ValueType::kNull);
        for (size_t c = 0; c < t.size(); ++c) {
          ValueType a = c < lt.size() ? lt[c] : ValueType::kNull;
          ValueType b = c < rt.size() ? rt[c] : ValueType::kNull;
          // An empty branch (kEmpty) contributes kNull; take the typed side.
          t[c] = a != ValueType::kNull ? a : b;
        }
        break;
      }
      case PlanStep::Kind::kDiff: {
        BQE_ASSIGN_OR_RETURN(int l, CheckStepRef(s.left, i));
        // Pass the Result itself: binding `.status()` of a temporary Result
        // to the macro's auto&& dangles once the temporary dies (caught by
        // ASan as stack-use-after-scope).
        BQE_RETURN_IF_ERROR(CheckStepRef(s.right, i));
        t = types[static_cast<size_t>(l)];
        break;
      }
    }
  }
  return types;
}

Result<Table> ExecutePlan(const BoundedPlan& plan, const IndexSet& indices,
                          ExecStats* stats, ExecOptions opts) {
  BQE_ASSIGN_OR_RETURN(PhysicalPlan pp, PhysicalPlan::Compile(plan, indices));
  return ExecutePhysicalPlan(pp, stats, opts);
}

Result<Table> ExecutePlanRowAtATime(const BoundedPlan& plan,
                                    const IndexSet& indices, ExecStats* stats) {
  BQE_ASSIGN_OR_RETURN(PhysicalPlan pp, PhysicalPlan::Compile(plan, indices));
  return ExecutePlanRowAtATime(pp, stats);
}

Result<Table> ExecutePlanRowAtATime(const PhysicalPlan& plan,
                                    ExecStats* stats) {
  ExecStats local;
  ExecStats* st = stats != nullptr ? stats : &local;
  const std::vector<PhysicalOp>& ops = plan.ops();
  std::vector<std::vector<Tuple>> results(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysicalOp& s = ops[i];
    std::vector<Tuple>& out = results[i];
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        out.push_back(s.const_row);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        // Probe with the distinct keys of the input.
        std::vector<Tuple> keys = results[static_cast<size_t>(s.input)];
        Dedupe(&keys);
        st->fetch_probes += keys.size();
        for (std::vector<Tuple>& bucket :
             plan.source().FetchRows(*s.index, keys)) {
          st->tuples_fetched += bucket.size();
          for (Tuple& row : bucket) out.push_back(std::move(row));
        }
        break;
      }
      case PlanStep::Kind::kProject: {
        const std::vector<Tuple>& in = results[static_cast<size_t>(s.input)];
        out.reserve(in.size());
        for (const Tuple& row : in) out.push_back(ProjectTuple(row, s.cols));
        if (s.dedupe) Dedupe(&out);
        break;
      }
      case PlanStep::Kind::kFilter: {
        const std::vector<Tuple>& in = results[static_cast<size_t>(s.input)];
        out.reserve(in.size());
        for (const Tuple& row : in) {
          if (std::all_of(s.preds.begin(), s.preds.end(),
                          [&row](const PlanPredicate& p) {
                            return p.Holds(row);
                          })) {
            out.push_back(row);
          }
        }
        break;
      }
      case PlanStep::Kind::kProduct: {
        const std::vector<Tuple>& l = results[static_cast<size_t>(s.left)];
        const std::vector<Tuple>& r = results[static_cast<size_t>(s.right)];
        // Cap the reservation: l*r can overflow size_t or exhaust memory on
        // large inputs; the vector grows on demand past the cap.
        constexpr size_t kMaxReserve = 1u << 20;
        size_t ln = l.size(), rn = r.size();
        out.reserve(rn != 0 && ln > kMaxReserve / rn ? kMaxReserve : ln * rn);
        for (const Tuple& a : l) {
          for (const Tuple& b : r) {
            Tuple t = a;
            t.insert(t.end(), b.begin(), b.end());
            out.push_back(std::move(t));
          }
        }
        break;
      }
      case PlanStep::Kind::kJoin: {
        const std::vector<Tuple>& l = results[static_cast<size_t>(s.left)];
        const std::vector<Tuple>& r = results[static_cast<size_t>(s.right)];
        std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> ht;
        ht.reserve(r.size());
        for (const Tuple& b : r) ht[ProjectTuple(b, s.rkey)].push_back(&b);
        for (const Tuple& a : l) {
          auto it = ht.find(ProjectTuple(a, s.lkey));
          if (it == ht.end()) continue;
          for (const Tuple* b : it->second) {
            Tuple t = a;
            t.insert(t.end(), b->begin(), b->end());
            out.push_back(std::move(t));
          }
        }
        break;
      }
      case PlanStep::Kind::kUnion: {
        out = results[static_cast<size_t>(s.left)];
        const std::vector<Tuple>& r = results[static_cast<size_t>(s.right)];
        out.insert(out.end(), r.begin(), r.end());
        Dedupe(&out);
        break;
      }
      case PlanStep::Kind::kDiff: {
        const std::vector<Tuple>& l = results[static_cast<size_t>(s.left)];
        const std::vector<Tuple>& r = results[static_cast<size_t>(s.right)];
        std::unordered_set<Tuple, TupleHash> right(r.begin(), r.end());
        for (const Tuple& row : l) {
          if (right.count(row) == 0) out.push_back(row);
        }
        Dedupe(&out);
        break;
      }
    }
    st->intermediate_rows += out.size();
    OpStats& os = st->ForKind(s.kind);
    ++os.calls;
    os.rows_out += out.size();
  }

  Table out(plan.output_schema());
  for (const Tuple& row : results[static_cast<size_t>(plan.output())]) {
    out.InsertUnchecked(row);
  }
  st->output_rows = out.NumRows();
  return out;
}

}  // namespace bqe
