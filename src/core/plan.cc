#include "core/plan.h"

#include <algorithm>

#include "common/strings.h"

namespace bqe {

bool PlanPredicate::Holds(const Tuple& row) const {
  const Value& l = row[static_cast<size_t>(lhs)];
  if (kind == Kind::kColConst) return EvalCmp(op, l, constant);
  return EvalCmp(op, l, row[static_cast<size_t>(rhs)]);
}

std::string PlanPredicate::ToString() const {
  if (kind == Kind::kColConst) {
    return StrCat("#", lhs, " ", CmpOpName(op), " ", constant.ToString());
  }
  return StrCat("#", lhs, " ", CmpOpName(op), " #", rhs);
}

double BoundedPlan::StaticAccessBound() const {
  // Per-step bound on the number of rows, propagated through the DAG.
  constexpr double kCap = 1e30;
  std::vector<double> rows(steps.size(), 0.0);
  double fetched = 0.0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        rows[i] = 1.0;
        break;
      case PlanStep::Kind::kEmpty:
        rows[i] = 0.0;
        break;
      case PlanStep::Kind::kFetch: {
        double n = static_cast<double>(actualized.at(s.constraint_id).n);
        rows[i] = std::min(kCap, rows[static_cast<size_t>(s.input)] * n);
        fetched = std::min(kCap, fetched + rows[i]);
        break;
      }
      case PlanStep::Kind::kProject:
      case PlanStep::Kind::kFilter:
        rows[i] = rows[static_cast<size_t>(s.input)];
        break;
      case PlanStep::Kind::kProduct:
      case PlanStep::Kind::kJoin:
        rows[i] = std::min(kCap, rows[static_cast<size_t>(s.left)] *
                                     rows[static_cast<size_t>(s.right)]);
        break;
      case PlanStep::Kind::kUnion:
        rows[i] = std::min(kCap, rows[static_cast<size_t>(s.left)] +
                                     rows[static_cast<size_t>(s.right)]);
        break;
      case PlanStep::Kind::kDiff:
        rows[i] = rows[static_cast<size_t>(s.left)];
        break;
    }
  }
  return fetched;
}

std::string BoundedPlan::ToString() const {
  std::string out;
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    out += StrCat("T", i, " = ");
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        out += TupleToString(s.row);
        break;
      case PlanStep::Kind::kEmpty:
        out += "{}";
        break;
      case PlanStep::Kind::kFetch: {
        const AccessConstraint& c = actualized.at(s.constraint_id);
        out += StrCat("fetch(X in T", s.input, ", ", c.rel, ", (",
                      StrJoin(c.y, ","), "))");
        break;
      }
      case PlanStep::Kind::kProject: {
        std::vector<std::string> cs;
        for (int c : s.cols) cs.push_back(StrCat("#", c));
        out += StrCat("pi[", StrJoin(cs, ","), "](T", s.input, ")");
        break;
      }
      case PlanStep::Kind::kFilter: {
        std::vector<std::string> ps;
        for (const PlanPredicate& p : s.preds) ps.push_back(p.ToString());
        out += StrCat("sigma[", StrJoin(ps, " AND "), "](T", s.input, ")");
        break;
      }
      case PlanStep::Kind::kProduct:
        out += StrCat("T", s.left, " x T", s.right);
        break;
      case PlanStep::Kind::kJoin: {
        std::vector<std::string> js;
        for (auto [a, b] : s.join_cols) js.push_back(StrCat("#", a, "=#", b));
        out += StrCat("T", s.left, " join[", StrJoin(js, ","), "] T", s.right);
        break;
      }
      case PlanStep::Kind::kUnion:
        out += StrCat("T", s.left, " U T", s.right);
        break;
      case PlanStep::Kind::kDiff:
        out += StrCat("T", s.left, " \\ T", s.right);
        break;
    }
    if (!s.label.empty()) out += StrCat("    -- ", s.label);
    out += "\n";
  }
  out += StrCat("output: T", output, " (", StrJoin(output_names, ", "), ")\n");
  return out;
}

}  // namespace bqe
