#ifndef BQE_CORE_PLAN_H_
#define BQE_CORE_PLAN_H_

#include <string>
#include <vector>

#include "constraints/access_schema.h"
#include "ra/expr.h"
#include "storage/tuple.h"

namespace bqe {

/// A predicate over plan-step columns (by index).
struct PlanPredicate {
  enum class Kind { kColConst, kColCol };
  Kind kind = Kind::kColConst;
  CmpOp op = CmpOp::kEq;
  int lhs = -1;
  int rhs = -1;
  Value constant;

  /// Whether `row` (a tuple of the filtered step's columns) satisfies this.
  bool Holds(const Tuple& row) const;

  std::string ToString() const;
};

/// One step T_i = delta_i of a query plan under an access schema
/// (Section 2 / Appendix A). Steps reference earlier steps by index; the
/// only data-access operators are kConst (constants from the query) and
/// kFetch (index lookup through an access constraint), exactly as the
/// paper's definition of query plans requires.
struct PlanStep {
  enum class Kind {
    kConst,    ///< {c1, ..., ck}: one row of constants (possibly empty).
    kEmpty,    ///< The empty relation (used for unsatisfiable sub-queries).
    kFetch,    ///< fetch(X in T_input, R, Y) via an access constraint.
    kProject,  ///< pi_cols(T_input); duplicates allowed; optional dedupe.
    kFilter,   ///< sigma_preds(T_input).
    kProduct,  ///< T_left x T_right.
    kJoin,     ///< Equi-join on join_cols (hash join; expressible as x,sigma,pi).
    kUnion,    ///< T_left U T_right (set semantics).
    kDiff,     ///< T_left \ T_right (set semantics).
  };

  Kind kind = Kind::kConst;
  Tuple row;                   // kConst.
  int input = -1;              // kFetch / kProject / kFilter.
  int constraint_id = -1;      // kFetch: id in the plan's actualized schema.
  std::vector<int> cols;       // kProject.
  bool dedupe = true;          // kProject.
  std::vector<PlanPredicate> preds;             // kFilter.
  int left = -1, right = -1;                    // kProduct/kJoin/kUnion/kDiff.
  std::vector<std::pair<int, int>> join_cols;   // kJoin.
  std::vector<std::string> col_names;           // Output column labels.
  std::string label;                            // e.g. "xiF(dine.cid)".
};

/// A canonical bounded query plan (Section 5.1): a step list whose length is
/// O(|Q||A|), where data access happens only through constants and fetch
/// steps. `actualized` is the actualized access schema the fetch steps
/// reference; each actualized constraint's `source_id` resolves to the index
/// built for the original constraint.
class BoundedPlan {
 public:
  std::vector<PlanStep> steps;
  int output = -1;
  std::vector<std::string> output_names;
  AccessSchema actualized;

  size_t Length() const { return steps.size(); }

  /// Upper bound on tuples fetched by this plan on *any* instance satisfying
  /// the schema: the product/sum over fetch steps of constraint bounds
  /// (capped to avoid overflow). This is the paper's "|D_Q| depends only on
  /// Q and A" guarantee made executable.
  double StaticAccessBound() const;

  /// Multi-line rendering in the T1 = ..., T2 = ... style of Example 2.
  std::string ToString() const;
};

}  // namespace bqe

#endif  // BQE_CORE_PLAN_H_
