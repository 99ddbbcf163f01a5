#include "core/qplan.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"

namespace bqe {

QaHypergraph BuildQaHypergraph(const SpcCoverage& sc,
                               const AccessSchema& actualized) {
  QaHypergraph out;
  out.root = out.graph.AddNode("r");
  out.class_node.resize(static_cast<size_t>(sc.uni.num_classes));
  for (int c = 0; c < sc.uni.num_classes; ++c) {
    out.class_node[static_cast<size_t>(c)] =
        out.graph.AddNode(sc.uni.class_name[static_cast<size_t>(c)]);
  }
  // Case (3) of Appendix A: root edges to constant-bound classes.
  for (int c : sc.xc_classes) {
    (void)out.graph.AddEdge({out.root}, out.class_node[static_cast<size_t>(c)],
                            /*weight=*/0.0, /*payload=*/-1);
  }
  // Cases (1) and (2): one set-node u_Y per induced FD with edges
  // head(X) -> u_Y (weight N) and u_Y -> y_i (weight 0) for y_i in Y \ X.
  for (size_t i = 0; i < sc.induced_fds.size(); ++i) {
    const Fd& fd = sc.induced_fds[i];
    std::vector<int> fresh_rhs;
    for (int y : fd.rhs) {
      if (std::find(fd.lhs.begin(), fd.lhs.end(), y) == fd.lhs.end()) {
        fresh_rhs.push_back(y);
      }
    }
    if (fresh_rhs.empty()) continue;  // Trivial FD: contributes no coverage.
    const AccessConstraint& c = actualized.at(fd.constraint_id);
    int set_node = out.graph.AddNode(StrCat("Y~", i));
    std::vector<int> head;
    if (fd.lhs.empty()) {
      head = {out.root};
    } else {
      for (int x : fd.lhs) head.push_back(out.class_node[static_cast<size_t>(x)]);
    }
    (void)out.graph.AddEdge(std::move(head), set_node,
                            static_cast<double>(c.n), static_cast<int>(i));
    for (int y : fresh_rhs) {
      (void)out.graph.AddEdge({set_node}, out.class_node[static_cast<size_t>(y)],
                              /*weight=*/0.0, static_cast<int>(i));
    }
  }
  return out;
}

namespace {

/// Builds the plan steps for one SPC sub-query: unit fetching plans
/// (translated from hyperpaths, procedure transQP), indexing plans and the
/// evaluation plan. All steps append to the shared BoundedPlan.
class SpcPlanner {
 public:
  SpcPlanner(const NormalizedQuery& query, const SpcCoverage& sc,
             const AccessSchema& actualized, BoundedPlan* plan)
      : query_(query), sc_(sc), actualized_(actualized), plan_(plan) {}

  /// Returns the step computing Qs over the fetched partial tables.
  Result<int> Build() {
    if (sc_.uni.unsatisfiable) {
      PlanStep s;
      s.kind = PlanStep::Kind::kEmpty;
      for (const AttrRef& a : sc_.spc.output) s.col_names.push_back(a.ToString());
      s.label = "empty (conflicting constant bindings)";
      return Append(std::move(s));
    }
    hg_ = BuildQaHypergraph(sc_, actualized_);
    chain_ = hg_.graph.ChainFrom({hg_.root});

    // Indexing plan per occurrence (deterministic order), producing partial
    // tables; remember their column lists.
    std::set<std::string> rels(sc_.spc.relations.begin(), sc_.spc.relations.end());
    std::vector<std::pair<std::string, int>> partials;
    std::map<std::string, std::vector<AttrRef>> partial_cols;
    for (const std::string& occ : rels) {
      BQE_ASSIGN_OR_RETURN(int step, IndexingPlan(occ, &partial_cols[occ]));
      partials.emplace_back(occ, step);
    }

    // Evaluation plan: left-deep class-joins of the partial tables.
    int acc = partials[0].second;
    std::vector<AttrRef> acc_cols = partial_cols[partials[0].first];
    for (size_t i = 1; i < partials.size(); ++i) {
      const std::vector<AttrRef>& rcols = partial_cols[partials[i].first];
      std::vector<std::pair<int, int>> on;
      for (size_t a = 0; a < acc_cols.size(); ++a) {
        for (size_t b = 0; b < rcols.size(); ++b) {
          if (sc_.uni.ClassOf(acc_cols[a]) == sc_.uni.ClassOf(rcols[b])) {
            on.emplace_back(static_cast<int>(a), static_cast<int>(b));
          }
        }
      }
      PlanStep join;
      join.kind = PlanStep::Kind::kJoin;
      join.left = acc;
      join.right = partials[i].second;
      join.join_cols = std::move(on);
      for (const AttrRef& c : acc_cols) join.col_names.push_back(c.ToString());
      for (const AttrRef& c : rcols) join.col_names.push_back(c.ToString());
      join.label = StrCat("eval join with ", partials[i].first);
      BQE_ASSIGN_OR_RETURN(acc, Append(std::move(join)));
      acc_cols.insert(acc_cols.end(), rcols.begin(), rcols.end());
    }

    // Re-apply every conjunct (equalities are enforced by construction; the
    // filter also handles non-equality comparisons).
    if (!sc_.spc.conjuncts.empty()) {
      PlanStep filter;
      filter.kind = PlanStep::Kind::kFilter;
      filter.input = acc;
      for (const Predicate& p : sc_.spc.conjuncts) {
        PlanPredicate pp;
        pp.op = p.op;
        BQE_ASSIGN_OR_RETURN(pp.lhs, ColOf(acc_cols, p.lhs));
        if (p.kind == Predicate::Kind::kAttrAttr) {
          pp.kind = PlanPredicate::Kind::kColCol;
          BQE_ASSIGN_OR_RETURN(pp.rhs, ColOf(acc_cols, p.rhs));
        } else {
          pp.kind = PlanPredicate::Kind::kColConst;
          pp.constant = p.constant;
        }
        filter.preds.push_back(std::move(pp));
      }
      for (const AttrRef& c : acc_cols) filter.col_names.push_back(c.ToString());
      filter.label = "eval filter";
      BQE_ASSIGN_OR_RETURN(acc, Append(std::move(filter)));
    }

    // Final projection to the sub-query output.
    PlanStep proj;
    proj.kind = PlanStep::Kind::kProject;
    proj.input = acc;
    proj.dedupe = true;
    for (const AttrRef& a : sc_.spc.output) {
      BQE_ASSIGN_OR_RETURN(int idx, ColOf(acc_cols, a));
      proj.cols.push_back(idx);
      proj.col_names.push_back(a.ToString());
    }
    proj.label = "eval project";
    return Append(std::move(proj));
  }

 private:
  Result<int> Append(PlanStep step) {
    plan_->steps.push_back(std::move(step));
    return static_cast<int>(plan_->steps.size()) - 1;
  }

  static Result<int> ColOf(const std::vector<AttrRef>& cols, const AttrRef& a) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == a) return static_cast<int>(i);
    }
    return Status::Internal(StrCat("column ", a.ToString(), " not available"));
  }

  /// Unit fetching plan xiF for one attribute class (case analysis of
  /// Appendix A). Returns a single-column step of candidate values.
  Result<int> UnitPlan(int cls) {
    auto it = unit_memo_.find(cls);
    if (it != unit_memo_.end()) return it->second;

    // Case (i): constant-bound class.
    if (sc_.uni.class_has_const[static_cast<size_t>(cls)]) {
      PlanStep s;
      s.kind = PlanStep::Kind::kConst;
      s.row = {sc_.uni.class_const[static_cast<size_t>(cls)]};
      s.col_names = {ClassName(cls)};
      s.label = StrCat("xiF(", ClassName(cls), ") = const");
      BQE_ASSIGN_OR_RETURN(int id, Append(std::move(s)));
      unit_memo_.emplace(cls, id);
      return id;
    }

    // Case (iii): follow the hyperpath edge that proved this class.
    int node = hg_.class_node[static_cast<size_t>(cls)];
    int ei = chain_.first_edge[static_cast<size_t>(node)];
    if (ei < 0) {
      return Status::NotCovered(
          StrCat("no hyperpath from r to class ", ClassName(cls)));
    }
    int fd_idx = hg_.graph.edges()[static_cast<size_t>(ei)].payload;
    if (fd_idx < 0) {
      return Status::Internal("class edge without induced-FD payload");
    }
    BQE_ASSIGN_OR_RETURN(FetchInfo fetch, FetchStep(fd_idx));
    // Project the first fetched column whose class is `cls`.
    int col = -1;
    for (size_t i = 0; i < fetch.col_classes.size(); ++i) {
      if (fetch.col_classes[i] == cls) {
        col = static_cast<int>(i);
        break;
      }
    }
    if (col < 0) {
      return Status::Internal(
          StrCat("fetch for fd", fd_idx, " does not produce class ",
                 ClassName(cls)));
    }
    PlanStep s;
    s.kind = PlanStep::Kind::kProject;
    s.input = fetch.step;
    s.cols = {col};
    s.dedupe = true;
    s.col_names = {ClassName(cls)};
    s.label = StrCat("xiF(", ClassName(cls), ")");
    BQE_ASSIGN_OR_RETURN(int id, Append(std::move(s)));
    unit_memo_.emplace(cls, id);
    return id;
  }

  struct FetchInfo {
    int step = -1;
    std::vector<int> col_classes;     ///< Class of each output column (X then Y).
    std::vector<std::string> attrs;   ///< Attribute name of each column.
  };

  /// fetch(X in T, S, Y) through the constraint of induced FD `fd_idx`,
  /// fed by the product of the unit plans of the X attribute classes.
  Result<FetchInfo> FetchStep(int fd_idx) {
    auto it = fetch_memo_.find(fd_idx);
    if (it != fetch_memo_.end()) return it->second;
    const Fd& fd = sc_.induced_fds[static_cast<size_t>(fd_idx)];
    const AccessConstraint& c = actualized_.at(fd.constraint_id);

    // Classes of the X attribute positions.
    std::vector<int> x_classes;
    for (const std::string& a : c.x) {
      x_classes.push_back(sc_.uni.ClassOf(AttrRef{c.rel, a}));
    }

    // Product over the *distinct* classes, then projection duplicates the
    // shared columns into X position order.
    std::vector<int> distinct;
    for (int cls : x_classes) {
      if (std::find(distinct.begin(), distinct.end(), cls) == distinct.end()) {
        distinct.push_back(cls);
      }
    }
    int input;
    if (distinct.empty()) {
      PlanStep s;
      s.kind = PlanStep::Kind::kConst;
      s.row = {};
      s.label = StrCat("unit input for ", c.ToString());
      BQE_ASSIGN_OR_RETURN(input, Append(std::move(s)));
    } else {
      BQE_ASSIGN_OR_RETURN(input, UnitPlan(distinct[0]));
      std::vector<std::string> names = {ClassName(distinct[0])};
      for (size_t i = 1; i < distinct.size(); ++i) {
        BQE_ASSIGN_OR_RETURN(int next, UnitPlan(distinct[i]));
        PlanStep prod;
        prod.kind = PlanStep::Kind::kProduct;
        prod.left = input;
        prod.right = next;
        names.push_back(ClassName(distinct[i]));
        prod.col_names = names;
        BQE_ASSIGN_OR_RETURN(input, Append(std::move(prod)));
      }
      if (distinct.size() != x_classes.size()) {
        PlanStep dup;
        dup.kind = PlanStep::Kind::kProject;
        dup.input = input;
        dup.dedupe = true;
        for (int cls : x_classes) {
          auto pos = std::find(distinct.begin(), distinct.end(), cls);
          dup.cols.push_back(static_cast<int>(pos - distinct.begin()));
          dup.col_names.push_back(ClassName(cls));
        }
        dup.label = "align X positions";
        BQE_ASSIGN_OR_RETURN(input, Append(std::move(dup)));
      }
    }

    PlanStep f;
    f.kind = PlanStep::Kind::kFetch;
    f.input = input;
    f.constraint_id = fd.constraint_id;
    FetchInfo info;
    for (const std::string& a : c.x) {
      info.col_classes.push_back(sc_.uni.ClassOf(AttrRef{c.rel, a}));
      info.attrs.push_back(a);
      f.col_names.push_back(StrCat(c.rel, ".", a));
    }
    for (const std::string& a : c.y) {
      info.col_classes.push_back(sc_.uni.ClassOf(AttrRef{c.rel, a}));
      info.attrs.push_back(a);
      f.col_names.push_back(StrCat(c.rel, ".", a));
    }
    f.label = StrCat("fetch via ", c.ToString());
    BQE_ASSIGN_OR_RETURN(info.step, Append(std::move(f)));
    fetch_memo_.emplace(fd_idx, info);
    return info;
  }

  /// Indexing plan xiI(S) (Section 5.1 / Appendix A): the rows F fetched
  /// through S's indexing constraint whose needed attributes each lie in
  /// their class's unit plan, projected onto S's needed attributes. Each
  /// restriction is a semi-join of F against the deduplicated unit (a filter
  /// when the unit is a constant), so no step here outgrows |F|. It is
  /// implied, and left out, for F's X columns, which the fetch drew from
  /// these same units, and for a column whose unit is this fetch's own
  /// projection of it.
  Result<int> IndexingPlan(const std::string& occ, std::vector<AttrRef>* cols) {
    int cid = sc_.index_constraint.at(occ);
    if (cid < 0) {
      return Status::NotCovered(StrCat("occurrence '", occ, "' is not indexed"));
    }
    // N_S: attributes of S in X_Q, in first-appearance order.
    std::vector<AttrRef> needed;
    for (const AttrRef& a : sc_.spc.xq) {
      if (a.rel == occ &&
          std::find(needed.begin(), needed.end(), a) == needed.end()) {
        needed.push_back(a);
      }
    }
    int fd_idx = FdOfConstraint(cid);
    if (fd_idx < 0) {
      return Status::Internal(
          StrCat("no induced FD for indexing constraint of '", occ, "'"));
    }
    BQE_ASSIGN_OR_RETURN(FetchInfo fetch, FetchStep(fd_idx));

    if (needed.empty()) {
      // Degenerate case: the occurrence contributes no attribute; the
      // partial table only witnesses (non-)emptiness.
      PlanStep s;
      s.kind = PlanStep::Kind::kProject;
      s.input = fetch.step;
      s.dedupe = true;
      s.label = StrCat("xiI(", occ, ") emptiness witness");
      cols->clear();
      return Append(std::move(s));
    }

    // The fetch column of each needed attribute, and the restrictions that
    // are not implied: constants go into one filter, other units are joined.
    const size_t num_x = actualized_.at(cid).x.size();
    std::vector<int> fcols;
    PlanStep filter;
    filter.kind = PlanStep::Kind::kFilter;
    std::vector<std::pair<int, int>> semi_joins;  // (fetch column, unit step)
    for (const AttrRef& a : needed) {
      auto pos = std::find(fetch.attrs.begin(), fetch.attrs.end(), a.attr);
      if (pos == fetch.attrs.end()) {
        return Status::Internal(StrCat("indexing constraint for '", occ,
                                       "' does not span ", a.ToString()));
      }
      int fcol = static_cast<int>(pos - fetch.attrs.begin());
      fcols.push_back(fcol);
      if (static_cast<size_t>(fcol) < num_x) continue;
      int cls = fetch.col_classes[static_cast<size_t>(fcol)];
      if (sc_.uni.class_has_const[static_cast<size_t>(cls)]) {
        PlanPredicate pp;
        pp.kind = PlanPredicate::Kind::kColConst;
        pp.op = CmpOp::kEq;
        pp.lhs = fcol;
        pp.constant = sc_.uni.class_const[static_cast<size_t>(cls)];
        filter.preds.push_back(std::move(pp));
        continue;
      }
      if (UnitProjectsFetch(cls, fd_idx, fetch, fcol)) continue;
      BQE_ASSIGN_OR_RETURN(int unit, UnitPlan(cls));
      semi_joins.emplace_back(fcol, unit);
    }

    int acc = fetch.step;
    std::vector<std::string> acc_names =
        plan_->steps[static_cast<size_t>(fetch.step)].col_names;
    if (!filter.preds.empty()) {
      filter.input = acc;
      filter.col_names = acc_names;
      filter.label = StrCat("xiI(", occ, ") constants");
      BQE_ASSIGN_OR_RETURN(acc, Append(std::move(filter)));
    }
    for (const auto& [fcol, unit] : semi_joins) {
      PlanStep join;
      join.kind = PlanStep::Kind::kJoin;
      join.left = acc;
      join.right = unit;
      join.join_cols = {{fcol, 0}};
      acc_names.push_back(
          plan_->steps[static_cast<size_t>(unit)].col_names[0]);
      join.col_names = acc_names;
      join.label = StrCat("xiI(", occ, ") semi-join ",
                          acc_names[static_cast<size_t>(fcol)]);
      BQE_ASSIGN_OR_RETURN(acc, Append(std::move(join)));
    }

    PlanStep proj;
    proj.kind = PlanStep::Kind::kProject;
    proj.input = acc;
    proj.dedupe = true;
    proj.cols = std::move(fcols);
    for (const AttrRef& a : needed) proj.col_names.push_back(a.ToString());
    proj.label = StrCat("xiI(", occ, ")");
    *cols = needed;
    return Append(std::move(proj));
  }

  /// Whether the unit plan of non-constant class `cls` is column `col` of
  /// `fetch`, the fetch through induced FD `fd_idx` (case (iii) of
  /// UnitPlan), decided without appending that unit.
  bool UnitProjectsFetch(int cls, int fd_idx, const FetchInfo& fetch,
                         int col) const {
    int ei = chain_.first_edge[static_cast<size_t>(
        hg_.class_node[static_cast<size_t>(cls)])];
    if (ei < 0 ||
        hg_.graph.edges()[static_cast<size_t>(ei)].payload != fd_idx) {
      return false;
    }
    auto first = std::find(fetch.col_classes.begin(), fetch.col_classes.end(),
                           cls);
    return first - fetch.col_classes.begin() == col;
  }

  int FdOfConstraint(int constraint_id) const {
    for (size_t i = 0; i < sc_.induced_fds.size(); ++i) {
      if (sc_.induced_fds[i].constraint_id == constraint_id) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  std::string ClassName(int cls) const {
    return sc_.uni.class_name[static_cast<size_t>(cls)];
  }

  const NormalizedQuery& query_;
  const SpcCoverage& sc_;
  const AccessSchema& actualized_;
  BoundedPlan* plan_;
  QaHypergraph hg_;
  Hypergraph::ChainResult chain_;
  std::map<int, int> unit_memo_;         // class -> step
  std::map<int, FetchInfo> fetch_memo_;  // fd idx -> fetch info
};

/// Composes SPC plans along the RA operators above the max SPC sub-queries.
class PlanComposer {
 public:
  PlanComposer(const NormalizedQuery& query,
               const std::map<const RaExpr*, int>& spc_steps, BoundedPlan* plan)
      : query_(query), spc_steps_(spc_steps), plan_(plan) {}

  Result<int> Compose(const RaExpr* node) {
    auto it = spc_steps_.find(node);
    if (it != spc_steps_.end()) return it->second;
    switch (node->op()) {
      case RaOp::kUnion:
      case RaOp::kDiff: {
        BQE_ASSIGN_OR_RETURN(int l, Compose(node->left().get()));
        BQE_ASSIGN_OR_RETURN(int r, Compose(node->right().get()));
        PlanStep s;
        s.kind = node->op() == RaOp::kUnion ? PlanStep::Kind::kUnion
                                            : PlanStep::Kind::kDiff;
        s.left = l;
        s.right = r;
        for (const AttrRef& a : query_.OutputOf(node)) {
          s.col_names.push_back(a.ToString());
        }
        plan_->steps.push_back(std::move(s));
        return static_cast<int>(plan_->steps.size()) - 1;
      }
      case RaOp::kSelect: {
        BQE_ASSIGN_OR_RETURN(int in, Compose(node->left().get()));
        const std::vector<AttrRef>& scope = query_.OutputOf(node->left().get());
        PlanStep s;
        s.kind = PlanStep::Kind::kFilter;
        s.input = in;
        for (const Predicate& p : node->preds()) {
          PlanPredicate pp;
          pp.op = p.op;
          BQE_ASSIGN_OR_RETURN(pp.lhs, IndexIn(scope, p.lhs));
          if (p.kind == Predicate::Kind::kAttrAttr) {
            pp.kind = PlanPredicate::Kind::kColCol;
            BQE_ASSIGN_OR_RETURN(pp.rhs, IndexIn(scope, p.rhs));
          } else {
            pp.kind = PlanPredicate::Kind::kColConst;
            pp.constant = p.constant;
          }
          s.preds.push_back(std::move(pp));
        }
        for (const AttrRef& a : scope) s.col_names.push_back(a.ToString());
        plan_->steps.push_back(std::move(s));
        return static_cast<int>(plan_->steps.size()) - 1;
      }
      case RaOp::kProject: {
        BQE_ASSIGN_OR_RETURN(int in, Compose(node->left().get()));
        const std::vector<AttrRef>& scope = query_.OutputOf(node->left().get());
        PlanStep s;
        s.kind = PlanStep::Kind::kProject;
        s.input = in;
        s.dedupe = true;
        for (const AttrRef& a : node->cols()) {
          BQE_ASSIGN_OR_RETURN(int idx, IndexIn(scope, a));
          s.cols.push_back(idx);
          s.col_names.push_back(a.ToString());
        }
        plan_->steps.push_back(std::move(s));
        return static_cast<int>(plan_->steps.size()) - 1;
      }
      default:
        return Status::Unimplemented(
            "product over set operations is outside the supported normal form");
    }
  }

 private:
  static Result<int> IndexIn(const std::vector<AttrRef>& scope,
                             const AttrRef& a) {
    for (size_t i = 0; i < scope.size(); ++i) {
      if (scope[i] == a) return static_cast<int>(i);
    }
    return Status::Internal(StrCat("attribute ", a.ToString(), " not in scope"));
  }

  const NormalizedQuery& query_;
  const std::map<const RaExpr*, int>& spc_steps_;
  BoundedPlan* plan_;
};

}  // namespace

Result<BoundedPlan> GeneratePlan(const NormalizedQuery& query,
                                 const CoverageReport& report) {
  if (!report.covered) {
    return Status::NotCovered(
        "GeneratePlan requires a covered query (run CheckCoverage first)");
  }
  BoundedPlan plan;
  plan.actualized = report.actualized;

  std::map<const RaExpr*, int> spc_steps;
  for (const SpcCoverage& sc : report.spcs) {
    SpcPlanner planner(query, sc, plan.actualized, &plan);
    BQE_ASSIGN_OR_RETURN(int step, planner.Build());
    spc_steps.emplace(sc.spc.root, step);
  }

  PlanComposer composer(query, spc_steps, &plan);
  BQE_ASSIGN_OR_RETURN(plan.output, composer.Compose(query.root().get()));
  for (const AttrRef& a : query.OutputOf(query.root().get())) {
    plan.output_names.push_back(a.ToString());
  }
  return plan;
}

}  // namespace bqe
