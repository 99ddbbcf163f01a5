#include "core/minimize.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "constraints/actualize.h"
#include "core/qplan.h"
#include "hypergraph/steiner.h"

namespace bqe {

namespace {

/// Total number of covered classes across all sub-queries — the |cov(Q,A)|
/// proxy used by minA's weight.
size_t CoveredClassCount(const CoverageReport& report) {
  size_t n = 0;
  for (const SpcCoverage& sc : report.spcs) {
    for (bool b : sc.cov) {
      if (b) ++n;
    }
  }
  return n;
}

Result<MinimizeResult> PackResult(const NormalizedQuery& query,
                                  const AccessSchema& schema,
                                  std::vector<int> kept_ids) {
  MinimizeResult out;
  out.kept_ids = std::move(kept_ids);
  out.minimized = schema.Subset(out.kept_ids);
  for (int id : out.kept_ids) out.total_n += schema.at(id).n;
  // Safety: the result must still cover the query.
  BQE_ASSIGN_OR_RETURN(out.report, CheckCoverage(query, out.minimized));
  if (!out.report.covered) {
    return Status::Internal("minimization produced a non-covering subset");
  }
  return out;
}

/// Decides "is Q covered by S?" for subsets S of A from one analysis of Q
/// against all of A. Actualizing S keeps exactly the actualized constraints
/// of S, so CovChk on S sees the induced FDs and index candidates of the
/// full-schema report whose constraints lie in S; unification, X_Q and
/// X_Q^C do not depend on A at all.
class SubsetChecker {
 public:
  SubsetChecker(const CoverageReport& report, const std::vector<int>& origin) {
    for (const SpcCoverage& sc : report.spcs) {
      if (sc.uni.unsatisfiable) continue;  // Covered under every S.
      Spc s;
      s.num_classes = sc.uni.num_classes;
      s.seed = sc.xc_classes;
      s.needed = sc.xq_classes;
      s.fds_of_class.resize(static_cast<size_t>(s.num_classes));
      for (const Fd& fd : sc.induced_fds) {
        for (int cls : fd.lhs) {
          s.fds_of_class[static_cast<size_t>(cls)].push_back(
              static_cast<int>(s.fds.size()));
        }
        s.fds.push_back(Fd{fd.lhs, fd.rhs,
                           origin[static_cast<size_t>(fd.constraint_id)]});
      }
      // The constraints that may index each occurrence once their X is
      // covered: those whose XY spans the occurrence's attributes in X_Q.
      for (const auto& [occ, chosen] : sc.index_constraint) {
        std::set<std::string> needed;
        for (const AttrRef& a : sc.spc.xq) {
          if (a.rel == occ) needed.insert(a.attr);
        }
        std::vector<IndexCandidate> cands;
        for (int cid : report.actualized.ForRelation(occ)) {
          const AccessConstraint& c = report.actualized.at(cid);
          std::set<std::string> xy(c.x.begin(), c.x.end());
          xy.insert(c.y.begin(), c.y.end());
          if (!std::includes(xy.begin(), xy.end(), needed.begin(),
                             needed.end())) {
            continue;
          }
          IndexCandidate cand{origin[static_cast<size_t>(cid)], {}};
          bool known = true;
          for (const std::string& a : c.x) {
            int cls = sc.uni.ClassOf(AttrRef{occ, a});
            if (cls < 0) known = false;
            cand.x_classes.push_back(cls);
          }
          if (known) cands.push_back(std::move(cand));
        }
        s.occurrences.push_back(std::move(cands));
      }
      spcs_.push_back(std::move(s));
    }
  }

  /// True when Q is covered by the constraints with enabled[id]. Sets
  /// *cov_size to |cov(Q,S)| summed over the sub-queries — what
  /// CoveredClassCount gives for CheckCoverage(Q, S) — when covered.
  bool Covered(const std::vector<bool>& enabled, size_t* cov_size) {
    size_t total = 0;
    for (const Spc& s : spcs_) {
      Closure(s, enabled);
      for (int cls : s.needed) {
        if (!closure_[static_cast<size_t>(cls)]) return false;  // Fetchable.
      }
      for (const std::vector<IndexCandidate>& cands : s.occurrences) {
        bool indexed = false;
        for (const IndexCandidate& c : cands) {
          if (!enabled[static_cast<size_t>(c.id)]) continue;
          indexed = std::all_of(
              c.x_classes.begin(), c.x_classes.end(),
              [&](int cls) { return closure_[static_cast<size_t>(cls)]; });
          if (indexed) break;
        }
        if (!indexed) return false;
      }
      total += static_cast<size_t>(
          std::count(closure_.begin(), closure_.end(), true));
    }
    *cov_size = total;
    return true;
  }

 private:
  struct IndexCandidate {
    int id;                      ///< Constraint id in A.
    std::vector<int> x_classes;  ///< rho_U of the occurrence's X.
  };
  struct Spc {
    int num_classes = 0;
    std::vector<int> seed;    ///< rho_U(X_Q^C).
    std::vector<int> needed;  ///< rho_U(X_Q).
    std::vector<Fd> fds;      ///< Induced FDs; constraint_id is the id in A.
    /// Class -> indexes of the FDs with the class in their lhs.
    std::vector<std::vector<int>> fds_of_class;
    std::vector<std::vector<IndexCandidate>> occurrences;
  };

  /// FdClosure restricted to the FDs of enabled constraints, into closure_.
  void Closure(const Spc& s, const std::vector<bool>& enabled) {
    closure_.assign(static_cast<size_t>(s.num_classes), false);
    queue_.clear();
    auto reach = [&](int cls) {
      if (!closure_[static_cast<size_t>(cls)]) {
        closure_[static_cast<size_t>(cls)] = true;
        queue_.push_back(cls);
      }
    };
    auto fire = [&](const Fd& fd) {
      if (!enabled[static_cast<size_t>(fd.constraint_id)]) return;
      for (int cls : fd.rhs) reach(cls);
    };
    missing_.resize(s.fds.size());
    for (size_t i = 0; i < s.fds.size(); ++i) {
      missing_[i] = static_cast<int>(s.fds[i].lhs.size());
      if (missing_[i] == 0) fire(s.fds[i]);
    }
    for (int cls : s.seed) reach(cls);
    for (size_t head = 0; head < queue_.size(); ++head) {
      for (int fi : s.fds_of_class[static_cast<size_t>(queue_[head])]) {
        if (--missing_[static_cast<size_t>(fi)] == 0) {
          fire(s.fds[static_cast<size_t>(fi)]);
        }
      }
    }
  }

  std::vector<Spc> spcs_;
  // Scratch reused across Covered() calls.
  std::vector<bool> closure_;
  std::vector<int> queue_;
  std::vector<int> missing_;
};

/// Algorithm minA (Theorem 10(1)): greedy removal of the highest-weight
/// redundant constraint until the subset is minimal.
Result<MinimizeResult> MinimizeGreedy(const NormalizedQuery& query,
                                      const AccessSchema& schema,
                                      const CoverageReport& report,
                                      const std::vector<int>& origin,
                                      const MinimizeOptions& opts) {
  SubsetChecker checker(report, origin);
  // Start from the constraints on the query's relations: the others never
  // actualize onto Q, so they are trivially redundant and would dominate
  // the weight ranking anyway.
  std::vector<int> kept = origin;
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  std::vector<bool> enabled(schema.size(), false);
  for (int id : kept) enabled[static_cast<size_t>(id)] = true;
  // Coverage is monotone in A: once dropping phi from `kept` breaks it,
  // dropping phi from any later (smaller) `kept` does too.
  std::vector<bool> essential(schema.size(), false);
  size_t cov_now = CoveredClassCount(report);

  while (true) {
    int best = -1;
    double best_w = -1.0;
    size_t best_cov = 0;
    for (int cand : kept) {
      if (essential[static_cast<size_t>(cand)]) continue;
      enabled[static_cast<size_t>(cand)] = false;
      size_t cov_without = 0;
      bool covered = checker.Covered(enabled, &cov_without);
      enabled[static_cast<size_t>(cand)] = true;
      if (!covered) {
        essential[static_cast<size_t>(cand)] = true;
        continue;
      }
      double denom =
          opts.c2 * static_cast<double>(cov_now - cov_without + 1);
      double w = opts.c1 * static_cast<double>(schema.at(cand).n) / denom;
      if (w > best_w) {
        best_w = w;
        best = cand;
        best_cov = cov_without;
      }
    }
    if (best < 0) break;  // Minimal: removing anything breaks coverage.
    enabled[static_cast<size_t>(best)] = false;
    kept.erase(std::find(kept.begin(), kept.end(), best));
    cov_now = best_cov;
  }
  return PackResult(query, schema, std::move(kept));
}

/// Algorithm minADAG (Theorem 10(2)): shortest weighted hyperpaths from r to
/// every needed class; keep the constraints on those paths plus a cheap
/// indexing constraint per occurrence (with paths for its X classes).
Result<MinimizeResult> MinimizeAcyclic(const NormalizedQuery& query,
                                       const AccessSchema& schema,
                                       const CoverageReport& report,
                                       const std::vector<int>& origin,
                                       const MinimizeOptions& opts) {
  std::set<int> kept;
  for (const SpcCoverage& sc : report.spcs) {
    if (sc.uni.unsatisfiable) continue;
    QaHypergraph hg = BuildQaHypergraph(sc, report.actualized);
    Hypergraph::ShortestResult sr = hg.graph.ShortestHyperpaths({hg.root});

    auto add_path_to = [&](int cls) -> Status {
      BQE_ASSIGN_OR_RETURN(
          std::vector<int> edges,
          hg.graph.ExtractPath(sr, hg.class_node[static_cast<size_t>(cls)]));
      for (int ei : edges) {
        int fd_idx = hg.graph.edges()[static_cast<size_t>(ei)].payload;
        if (fd_idx < 0) continue;  // Root edge to a constant class.
        int actual = sc.induced_fds[static_cast<size_t>(fd_idx)].constraint_id;
        kept.insert(origin[static_cast<size_t>(actual)]);
      }
      return Status::Ok();
    };

    for (int cls : sc.xq_classes) {
      if (sc.uni.class_has_const[static_cast<size_t>(cls)]) continue;
      BQE_RETURN_IF_ERROR(add_path_to(cls));
    }
    // One indexing constraint per occurrence: choose minimum N + path cost
    // for its X classes.
    for (const auto& [occ, chosen] : sc.index_constraint) {
      int best = -1;
      double best_cost = 0.0;
      for (int cid : report.actualized.ForRelation(occ)) {
        const AccessConstraint& c = report.actualized.at(cid);
        // Must span the needed attributes (same condition CovChk used).
        std::set<std::string> xy(c.x.begin(), c.x.end());
        xy.insert(c.y.begin(), c.y.end());
        bool spans = true;
        for (const AttrRef& a : sc.spc.xq) {
          if (a.rel == occ && xy.count(a.attr) == 0) {
            spans = false;
            break;
          }
        }
        if (!spans) continue;
        double cost = static_cast<double>(c.n);
        bool reachable = true;
        for (const std::string& xa : c.x) {
          int cls = sc.uni.ClassOf(AttrRef{occ, xa});
          double d = sr.dist[static_cast<size_t>(
              hg.class_node[static_cast<size_t>(cls)])];
          if (d >= Hypergraph::ShortestResult::kUnreachable) {
            reachable = false;
            break;
          }
          cost += d;
        }
        if (!reachable) continue;
        if (best < 0 || cost < best_cost) {
          best = cid;
          best_cost = cost;
        }
      }
      if (best < 0) best = chosen;  // Fall back to CovChk's pick.
      kept.insert(origin[static_cast<size_t>(best)]);
      for (const std::string& xa : report.actualized.at(best).x) {
        int cls = sc.uni.ClassOf(AttrRef{occ, xa});
        BQE_RETURN_IF_ERROR(add_path_to(cls));
      }
    }
  }
  Result<MinimizeResult> packed =
      PackResult(query, schema, {kept.begin(), kept.end()});
  if (!packed.ok()) {
    // Robust fallback: the greedy algorithm always returns a covering set.
    return MinimizeGreedy(query, schema, report, origin, opts);
  }
  return packed;
}

/// Algorithm minAE (Theorem 10(3)): for elementary (Q,A), the hypergraph on
/// unit constraints is an ordinary digraph; approximate the minimum Steiner
/// arborescence rooted at r spanning the needed classes.
Result<MinimizeResult> MinimizeElementary(const NormalizedQuery& query,
                                          const AccessSchema& schema,
                                          const CoverageReport& report,
                                          const std::vector<int>& origin,
                                          const MinimizeOptions& opts) {
  std::set<int> kept;
  for (const SpcCoverage& sc : report.spcs) {
    if (sc.uni.unsatisfiable) continue;
    // Build the digraph G_{Q,Ani}: node r = 0, class c -> node c + 1.
    const int num_nodes = sc.uni.num_classes + 1;
    std::vector<DiEdge> edges;
    for (const Fd& fd : sc.induced_fds) {
      const AccessConstraint& c = report.actualized.at(fd.constraint_id);
      if (!c.IsUnitConstraint()) continue;
      if (fd.lhs.size() != 1 || fd.rhs.empty()) continue;
      for (int y : fd.rhs) {
        if (y == fd.lhs[0]) continue;
        edges.push_back(DiEdge{fd.lhs[0] + 1, y + 1,
                               static_cast<double>(c.n), fd.constraint_id});
      }
    }
    for (int cls : sc.xc_classes) {
      edges.push_back(DiEdge{0, cls + 1, 0.0, -1});
    }
    std::vector<int> terminals;
    for (int cls : sc.xq_classes) {
      if (!sc.uni.class_has_const[static_cast<size_t>(cls)]) {
        terminals.push_back(cls + 1);
      }
    }
    Result<SteinerSolution> sol = SolveSteinerArborescence(
        num_nodes, edges, /*root=*/0, terminals, opts.steiner_level);
    if (!sol.ok()) return MinimizeGreedy(query, schema, report, origin, opts);
    for (int ei : sol->edge_ids) {
      int actual = edges[static_cast<size_t>(ei)].payload;
      if (actual >= 0) kept.insert(origin[static_cast<size_t>(actual)]);
    }
    // Indexing constraints (step (c)(ii) of minAE).
    for (const auto& [occ, chosen] : sc.index_constraint) {
      if (chosen >= 0) kept.insert(origin[static_cast<size_t>(chosen)]);
    }
  }
  Result<MinimizeResult> packed =
      PackResult(query, schema, {kept.begin(), kept.end()});
  if (!packed.ok()) return MinimizeGreedy(query, schema, report, origin, opts);
  return packed;
}

}  // namespace

Result<MinimizeResult> MinimizeAccess(const NormalizedQuery& query,
                                      const AccessSchema& schema,
                                      const CoverageReport& report,
                                      MinimizeAlgo algo,
                                      const MinimizeOptions& opts) {
  std::vector<int> origin = ActualizedOrigins(schema, query);
  if (origin.size() != report.actualized.size()) {
    return Status::InvalidArgument(
        "MinimizeAccess: the report does not analyse this query and schema");
  }
  if (!report.covered) {
    return Status::FailedPrecondition(
        "MinimizeAccess requires the query to be covered by A");
  }
  switch (algo) {
    case MinimizeAlgo::kGreedy:
      return MinimizeGreedy(query, schema, report, origin, opts);
    case MinimizeAlgo::kAcyclic:
      return MinimizeAcyclic(query, schema, report, origin, opts);
    case MinimizeAlgo::kElementary:
      return MinimizeElementary(query, schema, report, origin, opts);
  }
  return Status::InvalidArgument("unknown minimization algorithm");
}

Result<MinimizeResult> MinimizeAccess(const NormalizedQuery& query,
                                      const AccessSchema& schema,
                                      MinimizeAlgo algo,
                                      const MinimizeOptions& opts) {
  BQE_ASSIGN_OR_RETURN(CoverageReport report, CheckCoverage(query, schema));
  return MinimizeAccess(query, schema, report, algo, opts);
}

Result<bool> IsAcyclicCase(const NormalizedQuery& query,
                           const AccessSchema& schema) {
  BQE_ASSIGN_OR_RETURN(CoverageReport report, CheckCoverage(query, schema));
  for (const SpcCoverage& sc : report.spcs) {
    if (sc.uni.unsatisfiable) continue;
    QaHypergraph hg = BuildQaHypergraph(sc, report.actualized);
    if (!hg.graph.UnderlyingAcyclic()) return false;
  }
  return true;
}

bool IsElementaryCase(const AccessSchema& schema) {
  for (const AccessConstraint& c : schema.constraints()) {
    if (!c.IsIndexingConstraint() && !c.IsUnitConstraint()) return false;
  }
  return true;
}

}  // namespace bqe
