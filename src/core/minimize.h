#ifndef BQE_CORE_MINIMIZE_H_
#define BQE_CORE_MINIMIZE_H_

#include <vector>

#include "common/status.h"
#include "constraints/access_schema.h"
#include "core/cov.h"
#include "ra/normalize.h"

namespace bqe {

/// Heuristic used to solve AMP(Q, A) (Section 6). dAMP is NP-complete and
/// oAMP is not in APX (Theorem 9), so all of these are approximations:
///  - kGreedy    (minA):    general case; weight-guided greedy removal,
///                          always returns a *minimal* covering subset.
///  - kAcyclic   (minADAG): shortest weighted hyperpaths; approximation
///                          bound O(1 + |X_Q \ X_Q^C|) for acyclic cases.
///  - kElementary(minAE):   reduction to directed Steiner arborescence
///                          (Charikar recursive greedy), for elementary
///                          cases (unit + indexing constraints only).
enum class MinimizeAlgo { kGreedy, kAcyclic, kElementary };

/// Tunable weights of minA's removal score
/// w(phi) = (c1 * N_phi) / (c2 * (|cov(Q,A)| - |cov(Q,A\{phi})| + 1)).
struct MinimizeOptions {
  double c1 = 1.0;
  double c2 = 1.0;
  /// Recursion level of the Steiner recursive greedy (minAE).
  int steiner_level = 2;
};

struct MinimizeResult {
  /// Ids of the kept constraints in the ORIGINAL schema A, ascending.
  std::vector<int> kept_ids;
  /// The subset A_m as a schema (ids re-assigned; source_id preserved).
  AccessSchema minimized;
  /// Sum of N over kept constraints — the objective of AMP.
  int64_t total_n = 0;
  /// CheckCoverage(Q, A_m): the safety check that A_m still covers Q. It is
  /// exactly the report the planner needs, so callers plan from it instead
  /// of analysing A_m again.
  CoverageReport report;
};

/// Solves AMP(Q, A): finds A_m subset of A such that Q stays covered by A_m
/// and the estimated access Sum N is small. Pre-condition: Q covered by A.
/// `report` must be CheckCoverage(query, schema); every algorithm starts
/// from it, so a caller that already analysed Q against A (the engine's
/// Prepare) pays for no second full-schema analysis.
///
/// minA never re-runs CovChk per candidate subset. It compiles `report`
/// once into a subset checker — per satisfiable SPC sub-query the induced
/// FDs and the index-eligible constraints of each occurrence, each tagged
/// with its constraint id in A — and decides "is Q covered by S" for a
/// subset S as an FD closure over the FDs of S plus a scan of S's index
/// candidates. Coverage is monotone in A, so a constraint whose removal
/// breaks coverage once is essential for the rest of the greedy and is
/// never tried again. The subset is a plain bitmap over A: any schema size.
Result<MinimizeResult> MinimizeAccess(const NormalizedQuery& query,
                                      const AccessSchema& schema,
                                      const CoverageReport& report,
                                      MinimizeAlgo algo,
                                      const MinimizeOptions& opts = {});

/// As above, computing the full-schema report itself.
Result<MinimizeResult> MinimizeAccess(const NormalizedQuery& query,
                                      const AccessSchema& schema,
                                      MinimizeAlgo algo,
                                      const MinimizeOptions& opts = {});

/// True when every <Q,A>-hypergraph of the query is acyclic in the
/// underlying-digraph sense (the paper's acyclic special case, Section 6.1).
Result<bool> IsAcyclicCase(const NormalizedQuery& query,
                           const AccessSchema& schema);

/// True when every constraint of A is an indexing constraint R(X -> X, 1)
/// or a unit constraint (|X| = |Y| = 1) — the elementary special case.
bool IsElementaryCase(const AccessSchema& schema);

}  // namespace bqe

#endif  // BQE_CORE_MINIMIZE_H_
