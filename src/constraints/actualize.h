#ifndef BQE_CONSTRAINTS_ACTUALIZE_H_
#define BQE_CONSTRAINTS_ACTUALIZE_H_

#include <vector>

#include "constraints/access_schema.h"
#include "ra/normalize.h"

namespace bqe {

/// Computes the actualized access schema A' of A on a normalized query Q
/// (Lemma 1): for every relation occurrence S of Q with base relation R and
/// every constraint R(X -> Y, N) in A, A' contains S(X -> Y, N). Actualized
/// constraints keep `source_id` pointing at the original constraint.
///
/// Runs in O(|Q||A|) time as stated by Lemma 1.
AccessSchema Actualize(const AccessSchema& schema, const NormalizedQuery& query);

/// The id in `schema` of each constraint of Actualize(schema, query),
/// indexed by actualized id. Unlike `source_id`, which names the root of a
/// chain of Subset copies, these are ids of `schema` itself.
std::vector<int> ActualizedOrigins(const AccessSchema& schema,
                                   const NormalizedQuery& query);

}  // namespace bqe

#endif  // BQE_CONSTRAINTS_ACTUALIZE_H_
