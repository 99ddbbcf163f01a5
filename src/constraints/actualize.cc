#include "constraints/actualize.h"

namespace bqe {

AccessSchema Actualize(const AccessSchema& schema, const NormalizedQuery& query) {
  AccessSchema out;
  for (const auto& [occ, base] : query.occurrences()) {
    for (int cid : schema.ForRelation(base)) {
      AccessConstraint c = schema.at(cid);
      c.rel = occ;
      c.source_id = c.source_id >= 0 ? c.source_id : cid;
      out.AddUnchecked(std::move(c));
    }
  }
  return out;
}

std::vector<int> ActualizedOrigins(const AccessSchema& schema,
                                   const NormalizedQuery& query) {
  // Must enumerate exactly as Actualize does.
  std::vector<int> origin;
  for (const auto& [occ, base] : query.occurrences()) {
    for (int cid : schema.ForRelation(base)) origin.push_back(cid);
  }
  return origin;
}

}  // namespace bqe
