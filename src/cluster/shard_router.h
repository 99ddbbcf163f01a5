#ifndef BQE_CLUSTER_SHARD_ROUTER_H_
#define BQE_CLUSTER_SHARD_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "constraints/access_schema.h"
#include "constraints/maintain.h"
#include "exec/column_batch.h"
#include "exec/key_codec.h"
#include "storage/catalog.h"
#include "storage/tuple.h"

namespace bqe {
namespace cluster {

/// The fixed slot map of the sharded engine: fetch keys hash into a
/// power-of-two number of *slots* (the unit of ownership, far more numerous
/// than shards so a future rebalance can move slots without re-hashing
/// keys), and slots map onto shards by modulo. Routing uses the *high* bits
/// of HashBytes over the canonical key encoding (AppendEncodedTuple),
/// deliberately uncorrelated with the low bits KeyTable probes on.
///
/// A base-relation row is owned by every shard that owns one of its fetch
/// keys: for each access constraint R(X -> Y, N) on the row's relation the
/// row contributes to bucket KeyOf_c(row), and that bucket's owner needs the
/// row so its per-shard AccessIndex bucket is *byte-identical* to the
/// single-engine bucket for every key it owns. Rows of relations with no
/// constraint route to no shard (bounded plans can never fetch them).
///
/// The router is immutable after Build() and therefore freely shared by
/// concurrent readers.
class ShardRouter {
 public:
  /// Trivial 1-slot/1-shard router; replaced via Build() before use.
  ShardRouter() = default;

  /// `slots` must be a power of two >= `shards`; `shards` >= 1. The X
  /// column projections are resolved against `catalog` exactly the way
  /// AccessIndex::Build resolves them, so SlotOfKey(FetchKeyFor(c, row))
  /// agrees with the index layer's bucket keys.
  static Result<ShardRouter> Build(const AccessSchema& schema,
                                   const Catalog& catalog, size_t slots,
                                   size_t shards);

  size_t num_slots() const { return slots_; }
  size_t num_shards() const { return shards_; }

  /// Slot of an already-encoded key (AppendEncodedTuple layout): the top
  /// log2(num_slots) bits of HashBytes.
  size_t SlotOfEncoded(std::string_view encoded_key) const {
    return SlotOfHash(HashBytes(encoded_key));
  }
  size_t SlotOfHash(uint64_t hash) const {
    return slots_ == 1 ? 0 : static_cast<size_t>(hash >> shift_);
  }
  size_t SlotOfKey(const Tuple& key) const;

  size_t ShardOfSlot(size_t slot) const { return slot % shards_; }
  size_t ShardOfEncoded(std::string_view encoded_key) const {
    return ShardOfSlot(SlotOfEncoded(encoded_key));
  }
  size_t ShardOfKey(const Tuple& key) const {
    return ShardOfSlot(SlotOfKey(key));
  }

  /// Ids of the constraints declared on `rel` (empty when none).
  const std::vector<int>& ConstraintsFor(const std::string& rel) const;

  /// The fetch key of `row` under constraint `constraint_id` — the same
  /// X projection AccessIndex::FetchKeyOf computes.
  Tuple FetchKeyFor(int constraint_id, const Tuple& row) const {
    return ProjectTuple(row, x_cols_[static_cast<size_t>(constraint_id)]);
  }

  /// Owning shards of a full base row: the distinct shards owning
  /// FetchKeyFor(c, row) over every constraint c on the row's relation,
  /// ascending. Empty when the relation has no constraints.
  std::vector<size_t> ShardsOfRow(const std::string& rel,
                                  const Tuple& row) const;

  /// Splits a delta batch into per-shard sub-batches, preserving batch
  /// order within each shard. A delta owned by k shards appears in all k
  /// sub-batches (its relation has constraints hashing to different
  /// shards); a delta owned by none appears in no sub-batch.
  std::vector<std::vector<Delta>> SplitDeltas(
      const std::vector<Delta>& deltas) const;

 private:
  size_t slots_ = 1;
  size_t shards_ = 1;
  int shift_ = 64;  ///< 64 - log2(slots_); top-bit extraction.
  /// Constraint id -> column indices of X in the relation schema.
  std::vector<std::vector<int>> x_cols_;
  /// Relation -> ids of its constraints (ascending).
  std::map<std::string, std::vector<int>> by_rel_;
  std::vector<int> no_constraints_;  ///< Empty list for unknown relations.
};

}  // namespace cluster
}  // namespace bqe

#endif  // BQE_CLUSTER_SHARD_ROUTER_H_
