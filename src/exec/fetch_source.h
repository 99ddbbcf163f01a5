#ifndef BQE_EXEC_FETCH_SOURCE_H_
#define BQE_EXEC_FETCH_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "constraints/index.h"
#include "exec/column_batch.h"

namespace bqe {

struct FetchCounters {
  uint64_t probes = 0;
  uint64_t tuples_fetched = 0;
};

/// Where a compiled plan's fetch steps read their buckets. A bounded plan
/// touches data only through fetches on the index of an access constraint,
/// so this is the whole of a plan's data access: the serial and
/// morsel-parallel executors, the row interpreter and result maintenance
/// (exec/ivm) all read through the source the plan was compiled against
/// (PhysicalPlan::source()).
///
/// Every operation takes the plan's *binding* — the AccessIndex a fetch
/// step resolved to at compile time. The binding supplies the metadata
/// (constraint, output_types(), FetchKeyOf), which is schema-determined;
/// the source decides which index is actually read. The local source
/// (LocalFetchSource) reads the binding itself; a sharded engine supplies a
/// routed source that reads each key's owning shard.
///
/// Fetch semantics (matching the row-at-a-time executor exactly): probe
/// with the *distinct* keys in first-occurrence order and return the
/// concatenation of their buckets (bag).
class FetchSource {
 public:
  virtual ~FetchSource() = default;

  /// Live number of index entries a fetch on `binding` reads from — the
  /// adaptive row-path signal (PhysicalPlan::FetchIndexEntries()).
  virtual size_t NumEntries(const AccessIndex& binding) const = 0;

  /// Fetches the buckets of the distinct rows of `input` (each row is an
  /// X-key of the binding's constraint) in first-seen key order, as batches
  /// of at most `batch_size` rows. `workers` > 1 lets the source spread the
  /// gather over the shared WorkerPool as task groups tagged `task_tag`.
  /// Freeze-before-fan-out: the source builds the columnar mirror of every
  /// index it reads before reading it, so its workers only do const reads.
  virtual BatchVec FetchBatches(const AccessIndex& binding,
                                const BatchVec& input, size_t batch_size,
                                size_t workers, uint64_t task_tag,
                                FetchCounters* counters) const = 0;

  /// The bucket of each key, index-aligned with `keys` (the row interpreter
  /// and result-maintenance replay read this way).
  virtual std::vector<std::vector<Tuple>> FetchRows(
      const AccessIndex& binding, const std::vector<Tuple>& keys) const = 0;

  /// Drains the signed bucket mutations (BucketPatch) logged against the
  /// binding's constraint since `*cursor`, appends them to `out` in
  /// application order, and advances `*cursor` to the current log position
  /// — even on failure, so the consumer resumes from "now" after its
  /// wholesale fallback. An empty `*cursor` means "initialize to the
  /// current position, emit nothing" (`out` may then be null); otherwise
  /// the cursor is opaque to callers. Returns false when events were lost
  /// to a budget-forced mirror rebuild since the cursor; the consumer must
  /// then re-resolve its retained buckets wholesale (see
  /// AccessIndex::PatchLogSince). Maintenance-side read: callers hold the
  /// writer discipline of the batch that produced the events.
  virtual bool PatchLogSince(const AccessIndex& binding,
                             std::vector<uint64_t>* cursor,
                             std::vector<BucketPatch>* out) const = 0;
};

/// The source that reads every binding directly: one engine over the whole
/// database. Stateless; shared by every plan compiled without a source.
const FetchSource& LocalFetchSource();

}  // namespace bqe

#endif  // BQE_EXEC_FETCH_SOURCE_H_
