#ifndef BQE_STORAGE_TABLE_H_
#define BQE_STORAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/column_batch.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace bqe {

/// An in-memory row-store relation instance. BQE keeps instances simple:
/// a schema plus a bag of rows; set semantics are enforced by the relational
/// operators, not by the store.
///
/// Row order is insertion order only until the first Erase: Erase moves the
/// last row into the hole it leaves. Bounded reads go through the access
/// indices and never depend on a base table's row order.
///
/// Erase finds its row through a private locator (a row hash to positions),
/// built by BuildLocator() or else by the table's first Erase, and kept
/// current by every append after it, so tables that are only ever appended
/// to (query results, generated data) never pay for one. A row matches when
/// its hash agrees and `CompareTuples(...) == 0`. CompareTuples treats NaN
/// as equal to any double while TupleHash does not, so a NaN in the erased
/// row matches only rows whose hash also agrees. Positions are 32-bit: a table holds fewer than
/// 2^32 - 1 rows.
class Table {
 public:
  Table() = default;
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t NumRows() const { return rows_.size(); }

  /// Appends a row after checking arity and (non-null) types.
  Status Insert(Tuple row);

  /// Appends without validation; used by generators on hot paths.
  void InsertUnchecked(Tuple row) {
    rows_.push_back(std::move(row));
    if (!locator_.empty()) Locate(rows_.size() - 1);
  }

  /// Declared column types, in attribute order.
  std::vector<ValueType> ColumnTypes() const;

  /// Emits the table contents as columnar batches of at most `batch_size`
  /// rows, typed by the schema. The vectorized executor's scan surface.
  BatchVec ScanBatches(size_t batch_size = kDefaultBatchSize) const;

  /// Appends every row of `batch` after checking arity against the schema
  /// (per-value types are not re-checked; batches carry their own types).
  Status AppendBatch(const ColumnBatch& batch);

  /// Removes one occurrence of `row` in O(1) expected time, moving the last
  /// row into its place; NotFound (rows unchanged) when absent. `row` may
  /// refer into rows().
  Status Erase(const Tuple& row);

  /// Builds the row locator unless it is already built, so no later Erase
  /// pays the O(rows) build. BoundedEngine::BuildIndices() calls it on every
  /// base table, before any write.
  void BuildLocator();
  bool has_locator() const { return !locator_.empty(); }

  /// Sorts rows lexicographically and removes duplicates, producing the
  /// canonical set representation (used by tests and result comparison).
  /// Drops the row locator.
  void Canonicalize();

  /// True if the two tables hold the same *set* of rows (ignoring order and
  /// duplicates). Schemas are not compared.
  static bool SameSet(const Table& a, const Table& b);

  /// Distinct projection onto attribute indices; result schema uses the
  /// projected attribute metadata.
  Table DistinctProject(const std::vector<int>& col_idx) const;

  /// Multi-line rendering with a header; `max_rows` limits output.
  std::string ToString(size_t max_rows = 20) const;

  /// Cheap O(rows x cols) estimate of the resident heap footprint — tuple
  /// vectors, value slots, and string payloads (small strings count their
  /// inline capacity like any other). Used by byte-capped caches of
  /// materialized results (serve/result_cache) for LRU accounting; it is an
  /// estimate, not an allocator-exact measurement. Counts the row locator
  /// once it is built.
  size_t ApproxBytes() const;

 private:
  static constexpr uint32_t kNoRow = UINT32_MAX;
  /// One open-addressing slot of the locator: 32 mixed hash bits of a row
  /// and its position in rows_, or kNoRow when free.
  struct Slot {
    uint32_t tag = 0;
    uint32_t pos = kNoRow;
  };

  static uint32_t RowTag(const Tuple& row);
  /// Adds rows_[pos] to the locator, doubling it past half full.
  void Locate(size_t pos);
  void Place(Slot s);
  /// Frees slot i by backward-shifting the probe chain behind it.
  void Unplace(size_t i);

  RelationSchema schema_;
  std::vector<Tuple> rows_;
  std::vector<Slot> locator_;  // Empty until built.
};

}  // namespace bqe

#endif  // BQE_STORAGE_TABLE_H_
