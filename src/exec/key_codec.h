#ifndef BQE_EXEC_KEY_CODEC_H_
#define BQE_EXEC_KEY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/column_batch.h"

namespace bqe {

/// Encodes tuple cells into flat byte strings so that two rows are
/// Value-equal iff their encodings are byte-equal. Join, dedupe, union and
/// diff all key their hash tables on these encodings instead of hashing
/// boxed std::vector<Value> tuples.
///
/// Cell layout: 1 tag byte (the ValueType), then
///   - null:   nothing,
///   - int:    8 payload bytes (two's complement, host order),
///   - double: 8 payload bytes (bit pattern; -0.0 normalized to +0.0 so the
///             encoding matches Value::Compare, which treats them as equal),
///   - string: 4-byte length, then the bytes (length-prefixed so that
///             multi-column keys cannot collide across column boundaries).
///
/// Multi-column keys are simply the concatenation of cell encodings; the
/// fixed-width/length-prefixed layout makes the concatenation prefix-free.
void AppendEncodedCell(const Column& col, const StringDict& dict, size_t row,
                       std::string* out);

/// Same encoding for a boxed Value (used where Tuples are still the surface,
/// e.g. building the key-encoded index mirror). Byte-compatible with
/// AppendEncodedCell.
void AppendEncodedValue(const Value& v, std::string* out);

/// Encodes a whole Tuple (concatenated cells).
void AppendEncodedTuple(const Tuple& t, std::string* out);

/// Appends the encoding of `row` projected onto `cols` (empty = all columns).
void AppendEncodedKey(const ColumnBatch& batch, size_t row,
                      const std::vector<int>& cols, std::string* out);

/// Batch key encoder: encodes the keys of *every* row of a batch
/// column-by-column (two passes — cell sizes, then per-column fills — so the
/// per-cell type dispatch is hoisted out of the row loop). Buffers are
/// reused across Encode calls; Key(i) views are invalidated by the next
/// Encode.
class KeyEncoder {
 public:
  /// Encodes the keys of all rows of `batch` projected onto `cols`
  /// (empty = all columns).
  void Encode(const ColumnBatch& batch, const std::vector<int>& cols);

  size_t num_keys() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  std::string_view Key(size_t row) const {
    return std::string_view(arena_).substr(offsets_[row],
                                           offsets_[row + 1] - offsets_[row]);
  }

 private:
  void SizeColumn(const Column& col, const StringDict& dict, size_t n);
  void FillColumn(const Column& col, const StringDict& dict, size_t n);

  std::string arena_;
  std::vector<uint32_t> offsets_;  // Row -> [start, end) in arena_.
  std::vector<uint32_t> pos_;      // Per-row write cursor during fill.
};

/// An open-addressing hash table from encoded keys to dense group ids
/// (0, 1, 2, ... in insertion order). Keys are stored back-to-back in one
/// arena string — no per-key allocation. Used as:
///   - a set (dedupe/union/diff): InsertOrFind, test `inserted`,
///   - a grouping map (hash join build): group id indexes caller-side
///     row-chain vectors.
class KeyTable {
 public:
  static constexpr uint32_t kNoGroup = 0xffffffffu;

  explicit KeyTable(size_t expected_keys = 0);

  /// Returns the group id for `key`, inserting a new group if absent.
  uint32_t InsertOrFind(std::string_view key, bool* inserted);

  /// Returns the group id for `key`, or kNoGroup.
  uint32_t Find(std::string_view key) const;

  /// Clears all groups but keeps the slot allocation, so a scratch table
  /// can be reused across morsels without reallocating; `expected_keys`
  /// re-seeds the lazy first-allocation hint for still-empty tables.
  void Reset(size_t expected_keys);

  size_t NumGroups() const { return spans_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t group = kNoGroup;  // kNoGroup marks an empty slot.
  };

  std::string_view KeyOf(uint32_t group) const {
    const auto& [off, len] = spans_[group];
    return std::string_view(arena_).substr(off, len);
  }

  void Grow();

  size_t expected_ = 0;      // Sizing hint for the first (lazy) allocation.
  std::vector<Slot> slots_;  // Power-of-two size; empty until first insert.
  std::string arena_;
  std::vector<std::pair<uint32_t, uint32_t>> spans_;  // group -> (off, len).
};

}  // namespace bqe

#endif  // BQE_EXEC_KEY_CODEC_H_
