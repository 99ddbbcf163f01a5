#ifndef BQE_EXEC_OPERATORS_H_
#define BQE_EXEC_OPERATORS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "constraints/index.h"
#include "core/plan.h"
#include "exec/column_batch.h"
#include "exec/key_codec.h"

namespace bqe {

/// Vectorized relational operators over ColumnBatch streams. Every operator
/// fully materializes its result as a BatchVec whose batches hold at most
/// `batch_size` rows; an index bucket larger than the remaining batch
/// capacity is split across consecutive batches (the concatenated row
/// stream is what is specified, not batch boundaries).
///
/// Contracts (matching the row-at-a-time executor exactly):
///   - FilterOp keeps rows satisfying every predicate (bag).
///   - ProjectOp projects; when `dedupe`, keeps the first occurrence of each
///     distinct projected row (set).
///   - ProductOp / HashJoinOp emit left-outer-loop order concatenated rows
///     (bag); the join is an equi-join on `on` (left col, right col) pairs.
///   - UnionOp emits distinct rows of left-then-right (set).
///   - DiffOp emits distinct left rows absent from the right (set).
///
/// Dedupe/join keys are byte-encoded (key_codec.h) — no Value boxing and no
/// TupleHash on the hot path.
///
/// The building blocks below the classic operators (BatchWriter, PairWriter,
/// MergedChunk, JoinBuildTable, FilterSelect, AppendDistinctRows,
/// ProductBatch, ProbeJoinBatch, ConcatMorsels) are exported so the
/// morsel-driven parallel executor (exec/parallel.cc) can drive the same
/// per-batch kernels from worker threads with thread-local scratch. Fetch
/// steps are not operators here: they read through the plan's FetchSource
/// (exec/fetch_source.h).

/// Accumulates output rows and flushes full batches into a BatchVec.
class BatchWriter {
 public:
  BatchWriter(std::vector<ValueType> types, size_t batch_size, BatchVec* out)
      : types_(std::move(types)), batch_size_(batch_size), out_(out) {
    cur_ = ColumnBatch(types_);
  }

  ColumnBatch& cur() { return cur_; }

  /// Call after appending one or more rows; flushes at the batch boundary.
  void MaybeFlush() {
    if (cur_.num_rows() >= batch_size_) {
      out_->push_back(std::move(cur_));
      cur_ = ColumnBatch(types_);
    }
  }

  /// Column-wise gather of `n` selected src rows, split on batch boundaries.
  void WriteGather(const ColumnBatch& src, const uint32_t* rows, size_t n,
                   const std::vector<int>& cols);

  /// Column-wise gather of the contiguous src range [begin, begin + n).
  void WriteGatherRange(const ColumnBatch& src, size_t begin, size_t n);

  void Finish() {
    if (cur_.num_rows() > 0) out_->push_back(std::move(cur_));
  }

 private:
  std::vector<ValueType> types_;
  size_t batch_size_;
  BatchVec* out_;
  ColumnBatch cur_;
};

/// Shared output assembly for product and hash join: flushes accumulated
/// (left row, right row) match pairs as one column-wise gathered batch.
/// `types` must outlive the writer (operator/compiled-step metadata does).
class PairWriter {
 public:
  PairWriter(const std::vector<ValueType>& types, size_t batch_size,
             BatchVec* out)
      : types_(types), batch_size_(batch_size), out_(out) {
    l_rows_.reserve(batch_size);
    r_rows_.reserve(batch_size);
  }

  void Add(const ColumnBatch& l, uint32_t l_row, const ColumnBatch& r,
           uint32_t r_row) {
    l_rows_.push_back(l_row);
    r_rows_.push_back(r_row);
    if (l_rows_.size() >= batch_size_) Flush(l, r);
  }

  /// Must be called before the left batch changes and at the end.
  void Flush(const ColumnBatch& l, const ColumnBatch& r);

 private:
  const std::vector<ValueType>& types_;
  size_t batch_size_;
  BatchVec* out_;
  std::vector<uint32_t> l_rows_, r_rows_;
};

/// Returns `input` as one contiguous batch: the batch itself for
/// single-batch inputs, otherwise a merged copy in `*scratch`. Join-style
/// operators merge their build side once so per-output-row indirection
/// through (batch, row) pairs disappears.
const ColumnBatch* MergedChunk(const BatchVec& input,
                               const std::vector<ValueType>& types,
                               ColumnBatch* scratch);

/// Hash-join build side over one merged chunk: encoded-key groups with
/// insertion-ordered row chains (heads[g] -> next[...] -> kNone). Built
/// once on the calling thread; probe workers share it read-only.
struct JoinBuildTable {
  static constexpr uint32_t kNone = 0xffffffffu;
  KeyTable groups;
  std::vector<uint32_t> heads;  ///< Group -> first row of its chain.
  std::vector<uint32_t> next;   ///< Row -> next row in its chain.
};

/// Builds the join table for `r` keyed on columns `rk`. `enc` is caller
/// scratch (reused across calls).
JoinBuildTable BuildJoinTable(const ColumnBatch& r, const std::vector<int>& rk,
                              KeyEncoder* enc);

/// Probes every row of `lb` (keyed on `lk`) against a built table, emitting
/// concatenated (left ++ right) rows through `w`. Flushes `w` before
/// returning (pairs never dangle across left batches). Safe to call
/// concurrently on the same JoinBuildTable/chunk from multiple threads as
/// long as each thread owns its `enc` and `w`.
void ProbeJoinBatch(const JoinBuildTable& bt, const ColumnBatch& r,
                    const ColumnBatch& lb, const std::vector<int>& lk,
                    KeyEncoder* enc, PairWriter* w);

/// Compacts `sel` (row ids into `b`) down to the rows passing every
/// predicate. Predicate column indices are looked up through `colmap` when
/// non-empty (logical column c = physical column colmap[c]) — the fused
/// filter-after-project path of the parallel executor.
void FilterSelect(const ColumnBatch& b, const std::vector<PlanPredicate>& preds,
                  const std::vector<int>& colmap, std::vector<uint32_t>* sel);

/// Appends the rows of `b` (projected onto `cols`; empty = all) whose
/// encoded key is new to `seen`, preserving first-occurrence order. When
/// `exclude` is non-null, rows whose key is present in it are dropped first
/// (the difference operator's right-side filter). The set-semantics kernel
/// behind ProjectOp(dedupe)/UnionOp/DiffOp and the parallel executor's
/// local-dedupe + ordered-merge scheme.
void AppendDistinctRows(const ColumnBatch& b, const std::vector<int>& cols,
                        const KeyTable* exclude, KeyTable* seen,
                        KeyEncoder* enc, BatchWriter* w);

/// Cross product of one left batch against a merged right chunk, appended
/// to `out` in left-outer-loop order.
void ProductBatch(const ColumnBatch& lb, const ColumnBatch& r,
                  const std::vector<ValueType>& out_types, size_t batch_size,
                  BatchVec* out);

/// Ordered concatenation of per-morsel outputs: morsel index order is the
/// serial row-stream order, which is what makes parallel execution
/// deterministic and byte-identical to the serial path.
BatchVec ConcatMorsels(std::vector<BatchVec>* morsels);

/// Single-row batch holding a kConst step's row (types from plan metadata).
BatchVec ConstOp(const Tuple& row, const std::vector<ValueType>& types);

BatchVec FilterOp(const BatchVec& input, const std::vector<PlanPredicate>& preds,
                  size_t batch_size);

BatchVec ProjectOp(const BatchVec& input, const std::vector<int>& cols,
                   bool dedupe, const std::vector<ValueType>& out_types,
                   size_t batch_size);

BatchVec ProductOp(const BatchVec& left, const BatchVec& right,
                   const std::vector<ValueType>& out_types, size_t batch_size);

BatchVec HashJoinOp(const BatchVec& left, const BatchVec& right,
                    const std::vector<std::pair<int, int>>& on,
                    const std::vector<ValueType>& out_types, size_t batch_size);

BatchVec UnionOp(const BatchVec& left, const BatchVec& right,
                 const std::vector<ValueType>& out_types, size_t batch_size);

BatchVec DiffOp(const BatchVec& left, const BatchVec& right,
                const std::vector<ValueType>& out_types, size_t batch_size);

}  // namespace bqe

#endif  // BQE_EXEC_OPERATORS_H_
