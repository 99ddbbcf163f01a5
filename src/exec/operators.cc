#include "exec/operators.h"

#include <algorithm>

namespace bqe {

void BatchWriter::WriteGather(const ColumnBatch& src, const uint32_t* rows,
                              size_t n, const std::vector<int>& cols) {
  size_t off = 0;
  while (off < n) {
    size_t k = std::min(batch_size_ - cur_.num_rows(), n - off);
    cur_.GatherRowsFrom(src, rows + off, k, cols);
    off += k;
    MaybeFlush();
  }
}

void BatchWriter::WriteGatherRange(const ColumnBatch& src, size_t begin,
                                   size_t n) {
  size_t off = 0;
  while (off < n) {
    size_t k = std::min(batch_size_ - cur_.num_rows(), n - off);
    cur_.GatherRangeFrom(src, begin + off, k);
    off += k;
    MaybeFlush();
  }
}

void PairWriter::Flush(const ColumnBatch& l, const ColumnBatch& r) {
  if (l_rows_.empty()) return;
  ColumnBatch b(types_);
  b.ReserveRows(l_rows_.size());
  b.GatherRowsInto(0, l, l_rows_.data(), l_rows_.size());
  b.GatherRowsInto(l.num_cols(), r, r_rows_.data(), r_rows_.size());
  b.FinishRows(l_rows_.size());
  out_->push_back(std::move(b));
  l_rows_.clear();
  r_rows_.clear();
}

const ColumnBatch* MergedChunk(const BatchVec& input,
                               const std::vector<ValueType>& types,
                               ColumnBatch* scratch) {
  if (input.size() == 1) return &input.front();
  *scratch = ColumnBatch(types);
  if (input.empty()) return scratch;
  scratch->ReserveRows(TotalRows(input));
  std::vector<uint32_t> iota;
  for (const ColumnBatch& b : input) {
    if (b.num_rows() > iota.size()) {
      size_t old = iota.size();
      iota.resize(b.num_rows());
      for (size_t i = old; i < iota.size(); ++i) {
        iota[i] = static_cast<uint32_t>(i);
      }
    }
    scratch->GatherRowsFrom(b, iota.data(), b.num_rows(), {});
  }
  return scratch;
}

namespace {

/// Mirrors Value::Compare over two batch cells: type tag first (the
/// ValueType enum order matches the variant index order), then payload.
int CompareCells(const Column& a, const StringDict& da, size_t ra,
                 const Column& b, const StringDict& db, size_t rb) {
  ValueType ta = a.TagAt(ra), tb = b.TagAt(rb);
  if (ta != tb) return ta < tb ? -1 : 1;
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt: {
      int64_t x = a.IntAt(ra), y = b.IntAt(rb);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kDouble: {
      double x = a.DoubleAt(ra), y = b.DoubleAt(rb);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kString:
      return da.At(a.StrIdAt(ra)).compare(db.At(b.StrIdAt(rb)));
  }
  return 0;
}

int CompareCellToValue(const Column& col, const StringDict& dict, size_t row,
                       const Value& v) {
  ValueType t = col.TagAt(row), tv = v.type();
  if (t != tv) return t < tv ? -1 : 1;
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt: {
      int64_t x = col.IntAt(row), y = v.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kDouble: {
      double x = col.DoubleAt(row), y = v.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kString:
      return dict.At(col.StrIdAt(row)).compare(v.AsString());
  }
  return 0;
}

bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

bool RowPasses(const ColumnBatch& b, size_t row,
               const std::vector<PlanPredicate>& preds,
               const std::vector<int>& colmap) {
  for (const PlanPredicate& p : preds) {
    size_t li = static_cast<size_t>(p.lhs);
    if (!colmap.empty()) li = static_cast<size_t>(colmap[li]);
    const Column& lhs = b.col(li);
    int c;
    if (p.kind == PlanPredicate::Kind::kColConst) {
      c = CompareCellToValue(lhs, b.dict(), row, p.constant);
    } else {
      size_t ri = static_cast<size_t>(p.rhs);
      if (!colmap.empty()) ri = static_cast<size_t>(colmap[ri]);
      c = CompareCells(lhs, b.dict(), row, b.col(ri), b.dict(), row);
    }
    if (!ApplyCmp(p.op, c)) return false;
  }
  return true;
}

}  // namespace

void FilterSelect(const ColumnBatch& b, const std::vector<PlanPredicate>& preds,
                  const std::vector<int>& colmap, std::vector<uint32_t>* sel) {
  size_t kept = 0;
  for (size_t i = 0; i < sel->size(); ++i) {
    uint32_t r = (*sel)[i];
    if (RowPasses(b, r, preds, colmap)) (*sel)[kept++] = r;
  }
  sel->resize(kept);
}

void AppendDistinctRows(const ColumnBatch& b, const std::vector<int>& cols,
                        const KeyTable* exclude, KeyTable* seen,
                        KeyEncoder* enc, BatchWriter* w) {
  enc->Encode(b, cols);
  // Reused across calls (and batches) on the dedupe hot path; thread_local
  // because parallel workers run this concurrently.
  static thread_local std::vector<uint32_t> sel;
  sel.clear();
  sel.reserve(b.num_rows());
  for (size_t i = 0; i < b.num_rows(); ++i) {
    std::string_view key = enc->Key(i);
    if (exclude != nullptr && exclude->Find(key) != KeyTable::kNoGroup) {
      continue;
    }
    bool inserted = false;
    seen->InsertOrFind(key, &inserted);
    if (inserted) sel.push_back(static_cast<uint32_t>(i));
  }
  w->WriteGather(b, sel.data(), sel.size(), cols);
}

BatchVec ConcatMorsels(std::vector<BatchVec>* morsels) {
  if (morsels->size() == 1) return std::move(morsels->front());
  BatchVec out;
  size_t total = 0;
  for (const BatchVec& m : *morsels) total += m.size();
  out.reserve(total);
  for (BatchVec& m : *morsels) {
    for (ColumnBatch& b : m) out.push_back(std::move(b));
  }
  return out;
}

BatchVec ConstOp(const Tuple& row, const std::vector<ValueType>& types) {
  BatchVec out;
  ColumnBatch b(types);
  b.AppendTuple(row);
  out.push_back(std::move(b));
  return out;
}

BatchVec FilterOp(const BatchVec& input, const std::vector<PlanPredicate>& preds,
                  size_t batch_size) {
  BatchVec out;
  if (input.empty()) return out;
  BatchWriter w(input.front().ColumnTypes(), batch_size, &out);
  std::vector<uint32_t> sel;
  for (const ColumnBatch& b : input) {
    sel.resize(b.num_rows());
    for (size_t i = 0; i < b.num_rows(); ++i) sel[i] = static_cast<uint32_t>(i);
    FilterSelect(b, preds, {}, &sel);
    w.WriteGather(b, sel.data(), sel.size(), {});
  }
  w.Finish();
  return out;
}

BatchVec ProjectOp(const BatchVec& input, const std::vector<int>& cols,
                   bool dedupe, const std::vector<ValueType>& out_types,
                   size_t batch_size) {
  BatchVec out;
  // Zero-column projection: one empty row per input row (deduped to at most
  // one). Must not reach the gather path, where empty `cols` means "all".
  if (cols.empty()) {
    size_t n = TotalRows(input);
    if (dedupe && n > 1) n = 1;
    while (n > 0) {
      size_t k = std::min(batch_size, n);
      ColumnBatch b((std::vector<ValueType>()));
      b.FinishRows(k);
      out.push_back(std::move(b));
      n -= k;
    }
    return out;
  }
  BatchWriter w(out_types, batch_size, &out);
  KeyEncoder enc;
  if (dedupe) {
    KeyTable seen(TotalRows(input));
    for (const ColumnBatch& b : input) {
      AppendDistinctRows(b, cols, nullptr, &seen, &enc, &w);
    }
  } else {
    std::vector<uint32_t> sel;
    for (const ColumnBatch& b : input) {
      sel.resize(b.num_rows());
      for (size_t i = 0; i < b.num_rows(); ++i) {
        sel[i] = static_cast<uint32_t>(i);
      }
      w.WriteGather(b, sel.data(), sel.size(), cols);
    }
  }
  w.Finish();
  return out;
}

void ProductBatch(const ColumnBatch& lb, const ColumnBatch& r,
                  const std::vector<ValueType>& out_types, size_t batch_size,
                  BatchVec* out) {
  size_t rn = r.num_rows();
  if (rn == 0 || lb.num_rows() == 0) return;
  // The pair stream is fully known up front — (i, 0..rn) per left row — so
  // the index arrays are bulk-filled (constant fill + iota slices) instead
  // of pushed pair-at-a-time.
  std::vector<uint32_t> iota(rn);
  for (size_t j = 0; j < rn; ++j) iota[j] = static_cast<uint32_t>(j);
  std::vector<uint32_t> l_idx, r_idx;
  l_idx.reserve(std::min(batch_size, lb.num_rows() * rn));
  r_idx.reserve(l_idx.capacity());
  auto flush = [&] {
    if (l_idx.empty()) return;
    ColumnBatch b(out_types);
    b.ReserveRows(l_idx.size());
    b.GatherRowsInto(0, lb, l_idx.data(), l_idx.size());
    b.GatherRowsInto(lb.num_cols(), r, r_idx.data(), r_idx.size());
    b.FinishRows(l_idx.size());
    out->push_back(std::move(b));
    l_idx.clear();
    r_idx.clear();
  };
  for (size_t i = 0; i < lb.num_rows(); ++i) {
    size_t off = 0;
    while (off < rn) {
      size_t k = std::min(batch_size - l_idx.size(), rn - off);
      l_idx.insert(l_idx.end(), k, static_cast<uint32_t>(i));
      r_idx.insert(r_idx.end(), iota.begin() + static_cast<ptrdiff_t>(off),
                   iota.begin() + static_cast<ptrdiff_t>(off + k));
      off += k;
      if (l_idx.size() >= batch_size) flush();
    }
  }
  flush();
}

BatchVec ProductOp(const BatchVec& left, const BatchVec& right,
                   const std::vector<ValueType>& out_types, size_t batch_size) {
  BatchVec out;
  if (left.empty() || right.empty() || TotalRows(right) == 0) return out;
  std::vector<ValueType> r_types = right.front().ColumnTypes();
  ColumnBatch scratch;
  const ColumnBatch& r = *MergedChunk(right, r_types, &scratch);
  for (const ColumnBatch& lb : left) {
    ProductBatch(lb, r, out_types, batch_size, &out);
  }
  return out;
}

JoinBuildTable BuildJoinTable(const ColumnBatch& r, const std::vector<int>& rk,
                              KeyEncoder* enc) {
  // Group rows by encoded key; chains keep insertion order.
  JoinBuildTable bt;
  bt.groups = KeyTable(r.num_rows());
  bt.next.assign(r.num_rows(), JoinBuildTable::kNone);
  std::vector<uint32_t> tails;
  enc->Encode(r, rk);
  for (size_t j = 0; j < r.num_rows(); ++j) {
    bool inserted = false;
    uint32_t g = bt.groups.InsertOrFind(enc->Key(j), &inserted);
    if (inserted) {
      bt.heads.push_back(static_cast<uint32_t>(j));
      tails.push_back(static_cast<uint32_t>(j));
    } else {
      bt.next[tails[g]] = static_cast<uint32_t>(j);
      tails[g] = static_cast<uint32_t>(j);
    }
  }
  return bt;
}

void ProbeJoinBatch(const JoinBuildTable& bt, const ColumnBatch& r,
                    const ColumnBatch& lb, const std::vector<int>& lk,
                    KeyEncoder* enc, PairWriter* w) {
  enc->Encode(lb, lk);
  for (size_t i = 0; i < lb.num_rows(); ++i) {
    uint32_t g = bt.groups.Find(enc->Key(i));
    if (g == KeyTable::kNoGroup) continue;
    for (uint32_t j = bt.heads[g]; j != JoinBuildTable::kNone; j = bt.next[j]) {
      w->Add(lb, static_cast<uint32_t>(i), r, j);
    }
  }
  w->Flush(lb, r);
}

BatchVec HashJoinOp(const BatchVec& left, const BatchVec& right,
                    const std::vector<std::pair<int, int>>& on,
                    const std::vector<ValueType>& out_types, size_t batch_size) {
  // An empty key list means "no equality constraint" — a cross join. It must
  // NOT fall through to the encoder, whose empty-cols convention is "all
  // columns" (that would join on full-row equality).
  if (on.empty()) return ProductOp(left, right, out_types, batch_size);
  BatchVec out;
  if (left.empty() || right.empty() || TotalRows(right) == 0) return out;
  std::vector<int> lk, rk;
  for (auto [a, b] : on) {
    lk.push_back(a);
    rk.push_back(b);
  }

  std::vector<ValueType> r_types = right.front().ColumnTypes();
  ColumnBatch scratch;
  const ColumnBatch& r = *MergedChunk(right, r_types, &scratch);
  KeyEncoder enc;
  JoinBuildTable bt = BuildJoinTable(r, rk, &enc);

  PairWriter w(out_types, batch_size, &out);
  for (const ColumnBatch& lb : left) {
    ProbeJoinBatch(bt, r, lb, lk, &enc, &w);
  }
  return out;
}

BatchVec UnionOp(const BatchVec& left, const BatchVec& right,
                 const std::vector<ValueType>& out_types, size_t batch_size) {
  BatchVec out;
  BatchWriter w(out_types, batch_size, &out);
  KeyTable seen(TotalRows(left) + TotalRows(right));
  KeyEncoder enc;
  for (const BatchVec* side : {&left, &right}) {
    for (const ColumnBatch& b : *side) {
      AppendDistinctRows(b, {}, nullptr, &seen, &enc, &w);
    }
  }
  w.Finish();
  return out;
}

BatchVec DiffOp(const BatchVec& left, const BatchVec& right,
                const std::vector<ValueType>& out_types, size_t batch_size) {
  KeyTable right_set(TotalRows(right));
  KeyEncoder enc;
  for (const ColumnBatch& b : right) {
    enc.Encode(b, {});
    for (size_t i = 0; i < b.num_rows(); ++i) {
      right_set.InsertOrFind(enc.Key(i), nullptr);
    }
  }

  BatchVec out;
  BatchWriter w(out_types, batch_size, &out);
  KeyTable seen(TotalRows(left));
  for (const ColumnBatch& b : left) {
    AppendDistinctRows(b, {}, &right_set, &seen, &enc, &w);
  }
  w.Finish();
  return out;
}

}  // namespace bqe
