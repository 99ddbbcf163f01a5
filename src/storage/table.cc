#include "storage/table.h"

#include <algorithm>
#include <unordered_set>

#include "common/strings.h"

namespace bqe {

Status Table::Insert(Tuple row) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument(
        StrCat("arity mismatch inserting into ", schema_.name(), ": got ",
               row.size(), ", want ", schema_.arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attrs()[i].type) {
      return Status::InvalidArgument(
          StrCat("type mismatch for ", schema_.name(), ".",
                 schema_.attrs()[i].name, ": got ", ValueTypeName(row[i].type()),
                 ", want ", ValueTypeName(schema_.attrs()[i].type)));
    }
  }
  rows_.push_back(std::move(row));
  if (!locator_.empty()) Locate(rows_.size() - 1);
  return Status::Ok();
}

std::vector<ValueType> Table::ColumnTypes() const {
  std::vector<ValueType> out;
  out.reserve(schema_.arity());
  for (const Attribute& a : schema_.attrs()) out.push_back(a.type);
  return out;
}

BatchVec Table::ScanBatches(size_t batch_size) const {
  return TuplesToBatches(rows_, ColumnTypes(), batch_size);
}

Status Table::AppendBatch(const ColumnBatch& batch) {
  if (batch.num_cols() != schema_.arity()) {
    return Status::InvalidArgument(
        StrCat("arity mismatch appending batch to ", schema_.name(), ": got ",
               batch.num_cols(), ", want ", schema_.arity()));
  }
  rows_.reserve(rows_.size() + batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    rows_.push_back(batch.RowToTuple(i));
    if (!locator_.empty()) Locate(rows_.size() - 1);
  }
  return Status::Ok();
}

uint32_t Table::RowTag(const Tuple& row) {
  // Fibonacci hashing: the product's high half depends on every hash bit.
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(TupleHash{}(row)) * 0x9e3779b97f4a7c15ULL) >> 32);
}

void Table::BuildLocator() {
  if (!locator_.empty()) return;
  size_t slots = 16;
  while (slots < 2 * rows_.size()) slots *= 2;
  locator_.assign(slots, Slot{});
  for (size_t p = 0; p < rows_.size(); ++p) {
    Place({RowTag(rows_[p]), static_cast<uint32_t>(p)});
  }
}

void Table::Locate(size_t pos) {
  if (2 * rows_.size() > locator_.size()) {
    std::vector<Slot> old = std::move(locator_);
    locator_.assign(2 * old.size(), Slot{});
    for (const Slot& s : old) {
      if (s.pos != kNoRow) Place(s);
    }
  }
  Place({RowTag(rows_[pos]), static_cast<uint32_t>(pos)});
}

void Table::Place(Slot s) {
  const size_t mask = locator_.size() - 1;
  size_t i = s.tag & mask;
  while (locator_[i].pos != kNoRow) i = (i + 1) & mask;
  locator_[i] = s;
}

void Table::Unplace(size_t i) {
  const size_t mask = locator_.size() - 1;
  for (size_t j = (i + 1) & mask; locator_[j].pos != kNoRow;
       j = (j + 1) & mask) {
    // The entry at j may fill the hole unless its home lies in (i, j].
    size_t home = locator_[j].tag & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      locator_[i] = locator_[j];
      i = j;
    }
  }
  locator_[i] = Slot{};
}

Status Table::Erase(const Tuple& row) {
  BuildLocator();
  const size_t mask = locator_.size() - 1;
  const uint32_t tag = RowTag(row);
  size_t i = tag & mask;
  while (locator_[i].pos != kNoRow &&
         (locator_[i].tag != tag ||
          CompareTuples(rows_[locator_[i].pos], row) != 0)) {
    i = (i + 1) & mask;
  }
  if (locator_[i].pos == kNoRow) {
    return Status::NotFound(StrCat("row ", TupleToString(row), " not in ",
                                   schema_.name()));
  }
  // Swap-remove. `row` may alias rows_, so it is not read past this point.
  const uint32_t hole = locator_[i].pos;
  const uint32_t last = static_cast<uint32_t>(rows_.size() - 1);
  Unplace(i);
  if (hole != last) {
    const uint32_t last_tag = RowTag(rows_[last]);
    size_t j = last_tag & mask;
    while (locator_[j].pos != last) j = (j + 1) & mask;
    locator_[j].pos = hole;
    rows_[hole] = std::move(rows_[last]);
  }
  rows_.pop_back();
  return Status::Ok();
}

void Table::Canonicalize() {
  std::sort(rows_.begin(), rows_.end(), TupleLess{});
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
  locator_ = std::vector<Slot>();
}

bool Table::SameSet(const Table& a, const Table& b) {
  Table ca = a, cb = b;
  ca.Canonicalize();
  cb.Canonicalize();
  if (ca.rows_.size() != cb.rows_.size()) return false;
  for (size_t i = 0; i < ca.rows_.size(); ++i) {
    if (CompareTuples(ca.rows_[i], cb.rows_[i]) != 0) return false;
  }
  return true;
}

Table Table::DistinctProject(const std::vector<int>& col_idx) const {
  std::vector<Attribute> attrs;
  attrs.reserve(col_idx.size());
  for (int i : col_idx) attrs.push_back(schema_.attrs()[static_cast<size_t>(i)]);
  Table out(RelationSchema(schema_.name(), std::move(attrs)));
  std::unordered_set<Tuple, TupleHash> seen;
  for (const Tuple& row : rows_) {
    Tuple proj = ProjectTuple(row, col_idx);
    if (seen.insert(proj).second) out.InsertUnchecked(std::move(proj));
  }
  return out;
}

size_t Table::ApproxBytes() const {
  size_t bytes = sizeof(Table) + rows_.capacity() * sizeof(Tuple) +
                 locator_.capacity() * sizeof(Slot);
  for (const Tuple& row : rows_) {
    bytes += row.capacity() * sizeof(Value);
    for (const Value& v : row) {
      if (v.type() == ValueType::kString) bytes += v.AsString().capacity();
    }
  }
  return bytes;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out = schema_.ToString() + " [" + std::to_string(rows_.size()) +
                    " rows]\n";
  size_t shown = 0;
  for (const Tuple& row : rows_) {
    if (shown++ >= max_rows) {
      out += "  ...\n";
      break;
    }
    out += "  " + TupleToString(row) + "\n";
  }
  return out;
}

}  // namespace bqe
