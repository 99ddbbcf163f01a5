#include "exec/key_codec.h"

#include <algorithm>
#include <cstring>

namespace bqe {

namespace {

inline void AppendRaw(const void* data, size_t n, std::string* out) {
  out->append(static_cast<const char*>(data), n);
}

}  // namespace

void AppendEncodedCell(const Column& col, const StringDict& dict, size_t row,
                       std::string* out) {
  ValueType tag = col.TagAt(row);
  out->push_back(static_cast<char>(tag));
  switch (tag) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      uint64_t w = col.WordAt(row);
      AppendRaw(&w, 8, out);
      break;
    }
    case ValueType::kDouble: {
      // Collapse -0.0 onto +0.0: Value::Compare treats them as equal, so
      // their encodings must be byte-equal too.
      double d = col.DoubleAt(row) + 0.0;
      AppendRaw(&d, 8, out);
      break;
    }
    case ValueType::kString: {
      std::string_view s = dict.At(col.StrIdAt(row));
      uint32_t len = static_cast<uint32_t>(s.size());
      AppendRaw(&len, 4, out);
      AppendRaw(s.data(), s.size(), out);
      break;
    }
  }
}

void AppendEncodedValue(const Value& v, std::string* out) {
  ValueType tag = v.type();
  out->push_back(static_cast<char>(tag));
  switch (tag) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      int64_t i = v.AsInt();
      AppendRaw(&i, 8, out);
      break;
    }
    case ValueType::kDouble: {
      double d = v.AsDouble() + 0.0;  // Collapse -0.0 onto +0.0.
      AppendRaw(&d, 8, out);
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.AsString();
      uint32_t len = static_cast<uint32_t>(s.size());
      AppendRaw(&len, 4, out);
      AppendRaw(s.data(), s.size(), out);
      break;
    }
  }
}

void AppendEncodedTuple(const Tuple& t, std::string* out) {
  for (const Value& v : t) AppendEncodedValue(v, out);
}

void AppendEncodedKey(const ColumnBatch& batch, size_t row,
                      const std::vector<int>& cols, std::string* out) {
  if (cols.empty()) {
    for (size_t c = 0; c < batch.num_cols(); ++c) {
      AppendEncodedCell(batch.col(c), batch.dict(), row, out);
    }
  } else {
    for (int c : cols) {
      AppendEncodedCell(batch.col(static_cast<size_t>(c)), batch.dict(), row,
                        out);
    }
  }
}

void KeyEncoder::SizeColumn(const Column& col, const StringDict& dict,
                            size_t n) {
  // Branch-free paths when no cell is null or off-type (the common case).
  bool clean = !col.has_off_type() && col.NoNulls();
  switch (col.has_off_type() ? ValueType::kNull : col.type()) {
    case ValueType::kInt:
    case ValueType::kDouble:
      if (clean) {
        for (size_t i = 0; i < n; ++i) offsets_[i + 1] += 9;
        break;
      }
      for (size_t i = 0; i < n; ++i) {
        offsets_[i + 1] += col.TagAt(i) == ValueType::kNull ? 1 : 9;
      }
      break;
    case ValueType::kString:
      if (clean) {
        for (size_t i = 0; i < n; ++i) {
          offsets_[i + 1] +=
              5 + static_cast<uint32_t>(dict.At(col.StrIdAt(i)).size());
        }
        break;
      }
      for (size_t i = 0; i < n; ++i) {
        ValueType t = col.TagAt(i);
        if (t == ValueType::kString) {
          offsets_[i + 1] +=
              5 + static_cast<uint32_t>(dict.At(col.StrIdAt(i)).size());
        } else if (t == ValueType::kNull) {
          offsets_[i + 1] += 1;
        } else {
          offsets_[i + 1] += 9;  // Off-type int/double cell.
        }
      }
      break;
    case ValueType::kNull:
      // Untyped column: every cell may still carry an off-type tag.
      for (size_t i = 0; i < n; ++i) {
        switch (col.TagAt(i)) {
          case ValueType::kNull:
            offsets_[i + 1] += 1;
            break;
          case ValueType::kString:
            offsets_[i + 1] +=
                5 + static_cast<uint32_t>(dict.At(col.StrIdAt(i)).size());
            break;
          default:
            offsets_[i + 1] += 9;
        }
      }
      break;
  }
}

void KeyEncoder::FillColumn(const Column& col, const StringDict& dict,
                            size_t n) {
  char* base = arena_.data();
  // Branch-free fixed-width fill when no cell is null or off-type.
  if (!col.has_off_type() && col.NoNulls()) {
    switch (col.type()) {
      case ValueType::kInt: {
        char tag = static_cast<char>(ValueType::kInt);
        for (size_t i = 0; i < n; ++i) {
          char* p = base + pos_[i];
          *p = tag;
          uint64_t w = col.WordAt(i);
          std::memcpy(p + 1, &w, 8);
          pos_[i] += 9;
        }
        return;
      }
      case ValueType::kDouble: {
        char tag = static_cast<char>(ValueType::kDouble);
        for (size_t i = 0; i < n; ++i) {
          char* p = base + pos_[i];
          *p = tag;
          double d = col.DoubleAt(i) + 0.0;  // Collapse -0.0 onto +0.0.
          std::memcpy(p + 1, &d, 8);
          pos_[i] += 9;
        }
        return;
      }
      case ValueType::kString: {
        char tag = static_cast<char>(ValueType::kString);
        for (size_t i = 0; i < n; ++i) {
          char* p = base + pos_[i];
          *p++ = tag;
          std::string_view s = dict.At(col.StrIdAt(i));
          uint32_t len = static_cast<uint32_t>(s.size());
          std::memcpy(p, &len, 4);
          std::memcpy(p + 4, s.data(), s.size());
          pos_[i] += static_cast<uint32_t>(5 + s.size());
        }
        return;
      }
      case ValueType::kNull:
        break;  // Untyped column: fall through to the generic path.
    }
  }
  for (size_t i = 0; i < n; ++i) {
    char* p = base + pos_[i];
    ValueType tag = col.TagAt(i);
    *p++ = static_cast<char>(tag);
    switch (tag) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        uint64_t w = col.WordAt(i);
        std::memcpy(p, &w, 8);
        p += 8;
        break;
      }
      case ValueType::kDouble: {
        double d = col.DoubleAt(i) + 0.0;  // Collapse -0.0 onto +0.0.
        std::memcpy(p, &d, 8);
        p += 8;
        break;
      }
      case ValueType::kString: {
        std::string_view s = dict.At(col.StrIdAt(i));
        uint32_t len = static_cast<uint32_t>(s.size());
        std::memcpy(p, &len, 4);
        p += 4;
        std::memcpy(p, s.data(), s.size());
        p += s.size();
        break;
      }
    }
    pos_[i] = static_cast<uint32_t>(p - base);
  }
}

void KeyEncoder::Encode(const ColumnBatch& batch, const std::vector<int>& cols) {
  size_t n = batch.num_rows();
  offsets_.assign(n + 1, 0);
  auto each_col = [&](auto&& fn) {
    if (cols.empty()) {
      for (size_t c = 0; c < batch.num_cols(); ++c) fn(batch.col(c));
    } else {
      for (int c : cols) fn(batch.col(static_cast<size_t>(c)));
    }
  };
  each_col([&](const Column& c) { SizeColumn(c, batch.dict(), n); });
  for (size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  arena_.resize(offsets_[n]);
  pos_.assign(offsets_.begin(), offsets_.end() - 1);
  each_col([&](const Column& c) { FillColumn(c, batch.dict(), n); });
}

KeyTable::KeyTable(size_t expected_keys) : expected_(expected_keys) {}

void KeyTable::Reset(size_t expected_keys) {
  expected_ = expected_keys;
  spans_.clear();
  arena_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
}

uint32_t KeyTable::InsertOrFind(std::string_view key, bool* inserted) {
  uint64_t h = HashBytes(key);
  // Slots are allocated lazily so never-used tables (and empty operator
  // inputs) cost nothing.
  if ((spans_.size() + 1) * 2 > slots_.size()) Grow();
  size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (true) {
    Slot& s = slots_[i];
    if (s.group == kNoGroup) {
      uint32_t group = static_cast<uint32_t>(spans_.size());
      spans_.emplace_back(static_cast<uint32_t>(arena_.size()),
                          static_cast<uint32_t>(key.size()));
      arena_.append(key);
      s.hash = h;
      s.group = group;
      if (inserted != nullptr) *inserted = true;
      return group;
    }
    if (s.hash == h && KeyOf(s.group) == key) {
      if (inserted != nullptr) *inserted = false;
      return s.group;
    }
    i = (i + 1) & mask;
  }
}

uint32_t KeyTable::Find(std::string_view key) const {
  if (slots_.empty()) return kNoGroup;
  uint64_t h = HashBytes(key);
  size_t mask = slots_.size() - 1;
  size_t i = h & mask;
  while (true) {
    const Slot& s = slots_[i];
    if (s.group == kNoGroup) return kNoGroup;
    if (s.hash == h && KeyOf(s.group) == key) return s.group;
    i = (i + 1) & mask;
  }
}

void KeyTable::Grow() {
  size_t cap = 16;
  while (cap < expected_ * 2) cap <<= 1;
  std::vector<Slot> old = std::move(slots_);
  if (old.size() * 2 > cap) cap = old.size() * 2;
  slots_.assign(cap, Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.group == kNoGroup) continue;
    size_t i = s.hash & mask;
    while (slots_[i].group != kNoGroup) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace bqe
