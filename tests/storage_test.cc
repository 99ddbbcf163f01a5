#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace bqe {
namespace {

// ----------------------------------------------------------------- Value ---

TEST(ValueTest, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, IntRoundTrip) {
  Value v = Value::Int(-42);
  EXPECT_EQ(v.type(), ValueType::kInt);
  EXPECT_EQ(v.AsInt(), -42);
  EXPECT_EQ(v.ToString(), "-42");
}

TEST(ValueTest, DoubleRoundTrip) {
  Value v = Value::Double(2.5);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(ValueTest, StringRoundTrip) {
  Value v = Value::Str("hello");
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "'hello'");
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Str("b").Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Double(1.0).Compare(Value::Double(1.5)), 0);
}

TEST(ValueTest, CompareAcrossTypesByTag) {
  // null < int < double < string (variant index order).
  EXPECT_LT(Value().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(99).Compare(Value::Double(0.0)), 0);
  EXPECT_LT(Value::Double(99.0).Compare(Value::Str("")), 0);
}

TEST(ValueTest, EqualityOperators) {
  EXPECT_TRUE(Value::Int(5) == Value::Int(5));
  EXPECT_TRUE(Value::Int(5) != Value::Int(6));
  EXPECT_TRUE(Value::Int(5) != Value::Str("5"));
  EXPECT_TRUE(Value::Int(4) < Value::Int(5));
  EXPECT_TRUE(Value::Int(5) >= Value::Int(5));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  // Different types with "same" payload should (overwhelmingly) differ.
  EXPECT_NE(Value::Int(0).Hash(), Value().Hash());
}

TEST(ValueTest, ParseLiterals) {
  EXPECT_EQ(*Value::Parse("42"), Value::Int(42));
  EXPECT_EQ(*Value::Parse("-17"), Value::Int(-17));
  EXPECT_EQ(*Value::Parse("2.5"), Value::Double(2.5));
  EXPECT_EQ(*Value::Parse("'txt'"), Value::Str("txt"));
  EXPECT_EQ(*Value::Parse("NULL"), Value());
  EXPECT_EQ(*Value::Parse("  7 "), Value::Int(7));
}

TEST(ValueTest, ParseErrors) {
  EXPECT_FALSE(Value::Parse("").ok());
  EXPECT_FALSE(Value::Parse("abc").ok());
  EXPECT_FALSE(Value::Parse("12x").ok());
}

// ----------------------------------------------------------------- Tuple ---

TEST(TupleTest, CompareLexicographic) {
  Tuple a = {Value::Int(1), Value::Int(2)};
  Tuple b = {Value::Int(1), Value::Int(3)};
  EXPECT_LT(CompareTuples(a, b), 0);
  EXPECT_EQ(CompareTuples(a, a), 0);
  EXPECT_GT(CompareTuples(b, a), 0);
}

TEST(TupleTest, ShorterTupleSortsFirstOnPrefix) {
  Tuple a = {Value::Int(1)};
  Tuple b = {Value::Int(1), Value::Int(0)};
  EXPECT_LT(CompareTuples(a, b), 0);
}

TEST(TupleTest, HashEqualForEqualTuples) {
  Tuple a = {Value::Int(1), Value::Str("x")};
  Tuple b = {Value::Int(1), Value::Str("x")};
  EXPECT_EQ(TupleHash{}(a), TupleHash{}(b));
}

TEST(TupleTest, ProjectTupleDuplicatesAllowed) {
  Tuple t = {Value::Int(10), Value::Int(20), Value::Int(30)};
  Tuple p = ProjectTuple(t, {2, 0, 2});
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], Value::Int(30));
  EXPECT_EQ(p[1], Value::Int(10));
  EXPECT_EQ(p[2], Value::Int(30));
}

TEST(TupleTest, ToStringFormat) {
  Tuple t = {Value::Int(1), Value::Str("a")};
  EXPECT_EQ(TupleToString(t), "(1, 'a')");
}

// ---------------------------------------------------------------- Schema ---

TEST(SchemaTest, AttrIndexLookup) {
  RelationSchema s("r", {{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(s.arity(), 2u);
  EXPECT_EQ(s.AttrIndex("a"), 0);
  EXPECT_EQ(s.AttrIndex("b"), 1);
  EXPECT_EQ(s.AttrIndex("c"), -1);
  EXPECT_TRUE(s.HasAttr("a"));
  EXPECT_FALSE(s.HasAttr("z"));
}

TEST(SchemaTest, RequireAttrError) {
  RelationSchema s("r", {{"a", ValueType::kInt}});
  EXPECT_TRUE(s.RequireAttr("a").ok());
  Result<int> r = s.RequireAttr("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, ToStringListsTypes) {
  RelationSchema s("r", {{"a", ValueType::kInt}, {"b", ValueType::kDouble}});
  EXPECT_EQ(s.ToString(), "r(a:int, b:double)");
}

// --------------------------------------------------------------- Catalog ---

TEST(CatalogTest, AddAndGet) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_NE(c.Get("r"), nullptr);
  EXPECT_EQ(c.Get("missing"), nullptr);
  EXPECT_TRUE(c.Has("r"));
  EXPECT_EQ(c.size(), 1u);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("r", {})).ok());
  EXPECT_EQ(c.AddRelation(RelationSchema("r", {})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, EmptyNameRejected) {
  Catalog c;
  EXPECT_EQ(c.AddRelation(RelationSchema("", {})).code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RelationNamesSorted) {
  Catalog c;
  ASSERT_TRUE(c.AddRelation(RelationSchema("zeta", {})).ok());
  ASSERT_TRUE(c.AddRelation(RelationSchema("alpha", {})).ok());
  std::vector<std::string> names = c.RelationNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// ----------------------------------------------------------------- Table ---

Table MakeTable() {
  return Table(RelationSchema(
      "t", {{"a", ValueType::kInt}, {"b", ValueType::kString}}));
}

TEST(TableTest, InsertValidRow) {
  Table t = MakeTable();
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(TableTest, InsertArityMismatch) {
  Table t = MakeTable();
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, InsertTypeMismatch) {
  Table t = MakeTable();
  EXPECT_EQ(t.Insert({Value::Str("no"), Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, NullAllowedForAnyType) {
  Table t = MakeTable();
  EXPECT_TRUE(t.Insert({Value(), Value::Str("x")}).ok());
}

TEST(TableTest, EraseRemovesOneOccurrence) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.Erase({Value::Int(1), Value::Str("x")}).code(),
            StatusCode::kNotFound);
}

TEST(TableTest, CanonicalizeSortsAndDedupes) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("b")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("a")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("b")}).ok());
  t.Canonicalize();
  ASSERT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.rows()[0][0], Value::Int(1));
}

TEST(TableTest, SameSetIgnoresOrderAndDuplicates) {
  Table a = MakeTable(), b = MakeTable();
  ASSERT_TRUE(a.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(a.Insert({Value::Int(2), Value::Str("y")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(2), Value::Str("y")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(b.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_TRUE(Table::SameSet(a, b));
  ASSERT_TRUE(b.Insert({Value::Int(3), Value::Str("z")}).ok());
  EXPECT_FALSE(Table::SameSet(a, b));
}

TEST(TableTest, DistinctProject) {
  Table t = MakeTable();
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Str("y")}).ok());
  ASSERT_TRUE(t.Insert({Value::Int(2), Value::Str("x")}).ok());
  Table p = t.DistinctProject({0});
  EXPECT_EQ(p.NumRows(), 2u);
  EXPECT_EQ(p.schema().arity(), 1u);
}

// ---------------------------------------------------------- Row locator ---

Table MakeMixedTable() {
  return Table(RelationSchema("m", {{"i", ValueType::kInt},
                                    {"d", ValueType::kDouble},
                                    {"s", ValueType::kString}}));
}

// A small domain per column so rows repeat often; NULLs in every column and
// both zeros, which CompareTuples treats as equal.
Tuple RandomMixedRow(Rng* rng) {
  Tuple row(3);
  int64_t i = rng->UniformInt(0, 3);
  if (i > 0) row[0] = Value::Int(i);
  const double doubles[] = {0.0, -0.0, 1.5};
  int64_t d = rng->UniformInt(0, 3);
  if (d > 0) row[1] = Value::Double(doubles[d - 1]);
  const char* strings[] = {"", "x", "yy"};
  int64_t str = rng->UniformInt(0, 3);
  if (str > 0) row[2] = Value::Str(strings[str - 1]);
  return row;
}

// Linear-scan reference: removes the first row equal under CompareTuples.
bool OracleErase(std::vector<Tuple>* rows, const Tuple& row) {
  for (auto it = rows->begin(); it != rows->end(); ++it) {
    if (CompareTuples(*it, row) == 0) {
      rows->erase(it);
      return true;
    }
  }
  return false;
}

// Bag equality under CompareTuples, ignoring order.
void ExpectSameBag(const std::vector<Tuple>& actual,
                   std::vector<Tuple> expected, const std::string& where) {
  std::vector<Tuple> got = actual;
  std::sort(got.begin(), got.end(), TupleLess{});
  std::sort(expected.begin(), expected.end(), TupleLess{});
  ASSERT_EQ(got.size(), expected.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(CompareTuples(got[i], expected[i]), 0)
        << where << ": row " << i << " " << TupleToString(got[i]) << " vs "
        << TupleToString(expected[i]);
  }
}

bool SameRowsInOrder(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareTuples(a[i], b[i]) != 0) return false;
  }
  return true;
}

TEST(TableLocatorTest, RandomOpsMatchLinearScanOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Table t = MakeMixedTable();
    std::vector<Tuple> oracle;
    for (int step = 0; step < 1500; ++step) {
      const std::string where = StrCat("seed ", seed, " step ", step);
      int64_t op = rng.UniformInt(0, 99);
      if (op < 20) {
        Tuple row = RandomMixedRow(&rng);
        oracle.push_back(row);
        ASSERT_TRUE(t.Insert(std::move(row)).ok()) << where;
      } else if (op < 30) {
        Tuple row = RandomMixedRow(&rng);
        oracle.push_back(row);
        t.InsertUnchecked(std::move(row));
      } else if (op < 36) {
        std::vector<Tuple> batch_rows;
        int64_t n = rng.UniformInt(1, 40);
        for (int64_t k = 0; k < n; ++k) {
          batch_rows.push_back(RandomMixedRow(&rng));
        }
        oracle.insert(oracle.end(), batch_rows.begin(), batch_rows.end());
        for (const ColumnBatch& b :
             TuplesToBatches(batch_rows, t.ColumnTypes(), 16)) {
          ASSERT_TRUE(t.AppendBatch(b).ok()) << where;
        }
      } else if (op < 80) {
        // Half the erases name a present row (by value), half a random one.
        Tuple row = (rng.Bernoulli(0.5) && t.NumRows() > 0)
                        ? t.rows()[rng.PickIndex(t.NumRows())]
                        : RandomMixedRow(&rng);
        std::vector<Tuple> before = t.rows();
        bool present = OracleErase(&oracle, row);
        Status st = t.Erase(row);
        if (present) {
          ASSERT_TRUE(st.ok()) << where << ": " << st.ToString();
        } else {
          ASSERT_EQ(st.code(), StatusCode::kNotFound) << where;
          ASSERT_TRUE(SameRowsInOrder(t.rows(), before)) << where;
        }
      } else if (op < 92) {
        // Erase through a reference into rows() itself.
        if (t.NumRows() == 0) continue;
        const Tuple& row = t.rows()[rng.PickIndex(t.NumRows())];
        ASSERT_TRUE(OracleErase(&oracle, row)) << where;
        ASSERT_TRUE(t.Erase(row).ok()) << where;
      } else if (op < 94) {
        t.Canonicalize();
        std::sort(oracle.begin(), oracle.end(), TupleLess{});
        oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());
      } else if (op < 97) {
        Table copy(t);
        ExpectSameBag(copy.rows(), oracle, where + " (copy)");
        t = std::move(copy);
      } else {
        Table moved(std::move(t));
        t = moved;
      }
      ExpectSameBag(t.rows(), oracle, where);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(TableLocatorTest, BothZerosAreOneRowToErase) {
  Table t = MakeMixedTable();
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Double(0.0), Value()}).ok());
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Double(-0.0), Value()}).ok());
  EXPECT_EQ(t.NumRows(), 0u);
  ASSERT_TRUE(t.Insert({Value::Int(1), Value::Double(-0.0), Value()}).ok());
  ASSERT_TRUE(t.Erase({Value::Int(1), Value::Double(0.0), Value()}).ok());
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableLocatorTest, NotFoundLeavesRowsUnchanged) {
  Table t = MakeTable();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i % 7), Value::Str("x")}).ok());
  }
  std::vector<Tuple> before = t.rows();
  // The first Erase builds the locator; neither call may move a row.
  EXPECT_EQ(t.Erase({Value::Int(7), Value::Str("x")}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(t.Erase({Value::Int(1), Value()}).code(), StatusCode::kNotFound);
  EXPECT_TRUE(SameRowsInOrder(t.rows(), before));
}

TEST(TableLocatorTest, EraseThroughReferenceIntoRows) {
  // Rows 2 and 4 are duplicates; erase by reference at the first, a middle,
  // the last and a duplicated position, the locator built or not.
  const std::vector<Tuple> rows = {
      {Value::Int(0), Value::Str("a")}, {Value::Int(1), Value::Str("b")},
      {Value::Int(2), Value::Str("c")}, {Value::Int(3), Value::Str("d")},
      {Value::Int(2), Value::Str("c")}, {Value::Int(5), Value::Str("e")}};
  for (bool prebuilt : {false, true}) {
    for (size_t pos : {size_t{0}, size_t{3}, rows.size() - 1, size_t{2},
                       size_t{4}}) {
      Table t = MakeTable();
      for (const Tuple& r : rows) ASSERT_TRUE(t.Insert(r).ok());
      if (prebuilt) {
        ASSERT_EQ(t.Erase({Value::Int(9), Value::Str("z")}).code(),
                  StatusCode::kNotFound);
      }
      std::vector<Tuple> expected = rows;
      expected.erase(expected.begin() + static_cast<ptrdiff_t>(pos));
      ASSERT_TRUE(t.Erase(t.rows()[pos]).ok()) << pos;
      ExpectSameBag(t.rows(), expected, StrCat("position ", pos));
      // The moved row must still be erasable by value.
      for (const Tuple& r : expected) ASSERT_TRUE(t.Erase(r).ok()) << pos;
      EXPECT_EQ(t.NumRows(), 0u);
    }
  }
}

TEST(TableLocatorTest, ErasesExactlyTheNamedRowsAmongManyDistinct) {
  // Enough random rows that several pairs share the locator's 32 hash bits:
  // each erase must still confirm its row by comparison.
  Rng rng(17);
  Table t(RelationSchema("r", {{"a", ValueType::kInt}}));
  std::vector<Tuple> erased, kept;
  for (int i = 0; i < (1 << 18); ++i) {
    Tuple row = {Value::Int(rng.UniformInt(INT64_MIN, INT64_MAX))};
    t.InsertUnchecked(row);
    (i % 2 == 0 ? erased : kept).push_back(std::move(row));
  }
  for (const Tuple& row : erased) ASSERT_TRUE(t.Erase(row).ok());
  ExpectSameBag(t.rows(), kept, "after erasing half");
}

TEST(TableLocatorTest, ApproxBytesCountsLocatorOnceBuilt) {
  Table t = MakeTable();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Str("x")}).ok());
  }
  size_t before = t.ApproxBytes();
  ASSERT_TRUE(t.Erase({Value::Int(0), Value::Str("x")}).ok());
  EXPECT_GT(t.ApproxBytes(), before);
  t.Canonicalize();
  EXPECT_LT(t.ApproxBytes(), before);
}

// -------------------------------------------------------------- Database ---

TEST(DatabaseTest, CreateInsertLookup) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("r", {Value::Int(1)}).ok());
  ASSERT_NE(db.Get("r"), nullptr);
  EXPECT_EQ(db.Get("r")->NumRows(), 1u);
  EXPECT_EQ(db.Get("missing"), nullptr);
  EXPECT_EQ(db.Insert("missing", {}).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, TotalTuples) {
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationSchema("r", {{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.CreateTable(RelationSchema("s", {{"b", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("r", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Insert("s", {Value::Int(2)}).ok());
  ASSERT_TRUE(db.Insert("s", {Value::Int(3)}).ok());
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.TableSizes()["s"], 2u);
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database db;
  ASSERT_TRUE(db.CreateTable(RelationSchema("r", {})).ok());
  EXPECT_EQ(db.CreateTable(RelationSchema("r", {})).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace bqe
