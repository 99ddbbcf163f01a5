#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraints/index.h"
#include "exec/column_batch.h"
#include "exec/key_codec.h"
#include "exec/operators.h"
#include "storage/table.h"

namespace bqe {
namespace {

Tuple Row(std::initializer_list<Value> vs) { return Tuple(vs); }

BatchVec MakeBatches(const std::vector<Tuple>& rows,
                     const std::vector<ValueType>& types, size_t batch_size) {
  return TuplesToBatches(rows, types, batch_size);
}

TEST(ColumnBatchTest, RoundTripsTuplesAcrossBatchBoundaries) {
  std::vector<ValueType> types = {ValueType::kInt, ValueType::kString,
                                  ValueType::kDouble};
  std::vector<Tuple> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back(Row({Value::Int(i), Value::Str("s" + std::to_string(i % 3)),
                        Value::Double(i * 0.5)}));
  }
  rows.push_back(Row({Value::Null(), Value::Null(), Value::Null()}));

  BatchVec batches = MakeBatches(rows, types, 4);
  EXPECT_EQ(batches.size(), 3u);  // 4 + 4 + 3 rows.
  EXPECT_EQ(TotalRows(batches), rows.size());
  std::vector<Tuple> back = BatchesToTuples(batches);
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(back[i], rows[i]);
}

TEST(ColumnBatchTest, StringDictInternsOnce) {
  StringDict dict;
  int32_t a = dict.Intern("hello");
  int32_t b = dict.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("hello"), a);
  EXPECT_EQ(dict.At(a), "hello");
  EXPECT_EQ(dict.At(b), "world");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(ColumnBatchTest, NullTrackingSurvivesBulkGathers) {
  std::vector<ValueType> types = {ValueType::kInt};
  ColumnBatch src(types);
  src.AppendTuple(Row({Value::Int(1)}));
  src.AppendTuple(Row({Value::Null()}));
  src.AppendTuple(Row({Value::Int(3)}));
  EXPECT_FALSE(src.col(0).NoNulls());

  // Index gather keeps validity and the null count.
  ColumnBatch dst(types);
  std::vector<uint32_t> sel = {0, 1, 2, 1};
  dst.GatherRowsFrom(src, sel.data(), sel.size(), {});
  EXPECT_FALSE(dst.col(0).NoNulls());
  EXPECT_EQ(dst.RowToTuple(1)[0], Value::Null());
  EXPECT_EQ(dst.RowToTuple(3)[0], Value::Null());
  EXPECT_EQ(dst.RowToTuple(2)[0], Value::Int(3));

  // Range gather of the all-valid prefix is recognized as null-free only
  // when the *source column* is null-free; here it is not, so validity is
  // still copied row-by-row and stays exact.
  ColumnBatch range(types);
  range.GatherRangeFrom(src, 0, 1);
  EXPECT_TRUE(range.col(0).NoNulls());
  EXPECT_EQ(range.RowToTuple(0)[0], Value::Int(1));

  // All-valid source takes the bit-blit path.
  ColumnBatch clean(types);
  clean.AppendTuple(Row({Value::Int(7)}));
  clean.AppendTuple(Row({Value::Int(8)}));
  ColumnBatch out(types);
  out.GatherRangeFrom(clean, 0, 2);
  EXPECT_TRUE(out.col(0).NoNulls());
  EXPECT_EQ(out.RowToTuple(1)[0], Value::Int(8));
}

TEST(ColumnBatchTest, OffTypeCellsSurviveGathers) {
  // A cell whose runtime type differs from the declared column type must
  // keep its runtime type through the generic gather path (same contract as
  // AppendValue), not be silently coerced to the declared type.
  std::vector<ValueType> types = {ValueType::kString};
  ColumnBatch src(types);
  src.AppendTuple(Row({Value::Str("s")}));
  src.AppendTuple(Row({Value::Int(5)}));  // Off-type: int in a string column.
  ASSERT_TRUE(src.col(0).has_off_type());

  ColumnBatch dst(types);
  std::vector<uint32_t> sel = {1, 0};
  dst.GatherRowsFrom(src, sel.data(), sel.size(), {});
  EXPECT_EQ(dst.RowToTuple(0)[0], Value::Int(5));
  EXPECT_EQ(dst.RowToTuple(1)[0], Value::Str("s"));

  ColumnBatch range(types);
  range.GatherRangeFrom(src, 0, 2);
  EXPECT_EQ(range.RowToTuple(0)[0], Value::Str("s"));
  EXPECT_EQ(range.RowToTuple(1)[0], Value::Int(5));
}

TEST(ColumnBatchTest, RowConcatAndRowFromShims) {
  std::vector<ValueType> lt = {ValueType::kInt};
  std::vector<ValueType> rt = {ValueType::kString};
  ColumnBatch l(lt), r(rt);
  l.AppendTuple(Row({Value::Int(1)}));
  r.AppendTuple(Row({Value::Str("x")}));

  ColumnBatch joined(std::vector<ValueType>{ValueType::kInt,
                                            ValueType::kString});
  joined.AppendRowConcat(l, 0, r, 0);
  EXPECT_EQ(joined.RowToTuple(0), Row({Value::Int(1), Value::Str("x")}));

  ColumnBatch projected(rt);
  projected.AppendRowFrom(joined, 0, {1});
  EXPECT_EQ(projected.RowToTuple(0), Row({Value::Str("x")}));
}

TEST(TableBatchShimTest, ScanAndAppendRoundTrip) {
  RelationSchema schema("t", {Attribute{"a", ValueType::kInt},
                              Attribute{"b", ValueType::kString}});
  Table t(schema);
  for (int i = 0; i < 5; ++i) {
    t.InsertUnchecked(Row({Value::Int(i), Value::Str("v" + std::to_string(i))}));
  }

  BatchVec batches = t.ScanBatches(/*batch_size=*/2);
  EXPECT_EQ(batches.size(), 3u);
  EXPECT_EQ(TotalRows(batches), 5u);

  Table back(schema);
  for (const ColumnBatch& b : batches) {
    ASSERT_TRUE(back.AppendBatch(b).ok());
  }
  EXPECT_TRUE(Table::SameSet(t, back));

  // Arity mismatch is rejected.
  ColumnBatch wrong(std::vector<ValueType>{ValueType::kInt});
  wrong.AppendTuple(Row({Value::Int(1)}));
  EXPECT_FALSE(back.AppendBatch(wrong).ok());
}

TEST(AccessIndexBatchTest, FetchIntoMatchesFetch) {
  RelationSchema schema("rel", {Attribute{"x", ValueType::kInt},
                                Attribute{"y", ValueType::kString}});
  Table t(schema);
  t.InsertUnchecked(Row({Value::Int(1), Value::Str("a")}));
  t.InsertUnchecked(Row({Value::Int(1), Value::Str("b")}));
  t.InsertUnchecked(Row({Value::Int(2), Value::Str("c")}));

  Result<AccessConstraint> c = AccessConstraint::Parse("rel((x) -> (y), 10)");
  ASSERT_TRUE(c.ok());
  Result<AccessIndex> idx = AccessIndex::Build(t, *c);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();

  Tuple key = Row({Value::Int(1)});
  uint64_t accessed = 0;
  std::vector<Tuple> via_tuples = idx->Fetch(key, &accessed);
  ASSERT_EQ(via_tuples.size(), 2u);
  EXPECT_EQ(accessed, 2u);

  ColumnBatch out(idx->output_types());
  uint64_t batch_accessed = 0;
  EXPECT_EQ(idx->FetchInto(key, &out, &batch_accessed), 2u);
  EXPECT_EQ(batch_accessed, 2u);
  EXPECT_EQ(BatchesToTuples({out}), via_tuples);

  EXPECT_EQ(idx->FetchInto(Row({Value::Int(99)}), &out, nullptr), 0u);
}

TEST(KeyCodecTest, EncodingIsInjectiveAcrossColumnBoundaries) {
  // ("ab", "c") and ("a", "bc") must encode differently — the length prefix
  // makes multi-column keys collision-free.
  std::vector<ValueType> types = {ValueType::kString, ValueType::kString};
  ColumnBatch b(types);
  b.AppendTuple(Row({Value::Str("ab"), Value::Str("c")}));
  b.AppendTuple(Row({Value::Str("a"), Value::Str("bc")}));
  KeyEncoder enc;
  enc.Encode(b, {});
  EXPECT_NE(enc.Key(0), enc.Key(1));
}

TEST(KeyCodecTest, EncodingMatchesValueEquality) {
  std::vector<ValueType> types = {ValueType::kDouble};
  ColumnBatch b(types);
  b.AppendTuple(Row({Value::Double(0.0)}));
  b.AppendTuple(Row({Value::Double(-0.0)}));
  b.AppendTuple(Row({Value::Double(1.5)}));
  KeyEncoder enc;
  enc.Encode(b, {});
  // -0.0 == 0.0 under Value comparison, so the encodings must collide.
  EXPECT_EQ(enc.Key(0), enc.Key(1));
  EXPECT_NE(enc.Key(0), enc.Key(2));
}

TEST(KeyCodecTest, BatchEncoderAgreesWithPerRowEncoder) {
  std::vector<ValueType> types = {ValueType::kInt, ValueType::kString};
  ColumnBatch b(types);
  b.AppendTuple(Row({Value::Int(42), Value::Str("x")}));
  b.AppendTuple(Row({Value::Null(), Value::Str("")}));
  b.AppendTuple(Row({Value::Int(-1), Value::Null()}));
  KeyEncoder enc;
  enc.Encode(b, {});
  for (size_t i = 0; i < b.num_rows(); ++i) {
    std::string expect;
    AppendEncodedKey(b, i, {}, &expect);
    EXPECT_EQ(enc.Key(i), expect) << "row " << i;
    std::string via_tuple;
    AppendEncodedTuple(b.RowToTuple(i), &via_tuple);
    EXPECT_EQ(enc.Key(i), via_tuple) << "row " << i;
  }
}

TEST(KeyTableTest, AssignsDenseGroupsInInsertionOrder) {
  KeyTable t;
  bool inserted = false;
  EXPECT_EQ(t.InsertOrFind("a", &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.InsertOrFind("b", &inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.InsertOrFind("a", &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(t.Find("b"), 1u);
  EXPECT_EQ(t.Find("zzz"), KeyTable::kNoGroup);
  EXPECT_EQ(t.NumGroups(), 2u);
}

TEST(KeyTableTest, ResetKeepsSlotCapacityAndClearsGroups) {
  KeyTable t(4);
  for (int i = 0; i < 300; ++i) {
    t.InsertOrFind("k" + std::to_string(i), nullptr);
  }
  EXPECT_EQ(t.NumGroups(), 300u);
  t.Reset(8);
  EXPECT_EQ(t.NumGroups(), 0u);
  EXPECT_EQ(t.Find("k5"), KeyTable::kNoGroup);
  // Reusable: fresh inserts get dense ids again.
  bool inserted = false;
  EXPECT_EQ(t.InsertOrFind("again", &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(t.InsertOrFind("again", &inserted), 0u);
  EXPECT_FALSE(inserted);
}

TEST(OperatorsTest, ProductEmitsLeftOuterLoopOrder) {
  std::vector<ValueType> lt = {ValueType::kInt}, rt = {ValueType::kString};
  BatchVec left = MakeBatches({Row({Value::Int(1)}), Row({Value::Int(2)}),
                               Row({Value::Int(3)})},
                              lt, 2);
  BatchVec right =
      MakeBatches({Row({Value::Str("a")}), Row({Value::Str("b")})}, rt, 1);
  std::vector<ValueType> out_types = {ValueType::kInt, ValueType::kString};
  // batch_size 4 forces output-batch splits mid-left-row stream.
  BatchVec out = ProductOp(left, right, out_types, 4);
  std::vector<Tuple> rows = BatchesToTuples(out);
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0], Row({Value::Int(1), Value::Str("a")}));
  EXPECT_EQ(rows[1], Row({Value::Int(1), Value::Str("b")}));
  EXPECT_EQ(rows[4], Row({Value::Int(3), Value::Str("a")}));
  EXPECT_EQ(rows[5], Row({Value::Int(3), Value::Str("b")}));
  for (const ColumnBatch& b : out) EXPECT_LE(b.num_rows(), 4u);
}

TEST(OperatorsTest, HashJoinMatchesOnEncodedKeys) {
  std::vector<ValueType> lt = {ValueType::kInt, ValueType::kString};
  std::vector<ValueType> rt = {ValueType::kInt, ValueType::kDouble};
  BatchVec left = MakeBatches({Row({Value::Int(1), Value::Str("a")}),
                               Row({Value::Int(2), Value::Str("b")}),
                               Row({Value::Int(3), Value::Str("c")})},
                              lt, 2);
  BatchVec right = MakeBatches({Row({Value::Int(2), Value::Double(2.5)}),
                                Row({Value::Int(1), Value::Double(1.5)}),
                                Row({Value::Int(2), Value::Double(9.5)})},
                               rt, 2);
  std::vector<ValueType> out_types = {ValueType::kInt, ValueType::kString,
                                      ValueType::kInt, ValueType::kDouble};
  BatchVec out = HashJoinOp(left, right, {{0, 0}}, out_types, 1024);
  std::vector<Tuple> rows = BatchesToTuples(out);
  ASSERT_EQ(rows.size(), 3u);
  // Probe order (left), then build-insertion order within a key group.
  EXPECT_EQ(rows[0], Row({Value::Int(1), Value::Str("a"), Value::Int(1),
                          Value::Double(1.5)}));
  EXPECT_EQ(rows[1], Row({Value::Int(2), Value::Str("b"), Value::Int(2),
                          Value::Double(2.5)}));
  EXPECT_EQ(rows[2], Row({Value::Int(2), Value::Str("b"), Value::Int(2),
                          Value::Double(9.5)}));
}

TEST(OperatorsTest, HashJoinWithNoKeysIsCrossJoin) {
  // join[] (empty key list) must behave like the row path: every pair
  // matches. It must NOT hit the encoder, whose empty-cols convention means
  // "all columns" (that would join on full-row equality — regression caught
  // by examples/airline_delay.cpp).
  std::vector<ValueType> t = {ValueType::kInt};
  BatchVec left =
      MakeBatches({Row({Value::Int(1)}), Row({Value::Int(2)})}, t, 2);
  BatchVec right =
      MakeBatches({Row({Value::Int(2)}), Row({Value::Int(9)})}, t, 2);
  std::vector<ValueType> out_types = {ValueType::kInt, ValueType::kInt};
  std::vector<Tuple> rows =
      BatchesToTuples(HashJoinOp(left, right, {}, out_types, 1024));
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], Row({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(rows[3], Row({Value::Int(2), Value::Int(9)}));
}

TEST(OperatorsTest, ZeroColumnProjection) {
  std::vector<ValueType> t = {ValueType::kInt};
  BatchVec in =
      MakeBatches({Row({Value::Int(1)}), Row({Value::Int(2)})}, t, 2);
  std::vector<Tuple> plain =
      BatchesToTuples(ProjectOp(in, {}, /*dedupe=*/false, {}, 1024));
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_TRUE(plain[0].empty());
  std::vector<Tuple> deduped =
      BatchesToTuples(ProjectOp(in, {}, /*dedupe=*/true, {}, 1024));
  ASSERT_EQ(deduped.size(), 1u);
  EXPECT_TRUE(deduped[0].empty());
}

TEST(OperatorsTest, UnionAndDiffAreSets) {
  std::vector<ValueType> t = {ValueType::kInt};
  BatchVec a = MakeBatches(
      {Row({Value::Int(1)}), Row({Value::Int(2)}), Row({Value::Int(2)})}, t, 2);
  BatchVec b =
      MakeBatches({Row({Value::Int(2)}), Row({Value::Int(3)})}, t, 2);
  std::vector<Tuple> u = BatchesToTuples(UnionOp(a, b, t, 1024));
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u[0], Row({Value::Int(1)}));
  EXPECT_EQ(u[1], Row({Value::Int(2)}));
  EXPECT_EQ(u[2], Row({Value::Int(3)}));

  std::vector<Tuple> d = BatchesToTuples(DiffOp(a, b, t, 1024));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], Row({Value::Int(1)}));
}

TEST(OperatorsTest, ProjectDedupeKeepsFirstOccurrence) {
  std::vector<ValueType> t = {ValueType::kInt, ValueType::kString};
  BatchVec in = MakeBatches({Row({Value::Int(1), Value::Str("x")}),
                             Row({Value::Int(2), Value::Str("x")}),
                             Row({Value::Int(1), Value::Str("y")})},
                            t, 2);
  std::vector<ValueType> out_t = {ValueType::kString};
  std::vector<Tuple> rows =
      BatchesToTuples(ProjectOp(in, {1}, /*dedupe=*/true, out_t, 1024));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], Row({Value::Str("x")}));
  EXPECT_EQ(rows[1], Row({Value::Str("y")}));
}

}  // namespace
}  // namespace bqe
