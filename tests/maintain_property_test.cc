#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "constraints/maintain.h"
#include "constraints/validate.h"
#include "core/engine.h"
#include "workload/datasets.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

/// Property: after any sequence of random inserts/deletes maintained
/// incrementally (Proposition 12), the indices are indistinguishable from
/// indices rebuilt from scratch, and engine answers match the baseline.
class MaintainPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaintainPropertyTest, IncrementalEqualsRebuild) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 5);
  Result<GeneratedDataset> ds_r = MakeAirca(0.01, 300 + GetParam());
  ASSERT_TRUE(ds_r.ok());
  GeneratedDataset ds = std::move(*ds_r);

  Result<IndexSet> built = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(built.ok());
  IndexSet incremental = std::move(*built);

  // Random deltas: inserts of fresh flight rows and deletes of existing
  // ones (keeping the airline-per-airport discipline loose is fine: the
  // kGrow policy absorbs overflows).
  std::vector<Delta> deltas;
  const Table* ontime = ds.db.Get("ontime");
  for (int i = 0; i < 60; ++i) {
    if (rng.Bernoulli(0.5) && ontime->NumRows() > 0) {
      const Tuple& victim = ontime->rows()[rng.PickIndex(ontime->NumRows())];
      deltas.push_back(Delta::Delete("ontime", victim));
      // Apply immediately so later picks see current state.
      Result<MaintenanceStats> st =
          ApplyDeltas(&ds.db, &ds.schema, &incremental, {deltas.back()},
                      OverflowPolicy::kGrow);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    } else {
      Tuple row = {Value::Int(1000000 + i),
                   Value::Int(rng.UniformInt(0, 29)),
                   Value::Int(rng.UniformInt(0, 219)),
                   Value::Int(rng.UniformInt(0, 219)),
                   Value::Int(rng.UniformInt(0, 365)),
                   Value::Int(rng.UniformInt(-10, 180)),
                   Value::Int(rng.UniformInt(-10, 200)),
                   Value::Int(rng.UniformInt(0, 1))};
      deltas.push_back(Delta::Insert("ontime", std::move(row)));
      Result<MaintenanceStats> st =
          ApplyDeltas(&ds.db, &ds.schema, &incremental, {deltas.back()},
                      OverflowPolicy::kGrow);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
  }

  // The grown schema must hold on the final database...
  Result<ValidationReport> report = Validate(ds.db, ds.schema);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->satisfied) << report->ToString();

  // ...and the incrementally maintained indices must match a rebuild.
  Result<IndexSet> rebuilt = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(incremental.size(), rebuilt->size());
  for (size_t cid = 0; cid < incremental.size(); ++cid) {
    const AccessIndex* a = incremental.Get(static_cast<int>(cid));
    const AccessIndex* b = rebuilt->Get(static_cast<int>(cid));
    EXPECT_EQ(a->NumEntries(), b->NumEntries()) << "constraint " << cid;
    EXPECT_EQ(a->NumKeys(), b->NumKeys()) << "constraint " << cid;
    EXPECT_EQ(a->MaxGroupSize(), b->MaxGroupSize()) << "constraint " << cid;
  }

  // Spot-check fetch equality on sampled keys from the data.
  const AccessConstraint& c0 = ds.schema.at(0);  // ontime(origin -> ...).
  for (int i = 0; i < 10; ++i) {
    Tuple key = {Value::Int(rng.UniformInt(0, 219))};
    std::vector<Tuple> fa = incremental.Get(0)->Fetch(key);
    std::vector<Tuple> fb = rebuilt->Get(0)->Fetch(key);
    ASSERT_EQ(fa.size(), fb.size()) << c0.ToString();
    for (size_t k = 0; k < fa.size(); ++k) {
      EXPECT_EQ(CompareTuples(fa[k], fb[k]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintainPropertyTest, ::testing::Range(0, 6));

/// Delete/re-insert churn of duplicated rows: base-table deletes must remove
/// exactly one occurrence each, whether the pair sits in one batch or spans
/// two, and the indices must keep their refcounts through it.
TEST(MaintainChurnTest, DuplicateRowChurnMatchesRebuildAndReplay) {
  Rng rng(2024);
  Result<GeneratedDataset> ds_r = MakeAirca(0.01, 77);
  ASSERT_TRUE(ds_r.ok());
  GeneratedDataset ds = std::move(*ds_r);
  Result<IndexSet> built = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(built.ok());
  IndexSet incremental = std::move(*built);

  const Table* ontime = ds.db.Get("ontime");
  ASSERT_GT(ontime->NumRows(), 20u);
  std::vector<Tuple> oracle = ontime->rows();
  auto apply = [&](const std::vector<Delta>& batch) {
    for (const Delta& d : batch) {
      if (d.kind == Delta::Kind::kInsert) {
        oracle.push_back(d.row);
        continue;
      }
      auto it = std::find_if(oracle.begin(), oracle.end(), [&](const Tuple& r) {
        return CompareTuples(r, d.row) == 0;
      });
      ASSERT_NE(it, oracle.end()) << TupleToString(d.row);
      oracle.erase(it);
    }
    Result<MaintenanceStats> st = ApplyDeltas(&ds.db, &ds.schema, &incremental,
                                              batch, OverflowPolicy::kGrow);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
  };

  // Twenty hot rows, each present two to four times.
  std::vector<Tuple> hot;
  std::vector<Delta> dup_batch;
  for (int i = 0; i < 20; ++i) {
    hot.push_back(ontime->rows()[rng.PickIndex(ontime->NumRows())]);
    for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) {
      dup_batch.push_back(Delta::Insert("ontime", hot.back()));
    }
  }
  apply(dup_batch);
  ASSERT_FALSE(HasFatalFailure());

  for (int round = 0; round < 200; ++round) {
    const Tuple& row = hot[rng.PickIndex(hot.size())];
    if (rng.Bernoulli(0.5)) {
      // Delete and re-insert the same row, several times, in one batch.
      std::vector<Delta> batch;
      for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) {
        batch.push_back(Delta::Delete("ontime", row));
        batch.push_back(Delta::Insert("ontime", row));
      }
      apply(batch);
    } else {
      // The delete and the re-insert in consecutive batches.
      apply({Delta::Delete("ontime", row)});
      ASSERT_FALSE(HasFatalFailure());
      apply({Delta::Insert("ontime", row)});
    }
    ASSERT_FALSE(HasFatalFailure()) << "round " << round;
  }

  std::vector<Tuple> got = ontime->rows();
  std::sort(got.begin(), got.end(), TupleLess{});
  std::sort(oracle.begin(), oracle.end(), TupleLess{});
  ASSERT_EQ(got.size(), oracle.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(CompareTuples(got[i], oracle[i]), 0) << "row " << i;
  }

  Result<IndexSet> rebuilt = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(incremental.size(), rebuilt->size());
  for (size_t cid = 0; cid < incremental.size(); ++cid) {
    const AccessIndex* a = incremental.Get(static_cast<int>(cid));
    const AccessIndex* b = rebuilt->Get(static_cast<int>(cid));
    EXPECT_EQ(a->NumEntries(), b->NumEntries()) << "constraint " << cid;
    EXPECT_EQ(a->NumKeys(), b->NumKeys()) << "constraint " << cid;
    EXPECT_EQ(a->MaxGroupSize(), b->MaxGroupSize()) << "constraint " << cid;
    if (ds.schema.at(static_cast<int>(cid)).rel != "ontime") continue;
    for (const Tuple& row : hot) {
      Tuple key = a->FetchKeyOf(row);
      std::vector<Tuple> fa = a->Fetch(key);
      std::vector<Tuple> fb = b->Fetch(key);
      std::sort(fa.begin(), fa.end(), TupleLess{});
      std::sort(fb.begin(), fb.end(), TupleLess{});
      ASSERT_EQ(fa.size(), fb.size()) << "constraint " << cid;
      for (size_t k = 0; k < fa.size(); ++k) {
        EXPECT_EQ(CompareTuples(fa[k], fb[k]), 0) << "constraint " << cid;
      }
    }
  }

  // Refcounts: deleting every remaining occurrence of the hot rows must
  // leave the same indices as a rebuild without them.
  std::vector<Delta> drain;
  for (const Tuple& r : got) {
    for (const Tuple& h : hot) {
      if (CompareTuples(r, h) == 0) {
        drain.push_back(Delta::Delete("ontime", r));
        break;
      }
    }
  }
  apply(drain);
  ASSERT_FALSE(HasFatalFailure());
  Result<IndexSet> drained = IndexSet::Build(ds.db, ds.schema);
  ASSERT_TRUE(drained.ok());
  for (size_t cid = 0; cid < incremental.size(); ++cid) {
    EXPECT_EQ(incremental.Get(static_cast<int>(cid))->NumEntries(),
              drained->Get(static_cast<int>(cid))->NumEntries())
        << "constraint " << cid;
  }
}

}  // namespace
}  // namespace bqe
