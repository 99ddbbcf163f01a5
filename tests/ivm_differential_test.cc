#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baseline/eval.h"
#include "cluster/sharded_engine.h"
#include "common/rw_gate.h"
#include "constraints/index.h"
#include "core/engine.h"
#include "exec/ivm.h"
#include "ra/normalize.h"
#include "serve/query_service.h"
#include "workload/datasets.h"
#include "workload/graph_churn.h"
#include "workload/querygen.h"

namespace bqe {
namespace {

/// Differential testing of incremental view maintenance: a maintained
/// result — patched through PlanMaintenance::Refresh() across applied
/// delta batches — must equal a from-scratch re-execution of the same
/// compiled plan as an exact bag, for every case of the same generated
/// 48-query corpus the vectorized executor is differentially tested on
/// (vec_differential_test.cc), under batches that *delete* existing base
/// rows and then re-insert them (so bounds never grow and every delta
/// shape, including minus deltas through fetch/join/dedupe/difference,
/// is exercised). Where a plan is legitimately not maintainable for a
/// batch (deletions reaching a difference subtrahend), Refresh() must say
/// so — never return a wrong table — and a rebuilt handle must resume
/// maintaining the recomputed result.

using workload::FriendsMayNotJuneCafesQuery;
using workload::FriendsNycCafesQuery;
using workload::GraphChurnBatch;
using workload::GraphChurnConfig;
using workload::GraphChurnFixture;
using workload::GraphChurnJuneBatch;
using workload::GraphChurnMixedBatch;
using workload::MakeGraphChurnFixture;

EngineOptions DeterministicOptions(size_t threads) {
  EngineOptions opts;
  opts.exec_threads = threads;
  opts.row_path_threshold = 0;
  return opts;
}

/// Exact multiset equality, order-free: a refreshed table keeps surviving
/// rows in place and appends net additions, so its row order legitimately
/// differs from a fresh execution's.
void ExpectSameBag(const Table& got, const Table& want,
                   const std::string& context) {
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  std::vector<Tuple> g = got.rows(), w = want.rows();
  std::sort(g.begin(), g.end());
  std::sort(w.begin(), w.end());
  EXPECT_EQ(g, w) << context;
}

/// Build() and Refresh() carry REQUIRES[_SHARED](gate) contracts (the
/// serving layer calls them under its writer-priority gate), so even these
/// single-threaded tests must hold a gate to call them. These helpers
/// acquire a test-local gate around each call; exclusive ownership
/// satisfies both the shared (Build) and exclusive (Refresh) contracts.
std::unique_ptr<PlanMaintenance> BuildMaintained(
    WriterPriorityGate* gate, std::shared_ptr<const PhysicalPlan> plan,
    const Table& result) {
  WriterGateLock wl(gate);
  return PlanMaintenance::Build(*gate, std::move(plan), result);
}

RefreshOutcome RefreshMaintained(WriterPriorityGate* gate,
                                 PlanMaintenance* maint,
                                 const std::vector<Delta>& deltas,
                                 const std::shared_ptr<const Table>& current,
                                 std::shared_ptr<const Table>* patched,
                                 RefreshStats* stats) {
  WriterGateLock wl(gate);
  return maint->Refresh(*gate, deltas, current, patched, stats);
}

struct DiffCase {
  const char* dataset;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  return std::string(info.param.dataset) + "_s" +
         std::to_string(info.param.seed);
}

class IvmDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(IvmDifferentialTest, MaintainedResultMatchesRecompute) {
  const DiffCase& param = GetParam();
  // Fresh dataset per case: Apply() mutates the database in place, so the
  // shared-cache pattern of vec_differential_test.cc would leak deltas
  // across cases.
  Result<GeneratedDataset> ds = MakeDataset(param.dataset, 0.02, 4321);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  BoundedEngine engine(&ds->db, ds->schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  // The exact corpus of vec_differential_test.cc: same seeding, same shape
  // knobs, so the 48 plans IVM is proven on are the 48 plans the executor
  // itself is proven on.
  QueryGenConfig cfg;
  cfg.seed = param.seed * 7919 + 17;
  cfg.num_sel = 2 + static_cast<int>(param.seed % 5);
  cfg.num_join = static_cast<int>(param.seed % 5);
  cfg.num_unidiff = static_cast<int>(param.seed % 3);
  Result<RaExprPtr> q = GenerateCoveredQuery(*ds, cfg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(*q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  ASSERT_NE((*pq)->physical, nullptr);

  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));

  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr) << "build-time bag verification failed";
  EXPECT_GT(maint->ApproxBytes(), 0u);

  // The plan's read set: only deltas on these relations can change the
  // result, and Refresh() classifies by exactly this set.
  std::unordered_set<std::string> read_rels;
  for (const AccessIndex* ix : (*pq)->physical->fetch_indices()) {
    read_rels.insert(ix->constraint().rel);
  }

  // Re-execute the (still pinned, still valid) plan from scratch against
  // the live post-batch indices and compare as an exact bag. On a
  // legitimate fallback, recompute and rebuild the handle — correctness is
  // "never a wrong table", not "never a fallback".
  size_t fallbacks = 0;
  auto check_batch = [&](const std::vector<Delta>& batch,
                         const std::string& ctx) {
    Result<MaintenanceStats> st = engine.Apply(batch);
    ASSERT_TRUE(st.ok()) << ctx << ": " << st.status().ToString();
    bool touched_read_set = false;
    for (const Delta& d : batch) touched_read_set |= read_rels.count(d.rel) > 0;
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    RefreshOutcome out =
        RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs);
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    if (out == RefreshOutcome::kRefreshed) {
      ASSERT_NE(patched, nullptr) << ctx;
      ExpectSameBag(*patched, fresh->table, ctx);
      if (touched_read_set) {
        EXPECT_GE(rs.deltas_relevant, 1u) << ctx;
      } else {
        EXPECT_EQ(patched.get(), cur.get()) << ctx;
      }
      cur = patched;
    } else {
      ++fallbacks;
      cur = std::make_shared<const Table>(std::move(fresh->table));
      maint = BuildMaintained(&gate, (*pq)->physical, *cur);
      ASSERT_NE(maint, nullptr) << ctx << ": rebuild after fallback failed";
    }
  };

  for (int r = 0; r < 3; ++r) {
    // Delete up to two existing rows from every base relation (read set or
    // not — irrelevant deltas must classify out), then re-insert the same
    // rows, so the instance returns to its pre-round state and no bound
    // ever grows. Both directions run through Apply() + Refresh().
    std::vector<Delta> deletes, reinserts;
    for (const auto& [rel, size] : ds->db.TableSizes()) {
      const Table* t = ds->db.Get(rel);
      ASSERT_NE(t, nullptr);
      size_t n = t->NumRows();
      if (n == 0) continue;
      size_t i1 = (static_cast<size_t>(r) * 7) % n;
      size_t i2 = (static_cast<size_t>(r) * 7 + 3) % n;
      deletes.push_back(Delta::Delete(rel, t->rows()[i1]));
      reinserts.push_back(Delta::Insert(rel, t->rows()[i1]));
      if (i2 != i1) {
        deletes.push_back(Delta::Delete(rel, t->rows()[i2]));
        reinserts.push_back(Delta::Insert(rel, t->rows()[i2]));
      }
    }
    ASSERT_FALSE(deletes.empty());
    check_batch(deletes, "round " + std::to_string(r) + " deletes");
    check_batch(reinserts, "round " + std::to_string(r) + " reinserts");
  }

  // A delta entirely outside the read set must be a no-op refresh that
  // hands back the *same* table object (re-keyed, not copied).
  std::string outside;
  for (const auto& [rel, size] : ds->db.TableSizes()) {
    if (size > 0 && read_rels.count(rel) == 0) outside = rel;
  }
  if (!outside.empty()) {
    Tuple row = ds->db.Get(outside)->rows()[0];
    std::vector<Delta> batch = {Delta::Delete(outside, row)};
    ASSERT_TRUE(engine.Apply(batch).ok());
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs),
              RefreshOutcome::kRefreshed);
    EXPECT_EQ(patched.get(), cur.get());
    EXPECT_EQ(rs.deltas_relevant, 0u);
    EXPECT_EQ(rs.rows_added + rs.rows_removed, 0u);
    ASSERT_TRUE(engine.Apply({Delta::Insert(outside, row)}).ok());
  }

  // Fallbacks are possible only for plans with a difference op, and only
  // when a deletion reaches its subtrahend.
  if (cfg.num_unidiff == 0) {
    EXPECT_EQ(fallbacks, 0u);
  }
}

std::vector<DiffCase> AllCases() {
  std::vector<DiffCase> cases;
  for (const char* ds : {"airca", "tfacc", "mcbm"}) {
    for (uint64_t seed = 0; seed < 16; ++seed) {
      cases.push_back(DiffCase{ds, seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Datasets, IvmDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

/// Q1 unioned with a branch whose constant bindings conflict (a cafe in
/// two cities): the planner emits that branch as a kEmpty step, so the
/// view's answer is Q1's and Build must seed nothing from the branch.
RaExprPtr FriendsNycCafesOrNowhereQuery(const std::string& pid) {
  const std::string f = "friendU", d = "dineU", c = "cafeU";
  RaExprPtr nowhere = Project(
      Select(Product(Product(RelAs("friend", f), RelAs("dine", d)),
                     RelAs("cafe", c)),
             {EqC(A(f, "pid"), Value::Str(pid)), EqA(A(f, "fid"), A(d, "pid")),
              EqA(A(d, "cid"), A(c, "cid")),
              EqC(A(c, "city"), Value::Str("nyc")),
              EqC(A(c, "city"), Value::Str("la"))}),
      {A(c, "cid")});
  return Union(FriendsNycCafesQuery(pid), nowhere);
}

/// Long mixed insert+delete churn through fetch and join ops: every batch
/// must stay maintainable, every patched table must equal a fresh
/// re-execution as an exact bag AND the conventional baseline evaluator
/// as a set (the fully independent oracle that never saw a plan).
TEST(IvmGraphChurnDifferentialTest, MixedChurnStaysMaintainableAndExact) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  WriterPriorityGate gate;

  constexpr int kQueries = 4;  // The last view has a kEmpty branch.
  constexpr int kBatches = 24;  // Lag 8: deletions flow from batch 8 on.

  struct Maintained {
    RaExprPtr query;
    NormalizedQuery normalized;
    std::shared_ptr<const PreparedQuery> prepared;
    std::shared_ptr<const Table> cur;
    std::unique_ptr<PlanMaintenance> maint;
  };
  std::vector<Maintained> views;
  for (int i = 0; i < kQueries; ++i) {
    Maintained v;
    v.query = i + 1 < kQueries ? FriendsNycCafesQuery(fx.cfg.Pid(i))
                               : FriendsNycCafesOrNowhereQuery(fx.cfg.Pid(i));
    Result<NormalizedQuery> nq = Normalize(v.query, fx.db.catalog());
    ASSERT_TRUE(nq.ok());
    v.normalized = std::move(*nq);
    Result<std::shared_ptr<const PreparedQuery>> pq =
        engine.PrepareCompiled(v.query);
    ASSERT_TRUE(pq.ok());
    ASSERT_TRUE((*pq)->info.covered);
    if (i + 1 == kQueries) {
      const std::vector<PhysicalOp>& ops = (*pq)->physical->ops();
      ASSERT_TRUE(std::any_of(ops.begin(), ops.end(), [](const PhysicalOp& op) {
        return op.kind == PlanStep::Kind::kEmpty;
      }));
    }
    v.prepared = *pq;
    Result<ExecuteResult> first = engine.ExecutePrepared(*v.prepared);
    ASSERT_TRUE(first.ok());
    v.cur = std::make_shared<const Table>(std::move(first->table));
    v.maint = BuildMaintained(&gate, v.prepared->physical, *v.cur);
    ASSERT_NE(v.maint, nullptr);
    views.push_back(std::move(v));
  }

  for (int b = 0; b < kBatches; ++b) {
    std::vector<Delta> batch = GraphChurnMixedBatch(fx.cfg, "ivmdiff", b);
    ASSERT_TRUE(engine.Apply(batch).ok()) << "batch " << b;
    for (int i = 0; i < kQueries; ++i) {
      std::string ctx =
          "batch " + std::to_string(b) + " view " + std::to_string(i);
      Maintained& v = views[static_cast<size_t>(i)];
      std::shared_ptr<const Table> patched;
      RefreshStats rs;
      ASSERT_EQ(RefreshMaintained(&gate, v.maint.get(), batch, v.cur, &patched,
                                  &rs),
                RefreshOutcome::kRefreshed)
          << ctx << ": insert+delete churn through fetch/join must stay "
                    "maintainable";
      EXPECT_GE(rs.deltas_relevant, 1u) << ctx;
      Result<ExecuteResult> fresh = engine.ExecutePrepared(*v.prepared);
      ASSERT_TRUE(fresh.ok()) << ctx;
      ExpectSameBag(*patched, fresh->table, ctx);
      Result<Table> oracle = EvaluateBaseline(v.normalized, fx.db, nullptr);
      ASSERT_TRUE(oracle.ok()) << ctx;
      EXPECT_TRUE(Table::SameSet(*patched, *oracle)) << ctx;
      v.cur = patched;
    }
  }
  // The mixed churn above recycles cafes the views already list (the
  // projection is set-semantic), so its patches may legitimately be
  // no-ops. Prove the patch path actually moves rows both ways: give
  // Pid(0) a new friend dining at a nyc cafe provably *absent* from the
  // view, then take the pair back.
  Maintained& v0 = views[0];
  std::string free_cid;
  for (int m = 0; m < 100 && free_cid.empty(); m += 3) {  // m % 3 == 0: nyc.
    Value cand = Value::Str("c" + std::to_string(m));
    bool present = false;
    for (const Tuple& row : v0.cur->rows()) present |= row[0] == cand;
    if (!present) free_cid = "c" + std::to_string(m);
  }
  ASSERT_FALSE(free_cid.empty()) << "every nyc cafe already in the view";
  auto S = [](const std::string& s) { return Value::Str(s); };
  std::vector<Delta> add = {
      Delta::Insert("friend", {S(fx.cfg.Pid(0)), S("ivmdiff-new")}),
      Delta::Insert("dine",
                    {S("ivmdiff-new"), S(free_cid), Value::Int(5),
                     Value::Int(2015)}),
  };
  ASSERT_TRUE(engine.Apply(add).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, v0.maint.get(), add, v0.cur, &patched,
                              &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.rows_added, 1u);
  EXPECT_EQ(patched->NumRows(), v0.cur->NumRows() + 1);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(*v0.prepared);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "targeted insert");
  v0.cur = patched;

  std::vector<Delta> take_back = {
      Delta::Delete("dine",
                    {S("ivmdiff-new"), S(free_cid), Value::Int(5),
                     Value::Int(2015)}),
      Delta::Delete("friend", {S(fx.cfg.Pid(0)), S("ivmdiff-new")}),
  };
  ASSERT_TRUE(engine.Apply(take_back).ok());
  ASSERT_EQ(RefreshMaintained(&gate, v0.maint.get(), take_back, v0.cur,
                              &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.rows_removed, 1u);
  EXPECT_EQ(patched->NumRows(), v0.cur->NumRows() - 1);
  fresh = engine.ExecutePrepared(*v0.prepared);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "targeted delete");
}

/// The spec-mandated refusal: a deletion reaching a difference subtrahend
/// can resurrect result rows whose support the difference forgot, so
/// Refresh() must report kNotMaintainable (and keep reporting it — the
/// handle is dead), and a recompute must find the resurrected row. A
/// handle rebuilt from the recomputed table resumes maintaining.
TEST(IvmGraphChurnDifferentialTest, SubtrahendDeleteForcesFallback) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());

  // Fid(0) belongs to Pid(0) and already dines at Cid(0) (nyc) in may, so
  // a june visit to Cid(0) suppresses exactly one result row.
  RaExprPtr q = FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  size_t base_rows = cur->NumRows();
  ASSERT_GT(base_rows, 0u);
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  // Batch 0 only *inserts* into the subtrahend: maintainable, and the
  // suppression must land in the patch.
  std::vector<Delta> grow = GraphChurnJuneBatch(fx.cfg, 0);
  ASSERT_TRUE(engine.Apply(grow).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), grow, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_EQ(patched->NumRows(), base_rows - 1);
  EXPECT_GE(rs.rows_removed, 1u);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "after subtrahend insert");
  cur = patched;

  // Batch 4 deletes batch 0's june row: the subtrahend loses support it
  // deliberately never counted, so the handle must refuse — and the fresh
  // recompute resurrects the suppressed row.
  std::vector<Delta> shrink = GraphChurnJuneBatch(fx.cfg, 4);
  ASSERT_TRUE(engine.Apply(shrink).ok());
  EXPECT_EQ(RefreshMaintained(&gate, maint.get(), shrink, cur, &patched, &rs),
            RefreshOutcome::kNotMaintainable);
  // The refusal is attributed precisely: a resurrection, not a generic
  // subtrahend deletion (those are absorbed; see the matrix test below).
  EXPECT_GE(rs.resurrection_fallbacks, 1u);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->table.NumRows(), base_rows);
  cur = std::make_shared<const Table>(std::move(fresh->table));

  // Dead handle stays dead, even for a maintainable-shaped batch.
  std::vector<Delta> benign = GraphChurnJuneBatch(fx.cfg, 1);
  ASSERT_TRUE(engine.Apply(benign).ok());
  EXPECT_EQ(RefreshMaintained(&gate, maint.get(), benign, cur, &patched, &rs),
            RefreshOutcome::kNotMaintainable);

  // Recovery: rebuild from a fresh post-`benign` execution; the new handle
  // maintains the next insert-only batch again.
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  cur = std::make_shared<const Table>(std::move(fresh->table));
  maint = BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);
  std::vector<Delta> again = GraphChurnJuneBatch(fx.cfg, 2);
  ASSERT_TRUE(engine.Apply(again).ok());
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), again, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "rebuilt handle");
}

/// The subtrahend support-count matrix: only a deletion that actually
/// resurrects a suppressed row may fall back. A deletion of a june row
/// whose key never suppressed anything, or whose key keeps support, is
/// absorbed as bookkeeping (subtrahend_decrements) with the patched table
/// staying bag-exact; the true resurrection still refuses with the precise
/// counter; and a handle rebuilt after the fallback suppresses again on
/// re-insert.
TEST(IvmGraphChurnDifferentialTest, SubtrahendSupportCountsAbsorbSafeDeletes) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  auto check = [&](const std::vector<Delta>& batch, const std::string& ctx,
                   RefreshStats* rs) {
    ASSERT_TRUE(engine.Apply(batch).ok()) << ctx;
    std::shared_ptr<const Table> patched;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, rs),
              RefreshOutcome::kRefreshed)
        << ctx;
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    ExpectSameBag(*patched, fresh->table, ctx);
    cur = patched;
  };

  // Case 1 — never-suppressed: a june visit to a nyc cafe provably absent
  // from the minuend (june is empty, so `cur` *is* the minuend right now)
  // puts a key in the subtrahend that suppresses nothing; deleting it again
  // is a pure support-count erase, not a resurrection.
  std::string free_cid;
  for (int m = 0; m < fx.cfg.cafes && free_cid.empty(); m += 3) {  // nyc.
    Value cand = Value::Str("c" + std::to_string(m));
    bool present = false;
    for (const Tuple& row : cur->rows()) present |= row[0] == cand;
    if (!present) free_cid = "c" + std::to_string(m);
  }
  ASSERT_FALSE(free_cid.empty()) << "every nyc cafe already in the minuend";
  Tuple free_june = {S(fx.cfg.Fid(0)), S(free_cid), Value::Int(6),
                     Value::Int(2015)};
  RefreshStats rs;
  size_t rows_before = cur->NumRows();
  check({Delta::Insert("dine", free_june)}, "never-suppressed insert", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before);  // Suppresses nothing.
  // The insert landed on a retained (empty) june bucket via the patch log.
  EXPECT_GE(rs.bucket_diff_hits, 1u);
  check({Delta::Delete("dine", free_june)}, "never-suppressed delete", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before);
  EXPECT_GE(rs.subtrahend_decrements, 1u);
  EXPECT_EQ(rs.resurrection_fallbacks, 0u);

  // Case 2 — surviving support: Cid(0) is in the minuend (Fid(0) dines
  // there in may, it is nyc). Two friends visit it in june; taking back
  // one visit leaves the suppression supported, so the handle must absorb
  // the deletion instead of falling back.
  Tuple cid0{S(fx.cfg.Cid(0))};
  bool suppressed_target_present = false;
  for (const Tuple& row : cur->rows()) {
    suppressed_target_present |= row == cid0;
  }
  ASSERT_TRUE(suppressed_target_present);
  Tuple june_a = {S(fx.cfg.Fid(0)), S(fx.cfg.Cid(0)), Value::Int(6),
                  Value::Int(2015)};
  Tuple june_b = {S(fx.cfg.Fid(1)), S(fx.cfg.Cid(0)), Value::Int(6),
                  Value::Int(2015)};
  check({Delta::Insert("dine", june_a), Delta::Insert("dine", june_b)},
        "double june insert", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);  // Cid(0) suppressed once.
  EXPECT_GE(rs.rows_removed, 1u);
  check({Delta::Delete("dine", june_b)}, "delete with surviving support",
        &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);  // Still suppressed.
  EXPECT_EQ(rs.resurrection_fallbacks, 0u);

  // Case 3 — the true resurrection: the last june visit to Cid(0) goes
  // away while the may row is retained. Exactly this refuses, and says so.
  std::vector<Delta> resurrect = {Delta::Delete("dine", june_a)};
  ASSERT_TRUE(engine.Apply(resurrect).ok());
  std::shared_ptr<const Table> patched;
  EXPECT_EQ(
      RefreshMaintained(&gate, maint.get(), resurrect, cur, &patched, &rs),
      RefreshOutcome::kNotMaintainable);
  EXPECT_GE(rs.resurrection_fallbacks, 1u);

  // Case 4 — recovery: rebuild from the recomputed table (the resurrected
  // row is back), then re-insert the june visit; the new handle suppresses
  // it again as a plain maintainable refresh.
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->table.NumRows(), rows_before);
  cur = std::make_shared<const Table>(std::move(fresh->table));
  maint = BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);
  check({Delta::Insert("dine", june_a)}, "re-insert after rebuild", &rs);
  EXPECT_EQ(cur->NumRows(), rows_before - 1);
}

/// Fat-bucket index-side deltas: with a few hundred retained rows behind
/// one probe key, refresh must patch through the mirror patch log — O(1)
/// per logged event — never by re-diffing the whole bucket. The counters
/// pin the path taken, the bag comparison pins its exactness.
TEST(IvmGraphChurnDifferentialTest, FatBucketDeltasRideThePatchLog) {
  GraphChurnConfig cfg;
  cfg.pids = 3;
  cfg.friends_per_pid = 400;
  cfg.cafes = 50;
  GraphChurnFixture fx = MakeGraphChurnFixture(cfg);
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsNycCafesQuery(cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  size_t diff_hits = 0;
  auto check = [&](const std::vector<Delta>& batch, const std::string& ctx) {
    ASSERT_TRUE(engine.Apply(batch).ok()) << ctx;
    std::shared_ptr<const Table> patched;
    RefreshStats rs;
    ASSERT_EQ(RefreshMaintained(&gate, maint.get(), batch, cur, &patched, &rs),
              RefreshOutcome::kRefreshed)
        << ctx;
    // Every batch mutates Pid(0)'s 400-row friend bucket: the event must
    // ride the log, and nothing may force a wholesale bucket re-resolve.
    EXPECT_GE(rs.bucket_diff_hits, 1u) << ctx;
    EXPECT_EQ(rs.bucket_refetch_fallbacks, 0u) << ctx;
    diff_hits += rs.bucket_diff_hits;
    Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
    ASSERT_TRUE(fresh.ok()) << ctx;
    ExpectSameBag(*patched, fresh->table, ctx);
    cur = patched;
  };

  constexpr int kWaves = 6;
  for (int k = 0; k < kWaves; ++k) {
    std::string nf = "fat" + std::to_string(k);
    check({Delta::Insert("friend", {S(cfg.Pid(0)), S(nf)}),
           Delta::Insert("dine", {S(nf), S("c" + std::to_string(3 * k)),
                                  Value::Int(5), Value::Int(2015)})},
          "fat insert " + std::to_string(k));
  }
  for (int k = 0; k < kWaves; ++k) {
    std::string nf = "fat" + std::to_string(k);
    check({Delta::Delete("dine", {S(nf), S("c" + std::to_string(3 * k)),
                                  Value::Int(5), Value::Int(2015)}),
           Delta::Delete("friend", {S(cfg.Pid(0)), S(nf)})},
          "fat delete " + std::to_string(k));
  }
  // One logged friend-bucket event per wave, both directions.
  EXPECT_GE(diff_hits, static_cast<size_t>(2 * kWaves));
}

/// The truncation regression: under a patch budget of one, any batch with
/// three distinct-entry transitions on one index forces a mirror rebuild,
/// which truncates the log mid-batch — refresh must detect the loss
/// (bucket_refetch_fallbacks), re-resolve the touched buckets wholesale,
/// and still produce the exact table; once the mirror has rebuilt, the
/// next batch rides the log again.
TEST(IvmGraphChurnDifferentialTest, TruncatedPatchLogFallsBackToRefetch) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  EngineOptions opts = DeterministicOptions(2);
  opts.mirror_patch_budget = 1;
  BoundedEngine engine(&fx.db, fx.schema, opts);
  ASSERT_TRUE(engine.BuildIndices().ok());
  RaExprPtr q = FriendsNycCafesQuery(fx.cfg.Pid(0));
  Result<std::shared_ptr<const PreparedQuery>> pq = engine.PrepareCompiled(q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const Table> cur =
      std::make_shared<const Table>(std::move(first->table));
  WriterPriorityGate gate;
  std::unique_ptr<PlanMaintenance> maint =
      BuildMaintained(&gate, (*pq)->physical, *cur);
  ASSERT_NE(maint, nullptr);

  auto S = [](const std::string& s) { return Value::Str(s); };
  std::vector<Delta> burst;
  for (int k = 0; k < 4; ++k) {
    std::string nf = "tr" + std::to_string(k);
    burst.push_back(Delta::Insert("friend", {S(fx.cfg.Pid(0)), S(nf)}));
    burst.push_back(
        Delta::Insert("dine", {S(nf), S("c" + std::to_string(3 * k)),
                               Value::Int(5), Value::Int(2015)}));
  }
  ASSERT_TRUE(engine.Apply(burst).ok());
  std::shared_ptr<const Table> patched;
  RefreshStats rs;
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), burst, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  // Pid(0)'s friend bucket re-resolved wholesale, exactly once, and no
  // event could have been replayed off the truncated log.
  EXPECT_EQ(rs.bucket_refetch_fallbacks, 1u);
  EXPECT_EQ(rs.bucket_diff_hits, 0u);
  Result<ExecuteResult> fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "post-truncation refresh");
  cur = patched;

  // The fresh execution above re-froze the mirrors, so a small follow-up
  // batch logs cleanly and refresh is back on the O(delta) path.
  std::vector<Delta> small = {
      Delta::Insert("friend", {S(fx.cfg.Pid(0)), S("tr-post")}),
      Delta::Insert("dine",
                    {S("tr-post"), S("c0"), Value::Int(5), Value::Int(2015)}),
  };
  ASSERT_TRUE(engine.Apply(small).ok());
  ASSERT_EQ(RefreshMaintained(&gate, maint.get(), small, cur, &patched, &rs),
            RefreshOutcome::kRefreshed);
  EXPECT_GE(rs.bucket_diff_hits, 1u);
  EXPECT_EQ(rs.bucket_refetch_fallbacks, 0u);
  fresh = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(fresh.ok());
  ExpectSameBag(*patched, fresh->table, "post-rebuild refresh");
}

/// Build's refusal paths, called directly: a byte cap the state crosses
/// refuses with `*size_exceeded` set, a cap equal to the full handle's
/// footprint still builds the same handle, and a table that is not the
/// plan's answer bag refuses without blaming size.
TEST(IvmGraphChurnDifferentialTest, BuildRefusesOversizedStateAndWrongBag) {
  GraphChurnFixture fx = MakeGraphChurnFixture();
  BoundedEngine engine(&fx.db, fx.schema, DeterministicOptions(2));
  ASSERT_TRUE(engine.BuildIndices().ok());
  Result<std::shared_ptr<const PreparedQuery>> pq =
      engine.PrepareCompiled(FriendsNycCafesQuery(fx.cfg.Pid(0)));
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ASSERT_TRUE((*pq)->info.covered);
  Result<ExecuteResult> first = engine.ExecutePrepared(**pq);
  ASSERT_TRUE(first.ok());
  const Table& result = first->table;
  ASSERT_GT(result.NumRows(), 0u);
  const std::shared_ptr<const PhysicalPlan>& plan = (*pq)->physical;

  WriterPriorityGate gate;
  WriterGateLock wl(&gate);
  std::unique_ptr<PlanMaintenance> full =
      PlanMaintenance::Build(gate, plan, result);
  ASSERT_NE(full, nullptr);

  bool exceeded = false;
  EXPECT_EQ(PlanMaintenance::Build(gate, plan, result, 0, &exceeded), nullptr);
  EXPECT_TRUE(exceeded);

  exceeded = true;
  std::unique_ptr<PlanMaintenance> capped =
      PlanMaintenance::Build(gate, plan, result, full->ApproxBytes(), &exceeded);
  ASSERT_NE(capped, nullptr);
  EXPECT_FALSE(exceeded);
  EXPECT_EQ(capped->ApproxBytes(), full->ApproxBytes());

  Table short_by_one(result.schema());
  for (size_t i = 1; i < result.NumRows(); ++i) {
    short_by_one.InsertUnchecked(result.rows()[i]);
  }
  exceeded = true;
  EXPECT_EQ(PlanMaintenance::Build(gate, plan, short_by_one,
                                   static_cast<size_t>(-1), &exceeded),
            nullptr);
  EXPECT_FALSE(exceeded);
}

/// Serving-path differential for the touched-key skip: a QueryService
/// re-keys a maintained view in place when a batch lands on none of the
/// view's retained fetch keys, and pushes the batch through the view's
/// handle otherwise. Batches that miss every view interleave with batches
/// aimed at one view's keys: a new friend, a deleted dining, a june visit
/// on the difference's subtrahend, and then that visit's deletion, which
/// must still fall back. After every batch each view must equal an
/// uncached engine's answer, and every maintained one must come off the
/// cache. Runs over one engine, over one whose patch-log budget of 1 keeps
/// truncating the logs, and over a 2-shard ShardedEngine.
struct SkipCase {
  const char* name;
  size_t shards;               ///< 0: one BoundedEngine.
  size_t mirror_patch_budget;  ///< 0: the auto budget.
};

class IvmServiceSkipTest : public ::testing::TestWithParam<SkipCase> {};

TEST_P(IvmServiceSkipTest, SkippedAndTouchedViewsMatchAnUncachedEngine) {
  const SkipCase& c = GetParam();
  GraphChurnFixture fx = MakeGraphChurnFixture();
  Database oracle_db = fx.db;
  BoundedEngine oracle(&oracle_db, fx.schema, DeterministicOptions(1));
  ASSERT_TRUE(oracle.BuildIndices().ok());
  EngineOptions eopts = DeterministicOptions(1);
  eopts.mirror_patch_budget = c.mirror_patch_budget;
  std::unique_ptr<Engine> engine;
  if (c.shards == 0) {
    auto local = std::make_unique<BoundedEngine>(&fx.db, fx.schema, eopts);
    ASSERT_TRUE(local->BuildIndices().ok());
    engine = std::move(local);
  } else {
    cluster::ShardedOptions so;
    so.shards = c.shards;
    so.engine = eopts;
    Result<std::unique_ptr<cluster::ShardedEngine>> sharded =
        cluster::ShardedEngine::Create(fx.db, fx.schema, so);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    engine = std::move(*sharded);
  }
  serve::ServiceOptions sopts;
  sopts.exec_threads = 1;
  serve::QueryService service(engine.get(), sopts);

  // Views 0-3 join friend, dine and cafe for Pid(0..3); view 4 is the
  // difference over Pid(0)'s friends (may minus june).
  std::vector<RaExprPtr> views;
  for (int i = 0; i < 4; ++i) {
    views.push_back(FriendsNycCafesQuery(fx.cfg.Pid(i)));
  }
  views.push_back(FriendsMayNotJuneCafesQuery(fx.cfg.Pid(0)));
  constexpr size_t kDiff = 4;
  std::vector<bool> maintained(views.size(), true);
  std::vector<std::shared_ptr<const Table>> served(views.size());

  // Serves every view and checks it against the oracle; views still
  // `maintained` must be refreshed cache hits.
  auto check = [&](const std::string& ctx, bool from_cache) {
    for (size_t i = 0; i < views.size(); ++i) {
      std::string vctx = ctx + " view " + std::to_string(i);
      serve::QueryResponse r = service.Query(views[i]);
      ASSERT_TRUE(r.status.ok()) << vctx << ": " << r.status.ToString();
      ASSERT_NE(r.table, nullptr) << vctx;
      if (from_cache && maintained[i]) {
        EXPECT_TRUE(r.result_cache_hit) << vctx;
        EXPECT_TRUE(r.result_refreshed) << vctx;
      }
      Result<ExecuteResult> want = oracle.Execute(views[i]);
      ASSERT_TRUE(want.ok()) << vctx;
      ExpectSameBag(*r.table, want->table, vctx);
      served[i] = r.table;
    }
  };
  // Applies `batch` to both engines and checks how many views the batch
  // skipped (at least `min_skips`, at most `max_skips`), refreshed (skips
  // included) and dropped, then checks every view.
  auto step = [&](const std::vector<Delta>& batch, const std::string& ctx,
                  uint64_t min_skips, uint64_t max_skips, uint64_t refreshes,
                  uint64_t fallbacks) {
    serve::ResultCacheStats before = service.stats().result_cache;
    serve::DeltaResponse d = service.ApplyDeltas(batch);
    ASSERT_TRUE(d.status.ok()) << ctx << ": " << d.status.ToString();
    ASSERT_TRUE(oracle.Apply(batch).ok()) << ctx;
    serve::ResultCacheStats after = service.stats().result_cache;
    EXPECT_GE(after.refresh_skips - before.refresh_skips, min_skips) << ctx;
    EXPECT_LE(after.refresh_skips - before.refresh_skips, max_skips) << ctx;
    EXPECT_EQ(after.refreshes - before.refreshes, refreshes) << ctx;
    EXPECT_EQ(after.refresh_fallbacks - before.refresh_fallbacks, fallbacks)
        << ctx;
    ASSERT_NO_FATAL_FAILURE(check(ctx, /*from_cache=*/true));
  };
  auto S = [](const std::string& s) { return Value::Str(s); };
  // A new friend of Pid(b) dining at Cid(b): for b >= 4 no view's key.
  auto miss = [&](int b) { return GraphChurnBatch(fx.cfg, "miss", b); };

  // The first executions cache without handles; the re-executions after
  // the first batch (which sweeps them) build one per view.
  for (const RaExprPtr& q : views) ASSERT_TRUE(service.Query(q).status.ok());
  ASSERT_TRUE(service.ApplyDeltas(miss(10)).status.ok());
  ASSERT_TRUE(oracle.Apply(miss(10)).ok());
  ASSERT_NO_FATAL_FAILURE(check("promote", /*from_cache=*/false));

  // Several batches that miss every view: all five are skipped, one of
  // them a four-friend burst (over budget 1 it forces mirror rebuilds and
  // truncates the patch logs).
  step(miss(11), "miss 11", 5, 5, 5, 0);
  step(miss(12), "miss 12", 5, 5, 5, 0);
  std::vector<Delta> burst;
  for (int k = 0; k < 4; ++k) {
    std::string nf = "burst" + std::to_string(k);
    burst.push_back(Delta::Insert("friend", {S(fx.cfg.Pid(20)), S(nf)}));
    burst.push_back(Delta::Insert(
        "dine", {S(nf), S(fx.cfg.Cid(3 * k)), Value::Int(5),
                 Value::Int(2015)}));
  }
  step(burst, "miss burst", 5, 5, 5, 0);

  // A new friend of Pid(1): only view 1 is refreshed.
  step(GraphChurnBatch(fx.cfg, "hit", 1), "hit view 1", 4, 4, 5, 0);

  // View 3, skipped by every batch so far, gains a nyc cafe it lacks.
  std::string free_cid;
  for (int m = 0; m < fx.cfg.cafes && free_cid.empty(); m += 3) {
    Value cand = S(fx.cfg.Cid(m));  // m % 3 == 0: a nyc cafe.
    bool present = false;
    for (const Tuple& row : served[3]->rows()) present |= row[0] == cand;
    if (!present) free_cid = fx.cfg.Cid(m);
  }
  ASSERT_FALSE(free_cid.empty()) << "every nyc cafe already in view 3";
  const size_t v3_rows = served[3]->NumRows();
  step({Delta::Insert("friend", {S(fx.cfg.Pid(3)), S("v3-new")}),
        Delta::Insert("dine", {S("v3-new"), S(free_cid), Value::Int(5),
                               Value::Int(2015)})},
       "grow view 3", 4, 4, 5, 0);
  EXPECT_EQ(served[3]->NumRows(), v3_rows + 1);
  // An index-side deletion on a key only view 3 retains: a may dining of
  // Pid(3)'s first friend, Fid(60), at Cid(60 * 7).
  step({Delta::Delete("dine", {S(fx.cfg.Fid(60)), S(fx.cfg.Cid(420)),
                               Value::Int(5), Value::Int(2015)})},
       "shrink view 3", 4, 4, 5, 0);

  // A june visit of Pid(0)'s friend Fid(0) at Cid(0), which Fid(0) also
  // visited in may: the difference loses that row. Views 1-3 are
  // untouched; view 0 may share the (pid, cid) key with the difference.
  step(GraphChurnJuneBatch(fx.cfg, 0), "june insert", 3, 4, 5, 0);
  // Deleting it resurrects the row: the difference must fall back.
  maintained[kDiff] = false;
  step({Delta::Delete("dine", {S(fx.cfg.Fid(0)), S(fx.cfg.Cid(0)),
                               Value::Int(6), Value::Int(2015)})},
       "june delete", 3, 4, 4, 1);

  // Interleaved misses and hits on views 0-3; the difference keeps being
  // recomputed or rebuilt, so only bounds hold for it.
  for (int k = 0; k < 8; ++k) {
    std::string ctx = "round " + std::to_string(k);
    serve::ResultCacheStats before = service.stats().result_cache;
    std::vector<Delta> batch =
        k % 2 == 0 ? miss(13 + k)
                   : GraphChurnBatch(fx.cfg, "round" + std::to_string(k) + "-",
                                     k / 2);
    serve::DeltaResponse d = service.ApplyDeltas(batch);
    ASSERT_TRUE(d.status.ok()) << ctx;
    ASSERT_TRUE(oracle.Apply(batch).ok()) << ctx;
    serve::ResultCacheStats after = service.stats().result_cache;
    EXPECT_GE(after.refresh_skips - before.refresh_skips, k % 2 == 0 ? 4u : 3u)
        << ctx;
    EXPECT_EQ(after.refresh_fallbacks, before.refresh_fallbacks) << ctx;
    ASSERT_NO_FATAL_FAILURE(check(ctx, /*from_cache=*/true));
  }
  if (c.mirror_patch_budget == 1) {
    // The refreshes really ran off truncated logs.
    EXPECT_GT(service.stats().result_cache.bucket_refetch_fallbacks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, IvmServiceSkipTest,
    ::testing::Values(SkipCase{"local", 0, 0},
                      SkipCase{"truncated_log", 0, 1},
                      SkipCase{"two_shards", 2, 0}),
    [](const ::testing::TestParamInfo<SkipCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace bqe
