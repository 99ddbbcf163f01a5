#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/operators.h"

namespace bqe {

// ----------------------------------------------------------- worker pool ---

struct WorkerPool::Impl {
  /// One registered ParallelFor call. Lives on the caller's stack; the
  /// caller keeps it listed in `active` only while new pickups are welcome
  /// and waits for `active_pool` to drain before returning, so pool threads
  /// never touch a dead group. Every field except `cursor` is guarded by
  /// the pool's `mu` — a nested struct cannot name the enclosing
  /// instance's mutex in a GUARDED_BY, so the contract lives here in
  /// prose; the pool's own fields below carry the checked annotations.
  struct Group {
    uint64_t tag = 0;
    size_t n = 0;
    const std::function<void(size_t, size_t)>* fn = nullptr;
    /// Next unclaimed item. The only lock-free member: workers race
    /// fetch_add claims while the caller drains its own share. Relaxed
    /// suffices — claim uniqueness needs only RMW atomicity, and the
    /// group's payload (`fn`, `n`) is published to pool threads through
    /// `mu` before any claim.
    std::atomic<size_t> cursor{0};
    size_t max_workers = 1;         ///< Incl. the caller (slot 0).
    std::vector<uint8_t> slot_used; ///< Dense worker-id slots; 0 = caller.
    size_t active_pool = 0;         ///< Pool threads currently inside.
    std::exception_ptr error;       ///< First pool-thread exception.
    CondVar done_cv;
  };

  Mutex mu;  // Guards everything below (not the item runs themselves).
  CondVar work_cv;
  bool stop GUARDED_BY(mu) = false;
  std::vector<Group*> active GUARDED_BY(mu);  // Fair-share scan order.
  size_t rr GUARDED_BY(mu) = 0;  // Round-robin start offset into `active`.
  std::vector<std::thread> threads GUARDED_BY(mu);
  PoolStats stats GUARDED_BY(mu);

  /// Picks the next group with unclaimed items and a free worker slot,
  /// round-robin from `rr` so concurrent groups fair-share pool threads
  /// one item at a time. Claims the slot (dense worker id) under mu.
  Group* Pick(size_t* slot) REQUIRES(mu) {
    for (size_t k = 0; k < active.size(); ++k) {
      Group* g = active[(rr + k) % active.size()];
      if (g->cursor.load(std::memory_order_relaxed) >= g->n) continue;
      for (size_t s = 1; s < g->max_workers; ++s) {
        if (g->slot_used[s] == 0) {
          g->slot_used[s] = 1;
          ++g->active_pool;
          rr = (rr + k + 1) % active.size();
          *slot = s;
          return g;
        }
      }
    }
    return nullptr;
  }

  void WorkerMain() {
    mu.Lock();
    while (true) {
      size_t slot = 0;
      Group* g = nullptr;
      // Explicit wait loop (not the predicate-lambda form): the analysis
      // treats lambda bodies as unlocked functions, while this shape keeps
      // every guarded read inside the proven hold.
      while (!stop && (g = Pick(&slot)) == nullptr) work_cv.Wait(&mu);
      if (stop) break;
      mu.Unlock();
      // One item per pickup: after each item the thread re-enters the
      // scheduler, which is what makes sharing fair when more groups are
      // active than pool threads. Items are batch-scale pipeline stages,
      // so the per-item lock round-trip is noise.
      std::exception_ptr err;
      size_t executed = 0;
      size_t it = g->cursor.fetch_add(1, std::memory_order_relaxed);
      if (it < g->n) {
        try {
          (*g->fn)(slot, it);
          executed = 1;
        } catch (...) {
          // Record, curtail the group's remaining items, and keep the
          // thread alive — the exception is rethrown on the group's calling
          // thread after the fan-in (a throw escaping a thread function
          // would terminate). Relaxed: the curtail only has to become
          // visible eventually; the error itself travels under mu.
          err = std::current_exception();
          g->cursor.store(g->n, std::memory_order_relaxed);
        }
      }
      mu.Lock();
      g->slot_used[slot] = 0;
      if (err != nullptr && g->error == nullptr) g->error = err;
      stats.items += executed;
      stats.pool_items += executed;
      if (--g->active_pool == 0) g->done_cv.SignalAll();
      // The freed slot may unblock a waiting thread for this same group.
      if (g->cursor.load(std::memory_order_relaxed) < g->n) {
        work_cv.Signal();
      }
    }
    mu.Unlock();
  }
};

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::WorkerPool() : impl_(new Impl()) {}

WorkerPool::~WorkerPool() {
  // The threads vector is swapped out under the lock and joined outside
  // it, keeping the GUARDED_BY contract honest (no other thread can touch
  // it once stop is set, but the analysis cannot know that).
  std::vector<std::thread> workers;
  {
    MutexLock lk(&impl_->mu);
    impl_->stop = true;
    workers.swap(impl_->threads);
    impl_->work_cv.SignalAll();
  }
  for (std::thread& t : workers) t.join();
  delete impl_;
}

WorkerPool::PoolStats WorkerPool::stats() const {
  MutexLock lk(&impl_->mu);
  return impl_->stats;
}

void WorkerPool::ParallelFor(size_t n, const GroupOptions& opts,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  size_t workers = std::max<size_t>(1, std::min({opts.workers, kMaxThreads, n}));
  if (workers == 1) {
    for (size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  Impl* im = impl_;
  Impl::Group g;
  g.tag = opts.tag;
  g.n = n;
  g.fn = &fn;
  g.max_workers = workers;
  g.slot_used.assign(workers, 0);
  g.slot_used[0] = 1;  // The caller is worker 0 for its own group only.
  {
    MutexLock lk(&im->mu);
    // Grow the pool toward the combined demand of the active groups, capped
    // at kMaxThreads - 1 (each caller is its group's extra worker). Threads
    // are never reclaimed; an idle thread parks in work_cv.
    size_t demand = workers - 1;
    for (const Impl::Group* a : im->active) demand += a->max_workers - 1;
    size_t want = std::min(demand, kMaxThreads - 1);
    while (im->threads.size() < want) {
      im->threads.emplace_back([im] { im->WorkerMain(); });
    }
    im->active.push_back(&g);
    ++im->stats.groups;
    im->stats.max_concurrent_groups =
        std::max<uint64_t>(im->stats.max_concurrent_groups,
                           im->active.size());
    im->work_cv.SignalAll();
  }
  std::exception_ptr caller_err;
  size_t caller_items = 0;
  try {
    // Relaxed claims: see Group::cursor.
    for (size_t it = g.cursor.fetch_add(1, std::memory_order_relaxed); it < n;
         it = g.cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(0, it);
      ++caller_items;
    }
  } catch (...) {
    caller_err = std::current_exception();
    // Curtail; pool threads must still check out below.
    g.cursor.store(n, std::memory_order_relaxed);
  }
  // Delist first (no new pickups), then wait for in-flight pool threads:
  // they hold pointers to `fn` and `g`, which die when this frame unwinds.
  std::exception_ptr err;
  {
    MutexLock lk(&im->mu);
    im->active.erase(std::find(im->active.begin(), im->active.end(), &g));
    if (im->rr >= im->active.size()) im->rr = 0;
    im->stats.items += caller_items;
    while (g.active_pool != 0) g.done_cv.Wait(&im->mu);
    err = g.error != nullptr ? g.error : caller_err;
  }
  if (err != nullptr) std::rethrow_exception(err);
}

// ------------------------------------------------------- morsel executor ---

namespace {

/// Per-worker reusable scratch. A worker slot runs at most one morsel at a
/// time, so each worker's scratch is touched by one thread per item. The
/// dedupe table is Reset (slots kept) instead of reconstructed per morsel —
/// the old per-morsel `KeyTable local(rows)` paid a worst-case allocation
/// for every morsel.
struct WorkerScratch {
  KeyEncoder enc;
  KeyTable dedupe;
};

/// Initial sizing hint for a worker's reusable dedupe table: deliberately
/// below the worst case (every morsel row distinct) — the table grows once
/// if a morsel really needs it and the allocation is then reused by every
/// later morsel of the task.
constexpr size_t kDedupeScratchSeed = 256;

struct ParCtx {
  const std::vector<PhysicalOp>& ops;
  const ExecOptions& opts;
  WorkerPool& pool;
  size_t workers;
  std::vector<ExecStats>& wstats;
  std::vector<WorkerScratch>& scratch;

  /// Every task group of this execution carries the request's tag.
  WorkerPool::GroupOptions Group() const { return {workers, opts.task_tag}; }
};

BatchVec ParallelProduct(const PhysicalOp& s, const BatchVec& left,
                         const BatchVec& right, ParCtx& cx) {
  BatchVec out;
  if (left.empty() || right.empty() || TotalRows(right) == 0) return out;
  ColumnBatch scratch;
  const ColumnBatch* r =
      MergedChunk(right, right.front().ColumnTypes(), &scratch);
  std::vector<BatchVec> mout(left.size());
  cx.pool.ParallelFor(left.size(), cx.Group(), [&](size_t, size_t m) {
    ProductBatch(left[m], *r, s.out_types, cx.opts.batch_size, &mout[m]);
  });
  return ConcatMorsels(&mout);
}

/// Ordered merge over per-morsel locally distinct candidates: keeps the
/// global first occurrence in morsel order, so the result stream equals the
/// serial set operator's. Shared by ParallelDistinct and the fused
/// dedupe-project sink; runs on the calling thread.
BatchVec MergeDistinctCandidates(std::vector<BatchVec>* cand,
                                 const std::vector<ValueType>& types,
                                 ParCtx& cx) {
  if (cand->size() == 1) return std::move(cand->front());  // Already distinct.
  size_t total = 0;
  for (const BatchVec& cv : *cand) total += TotalRows(cv);
  BatchVec out;
  BatchWriter w(types, cx.opts.batch_size, &out);
  KeyTable seen(total);
  for (const BatchVec& cv : *cand) {
    for (const ColumnBatch& cb : cv) {
      AppendDistinctRows(cb, {}, nullptr, &seen, &cx.scratch[0].enc, &w);
    }
  }
  w.Finish();
  return out;
}

/// Parallel set-semantics kernel: per-morsel local dedupe (optionally
/// pre-filtered against `exclude`) followed by the ordered merge.
BatchVec ParallelDistinct(const std::vector<const ColumnBatch*>& morsels,
                          const std::vector<ValueType>& types,
                          const KeyTable* exclude, ParCtx& cx) {
  std::vector<BatchVec> cand(morsels.size());
  cx.pool.ParallelFor(morsels.size(), cx.Group(), [&](size_t w, size_t m) {
    WorkerScratch& ws = cx.scratch[w];
    ws.dedupe.Reset(
        std::min<size_t>(morsels[m]->num_rows(), kDedupeScratchSeed));
    BatchWriter w2(types, cx.opts.batch_size, &cand[m]);
    AppendDistinctRows(*morsels[m], {}, exclude, &ws.dedupe, &ws.enc, &w2);
    w2.Finish();
  });
  return MergeDistinctCandidates(&cand, types, cx);
}

BatchVec ParallelUnion(const PhysicalOp& s, const BatchVec& left,
                       const BatchVec& right, ParCtx& cx) {
  std::vector<const ColumnBatch*> morsels;
  morsels.reserve(left.size() + right.size());
  for (const ColumnBatch& b : left) morsels.push_back(&b);
  for (const ColumnBatch& b : right) morsels.push_back(&b);
  return ParallelDistinct(morsels, s.out_types, nullptr, cx);
}

BatchVec ParallelDiff(const PhysicalOp& s, const BatchVec& left,
                      const BatchVec& right, ParCtx& cx) {
  // The right-side exclusion set is built once on this thread; workers
  // only Find() in it.
  KeyTable right_set(TotalRows(right));
  KeyEncoder& enc = cx.scratch[0].enc;
  for (const ColumnBatch& b : right) {
    enc.Encode(b, {});
    for (size_t i = 0; i < b.num_rows(); ++i) {
      right_set.InsertOrFind(enc.Key(i), nullptr);
    }
  }
  std::vector<const ColumnBatch*> morsels;
  morsels.reserve(left.size());
  for (const ColumnBatch& b : left) morsels.push_back(&b);
  return ParallelDistinct(morsels, s.out_types, &right_set, cx);
}

/// Executes one fused pipeline: morsels of the materialized source step are
/// carried through the interior filter/project chain as (selection vector,
/// column mapping) pairs — no intermediate materialization — and the sink
/// materializes, probes a shared join build, or locally dedupes.
BatchVec RunPipeline(int sink_id, std::vector<BatchVec>& results,
                     ParCtx& cx) {
  const std::vector<PhysicalOp>& ops = cx.ops;
  const PhysicalOp& s = ops[static_cast<size_t>(sink_id)];
  std::vector<int> chain;  // Interior fused steps, sink-adjacent first.
  int consumer = sink_id;
  int p = s.kind == PlanStep::Kind::kJoin ? s.left : s.input;
  while (p >= 0 && ops[static_cast<size_t>(p)].fuse_into == consumer) {
    chain.push_back(p);
    consumer = p;
    p = ops[static_cast<size_t>(p)].input;
  }
  std::reverse(chain.begin(), chain.end());  // Now in execution order.
  int src = p;
  const BatchVec& src_batches = results[static_cast<size_t>(src)];

  // Pipeline breaker: the join build side is materialized and built once on
  // this thread, then shared read-only across all probe workers.
  bool is_join = s.kind == PlanStep::Kind::kJoin;
  ColumnBatch rscratch;
  const ColumnBatch* rchunk = nullptr;
  JoinBuildTable bt;
  const std::vector<ValueType>& left_types =
      chain.empty() ? ops[static_cast<size_t>(src)].out_types
                    : ops[static_cast<size_t>(chain.back())].out_types;
  if (is_join) {
    const BatchVec& right = results[static_cast<size_t>(s.right)];
    rchunk = MergedChunk(right, ops[static_cast<size_t>(s.right)].out_types,
                         &rscratch);
    bt = BuildJoinTable(*rchunk, s.rkey, &cx.scratch[0].enc);
  }

  std::vector<BatchVec> mout(src_batches.size());
  cx.pool.ParallelFor(src_batches.size(), cx.Group(), [&](size_t w,
                                                          size_t m) {
    ExecStats& ws = cx.wstats[w];
    const ColumnBatch& b = src_batches[m];
    if (is_join && chain.empty()) {
      // Unfused probe side: probe the source batch in place, exactly like
      // the serial executor — no selection vector, no gather.
      PairWriter pw(s.out_types, cx.opts.batch_size, &mout[m]);
      ProbeJoinBatch(bt, *rchunk, b, s.lkey, &cx.scratch[w].enc, &pw);
      return;
    }
    std::vector<uint32_t> sel(b.num_rows());
    for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
    std::vector<int> colmap;  // Empty = identity over b's columns.
    for (int cid : chain) {
      const PhysicalOp& c = ops[static_cast<size_t>(cid)];
      if (c.kind == PlanStep::Kind::kFilter) {
        FilterSelect(b, c.preds, colmap, &sel);
      } else {  // Non-dedupe projection: pure column remapping.
        std::vector<int> nm(c.cols.size());
        for (size_t j = 0; j < c.cols.size(); ++j) {
          nm[j] = colmap.empty()
                      ? c.cols[j]
                      : colmap[static_cast<size_t>(c.cols[j])];
        }
        colmap = std::move(nm);
      }
      ws.ForKind(c.kind).rows_out += sel.size();
      ws.intermediate_rows += sel.size();
    }
    KeyEncoder& enc = cx.scratch[w].enc;
    if (s.kind == PlanStep::Kind::kFilter) {
      FilterSelect(b, s.preds, colmap, &sel);
      BatchWriter w2(s.out_types, cx.opts.batch_size, &mout[m]);
      w2.WriteGather(b, sel.data(), sel.size(), colmap);
      w2.Finish();
    } else if (s.kind == PlanStep::Kind::kProject) {
      std::vector<int> fm(s.cols.size());
      for (size_t j = 0; j < s.cols.size(); ++j) {
        fm[j] = colmap.empty() ? s.cols[j]
                               : colmap[static_cast<size_t>(s.cols[j])];
      }
      if (!s.dedupe) {
        BatchWriter w2(s.out_types, cx.opts.batch_size, &mout[m]);
        w2.WriteGather(b, sel.data(), sel.size(), fm);
        w2.Finish();
      } else {
        // Local dedupe; the ordered global merge runs after the fan-in.
        // The worker's scratch table is Reset, not reconstructed: a capped
        // initial estimate plus slot reuse across morsels replaces the old
        // worst-case per-morsel allocation.
        ColumnBatch mb(s.out_types);
        mb.ReserveRows(sel.size());
        mb.GatherRowsFrom(b, sel.data(), sel.size(), fm);
        KeyTable& local = cx.scratch[w].dedupe;
        local.Reset(std::min<size_t>(mb.num_rows(), kDedupeScratchSeed));
        BatchWriter w2(s.out_types, cx.opts.batch_size, &mout[m]);
        AppendDistinctRows(mb, {}, nullptr, &local, &enc, &w2);
        w2.Finish();
      }
    } else {
      // Fused probe: materialize the surviving, projected left rows once
      // per morsel, then probe (join output needs the projected columns).
      ColumnBatch mb(left_types);
      mb.ReserveRows(sel.size());
      mb.GatherRowsFrom(b, sel.data(), sel.size(), colmap);
      PairWriter pw(s.out_types, cx.opts.batch_size, &mout[m]);
      ProbeJoinBatch(bt, *rchunk, mb, s.lkey, &enc, &pw);
    }
  });

  if (s.kind == PlanStep::Kind::kProject && s.dedupe && !mout.empty()) {
    return MergeDistinctCandidates(&mout, s.out_types, cx);
  }
  return ConcatMorsels(&mout);
}

}  // namespace

Result<Table> ExecutePhysicalPlanParallel(const PhysicalPlan& plan,
                                          ExecStats* st,
                                          const ExecOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const std::vector<PhysicalOp>& ops = plan.ops();
  size_t workers =
      std::max<size_t>(1, std::min(opts.num_threads, WorkerPool::kMaxThreads));
  std::vector<ExecStats> wstats(workers);
  std::vector<WorkerScratch> scratch(workers);
  ParCtx cx{ops, opts, WorkerPool::Shared(), workers, wstats, scratch};
  std::vector<BatchVec> results(ops.size());

  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysicalOp& s = ops[i];
    if (s.fuse_into >= 0) continue;  // Streams into its consumer's pipeline.
    Clock::time_point t0;
    if (opts.per_op_timing) t0 = Clock::now();
    BatchVec out;
    switch (s.kind) {
      case PlanStep::Kind::kConst:
        out = ConstOp(s.const_row, s.out_types);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        FetchCounters fc;
        out = plan.source().FetchBatches(
            *s.index, results[static_cast<size_t>(s.input)],
            opts.batch_size, workers, opts.task_tag, &fc);
        st->fetch_probes += fc.probes;
        st->tuples_fetched += fc.tuples_fetched;
        break;
      }
      case PlanStep::Kind::kProduct:
        out = ParallelProduct(s, results[static_cast<size_t>(s.left)],
                              results[static_cast<size_t>(s.right)], cx);
        break;
      case PlanStep::Kind::kUnion:
        out = ParallelUnion(s, results[static_cast<size_t>(s.left)],
                            results[static_cast<size_t>(s.right)], cx);
        break;
      case PlanStep::Kind::kDiff:
        out = ParallelDiff(s, results[static_cast<size_t>(s.left)],
                           results[static_cast<size_t>(s.right)], cx);
        break;
      case PlanStep::Kind::kJoin:
        if (s.join_cols.empty()) {
          // No equality columns: cross-join semantics (see HashJoinOp).
          out = ParallelProduct(s, results[static_cast<size_t>(s.left)],
                                results[static_cast<size_t>(s.right)], cx);
          break;
        }
        out = RunPipeline(static_cast<int>(i), results, cx);
        break;
      case PlanStep::Kind::kProject:
        if (s.cols.empty()) {
          // Zero-column projection: dedicated serial path (trivial output).
          out = ProjectOp(results[static_cast<size_t>(s.input)], s.cols,
                          s.dedupe, s.out_types, opts.batch_size);
          break;
        }
        out = RunPipeline(static_cast<int>(i), results, cx);
        break;
      case PlanStep::Kind::kFilter:
        out = RunPipeline(static_cast<int>(i), results, cx);
        break;
    }
    size_t rows = TotalRows(out);
    OpStats& os = st->ForKind(s.kind);
    ++os.calls;
    os.rows_out += rows;
    os.batches_out += out.size();
    if (opts.per_op_timing) {
      // Fused pipeline time lands on the sink step by construction.
      os.ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    }
    st->intermediate_rows += rows;
    st->batches_produced += out.size();
    results[i] = std::move(out);
  }
  // Fused interior steps ran inside pipelines: one call each, rows counted
  // by the workers (merged below).
  for (const PhysicalOp& s : ops) {
    if (s.fuse_into >= 0) ++st->ForKind(s.kind).calls;
  }
  for (const ExecStats& ws : wstats) st->Merge(ws);

  const BatchVec& last = results[static_cast<size_t>(plan.output())];
  Table out(plan.output_schema());
  for (const ColumnBatch& b : last) {
    BQE_RETURN_IF_ERROR(out.AppendBatch(b));
  }
  st->output_rows = out.NumRows();
  return out;
}

}  // namespace bqe
