#include "cluster/sharded_engine.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "exec/key_codec.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace bqe {
namespace cluster {

namespace {

/// RAII exclusive hold over an ordered set of shard gates. Callers pass the
/// gates in one global order (ascending shard id, replica last), so
/// concurrent Apply calls acquire in the same order and cannot deadlock.
/// The capability analysis cannot follow a runtime loop of acquisitions
/// over a dynamic gate list, hence the suppression; the exclusion itself is
/// still runtime-real (every gate is locked before any sub-batch applies).
class GateWriteHold {
 public:
  explicit GateWriteHold(std::vector<WriterPriorityGate*> gates)
      NO_THREAD_SAFETY_ANALYSIS : gates_(std::move(gates)) {
    for (WriterPriorityGate* g : gates_) g->lock();
  }
  ~GateWriteHold() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) (*it)->unlock();
  }

  GateWriteHold(const GateWriteHold&) = delete;
  GateWriteHold& operator=(const GateWriteHold&) = delete;

 private:
  std::vector<WriterPriorityGate*> gates_;
};

}  // namespace

/// The routed FetchSource: each key is read from its owning shard, whose
/// bucket equals the single engine's, under that shard's reader gate.
class ShardedEngine::RoutedSource final : public FetchSource {
 public:
  explicit RoutedSource(const ShardedEngine* eng) : eng_(eng) {}

  size_t NumEntries(const AccessIndex& binding) const override {
    const int cid = binding.constraint().id;
    size_t n = 0;
    for (const std::unique_ptr<Shard>& s : eng_->shards_) {
      ReaderGateLock rl(&s->gate);
      const AccessIndex* idx = s->engine->indices().Get(cid);
      if (idx != nullptr) n += idx->NumEntries();
    }
    return n;
  }

  BatchVec FetchBatches(const AccessIndex& binding, const BatchVec& input,
                        size_t batch_size, size_t workers, uint64_t task_tag,
                        FetchCounters* counters) const override {
    // Distinct probe keys in first-seen order, grouped by owning shard. The
    // encoded input row is the encoded X-key: it routes the key and probes
    // the owner's mirror.
    KeyTable seen(TotalRows(input));
    KeyEncoder enc;
    std::vector<std::string> keys;
    std::vector<size_t> owner;
    std::vector<std::vector<size_t>> by_shard(eng_->shards_.size());
    for (const ColumnBatch& b : input) {
      enc.Encode(b, {});
      for (size_t i = 0; i < b.num_rows(); ++i) {
        std::string_view key = enc.Key(i);
        bool fresh = false;
        seen.InsertOrFind(key, &fresh);
        if (!fresh) continue;
        size_t sh = eng_->router_.ShardOfEncoded(key);
        by_shard[sh].push_back(keys.size());
        owner.push_back(sh);
        keys.emplace_back(key);
      }
    }
    counters->probes += keys.size();

    // Each engaged shard copies its keys' buckets into one chunk while its
    // gate is held; `range[pos]` locates key pos's bucket in that chunk.
    std::vector<ColumnBatch> chunks(by_shard.size());
    std::vector<std::pair<size_t, size_t>> range(keys.size());
    size_t engaged = RunShardTasks(
        binding, by_shard, workers, task_tag,
        [&](size_t sh, const AccessIndex& idx) {
          idx.EnsureFrozen();
          ColumnBatch& chunk = chunks[sh];
          chunk = ColumnBatch(binding.output_types());
          for (size_t pos : by_shard[sh]) {
            size_t begin = chunk.num_rows();
            FrozenSegment hit[2];
            size_t ns = idx.FrozenProbe(keys[pos], hit);
            for (size_t k = 0; k < ns; ++k) {
              const FrozenSegment& g = hit[k];
              if (g.rows != nullptr) {
                chunk.GatherRowsFrom(*g.batch, g.rows, g.n, {});
              } else {
                chunk.GatherRangeFrom(*g.batch, g.begin, g.end - g.begin);
              }
            }
            range[pos] = {begin, chunk.num_rows() - begin};
          }
        });

    // Gather in key order. With one engaged shard its chunk already is the
    // key-ordered stream.
    size_t total = 0;
    for (const std::pair<size_t, size_t>& r : range) total += r.second;
    counters->tuples_fetched += total;
    BatchVec out;
    if (total == 0) return out;
    if (engaged == 1 && total <= batch_size) {
      out.push_back(std::move(chunks[owner[0]]));
      return out;
    }
    BatchWriter w(binding.output_types(), batch_size, &out);
    for (size_t pos = 0; pos < keys.size(); ++pos) {
      auto [begin, n] = range[pos];
      if (n > 0) w.WriteGatherRange(chunks[owner[pos]], begin, n);
    }
    w.Finish();
    return out;
  }

  std::vector<std::vector<Tuple>> FetchRows(
      const AccessIndex& binding,
      const std::vector<Tuple>& keys) const override {
    std::vector<std::vector<size_t>> by_shard(eng_->shards_.size());
    for (size_t pos = 0; pos < keys.size(); ++pos) {
      by_shard[eng_->router_.ShardOfKey(keys[pos])].push_back(pos);
    }
    std::vector<std::vector<Tuple>> out(keys.size());
    RunShardTasks(binding, by_shard, /*workers=*/1, /*task_tag=*/0,
                  [&](size_t sh, const AccessIndex& idx) {
                    for (size_t pos : by_shard[sh]) {
                      out[pos] = idx.Fetch(keys[pos]);
                    }
                  });
    return out;
  }

  bool PatchLogSince(const AccessIndex& binding, std::vector<uint64_t>* cursor,
                     std::vector<BucketPatch>* out) const override {
    const std::vector<std::unique_ptr<Shard>>& shards = eng_->shards_;
    const int cid = binding.constraint().id;
    if (cursor->empty()) {
      cursor->reserve(shards.size());
      for (const std::unique_ptr<Shard>& s : shards) {
        const AccessIndex* idx = s->engine->indices().Get(cid);
        cursor->push_back(idx != nullptr ? idx->patch_log_stamp() : 0);
      }
      return true;
    }
    if (cursor->size() != shards.size()) return false;  // Foreign cursor.
    bool ok = true;
    std::vector<BucketPatch> shard_events;
    for (size_t i = 0; i < shards.size(); ++i) {
      const AccessIndex* idx = shards[i]->engine->indices().Get(cid);
      if (idx == nullptr) continue;
      shard_events.clear();
      const bool shard_ok = idx->PatchLogSince((*cursor)[i], &shard_events);
      (*cursor)[i] = idx->patch_log_stamp();
      if (!shard_ok) {
        ok = false;  // Keep draining: every cursor must land at "now".
        continue;
      }
      for (BucketPatch& ev : shard_events) {
        // Ownership filter: only the owning shard's copy of this transition
        // counts — a replica holding the row for a different constraint's
        // key logs the same event against a bucket it is never probed for.
        if (eng_->router_.ShardOfKey(ev.key) != i) continue;
        out->push_back(std::move(ev));
      }
    }
    return ok;
  }

 private:
  /// One task per shard with keys in `by_shard`: fn(shard, shard's index
  /// for the binding's constraint) under that shard's reader gate, counted
  /// as one scatter task. Up to `workers` tasks run at once on the shared
  /// WorkerPool, tagged `task_tag`. Returns the number of engaged shards.
  template <typename Fn>
  size_t RunShardTasks(const AccessIndex& binding,
                       const std::vector<std::vector<size_t>>& by_shard,
                       size_t workers, uint64_t task_tag, const Fn& fn) const {
    const int cid = binding.constraint().id;
    std::vector<size_t> engaged;
    for (size_t sh = 0; sh < by_shard.size(); ++sh) {
      if (!by_shard[sh].empty()) engaged.push_back(sh);
    }
    auto run = [&](size_t sh) {
      const Shard& shard = *eng_->shards_[sh];
      ReaderGateLock rl(&shard.gate);
      const AccessIndex* idx = shard.engine->indices().Get(cid);
      if (idx != nullptr) fn(sh, *idx);
      shard.scatter_tasks_ctr.fetch_add(1, std::memory_order_relaxed);
    };
    workers = std::min(workers, engaged.size());
    if (workers <= 1) {
      for (size_t sh : engaged) run(sh);
    } else {
      WorkerPool::Shared().ParallelFor(
          engaged.size(), WorkerPool::GroupOptions{workers, task_tag},
          [&](size_t, size_t t) { run(engaged[t]); });
    }
    return engaged.size();
  }

  const ShardedEngine* eng_;
};

ShardedEngine::ShardedEngine() = default;
ShardedEngine::~ShardedEngine() = default;

const FetchSource& ShardedEngine::fetch_source() const { return *source_; }

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const Database& db, const AccessSchema& schema, ShardedOptions opts) {
  auto eng = std::unique_ptr<ShardedEngine>(new ShardedEngine());
  BQE_ASSIGN_OR_RETURN(
      eng->router_,
      ShardRouter::Build(schema, db.catalog(), opts.slots, opts.shards));
  eng->opts_ = opts;
  eng->source_ = std::make_unique<RoutedSource>(eng.get());

  // Copies `db` into a fresh instance: all rows for the replica, or just
  // the rows shard `shard` owns under some constraint. Rows were validated
  // on insert into the source database, so InsertUnchecked is safe.
  auto make_db = [&](bool full,
                     size_t shard) -> Result<std::unique_ptr<Database>> {
    auto out = std::make_unique<Database>();
    for (const std::string& rel : db.catalog().RelationNames()) {
      BQE_RETURN_IF_ERROR(out->CreateTable(*db.catalog().Get(rel)));
      const Table* src = db.Get(rel);
      if (src == nullptr) continue;
      Table* dst = out->GetMutable(rel);
      for (const Tuple& row : src->rows()) {
        if (full) {
          dst->InsertUnchecked(row);
          continue;
        }
        for (size_t s : eng->router_.ShardsOfRow(rel, row)) {
          if (s == shard) {
            dst->InsertUnchecked(row);
            break;
          }
        }
      }
    }
    return out;
  };

  EngineOptions shard_engine_opts = opts.engine;
  // A conventional-evaluation fallback over a *partial* database would
  // answer wrongly; non-covered queries go to the full replica instead.
  shard_engine_opts.baseline_fallback = false;
  for (size_t s = 0; s < opts.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    BQE_ASSIGN_OR_RETURN(shard->db, make_db(/*full=*/false, s));
    shard->engine = std::make_unique<BoundedEngine>(
        shard->db.get(), schema, shard_engine_opts, *eng->source_);
    BQE_RETURN_IF_ERROR(shard->engine->BuildIndices());
    eng->shards_.push_back(std::move(shard));
  }
  if (opts.fallback_replica) {
    auto rep = std::make_unique<Shard>();
    BQE_ASSIGN_OR_RETURN(rep->db, make_db(/*full=*/true, 0));
    rep->engine =
        std::make_unique<BoundedEngine>(rep->db.get(), schema, opts.engine);
    BQE_RETURN_IF_ERROR(rep->engine->BuildIndices());
    eng->replica_ = std::move(rep);
  }
  return eng;
}

size_t ShardedEngine::PlanningShard(const std::string& fingerprint) const {
  return static_cast<size_t>(HashBytes(fingerprint)) % shards_.size();
}

Result<std::shared_ptr<const PreparedQuery>> ShardedEngine::PrepareCompiled(
    const RaExprPtr& query, bool* cache_hit) const {
  const Shard& s = *shards_[PlanningShard(BoundedEngine::QueryFingerprint(query))];
  ReaderGateLock rl(&s.gate);
  return s.engine->PrepareCompiled(query, cache_hit);
}

bool ShardedEngine::StillCoherent(const std::string& fingerprint,
                                  const PreparedQuery& pq) const {
  return shards_[PlanningShard(fingerprint)]->engine->StillCoherent(pq);
}

Result<ExecuteResult> ShardedEngine::Execute(const RaExprPtr& query) const {
  bool cache_hit = false;
  BQE_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> pq,
                       PrepareCompiled(query, &cache_hit));
  if (pq->info.covered) {
    BQE_ASSIGN_OR_RETURN(ExecuteResult res, ExecutePrepared(*pq));
    res.plan_cache_hit = cache_hit;
    return res;
  }
  if (replica_ == nullptr) {
    return Status::NotCovered(pq->info.explanation);
  }
  ReaderGateLock rl(&replica_->gate);
  return replica_->engine->Execute(query);
}

Result<ExecuteResult> ShardedEngine::ExecutePrepared(const PreparedQuery& pq,
                                                     uint64_t task_tag,
                                                     size_t num_threads) const {
  if (!pq.info.covered || pq.physical == nullptr) {
    return Status::FailedPrecondition(
        "non-covered preparation: route through Execute()");
  }
  for (const std::unique_ptr<Shard>& s : shards_) {
    if (&s->engine->indices() == &pq.physical->indices()) {
      return s->engine->ExecutePrepared(pq, task_tag, num_threads);
    }
  }
  return Status::FailedPrecondition(
      "prepared query was not compiled by a shard of this engine");
}

Result<MaintenanceStats> ShardedEngine::Apply(const std::vector<Delta>& deltas,
                                              OverflowPolicy policy) {
  std::vector<std::vector<Delta>> split = router_.SplitDeltas(deltas);
  std::vector<size_t> touched;
  std::vector<WriterPriorityGate*> gates;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (split[s].empty()) continue;
    touched.push_back(s);
    gates.push_back(&shards_[s]->gate);
  }
  if (replica_ != nullptr) gates.push_back(&replica_->gate);
  GateWriteHold hold(std::move(gates));

  for (size_t s : touched) {
    Shard& shard = *shards_[s];
    BQE_RETURN_IF_ERROR(shard.engine->Apply(split[s], policy));
    shard.delta_batches_ctr.fetch_add(1, std::memory_order_relaxed);
    shard.deltas_routed_ctr.fetch_add(split[s].size(), std::memory_order_relaxed);
  }

  MaintenanceStats out;
  if (replica_ != nullptr) {
    // The replica applies the whole logical batch, so its stats *are* the
    // single-engine stats for this Apply.
    BQE_ASSIGN_OR_RETURN(out, replica_->engine->Apply(deltas, policy));
  } else {
    // No replica: report logical per-delta counts; per-shard index touches
    // fold into index_updates (a delta owned by k shards updates the
    // relation's indices on each, so this can exceed the single-engine
    // count — it measures work done, not logical change).
    for (const Delta& d : deltas) {
      if (d.kind == Delta::Kind::kInsert) {
        ++out.inserts;
      } else {
        ++out.deletes;
      }
    }
    out.deltas_applied = deltas.size();
    if (touched.empty()) out = MaintenanceStats{};
  }

  if (out.deltas_applied > 0 || !touched.empty()) {
    last_applied_.deltas = deltas;
    last_applied_.data_epoch = Coherence().data_epoch;
  }
  return out;
}

CoherenceSnapshot ShardedEngine::Coherence() const {
  CoherenceSnapshot out;
  auto fold = [&out](const Shard& s) {
    CoherenceSnapshot c = s.engine->Coherence();
    out.schema_epoch += c.schema_epoch;
    out.data_epoch += c.data_epoch;
  };
  for (const std::unique_ptr<Shard>& s : shards_) fold(*s);
  if (replica_ != nullptr) fold(*replica_);
  return out;
}

void ShardedEngine::SetFreezeHook(AccessIndex::FreezeHook hook) const {
  for (const std::unique_ptr<Shard>& s : shards_) {
    s->engine->indices().SetFreezeHook(hook);
  }
  if (replica_ != nullptr) replica_->engine->indices().SetFreezeHook(hook);
}

ShardStatsSnapshot ShardedEngine::shard_stats(size_t shard) const {
  const Shard& s = *shards_[shard];
  ShardStatsSnapshot out;
  out.coherence = s.engine->Coherence();
  out.scatter_tasks = s.scatter_tasks_ctr.load(std::memory_order_relaxed);
  out.delta_batches = s.delta_batches_ctr.load(std::memory_order_relaxed);
  out.deltas_routed = s.deltas_routed_ctr.load(std::memory_order_relaxed);
  return out;
}

std::vector<ShardStatsSnapshot> ShardedEngine::shard_stats() const {
  std::vector<ShardStatsSnapshot> out;
  for (size_t s = 0; s < shards_.size(); ++s) out.push_back(shard_stats(s));
  return out;
}

PlanCacheStats ShardedEngine::plan_cache_stats() const {
  PlanCacheStats out;
  for (const std::unique_ptr<Shard>& s : shards_) {
    PlanCacheStats c = s->engine->plan_cache_stats();
    out.hits += c.hits;
    out.misses += c.misses;
    out.evictions += c.evictions;
    out.reprepares += c.reprepares;
  }
  return out;
}

}  // namespace cluster
}  // namespace bqe
