#include "exec/ivm.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/key_codec.h"
#include "ra/expr.h"
#include "storage/tuple.h"

namespace bqe {

namespace {

/// Hash-node + key-string bookkeeping per retained map entry, coarse.
constexpr size_t kEntryOverhead = 48;

std::string Enc(const Tuple& t) {
  std::string s;
  AppendEncodedTuple(t, &s);
  return s;
}

size_t TupleBytes(const Tuple& t) {
  size_t b = sizeof(Tuple) + t.capacity() * sizeof(Value);
  for (const Value& v : t) {
    if (v.type() == ValueType::kString) b += v.AsString().capacity();
  }
  return b;
}

void SubBytes(size_t* total, size_t amount) {
  *total -= std::min(*total, amount);
}

/// One retained fetch probe: the key's input-row multiplicity and the
/// bucket the index resolved for it, as a hash set of distinct rows keyed
/// on their encoding — so replaying one bucket patch-log event is O(1),
/// not O(bucket).
struct FetchEntry {
  Tuple key;
  int64_t count = 0;
  std::unordered_map<std::string, Tuple> bucket;
};

/// One retained multiplicity-map entry for set-semantic ops.
struct CountEntry {
  Tuple row;
  int64_t count = 0;
};

/// A join/product side retained as a bag with a hash index on its key
/// projection (empty projection = the single product bucket).
struct BagIndex {
  std::vector<int> key_cols;
  std::unordered_map<std::string, std::vector<Tuple>> buckets;
};

std::string BagKey(const Tuple& row, const std::vector<int>& row_key_cols) {
  return Enc(ProjectTuple(row, row_key_cols));
}

void BagAdd(BagIndex* bag, const Tuple& row, size_t* bytes) {
  bag->buckets[BagKey(row, bag->key_cols)].push_back(row);
  *bytes += TupleBytes(row) + kEntryOverhead;
}

bool BagRemove(BagIndex* bag, const Tuple& row, size_t* bytes) {
  auto it = bag->buckets.find(BagKey(row, bag->key_cols));
  if (it == bag->buckets.end()) return false;
  std::vector<Tuple>& rows = it->second;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] != row) continue;
    SubBytes(bytes, TupleBytes(rows[i]) + kEntryOverhead);
    rows[i] = std::move(rows.back());
    rows.pop_back();
    if (rows.empty()) bag->buckets.erase(it);
    return true;
  }
  return false;
}

/// The rows of `bag` matching `row`'s key (projected through the *probing*
/// side's key columns — byte-compatible with the bag's own key encoding per
/// the key codec's contract), or nullptr when no row matches.
const std::vector<Tuple>* BagProbe(const BagIndex& bag, const Tuple& row,
                                   const std::vector<int>& row_key_cols) {
  auto it = bag.buckets.find(BagKey(row, row_key_cols));
  return it == bag.buckets.end() ? nullptr : &it->second;
}

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple t = a;
  t.insert(t.end(), b.begin(), b.end());
  return t;
}

/// Re-resolves one retained bucket wholesale: diffs the freshly fetched
/// distinct rows against the retained hash bucket, emits the signed
/// difference, and installs the fresh bucket. O(old + new) — the
/// truncated-log fallback path only.
void RediffBucket(FetchEntry* e, std::vector<Tuple> now,
                  std::vector<Tuple>* plus, std::vector<Tuple>* minus,
                  size_t* bytes) {
  std::unordered_map<std::string, Tuple> fresh;
  fresh.reserve(now.size());
  for (Tuple& r : now) {
    std::string enc = Enc(r);
    if (e->bucket.find(enc) == e->bucket.end()) plus->push_back(r);
    *bytes += TupleBytes(r) + kEntryOverhead;
    fresh.emplace(std::move(enc), std::move(r));
  }
  for (auto& [enc, r] : e->bucket) {
    SubBytes(bytes, TupleBytes(r) + kEntryOverhead);
    if (fresh.find(enc) == fresh.end()) minus->push_back(std::move(r));
  }
  e->bucket = std::move(fresh);
}

double MicrosSince(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

/// Per-operator retained state; which fields are live depends on the op
/// kind (see class comment in ivm.h). One flat struct instead of a variant:
/// the unused maps cost a few empty buckets per op, and the propagation switch
/// stays free of casts.
struct PlanMaintenance::OpState {
  std::unordered_map<std::string, FetchEntry> probed;          // kFetch.
  /// Bucket patch-log cursor for this op's index binding (kFetch): where
  /// the last Build/Refresh left off. Opaque to this layer beyond "empty
  /// means uninitialized"; see FetchSource::PatchLogSince.
  std::vector<uint64_t> log_stamp;                             // kFetch.
  BagIndex left, right;                                        // kJoin/kProduct.
  std::unordered_map<std::string, CountEntry> counts;          // dedupe/kUnion.
  std::unordered_map<std::string, CountEntry> lcounts, rcounts;  // kDiff.
};

PlanMaintenance::~PlanMaintenance() = default;

/// Signed bag delta flowing between operators: rows entering the op's
/// output and rows leaving it, both with multiplicity (duplicates allowed).
/// A row may appear on both sides (an upstream set-semantic op can emit a
/// transient pair); downstream consumers and the final patch treat the two
/// lists as one signed bag, so such pairs cancel.
struct PlanMaintenance::SignedRows {
  std::vector<Tuple> plus, minus;
};

std::unique_ptr<PlanMaintenance> PlanMaintenance::Build(
    const WriterPriorityGate& gate, std::shared_ptr<const PhysicalPlan> plan,
    const Table& result, size_t max_bytes, bool* size_exceeded) {
  if (size_exceeded != nullptr) *size_exceeded = false;
  if (plan == nullptr) return nullptr;
  std::unique_ptr<PlanMaintenance> m(new PlanMaintenance());
  m->plan_ = std::move(plan);
  const std::vector<PhysicalOp>& ops = m->plan_->ops();
  const int output = m->plan_->output();
  if (output < 0 || output >= static_cast<int>(ops.size())) return nullptr;
  // The delta classification set is the plan's compile-time read set.
  m->read_rels_.insert(m->plan_->fetch_rels().begin(),
                       m->plan_->fetch_rels().end());

  // Empty retained state, keyed per op: join sides bucket on their key
  // columns, and every fetch stamps its index's bucket patch log at the
  // snapshot the seed batch below resolves against, so Refresh() replays
  // exactly the events logged after it.
  m->states_.reserve(ops.size());
  for (const PhysicalOp& op : ops) {
    m->states_.push_back(std::make_unique<OpState>());
    OpState& st = *m->states_.back();
    st.left.key_cols = op.lkey;    // Both empty for kProduct: one
    st.right.key_cols = op.rkey;   // bucket, i.e. the nested loop.
    if (op.kind != PlanStep::Kind::kFetch) continue;
    if (op.index == nullptr ||
        !m->plan_->source().PatchLogSince(*op.index, &st.log_stamp, nullptr)) {
      return nullptr;
    }
    m->fetches_.emplace_back(op.index, &st);
  }

  // The snapshot is one all-insert batch into that empty state: the
  // constants seed it, and every op retains state and derives its rows
  // exactly as a refresh does.
  SignedRows derived;
  if (!m->Propagate(gate, DeltasByRel(), /*seed=*/true, max_bytes, nullptr,
                    &derived)) {
    if (size_exceeded != nullptr && m->approx_bytes_ > max_bytes) {
      *size_exceeded = true;
    }
    return nullptr;
  }

  // Verify the derived output bag against the cached table exactly. The
  // vectorized executor only promises the same *bag* as these row-path
  // semantics, and only with this check does a later patch provably apply
  // to a table the retained state accounts for.
  if (!derived.minus.empty() || derived.plus.size() != result.NumRows()) {
    return nullptr;
  }
  std::unordered_map<std::string, int64_t> bag;
  for (const Tuple& r : result.rows()) ++bag[Enc(r)];
  for (const Tuple& r : derived.plus) {
    auto it = bag.find(Enc(r));
    if (it == bag.end() || it->second == 0) return nullptr;
    --it->second;
  }
  m->approx_bytes_ += sizeof(PlanMaintenance) + ops.size() * sizeof(OpState);
  return m;
}

bool PlanMaintenance::Propagate(const WriterPriorityGate& gate,
                                const DeltasByRel& by_rel, bool seed,
                                size_t max_bytes, RefreshStats* stats,
                                SignedRows* result) {
  (void)gate;  // Capability parameter: the REQUIRES_SHARED contract is it.
  const std::vector<PhysicalOp>& ops = plan_->ops();
  const FetchSource& source = plan_->source();
  size_t* bytes = &approx_bytes_;
  auto over_cap = [&]() { return *bytes > max_bytes; };
  // The support transition of a set-semantic op (dedupe kProject, kUnion):
  // moves `row`'s count by `sign` and emits a patch row only when the
  // support crosses 0 <-> positive, never on a mere recount. False on
  // underflow.
  auto move_support = [&](std::unordered_map<std::string, CountEntry>* counts,
                          Tuple row, int64_t sign, SignedRows* out) -> bool {
    auto [it, fresh] = counts->try_emplace(Enc(row));
    CountEntry& e = it->second;
    if (fresh) {
      e.row = std::move(row);
      *bytes += TupleBytes(e.row) + kEntryOverhead;
    }
    bool was = e.count > 0;
    e.count += sign;
    if (e.count < 0) return false;
    if (!was && e.count > 0) out->plus.push_back(e.row);
    if (was && e.count == 0) out->minus.push_back(e.row);
    if (e.count == 0) {
      SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
      counts->erase(it);
    }
    return true;
  };

  // One pass in op order (inputs precede consumers). Any inconsistency
  // (count underflow, missing retained row) or spec-unmaintainable shape
  // returns false, as does crossing `max_bytes`; retained state may then be
  // partially advanced.
  std::vector<SignedRows> dio(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const PhysicalOp& op = ops[i];
    OpState& st = *states_[i];
    SignedRows& out = dio[i];
    switch (op.kind) {
      case PlanStep::Kind::kConst:
        // A constant row never changes: it enters once, with the snapshot.
        if (seed) out.plus.push_back(op.const_row);
        break;
      case PlanStep::Kind::kEmpty:
        break;
      case PlanStep::Kind::kFetch: {
        const SignedRows& in = dio[static_cast<size_t>(op.input)];
        // Index-side deltas exist only for a relation the batch touched: an
        // index logs only its own relation's transitions, so otherwise the
        // patch-log cursor is already current.
        auto rel_it = by_rel.find(std::string_view(op.index->constraint().rel));
        const bool logged = rel_it != by_rel.end();
        // Input-side key transitions first. A key freshly probed here
        // resolves against the live *post-batch* index, so the log replay
        // below must skip its events — they are already folded into the
        // fresh bucket.
        std::unordered_set<std::string> fresh_keys;
        for (const Tuple& key : in.minus) {
          auto it = st.probed.find(Enc(key));
          if (it == st.probed.end() || it->second.count <= 0) return false;
          FetchEntry& e = it->second;
          if (--e.count == 0) {
            SubBytes(bytes, TupleBytes(e.key) + kEntryOverhead);
            for (auto& [enc, r] : e.bucket) {
              SubBytes(bytes, TupleBytes(r) + kEntryOverhead);
              out.minus.push_back(std::move(r));
            }
            st.probed.erase(it);
          }
        }
        // The fetch step probes with the *distinct* input rows; retain each
        // key's multiplicity so input deltas only matter on 0 <-> 1.
        std::vector<FetchEntry*> probed;
        std::vector<Tuple> keys;
        for (const Tuple& key : in.plus) {
          if (over_cap()) break;
          std::string ek = Enc(key);
          auto [it, fresh] = st.probed.try_emplace(ek);
          FetchEntry& e = it->second;
          if (!fresh) {
            ++e.count;
            continue;
          }
          e.key = key;
          e.count = 1;
          *bytes += TupleBytes(key) + kEntryOverhead;
          probed.push_back(&e);
          keys.push_back(key);
          if (logged) fresh_keys.insert(std::move(ek));
        }
        std::vector<std::vector<Tuple>> buckets =
            source.FetchRows(*op.index, keys);
        for (size_t k = 0; k < probed.size() && !over_cap(); ++k) {
          for (Tuple& r : buckets[k]) {
            *bytes += TupleBytes(r) + kEntryOverhead;
            out.plus.push_back(r);
            probed[k]->bucket.emplace(Enc(r), std::move(r));
          }
        }
        if (!logged) break;
        // Index-side: the mirror patch log *is* the signed bucket delta of
        // this batch — replay the events that land on retained keys, O(1)
        // each, instead of re-resolving whole buckets.
        std::vector<BucketPatch> events;
        if (source.PatchLogSince(*op.index, &st.log_stamp, &events)) {
          for (BucketPatch& ev : events) {
            std::string ek = Enc(ev.key);
            auto it = st.probed.find(ek);
            if (it == st.probed.end()) continue;      // Key never probed.
            if (fresh_keys.count(ek) != 0) continue;  // Post-batch above.
            FetchEntry& e = it->second;
            if (stats != nullptr) ++stats->bucket_diff_hits;
            std::string er = Enc(ev.row);
            if (ev.sign > 0) {
              auto [rit, added] = e.bucket.emplace(std::move(er), ev.row);
              if (!added) return false;  // Log/bucket disagree: impossible.
              *bytes += TupleBytes(ev.row) + kEntryOverhead;
              out.plus.push_back(std::move(ev.row));
            } else {
              auto rit = e.bucket.find(er);
              if (rit == e.bucket.end()) return false;  // Disagreement.
              SubBytes(bytes, TupleBytes(rit->second) + kEntryOverhead);
              out.minus.push_back(std::move(rit->second));
              e.bucket.erase(rit);
            }
          }
          break;
        }
        // Truncated log: a budget-forced mirror rebuild dropped events since
        // the last refresh, which can only have happened within this very
        // batch (every prior batch's events were consumed in order). Fall
        // back to wholesale re-resolution of the retained keys this batch's
        // deltas land on — the pre-log behavior, now the rare path. The
        // cursor already advanced to "now", so the next batch replays the
        // log again.
        std::unordered_set<std::string> redone;
        std::vector<FetchEntry*> stale;
        std::vector<Tuple> stale_keys;
        for (const Delta* d : rel_it->second) {
          Tuple key = op.index->FetchKeyOf(d->row);
          std::string ek = Enc(key);
          auto it = st.probed.find(ek);
          if (it == st.probed.end()) continue;      // Key never probed.
          if (fresh_keys.count(ek) != 0) continue;  // Already post-batch.
          if (!redone.insert(ek).second) continue;  // One fetch per key.
          if (stats != nullptr) ++stats->bucket_refetch_fallbacks;
          stale.push_back(&it->second);
          stale_keys.push_back(std::move(key));
        }
        std::vector<std::vector<Tuple>> now =
            source.FetchRows(*op.index, stale_keys);
        for (size_t k = 0; k < stale.size(); ++k) {
          RediffBucket(stale[k], std::move(now[k]), &out.plus, &out.minus,
                       bytes);
        }
        break;
      }
      case PlanStep::Kind::kProject: {
        const SignedRows& in = dio[static_cast<size_t>(op.input)];
        if (!op.dedupe) {
          for (const Tuple& r : in.plus) {
            out.plus.push_back(ProjectTuple(r, op.cols));
          }
          for (const Tuple& r : in.minus) {
            out.minus.push_back(ProjectTuple(r, op.cols));
          }
          break;
        }
        for (const Tuple& r : in.plus) {
          if (!move_support(&st.counts, ProjectTuple(r, op.cols), 1, &out)) {
            return false;
          }
        }
        for (const Tuple& r : in.minus) {
          if (!move_support(&st.counts, ProjectTuple(r, op.cols), -1, &out)) {
            return false;
          }
        }
        break;
      }
      case PlanStep::Kind::kFilter: {
        const SignedRows& in = dio[static_cast<size_t>(op.input)];
        auto passes = [&op](const Tuple& r) {
          return std::all_of(
              op.preds.begin(), op.preds.end(),
              [&r](const PlanPredicate& p) { return p.Holds(r); });
        };
        for (const Tuple& r : in.plus) {
          if (passes(r)) out.plus.push_back(r);
        }
        for (const Tuple& r : in.minus) {
          if (passes(r)) out.minus.push_back(r);
        }
        break;
      }
      case PlanStep::Kind::kProduct:
      case PlanStep::Kind::kJoin: {
        const SignedRows& dl = dio[static_cast<size_t>(op.left)];
        const SignedRows& dr = dio[static_cast<size_t>(op.right)];
        // Two-stage signed propagation: dL meets R-old, commit dL, then dR
        // meets L-new. The second stage's committed left side is what gives
        // the dL x dR cross term exactly once, with the product of the
        // signs. That stage reads only the left bag, so dR commits before
        // it too, and a build over its byte cap stops before materializing
        // the join.
        for (const Tuple& a : dl.plus) {
          const std::vector<Tuple>* b = BagProbe(st.right, a, op.lkey);
          if (b == nullptr) continue;
          for (const Tuple& r : *b) out.plus.push_back(Concat(a, r));
        }
        for (const Tuple& a : dl.minus) {
          const std::vector<Tuple>* b = BagProbe(st.right, a, op.lkey);
          if (b == nullptr) continue;
          for (const Tuple& r : *b) out.minus.push_back(Concat(a, r));
        }
        for (const Tuple& a : dl.plus) {
          if (over_cap()) break;
          BagAdd(&st.left, a, bytes);
        }
        for (const Tuple& a : dl.minus) {
          if (!BagRemove(&st.left, a, bytes)) return false;
        }
        for (const Tuple& b : dr.plus) {
          if (over_cap()) break;
          BagAdd(&st.right, b, bytes);
        }
        for (const Tuple& b : dr.minus) {
          if (!BagRemove(&st.right, b, bytes)) return false;
        }
        if (over_cap()) return false;
        for (const Tuple& b : dr.plus) {
          const std::vector<Tuple>* l = BagProbe(st.left, b, op.rkey);
          if (l == nullptr) continue;
          for (const Tuple& a : *l) out.plus.push_back(Concat(a, b));
        }
        for (const Tuple& b : dr.minus) {
          const std::vector<Tuple>* l = BagProbe(st.left, b, op.rkey);
          if (l == nullptr) continue;
          for (const Tuple& a : *l) out.minus.push_back(Concat(a, b));
        }
        break;
      }
      case PlanStep::Kind::kUnion: {
        for (int side : {op.left, op.right}) {
          const SignedRows& in = dio[static_cast<size_t>(side)];
          for (const Tuple& r : in.plus) {
            if (!move_support(&st.counts, r, 1, &out)) return false;
          }
          for (const Tuple& r : in.minus) {
            if (!move_support(&st.counts, r, -1, &out)) return false;
          }
        }
        break;
      }
      case PlanStep::Kind::kDiff: {
        const SignedRows& dl = dio[static_cast<size_t>(op.left)];
        const SignedRows& dr = dio[static_cast<size_t>(op.right)];
        auto lcount = [&](const std::string& enc) -> int64_t {
          auto it = st.lcounts.find(enc);
          return it == st.lcounts.end() ? 0 : it->second.count;
        };
        auto rcount = [&](const std::string& enc) -> int64_t {
          auto it = st.rcounts.find(enc);
          return it == st.rcounts.end() ? 0 : it->second.count;
        };
        // Net the subtrahend delta per row first: a transient plus/minus
        // pair from an upstream set-semantic op is no transition at all,
        // and netting keeps one from masquerading as a resurrection.
        struct NetRow {
          const Tuple* row = nullptr;
          int64_t net = 0;
        };
        std::unordered_map<std::string, NetRow> rnet;
        for (const Tuple& r : dr.plus) {
          NetRow& n = rnet[Enc(r)];
          n.row = &r;
          ++n.net;
        }
        for (const Tuple& r : dr.minus) {
          NetRow& n = rnet[Enc(r)];
          if (n.row == nullptr) n.row = &r;
          --n.net;
        }
        for (auto& [enc, n] : rnet) {
          if (n.net > 0) {
            auto [it, fresh] = st.rcounts.try_emplace(enc);
            CountEntry& e = it->second;
            if (fresh) {
              e.row = *n.row;
              *bytes += TupleBytes(e.row) + kEntryOverhead;
            }
            bool was = e.count > 0;
            e.count += n.net;
            // A subtrahend key gaining support suppresses a live row.
            if (!was && lcount(enc) > 0) {
              out.minus.push_back(st.lcounts.find(enc)->second.row);
            }
          } else if (n.net < 0) {
            auto it = st.rcounts.find(enc);
            if (it == st.rcounts.end() || it->second.count < -n.net) {
              return false;  // Underflow: impossible, batch was applied.
            }
            CountEntry& e = it->second;
            e.count += n.net;
            if (e.count > 0) {
              // Surviving duplicates still hold the suppression: a pure
              // support-count decrement, no output change possible.
              if (stats != nullptr) ++stats->subtrahend_decrements;
              continue;
            }
            SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
            st.rcounts.erase(it);
            if (lcount(enc) > 0) {
              // Support hit zero under a retained minuend row: a
              // previously-suppressed row actually resurrects, the one
              // difference shape still handed to the recompute fallback.
              if (stats != nullptr) ++stats->resurrection_fallbacks;
              return false;
            }
            // The key never suppressed any retained row: bookkeeping
            // only, the deletion cannot surface anything.
            if (stats != nullptr) ++stats->subtrahend_decrements;
          }
        }
        for (const Tuple& r : dl.plus) {
          std::string enc = Enc(r);
          auto [it, fresh] = st.lcounts.try_emplace(enc);
          CountEntry& e = it->second;
          if (fresh) {
            e.row = r;
            *bytes += TupleBytes(r) + kEntryOverhead;
          }
          bool was = e.count > 0;
          ++e.count;
          if (!was && rcount(enc) == 0) out.plus.push_back(r);
        }
        for (const Tuple& r : dl.minus) {
          std::string enc = Enc(r);
          auto it = st.lcounts.find(enc);
          if (it == st.lcounts.end() || it->second.count <= 0) return false;
          CountEntry& e = it->second;
          if (--e.count == 0) {
            if (rcount(enc) == 0) out.minus.push_back(e.row);
            SubBytes(bytes, TupleBytes(e.row) + kEntryOverhead);
            st.lcounts.erase(it);
          }
        }
        break;
      }
    }
    if (over_cap()) return false;
  }
  *result = std::move(dio[static_cast<size_t>(plan_->output())]);
  return true;
}

const std::unordered_set<std::string>& TouchedKeys::Of(
    const AccessIndex& binding) {
  auto [it, fresh] = by_binding_.try_emplace(&binding);
  if (fresh) {
    const std::string& rel = binding.constraint().rel;
    for (const Delta& d : deltas_) {
      if (d.rel == rel) it->second.insert(Enc(binding.FetchKeyOf(d.row)));
    }
  }
  return it->second;
}

bool PlanMaintenance::SkipIfUntouched(const WriterPriorityGate& gate,
                                      TouchedKeys* touched) {
  (void)gate;  // Capability parameter: the REQUIRES contract is it.
  if (dead_) return false;
  for (const auto& [index, st] : fetches_) {
    const std::unordered_set<std::string>& keys = touched->Of(*index);
    if (keys.empty()) continue;
    if (keys.size() <= st->probed.size()) {
      for (const std::string& k : keys) {
        if (st->probed.count(k) != 0) return false;
      }
    } else {
      for (const auto& [k, e] : st->probed) {
        if (keys.count(k) != 0) return false;
      }
    }
  }
  // Untouched: the batch's log events (if any) all land on keys this handle
  // never probed, so the cursors skip them.
  for (const auto& [index, st] : fetches_) {
    if (touched->Of(*index).empty()) continue;  // Nothing logged.
    st->log_stamp.clear();
    plan_->source().PatchLogSince(*index, &st->log_stamp, nullptr);
  }
  return true;
}

RefreshOutcome PlanMaintenance::Refresh(
    const WriterPriorityGate& gate, const std::vector<Delta>& deltas,
    const std::shared_ptr<const Table>& current,
    std::shared_ptr<const Table>* patched, RefreshStats* stats) {
  if (stats != nullptr) *stats = RefreshStats{};
  if (dead_ || current == nullptr || patched == nullptr) {
    dead_ = true;
    return RefreshOutcome::kNotMaintainable;
  }

  // Phase clocks only when the caller wants stats: three steady_clock
  // reads per refresh, none per row.
  using Clock = std::chrono::steady_clock;
  const bool timed = stats != nullptr;
  Clock::time_point t_start, t_classified, t_propagated;
  if (timed) t_start = Clock::now();

  // Classify the batch against the plan's fetch read set.
  DeltasByRel by_rel;
  size_t relevant = 0;
  for (const Delta& d : deltas) {
    if (read_rels_.count(d.rel) == 0) continue;
    by_rel[std::string_view(d.rel)].push_back(&d);
    ++relevant;
  }
  if (timed) {
    t_classified = Clock::now();
    stats->deltas_relevant = relevant;
    stats->classify_us = MicrosSince(t_start, t_classified);
  }
  if (relevant == 0) {
    // The batch only touched relations outside the read set: the cached
    // table is already the post-batch answer, it just needs re-keying to
    // the new snapshot by the caller. (No bound index logged an event
    // either — an index only records transitions of its own relation — so
    // the patch-log cursors are already current.)
    *patched = current;
    return RefreshOutcome::kRefreshed;
  }

  // Propagate the signed micro-batch through the op DAG. A failure kills
  // the handle: retained state may be partially advanced past the
  // pre-batch world.
  SignedRows out;
  bool ok = Propagate(gate, by_rel, /*seed=*/false, static_cast<size_t>(-1),
                      stats, &out);
  if (timed) {
    t_propagated = Clock::now();
    stats->propagate_us = MicrosSince(t_classified, t_propagated);
  }
  if (!ok) {
    dead_ = true;
    return RefreshOutcome::kNotMaintainable;
  }

  // Apply the output's *net* signed bag to the cached table. Netting first
  // (instead of removing minus rows and appending plus rows independently)
  // makes transient plus/minus pairs from upstream set-semantic transitions
  // cancel instead of tripping the missing-row check.
  if (out.plus.empty() && out.minus.empty()) {
    *patched = current;
    return RefreshOutcome::kRefreshed;
  }
  struct Net {
    const Tuple* row = nullptr;
    int64_t count = 0;
  };
  std::unordered_map<std::string, Net> net;
  for (const Tuple& r : out.plus) {
    Net& n = net[Enc(r)];
    n.row = &r;
    ++n.count;
  }
  for (const Tuple& r : out.minus) {
    Net& n = net[Enc(r)];
    if (n.row == nullptr) n.row = &r;
    --n.count;
  }
  size_t added = 0, removed = 0;
  Table t(current->schema());
  for (const Tuple& r : current->rows()) {
    auto it = net.find(Enc(r));
    if (it != net.end() && it->second.count < 0) {
      ++it->second.count;
      ++removed;
      continue;
    }
    t.InsertUnchecked(r);
  }
  for (const auto& [enc, n] : net) {
    if (n.count < 0) {
      // A net removal the cached table does not contain: the retained state
      // and the table disagree. Never expected (Build verified the bag);
      // fall back rather than serve a speculative patch.
      dead_ = true;
      return RefreshOutcome::kNotMaintainable;
    }
    for (int64_t k = 0; k < n.count; ++k) {
      t.InsertUnchecked(*n.row);
      ++added;
    }
  }
  if (stats != nullptr) {
    stats->rows_added = added;
    stats->rows_removed = removed;
  }
  if (timed) stats->patch_us = MicrosSince(t_propagated, Clock::now());
  *patched = std::make_shared<const Table>(std::move(t));
  return RefreshOutcome::kRefreshed;
}

}  // namespace bqe
