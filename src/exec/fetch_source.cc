#include "exec/fetch_source.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "exec/key_codec.h"
#include "exec/operators.h"
#include "exec/parallel.h"

namespace bqe {

namespace {

void WriteSegment(const FrozenSegment& g, BatchWriter* w) {
  if (g.rows != nullptr) {
    w->WriteGather(*g.batch, g.rows, g.n, {});
  } else {
    w->WriteGatherRange(*g.batch, g.begin, g.end - g.begin);
  }
}

/// Dedupes the input's rows (the encoded row *is* the X-key, so the dedupe
/// key doubles as the probe into the index's key-encoded columnar mirror),
/// probes the frozen mirror once per distinct key in first-occurrence
/// order, and hands each non-empty hit segment to `emit`.
template <typename Emit>
void ProbeDistinct(const AccessIndex& idx, const BatchVec& input,
                   FetchCounters* counters, Emit emit) {
  KeyTable seen(TotalRows(input));
  KeyEncoder enc;
  for (const ColumnBatch& b : input) {
    enc.Encode(b, {});
    for (size_t i = 0; i < b.num_rows(); ++i) {
      std::string_view key = enc.Key(i);
      bool inserted = false;
      seen.InsertOrFind(key, &inserted);
      if (!inserted) continue;  // Probe each distinct key once.
      ++counters->probes;
      FrozenSegment hit[2];
      size_t ns = idx.FrozenProbe(key, hit);
      for (size_t k = 0; k < ns; ++k) {
        size_t rows = hit[k].NumRows();
        if (rows == 0) continue;
        counters->tuples_fetched += rows;
        emit(hit[k]);
      }
    }
  }
}

class LocalSource final : public FetchSource {
 public:
  size_t NumEntries(const AccessIndex& binding) const override {
    return binding.NumEntries();
  }

  BatchVec FetchBatches(const AccessIndex& idx, const BatchVec& input,
                        size_t batch_size, size_t workers, uint64_t task_tag,
                        FetchCounters* counters) const override {
    idx.EnsureFrozen();
    BatchVec out;
    if (workers <= 1) {
      // Serial: each hit bucket goes straight through the writer, with no
      // segment list in between.
      BatchWriter w(idx.output_types(), batch_size, &out);
      ProbeDistinct(idx, input, counters,
                    [&](const FrozenSegment& g) { WriteSegment(g, &w); });
      w.Finish();
      return out;
    }
    // Parallel: collect the segments serially, then gather them in
    // row-balanced contiguous morsels.
    std::vector<FrozenSegment> segs;
    size_t total = 0;
    ProbeDistinct(idx, input, counters, [&](const FrozenSegment& g) {
      total += g.NumRows();
      segs.push_back(g);
    });
    size_t target = std::max(batch_size, total / (workers * 4) + 1);
    std::vector<std::pair<size_t, size_t>> morsels;
    size_t begin = 0, acc = 0;
    for (size_t k = 0; k < segs.size(); ++k) {
      acc += segs[k].NumRows();
      if (acc >= target) {
        morsels.emplace_back(begin, k + 1);
        begin = k + 1;
        acc = 0;
      }
    }
    if (begin < segs.size()) morsels.emplace_back(begin, segs.size());
    std::vector<BatchVec> mout(morsels.size());
    WorkerPool::Shared().ParallelFor(
        morsels.size(), WorkerPool::GroupOptions{workers, task_tag},
        [&](size_t, size_t m) {
          BatchWriter w(idx.output_types(), batch_size, &mout[m]);
          for (size_t k = morsels[m].first; k < morsels[m].second; ++k) {
            WriteSegment(segs[k], &w);
          }
          w.Finish();
        });
    return ConcatMorsels(&mout);
  }

  std::vector<std::vector<Tuple>> FetchRows(
      const AccessIndex& idx, const std::vector<Tuple>& keys) const override {
    std::vector<std::vector<Tuple>> out;
    out.reserve(keys.size());
    for (const Tuple& key : keys) out.push_back(idx.Fetch(key));
    return out;
  }

  bool PatchLogSince(const AccessIndex& idx, std::vector<uint64_t>* cursor,
                     std::vector<BucketPatch>* out) const override {
    if (cursor->empty()) {
      cursor->push_back(idx.patch_log_stamp());
      return true;
    }
    const bool ok = idx.PatchLogSince((*cursor)[0], out);
    (*cursor)[0] = idx.patch_log_stamp();
    return ok;
  }
};

}  // namespace

const FetchSource& LocalFetchSource() {
  static const LocalSource source;
  return source;
}

}  // namespace bqe
