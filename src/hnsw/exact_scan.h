#ifndef TIGERVECTOR_HNSW_EXACT_SCAN_H_
#define TIGERVECTOR_HNSW_EXACT_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "hnsw/vector_index.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/bitmap.h"
#include "util/cancel.h"
#include "util/topk_heap.h"

namespace tigervector {

// Rows per batched kernel call for every scan in the index layer: the
// metric dispatch resolves once per batch and upcoming rows are prefetched
// while the current one is reduced.
inline constexpr size_t kScanBatch = 128;

// The query side of a scan. `sq8` is the index's trained quantizer, or
// nullptr when it has none.
struct ScanQuery {
  Metric metric;
  size_t dim;
  const float* vec;
  const simd::Sq8Params* sq8 = nullptr;
};

// A row as the scan carries it: the label it reports and the fp32 vector the
// exact rerank reads again. Ordered by label, which makes (distance, label)
// the tie-break of every scan heap.
struct ScanRow {
  uint64_t label;
  const float* vec;
  bool operator<(const ScanRow& other) const { return label < other.label; }
};

// Rows scored by a scan's batched kernels and candidates rescored by its
// rerank. HNSW reports their sum as distance evaluations.
struct ScanCounts {
  size_t scored = 0;
  size_t reranked = 0;
};

// Exact fp32 rescore of approx-ranked candidates: sorted by (distance,
// label) and truncated to k. Reported distances are therefore always exact.
inline std::vector<SearchHit> ExactRerank(const ScanQuery& q, size_t k,
                                          const std::vector<ScanRow>& candidates,
                                          ScanCounts* counts = nullptr) {
  const float* vecs[kScanBatch];
  float dists[kScanBatch];
  std::vector<SearchHit> out;
  out.reserve(candidates.size());
  for (size_t j0 = 0; j0 < candidates.size(); j0 += kScanBatch) {
    const size_t n = std::min(kScanBatch, candidates.size() - j0);
    for (size_t j = 0; j < n; ++j) vecs[j] = candidates[j0 + j].vec;
    ComputeDistanceBatchGather(q.metric, q.vec, vecs, q.dim, n, dists);
    for (size_t j = 0; j < n; ++j) {
      out.push_back(SearchHit{dists[j], candidates[j0 + j].label});
    }
  }
  simd::NoteQuantScan(candidates.size());
  if (counts != nullptr) counts->reranked += candidates.size();
  std::sort(out.begin(), out.end());
  if (out.size() > k) out.resize(k);
  return out;
}

// The candidate walk of the brute-force tier (paper Sec. 5.1). When `filter`
// carries a bitmap with fewer set bits than the index has `rows`, calls
// visit(label) for the label base + i of each set bit i, in ascending order,
// until visit returns false, and returns true; the index looks each label up
// under its own lock. Otherwise it visits nothing and returns false, and the
// index walks its rows. Both walks offer the scan the same filter-accepted
// live rows, so the answer does not depend on which one runs.
template <typename Visit>
bool ForEachCandidateLabel(const FilterView& filter, size_t rows, Visit&& visit) {
  const Bitmap* bits = filter.bitmap();
  if (bits == nullptr || bits->Count() >= rows) return false;
  bool more = true;
  bits->ForEachSet([&](size_t i) {
    if (more) more = visit(filter.base() + i);
  });
  return true;
}

// The one exact scan (paper Sec. 5.1's brute-force tier, the IVF_FLAT list
// probe, and the delta overlay of Sec. 4.3): the k nearest filter-accepted
// rows with distance < max_distance, sorted by (distance, label).
//
// Each index keeps its own storage and lock and hands the scan a walker,
// `walk(emit)`, that calls `emit(label, vec, code, code_norm)` for every
// live row while the index holds its lock, and stops as soon as emit
// returns false. `vec` must stay valid until the scan returns; `code` is
// the row's SQ8 code, or nullptr when it has none. `counts` may be null.
//
// An unbounded scan (max_distance = +inf) on an index with a quantizer
// ranks rows that have codes on SQ8 — rows without one in exact fp32 —
// into a rerank_factor*k heap when the thread's ScopedQuantQuery enables
// it, then reranks the survivors from the fp32 rows it carried. A bounded
// scan is a range scan and stays exact fp32. The heap's current worst
// distance (or max_distance) is the kernel threshold. The request deadline
// is polled every kCancelCheckInterval rows walked; once it fires the scan
// stops and returns what it has, which the caller discards.
template <typename Walk>
std::vector<SearchHit> ExactScan(const ScanQuery& q, size_t k, float max_distance,
                                 const FilterView& filter, ScanCounts* counts,
                                 Walk&& walk) {
  if (k == 0) return {};  // a zero-capacity heap is full but has no worst
  const bool bounded = max_distance < std::numeric_limits<float>::infinity();
  const bool quant = q.sq8 != nullptr && !bounded && simd::ScopedQuantQuery::Enabled();
  size_t heap_k = k;
  std::vector<int8_t> qcode;
  int64_t qnorm = 0;
  if (quant) {
    const size_t factor = std::max<size_t>(1, simd::ScopedQuantQuery::RerankFactor());
    heap_k = k > std::numeric_limits<size_t>::max() / factor
                 ? std::numeric_limits<size_t>::max()
                 : k * factor;
    qcode.resize(q.dim);
    simd::Sq8Encode(*q.sq8, q.vec, q.dim, qcode.data());
    qnorm = simd::Sq8CodeNorm(qcode.data(), q.dim);
  }

  TopKHeap<ScanRow> heap(heap_k);
  uint64_t labels[kScanBatch];
  const float* vecs[kScanBatch];
  bool coded[kScanBatch];
  const int8_t* codes[kScanBatch];
  int64_t code_norms[kScanBatch];
  float dists[kScanBatch];
  float code_dists[kScanBatch];
  size_t n = 0;
  size_t nc = 0;  // rows of the batch with codes
  size_t walked = 0;

  auto flush = [&] {
    const float threshold = heap.full() ? heap.WorstDistance() : max_distance;
    if (nc == 0) {
      ComputeDistanceBatchGather(q.metric, q.vec, vecs, q.dim, n, dists, threshold);
    } else {
      simd::Sq8DistanceBatchGather(q.metric, qcode.data(), qnorm, q.sq8->scale, codes,
                                   code_norms, q.dim, nc, code_dists, threshold);
      for (size_t j = 0, c = 0; j < n; ++j) {
        dists[j] = coded[j] ? code_dists[c++]
                            : ComputeDistance(q.metric, q.vec, vecs[j], q.dim);
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (heap.WouldReject(dists[j])) continue;
      if (bounded && !(dists[j] < max_distance)) continue;
      heap.Push(dists[j], ScanRow{labels[j], vecs[j]});
    }
    if (counts != nullptr) counts->scored += n;
    n = 0;
    nc = 0;
  };
  // The per-row path is instantiated once per ranking mode, so the exact
  // fp32 scan carries no SQ8 bookkeeping.
  auto scan = [&](auto quant_mode) {
    walk([&](uint64_t label, const float* vec, const int8_t* code,
             int64_t code_norm) -> bool {
      if (walked++ % kCancelCheckInterval == 0 && CancelCheckExpired()) return false;
      if (!filter.Accepts(label)) return true;
      labels[n] = label;
      vecs[n] = vec;
      if constexpr (decltype(quant_mode)::value) {
        coded[n] = code != nullptr;
        if (coded[n]) {
          codes[nc] = code;
          code_norms[nc] = code_norm;
          ++nc;
        }
      }
      if (++n == kScanBatch) flush();
      return true;
    });
  };
  if (quant) {
    scan(std::true_type{});
  } else {
    scan(std::false_type{});
  }
  if (n > 0) flush();

  auto ranked = heap.TakeSorted();
  if (quant) {
    std::vector<ScanRow> survivors;
    survivors.reserve(ranked.size());
    for (const auto& e : ranked) survivors.push_back(e.id);
    return ExactRerank(q, k, survivors, counts);
  }
  std::vector<SearchHit> out;
  out.reserve(ranked.size());
  for (const auto& e : ranked) out.push_back(SearchHit{e.distance, e.id.label});
  return out;
}

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_EXACT_SCAN_H_
