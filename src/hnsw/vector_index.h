#ifndef TIGERVECTOR_HNSW_VECTOR_INDEX_H_
#define TIGERVECTOR_HNSW_VECTOR_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/bitmap.h"
#include "util/cancel.h"
#include "util/status.h"

namespace tigervector {

class ThreadPool;

// A single search hit: label of the stored item plus its distance to the
// query under the index metric. Ordered by (distance, label), the one
// tie-break of every exact scan, HNSW cut, segment and cluster merge.
struct SearchHit {
  float distance;
  uint64_t label;
  bool operator<(const SearchHit& other) const {
    return distance != other.distance ? distance < other.distance : label < other.label;
  }
};

// One record of a batched index maintenance pass (paper Sec. 4.4:
// UpdateItems applies delta-file records in parallel).
struct VectorIndexUpdate {
  uint64_t label;
  bool is_delete;
  std::vector<float> value;
};

// The index abstraction behind an embedding segment. The paper names four
// generic functions — GetEmbedding, TopKSearch, RangeSearch, UpdateItems —
// and argues that once they exist, "integrating additional vector indexes
// into TigerVector becomes straightforward" (Sec. 4.4). HnswIndex is the
// production implementation; FlatIndex and IvfFlatIndex demonstrate the
// extension point (quantization/clustering-based indexes).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  // Inserts a new point or updates an existing label.
  virtual Status AddPoint(uint64_t label, const float* vec) = 0;

  // Batch upsert/tombstone; parallelized across `pool` when non-null with
  // per-label ordering preserved.
  virtual Status UpdateItems(const std::vector<VectorIndexUpdate>& items,
                             ThreadPool* pool) = 0;

  // Tombstones a label. NotFound if never inserted.
  virtual Status MarkDeleted(uint64_t label) = 0;

  virtual bool Contains(uint64_t label) const = 0;
  virtual bool IsDeleted(uint64_t label) const = 0;

  // Copies the stored vector for `label` into `out` (dim() floats).
  virtual Status GetEmbedding(uint64_t label, float* out) const = 0;

  // Approximate (or exact, per implementation) k-nearest search. `ef` is
  // the accuracy knob; exact indexes ignore it. Sorted ascending.
  virtual std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef,
                                            const FilterView& filter) const = 0;

  // All points with distance < threshold, sorted by (distance, label). The
  // default is the DiskANN adaptation of paper Sec. 4.4: repeat TopKSearch
  // with k doubling from initial_k until the threshold falls below the
  // median returned distance or k covers every live point. It ranks on
  // exact fp32 whatever the quantized tier, because the median stop test
  // needs true distances, and checks the request deadline after each round.
  // Exact indexes override it with one range scan.
  virtual std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                             size_t initial_k, size_t ef,
                                             const FilterView& filter) const {
    simd::ScopedQuantQuery exact_scope(false, 0);
    const size_t total = size();
    size_t k = std::max<size_t>(1, initial_k);
    std::vector<SearchHit> hits;
    for (;;) {
      hits = TopKSearch(query, k, std::max(ef, k), filter);
      if (CancelCheckExpired()) break;  // the caller discards via its own check
      if (hits.size() < k) break;       // exhausted all valid points
      if (threshold < hits[hits.size() / 2].distance) break;
      if (k >= total) break;
      k = std::min(total, k * 2);
    }
    std::vector<SearchHit> out;
    for (const SearchHit& h : hits) {
      if (h.distance < threshold) out.push_back(h);
    }
    return out;
  }

  // Exact scan over live, filter-accepted points: the k nearest with
  // distance < max_distance, sorted by (distance, label), so a tie goes to
  // the lower label. A finite max_distance makes it an exact fp32 range
  // scan. An unbounded scan on a trained quantized tier ranks on SQ8 codes
  // and reranks the best rerank_factor*k in fp32. A filter whose bitmap
  // sets fewer bits than the index has rows is walked by its set bits
  // (ForEachCandidateLabel), so the cost follows the candidates; otherwise
  // every row is walked. The request deadline is polled every
  // kCancelCheckInterval rows; once it fires the scan stops and its partial
  // result is for the caller to discard. Every index implements this
  // through the one scan in hnsw/exact_scan.h.
  virtual std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                                  const FilterView& filter,
                                                  float max_distance) const = 0;

  virtual size_t size() const = 0;       // live points
  virtual size_t dim() const = 0;
  virtual Metric metric() const = 0;
  virtual std::vector<uint64_t> Labels() const = 0;
  virtual std::string index_type() const = 0;

  // (Re)trains the quantized tier from the currently stored vectors, if the
  // index was built with quantization enabled. Called by the segment after
  // bulk maintenance (index merge, rebuild) so freshly merged rows get
  // codes under up-to-date per-segment statistics. No-op by default.
  virtual Status TrainQuantization() { return Status::OK(); }

  // True when a trained quantized tier is currently serving approximate
  // scans (i.e. searches on this index rank on codes and rerank on fp32).
  virtual bool quant_active() const { return false; }

  // Convenience overloads with an accept-all filter.
  std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef) const {
    return TopKSearch(query, k, ef, FilterView());
  }
  std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                     size_t initial_k, size_t ef) const {
    return RangeSearch(query, threshold, initial_k, ef, FilterView());
  }
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                          const FilterView& filter) const {
    return BruteForceSearch(query, k, filter, std::numeric_limits<float>::infinity());
  }
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k) const {
    return BruteForceSearch(query, k, FilterView());
  }
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_VECTOR_INDEX_H_
