#ifndef TIGERVECTOR_HNSW_FLAT_INDEX_H_
#define TIGERVECTOR_HNSW_FLAT_INDEX_H_

#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "hnsw/vector_index.h"
#include "simd/sq8.h"

namespace tigervector {

// Exact (linear-scan) vector index implementing the VectorIndex contract.
// Selected with INDEX = FLAT in the embedding metadata; useful for small
// segments, as a correctness oracle, and as the simplest demonstration
// that additional index types slot into TigerVector (paper Sec. 4.4).
class FlatIndex : public VectorIndex {
 public:
  FlatIndex(size_t dim, Metric metric, bool sq8 = false)
      : dim_(dim), metric_(metric), sq8_(sq8) {}

  Status AddPoint(uint64_t label, const float* vec) override;
  Status UpdateItems(const std::vector<VectorIndexUpdate>& items,
                     ThreadPool* pool) override;
  Status MarkDeleted(uint64_t label) override;
  bool Contains(uint64_t label) const override;
  bool IsDeleted(uint64_t label) const override;
  Status GetEmbedding(uint64_t label, float* out) const override;

  using VectorIndex::BruteForceSearch;
  using VectorIndex::RangeSearch;
  using VectorIndex::TopKSearch;

  std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef,
                                    const FilterView& filter) const override;
  std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                     size_t initial_k, size_t ef,
                                     const FilterView& filter) const override;
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                          const FilterView& filter,
                                          float max_distance) const override;

  size_t size() const override;
  size_t dim() const override { return dim_; }
  Metric metric() const override { return metric_; }
  std::vector<uint64_t> Labels() const override;
  std::string index_type() const override { return "FLAT"; }

  // (Re)trains the SQ8 tier from the stored rows; everything happens under
  // the index's exclusive lock, so unlike HNSW there are no racy encodes.
  Status TrainQuantization() override;
  bool quant_active() const override;
  // The trained quantizer; invalid until TrainQuantization succeeds.
  simd::Sq8Params quant_params() const;

 private:
  struct Slot {
    bool deleted = false;
    size_t offset = 0;  // into data_
  };

  size_t dim_;
  Metric metric_;
  bool sq8_;
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, Slot> slots_;
  std::vector<float> data_;
  std::vector<uint64_t> order_;  // label per stored row
  size_t live_ = 0;

  // SQ8 tier (maintained only once trained): codes_ parallels data_ byte
  // for float, norms_ holds one code self-dot per stored row.
  bool quant_trained_ = false;
  simd::Sq8Params qparams_;
  std::vector<int8_t> codes_;
  std::vector<int64_t> norms_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_FLAT_INDEX_H_
