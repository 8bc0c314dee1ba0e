#ifndef TIGERVECTOR_HNSW_IVF_INDEX_H_
#define TIGERVECTOR_HNSW_IVF_INDEX_H_

#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "hnsw/exact_scan.h"
#include "hnsw/vector_index.h"
#include "simd/sq8.h"
#include "util/rng.h"

namespace tigervector {

struct IvfParams {
  size_t dim = 0;
  Metric metric = Metric::kL2;
  size_t nlist = 64;           // number of inverted lists (clusters)
  size_t kmeans_iters = 5;     // Lloyd iterations at (re)train time
  size_t train_threshold = 256;  // retrain once this many points arrived
  uint64_t seed = 11;
  bool sq8 = false;              // keep an int8 SQ8 tier beside the records
};

// IVF-Flat: a clustering-based index (the "quantization-based indexes"
// family the paper cites as easy to add, Sec. 4.4). Vectors are assigned
// to their nearest of nlist centroids; a search probes the closest
// `nprobe` lists, where nprobe is derived from the ef accuracy knob.
// Centroids are trained lazily with a few Lloyd iterations once enough
// points exist, and points are reassigned on retrain.
class IvfFlatIndex : public VectorIndex {
 public:
  explicit IvfFlatIndex(const IvfParams& params);

  Status AddPoint(uint64_t label, const float* vec) override;
  Status UpdateItems(const std::vector<VectorIndexUpdate>& items,
                     ThreadPool* pool) override;
  Status MarkDeleted(uint64_t label) override;
  bool Contains(uint64_t label) const override;
  bool IsDeleted(uint64_t label) const override;
  Status GetEmbedding(uint64_t label, float* out) const override;

  using VectorIndex::BruteForceSearch;
  using VectorIndex::TopKSearch;

  std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef,
                                    const FilterView& filter) const override;
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                          const FilterView& filter,
                                          float max_distance) const override;

  size_t size() const override;
  size_t dim() const override { return params_.dim; }
  Metric metric() const override { return params_.metric; }
  std::vector<uint64_t> Labels() const override;
  std::string index_type() const override { return "IVF_FLAT"; }

  // Number of lists probed for a given ef (exposed for tests).
  size_t NProbeFor(size_t ef) const;
  bool trained() const;

  Status TrainQuantization() override;
  bool quant_active() const override;
  // The trained quantizer; invalid until TrainQuantization succeeds.
  simd::Sq8Params quant_params() const;

 private:
  struct Record {
    uint64_t label;
    bool deleted = false;
    std::vector<float> value;
    size_t list = 0;
  };

  // Requires exclusive mu_.
  void TrainLocked();
  size_t NearestCentroidLocked(const float* vec) const;

  // Requires exclusive mu_ and quant_trained_; refreshes record idx's codes.
  void EncodeRecordLocked(size_t idx);

  // Requires shared mu_: hands live record `idx` (fp32 row plus its SQ8
  // code once trained) to an exact-scan emitter; false once the scan stops.
  template <typename Emit>
  bool EmitLocked(size_t idx, Emit& emit) const;

  IvfParams params_;
  mutable std::shared_mutex mu_;
  std::vector<Record> records_;
  std::unordered_map<uint64_t, size_t> by_label_;
  std::vector<float> centroids_;               // nlist x dim once trained
  std::vector<std::vector<size_t>> lists_;     // record indices per list
  bool trained_ = false;
  size_t live_ = 0;
  Rng rng_;

  // SQ8 tier: one code row + norm per record index (see FlatIndex).
  bool quant_trained_ = false;
  simd::Sq8Params qparams_;
  std::vector<std::vector<int8_t>> qcodes_;
  std::vector<int64_t> qnorms_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_IVF_INDEX_H_
