#include "hnsw/flat_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>

#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/topk_heap.h"

namespace tigervector {

namespace {
// Rows accepted by the filter are gathered into fixed-size chunks and
// handed to the batched kernel in one call: the metric dispatch resolves
// once per chunk and upcoming rows are prefetched while the current one is
// being reduced.
constexpr size_t kScanBatch = 128;
}  // namespace

Status FlatIndex::AddPoint(uint64_t label, const float* vec) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = slots_.find(label);
  if (it != slots_.end()) {
    std::memcpy(data_.data() + it->second.offset, vec, dim_ * sizeof(float));
    if (it->second.deleted) {
      it->second.deleted = false;
      ++live_;
    }
    if (quant_trained_) {
      int8_t* codes = codes_.data() + it->second.offset;
      simd::Sq8Encode(qparams_, vec, dim_, codes);
      norms_[it->second.offset / dim_] = simd::Sq8CodeNorm(codes, dim_);
    }
    return Status::OK();
  }
  Slot slot;
  slot.offset = data_.size();
  data_.insert(data_.end(), vec, vec + dim_);
  order_.push_back(label);
  slots_.emplace(label, slot);
  ++live_;
  if (quant_trained_) {
    codes_.resize(data_.size());
    int8_t* codes = codes_.data() + slot.offset;
    simd::Sq8Encode(qparams_, vec, dim_, codes);
    norms_.push_back(simd::Sq8CodeNorm(codes, dim_));
  }
  return Status::OK();
}

Status FlatIndex::TrainQuantization() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!sq8_ || order_.empty()) return Status::OK();
  simd::Sq8Trainer trainer(dim_);
  for (size_t row = 0; row < order_.size(); ++row) {
    trainer.Observe(data_.data() + row * dim_);
  }
  qparams_ = trainer.Finish();
  if (!qparams_.valid()) return Status::OK();
  codes_.resize(data_.size());
  norms_.resize(order_.size());
  for (size_t row = 0; row < order_.size(); ++row) {
    int8_t* codes = codes_.data() + row * dim_;
    simd::Sq8Encode(qparams_, data_.data() + row * dim_, dim_, codes);
    norms_[row] = simd::Sq8CodeNorm(codes, dim_);
  }
  quant_trained_ = true;
  TV_COUNTER_INC("tv.quant.trainings_total");
  return Status::OK();
}

bool FlatIndex::quant_active() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return quant_trained_;
}

Status FlatIndex::UpdateItems(const std::vector<VectorIndexUpdate>& items,
                              ThreadPool* pool) {
  (void)pool;  // linear structure; batch applies sequentially
  for (const VectorIndexUpdate& item : items) {
    if (item.is_delete) {
      Status st = MarkDeleted(item.label);
      if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    } else {
      TV_RETURN_NOT_OK(AddPoint(item.label, item.value.data()));
    }
  }
  return Status::OK();
}

Status FlatIndex::MarkDeleted(uint64_t label) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = slots_.find(label);
  if (it == slots_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  if (!it->second.deleted) {
    it->second.deleted = true;
    --live_;
  }
  return Status::OK();
}

bool FlatIndex::Contains(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return slots_.count(label) > 0;
}

bool FlatIndex::IsDeleted(uint64_t label) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = slots_.find(label);
  return it == slots_.end() || it->second.deleted;
}

Status FlatIndex::GetEmbedding(uint64_t label, float* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = slots_.find(label);
  if (it == slots_.end()) {
    return Status::NotFound("label " + std::to_string(label) + " not in index");
  }
  std::memcpy(out, data_.data() + it->second.offset, dim_ * sizeof(float));
  return Status::OK();
}

std::vector<SearchHit> FlatIndex::TopKSearch(const float* query, size_t k, size_t ef,
                                             const FilterView& filter) const {
  (void)ef;  // exact index: no accuracy knob
  return BruteForceSearch(query, k, filter);
}

std::vector<SearchHit> FlatIndex::RangeSearch(const float* query, float threshold,
                                              size_t initial_k, size_t ef,
                                              const FilterView& filter) const {
  (void)initial_k;
  (void)ef;
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<SearchHit> out;
  const float* rows[kScanBatch];
  uint64_t row_labels[kScanBatch];
  float dists[kScanBatch];
  size_t n = 0;
  auto flush = [&] {
    if (ComputeDistanceBatchGather(metric_, query, rows, dim_, n, dists,
                                   threshold) > 0) {
      for (size_t j = 0; j < n; ++j) {
        if (dists[j] < threshold) out.push_back(SearchHit{dists[j], row_labels[j]});
      }
    }
    n = 0;
  };
  for (size_t row = 0; row < order_.size(); ++row) {
    const uint64_t label = order_[row];
    auto it = slots_.find(label);
    if (it->second.deleted || !filter.Accepts(label)) continue;
    rows[n] = data_.data() + it->second.offset;
    row_labels[n] = label;
    if (++n == kScanBatch) flush();
  }
  if (n > 0) flush();
  std::sort(out.begin(), out.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.label < b.label;
  });
  return out;
}

std::vector<SearchHit> FlatIndex::BruteForceSearch(const float* query, size_t k,
                                                   const FilterView& filter) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const bool use_quant =
      quant_trained_ && simd::ScopedQuantQuery::Enabled() && k > 0;
  // Quantized scan: rank every row on int8 codes into a rerank_factor*k
  // heap, then rescore the survivors with exact fp32 below.
  const size_t heap_k =
      use_quant ? std::max<size_t>(1, simd::ScopedQuantQuery::RerankFactor()) * k
                : k;
  std::vector<int8_t> qcode;
  int64_t qnorm = 0;
  if (use_quant) {
    qcode.resize(dim_);
    simd::Sq8Encode(qparams_, query, dim_, qcode.data());
    qnorm = simd::Sq8CodeNorm(qcode.data(), dim_);
  }
  TopKHeap<uint64_t> heap(heap_k);
  const float* rows[kScanBatch];
  const int8_t* crows[kScanBatch];
  int64_t cnorms[kScanBatch];
  uint64_t row_labels[kScanBatch];
  float dists[kScanBatch];
  size_t n = 0;
  auto flush = [&] {
    const float threshold = heap.full() ? heap.WorstDistance()
                                        : std::numeric_limits<float>::infinity();
    if (use_quant) {
      simd::Sq8DistanceBatchGather(metric_, qcode.data(), qnorm, qparams_.scale,
                                   crows, cnorms, dim_, n, dists, threshold);
    } else {
      ComputeDistanceBatchGather(metric_, query, rows, dim_, n, dists, threshold);
    }
    for (size_t j = 0; j < n; ++j) {
      if (!heap.WouldReject(dists[j])) heap.Push(dists[j], row_labels[j]);
    }
    n = 0;
  };
  for (size_t row = 0; row < order_.size(); ++row) {
    // Request deadline check; the partial heap is discarded by the caller.
    if ((row & (kCancelCheckInterval - 1)) == 0 && CancelCheckExpired()) break;
    const uint64_t label = order_[row];
    auto it = slots_.find(label);
    if (it->second.deleted || !filter.Accepts(label)) continue;
    if (use_quant) {
      crows[n] = codes_.data() + it->second.offset;
      cnorms[n] = norms_[it->second.offset / dim_];
    } else {
      rows[n] = data_.data() + it->second.offset;
    }
    row_labels[n] = label;
    if (++n == kScanBatch) flush();
  }
  if (n > 0) flush();
  if (!use_quant) {
    std::vector<SearchHit> out;
    for (const auto& e : heap.TakeSorted()) out.push_back(SearchHit{e.distance, e.id});
    return out;
  }
  // Rerank the approx-ranked survivors with exact fp32 distances.
  const auto approx = heap.TakeSorted();
  std::vector<SearchHit> reranked;
  reranked.reserve(approx.size());
  for (size_t j0 = 0; j0 < approx.size(); j0 += kScanBatch) {
    const size_t bn = std::min(kScanBatch, approx.size() - j0);
    for (size_t j = 0; j < bn; ++j) {
      rows[j] = data_.data() + slots_.find(approx[j0 + j].id)->second.offset;
    }
    ComputeDistanceBatchGather(metric_, query, rows, dim_, bn, dists);
    for (size_t j = 0; j < bn; ++j) {
      reranked.push_back(SearchHit{dists[j], approx[j0 + j].id});
    }
  }
  simd::NoteQuantScan(approx.size());
  std::sort(reranked.begin(), reranked.end(),
            [](const SearchHit& a, const SearchHit& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.label < b.label;
            });
  if (reranked.size() > k) reranked.resize(k);
  return reranked;
}

size_t FlatIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return live_;
}

std::vector<uint64_t> FlatIndex::Labels() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(live_);
  for (const auto& [label, slot] : slots_) {
    if (!slot.deleted) out.push_back(label);
  }
  return out;
}

}  // namespace tigervector
