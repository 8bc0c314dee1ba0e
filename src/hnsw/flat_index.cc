#include "hnsw/flat_index.h"

#include <cstring>
#include <limits>
#include <mutex>

#include "hnsw/exact_scan.h"
#include "obs/metrics.h"

namespace tigervector {

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

simd::Sq8Params FlatIndex::quant_params() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return quant_trained_ ? qparams_ : simd::Sq8Params();
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
  return BruteForceSearch(query, std::numeric_limits<size_t>::max(), filter, threshold);
}

std::vector<SearchHit> FlatIndex::BruteForceSearch(const float* query, size_t k,
                                                   const FilterView& filter,
                                                   float max_distance) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const ScanQuery q{metric_, dim_, query, quant_trained_ ? &qparams_ : nullptr};
  return ExactScan(q, k, max_distance, filter, nullptr, [&](auto&& emit) {
    // Offers `label`'s row unless deleted; false once the scan stops.
    auto offer = [&](uint64_t label, const Slot& slot) {
      if (slot.deleted) return true;
      const int8_t* code = quant_trained_ ? codes_.data() + slot.offset : nullptr;
      return emit(label, data_.data() + slot.offset, code,
                  quant_trained_ ? norms_[slot.offset / dim_] : 0);
    };
    const bool by_label =
        ForEachCandidateLabel(filter, order_.size(), [&](uint64_t label) {
          const auto it = slots_.find(label);
          return it == slots_.end() || offer(label, it->second);
        });
    if (by_label) return;
    for (const uint64_t label : order_) {
      if (!offer(label, slots_.find(label)->second)) return;
    }
  });
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
