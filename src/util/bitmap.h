#ifndef TIGERVECTOR_UTIL_BITMAP_H_
#define TIGERVECTOR_UTIL_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tigervector {

// A dense bitset over local ids [0, size). Used to pass filter predicates
// from the graph engine into the vector index (the paper's pre-filter
// bitmap, Sec. 5.1/5.2).
class Bitmap {
 public:
  Bitmap() = default;
  // Creates a bitmap of `size` bits, all initialized to `initial`.
  explicit Bitmap(size_t size, bool initial = false);

  void Resize(size_t size, bool initial = false);

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  size_t size() const { return size_; }

  // Number of set bits.
  size_t Count() const;

  // Number of set bits in [begin, end) (clamped to size). Used by the
  // brute-force-threshold check on per-segment id ranges.
  size_t CountRange(size_t begin, size_t end) const;

  // In-place intersection; both bitmaps must have equal size.
  void And(const Bitmap& other);
  // In-place union; both bitmaps must have equal size.
  void Or(const Bitmap& other);

  void SetAll();
  void ClearAll();

  // Calls fn(i) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

  // The backing words, bit i at words()[i / 64] >> (i % 64); tail bits past
  // size() are clear.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

// A query's candidate vertices (paper Sec. 5.1's filter bitmap), kept the
// way the graph engine produces it: one bitmap per graph segment, over the
// segment's local offsets [0, segment_capacity), exactly as the predicate
// bitmap cache stores them. A cached bitmap therefore joins a set by pointer
// copy. A null segment holds no candidates, as does every segment past
// num_segments() (one created after the set was built). The bitmaps are
// shared and immutable; an operator that changes a set builds new ones
// with a Builder.
class CandidateSet {
 public:
  CandidateSet() = default;
  explicit CandidateSet(uint32_t segment_capacity) : capacity_(segment_capacity) {}

  uint32_t segment_capacity() const { return capacity_; }
  size_t num_segments() const { return segments_.size(); }

  // Segment s's bitmap, or null when it holds no candidates.
  const Bitmap* segment(size_t s) const {
    return s < segments_.size() ? segments_[s].get() : nullptr;
  }
  void set_segment(size_t s, std::shared_ptr<const Bitmap> bits) {
    if (s >= segments_.size()) segments_.resize(s + 1);
    segments_[s] = std::move(bits);
  }

  bool Contains(uint64_t id) const {
    const uint64_t s = id / capacity_;
    const Bitmap* bits = segment(s);
    return bits != nullptr && bits->Test(id - s * capacity_);
  }

  // Number of candidates.
  size_t Count() const;

  // Calls fn(id) for every candidate, in ascending id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s] == nullptr) continue;
      const uint64_t base = uint64_t{s} * capacity_;
      segments_[s]->ForEachSet([&](size_t off) { fn(base + off); });
    }
  }

  // Collects ids into fresh per-segment bitmaps; a segment's bitmap is
  // allocated on its first insert.
  class Builder {
   public:
    explicit Builder(uint32_t segment_capacity) : capacity_(segment_capacity) {}
    void Insert(uint64_t id);
    CandidateSet Build() &&;

   private:
    uint32_t capacity_;
    std::vector<std::shared_ptr<Bitmap>> segments_;
  };

 private:
  uint32_t capacity_ = 1;
  std::vector<std::shared_ptr<const Bitmap>> segments_;
};

// The vector index accepts any id-validity predicate through this view.
// It can wrap (a) a Bitmap produced by a query predicate, (b) a query's
// CandidateSet, or (c) the graph engine's global vertex-status structure
// (paper Sec. 5.1: "reuses a global vertex status structure in TigerGraph
// and wraps it as a bitmap") without materializing a new bitmap.
class FilterView {
 public:
  // Accept-all filter.
  FilterView() = default;

  // Wraps an explicit bitmap whose bit i stands for id base + i (not owned;
  // must outlive the view).
  explicit FilterView(const Bitmap* bitmap, uint64_t base = 0)
      : bitmap_(bitmap), base_(base) {}

  // Wraps a candidate set (not owned; must outlive the view).
  explicit FilterView(const CandidateSet* set) : set_(set) {}

  // Wraps an arbitrary predicate (not owned; must outlive the view).
  using Predicate = bool (*)(const void* ctx, uint64_t id);
  FilterView(Predicate pred, const void* ctx) : pred_(pred), ctx_(ctx) {}

  bool Accepts(uint64_t id) const {
    // An id below base_ wraps around to a huge offset, which Test rejects.
    if (bitmap_ != nullptr) return bitmap_->Test(id - base_);
    if (set_ != nullptr) return set_->Contains(id);
    if (pred_ != nullptr) return pred_(ctx_, id);
    return true;
  }

  // The view a search of the segment starting at `base` uses (a multiple
  // of the set's segment capacity): a candidate set narrows to that
  // segment's own bitmap (none: accepts nothing), so the per-row test is a
  // subtract-and-test. Other views are returned as they are.
  FilterView ForSegment(uint64_t base) const;

  bool accepts_all() const {
    return bitmap_ == nullptr && set_ == nullptr && pred_ == nullptr;
  }
  const Bitmap* bitmap() const { return bitmap_; }
  uint64_t base() const { return base_; }

 private:
  const Bitmap* bitmap_ = nullptr;
  uint64_t base_ = 0;
  const CandidateSet* set_ = nullptr;
  Predicate pred_ = nullptr;
  const void* ctx_ = nullptr;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_UTIL_BITMAP_H_
