#include "util/bitmap.h"

#include <bit>
#include <cassert>
#include <iterator>

namespace tigervector {

namespace {
constexpr size_t kBitsPerWord = 64;

size_t NumWords(size_t size) { return (size + kBitsPerWord - 1) / kBitsPerWord; }
}  // namespace

Bitmap::Bitmap(size_t size, bool initial) { Resize(size, initial); }

void Bitmap::Resize(size_t size, bool initial) {
  size_ = size;
  words_.assign(NumWords(size), initial ? ~uint64_t{0} : 0);
  if (initial && size % kBitsPerWord != 0 && !words_.empty()) {
    // Keep the tail bits clear so Count() stays exact.
    words_.back() &= (uint64_t{1} << (size % kBitsPerWord)) - 1;
  }
}

void Bitmap::Set(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

void Bitmap::Clear(size_t i) {
  assert(i < size_);
  words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
}

bool Bitmap::Test(size_t i) const {
  if (i >= size_) return false;
  return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1;
}

size_t Bitmap::Count() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

size_t Bitmap::CountRange(size_t begin, size_t end) const {
  if (end > size_) end = size_;
  if (begin >= end) return 0;
  size_t count = 0;
  size_t i = begin;
  // Head bits up to a word boundary.
  while (i < end && i % kBitsPerWord != 0) {
    if (Test(i)) ++count;
    ++i;
  }
  // Whole words.
  while (i + kBitsPerWord <= end) {
    count += static_cast<size_t>(std::popcount(words_[i / kBitsPerWord]));
    i += kBitsPerWord;
  }
  // Tail bits.
  while (i < end) {
    if (Test(i)) ++count;
    ++i;
  }
  return count;
}

void Bitmap::And(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void Bitmap::Or(const Bitmap& other) {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void Bitmap::SetAll() {
  Resize(size_, true);
}

void Bitmap::ClearAll() {
  words_.assign(words_.size(), 0);
}

size_t CandidateSet::Count() const {
  size_t count = 0;
  for (const auto& bits : segments_) {
    if (bits != nullptr) count += bits->Count();
  }
  return count;
}

void CandidateSet::Builder::Insert(uint64_t id) {
  const uint64_t s = id / capacity_;
  if (s >= segments_.size()) segments_.resize(s + 1);
  if (segments_[s] == nullptr) segments_[s] = std::make_shared<Bitmap>(capacity_);
  segments_[s]->Set(id - s * capacity_);
}

CandidateSet CandidateSet::Builder::Build() && {
  CandidateSet set(capacity_);
  set.segments_.assign(std::make_move_iterator(segments_.begin()),
                       std::make_move_iterator(segments_.end()));
  return set;
}

FilterView FilterView::ForSegment(uint64_t base) const {
  if (set_ == nullptr) return *this;
  static const Bitmap kNone;
  const Bitmap* bits = set_->segment(base / set_->segment_capacity());
  return FilterView(bits != nullptr ? bits : &kNone, base);
}

}  // namespace tigervector
