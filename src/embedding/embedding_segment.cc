#include "embedding/embedding_segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "hnsw/exact_scan.h"
#include "hnsw/flat_index.h"
#include "hnsw/ivf_index.h"
#include "obs/metrics.h"
#include "simd/sq8.h"
#include "obs/trace.h"
#include "util/io.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tigervector {

namespace {
constexpr uint64_t kDeltaFileMagic = 0x54475644'454c5432ULL;  // "TGVDELT2"

// Factory over the embedding metadata's INDEX choice (paper Sec. 4.4: the
// embedding type decides which native index backs each segment).
std::unique_ptr<VectorIndex> CreateVectorIndex(const EmbeddingTypeInfo& info,
                                               const HnswParams& params) {
  const bool sq8 = QuantEnabled(info);
  switch (info.index) {
    case VectorIndexType::kHnsw: {
      HnswParams hnsw = params;
      hnsw.sq8 = sq8;
      return std::make_unique<HnswIndex>(hnsw);
    }
    case VectorIndexType::kFlat:
      return std::make_unique<FlatIndex>(params.dim, params.metric, sq8);
    case VectorIndexType::kIvfFlat: {
      IvfParams ivf;
      ivf.dim = params.dim;
      ivf.metric = params.metric;
      ivf.nlist = std::max<size_t>(8, params.max_elements / 128);
      ivf.seed = params.seed;
      ivf.sq8 = sq8;
      return std::make_unique<IvfFlatIndex>(ivf);
    }
  }
  return std::make_unique<HnswIndex>(params);
}
}  // namespace

Status DeltaFile::Save(const std::string& file_path) {
  // Atomic tmp + fsync + rename: a crash (or injected fault) anywhere in
  // here leaves either the previous file or none — Load never sees a torn
  // delta file produced by this path.
  auto create = io::AtomicFile::Create(file_path, "delta.save");
  if (!create.ok()) return create.status();
  io::AtomicFile f = std::move(create).value();
  TV_RETURN_NOT_OK(f.Write(&kDeltaFileMagic, sizeof(kDeltaFileMagic)));
  TV_RETURN_NOT_OK(f.Write(&base_tid, sizeof(base_tid)));
  TV_RETURN_NOT_OK(f.Write(&max_tid, sizeof(max_tid)));
  const uint64_t count = deltas.size();
  TV_RETURN_NOT_OK(f.Write(&count, sizeof(count)));
  for (const VectorDelta& d : deltas) {
    const uint8_t action = static_cast<uint8_t>(d.action);
    const uint64_t dim = d.value.size();
    TV_RETURN_NOT_OK(f.Write(&action, 1));
    TV_RETURN_NOT_OK(f.Write(&d.id, sizeof(d.id)));
    TV_RETURN_NOT_OK(f.Write(&d.tid, sizeof(d.tid)));
    TV_RETURN_NOT_OK(f.Write(&dim, sizeof(dim)));
    if (dim > 0) {
      TV_RETURN_NOT_OK(f.Write(d.value.data(), dim * sizeof(float)));
    }
  }
  TV_RETURN_NOT_OK(f.Commit());
  path = file_path;
  return Status::OK();
}

Result<DeltaFile> DeltaFile::Load(const std::string& file_path) {
  auto open = io::File::Open(file_path, "rb", "delta.load");
  if (!open.ok()) return open.status();
  io::File f = std::move(open).value();
  DeltaFile out;
  uint64_t magic = 0, count = 0;
  bool ok = f.Read(&magic, sizeof(magic)).ok() && magic == kDeltaFileMagic &&
            f.Read(&out.base_tid, sizeof(out.base_tid)).ok() &&
            f.Read(&out.max_tid, sizeof(out.max_tid)).ok() &&
            f.Read(&count, sizeof(count)).ok();
  for (uint64_t i = 0; ok && i < count; ++i) {
    VectorDelta d;
    uint8_t action = 0;
    uint64_t dim = 0;
    ok = f.Read(&action, 1).ok() && f.Read(&d.id, sizeof(d.id)).ok() &&
         f.Read(&d.tid, sizeof(d.tid)).ok() && f.Read(&dim, sizeof(dim)).ok();
    if (ok && dim > 0) {
      d.value.resize(dim);
      ok = f.Read(d.value.data(), dim * sizeof(float)).ok();
    }
    if (ok) {
      d.action = static_cast<VectorDelta::Action>(action);
      out.deltas.push_back(std::move(d));
    }
  }
  if (!ok) return Status::IOError("corrupt delta file " + file_path);
  out.path = file_path;
  return out;
}

EmbeddingSegment::EmbeddingSegment(SegmentId segment_id, VertexId base_vid,
                                   uint32_t capacity, const EmbeddingTypeInfo& info,
                                   const HnswParams& index_params)
    : segment_id_(segment_id),
      base_vid_(base_vid),
      capacity_(capacity),
      info_(info),
      index_params_(index_params) {
  index_params_.dim = info.dimension;
  index_params_.metric = info.metric;
  index_params_.max_elements = capacity;
  // Deterministic but distinct level draws per segment.
  index_params_.seed = index_params.seed + segment_id * 0x9e3779b9ULL;
  index_ = CreateVectorIndex(info_, index_params_);
}

Status EmbeddingSegment::ApplyDelta(VectorDelta delta) {
  if (delta.action == VectorDelta::Action::kUpsert &&
      delta.value.size() != info_.dimension) {
    return Status::InvalidArgument("vector delta dimension mismatch");
  }
  if (delta.id < base_vid_ || delta.id >= base_vid_ + capacity_) {
    return Status::InvalidArgument("vector delta id out of segment range");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (delta.tid <= DurableHorizonLocked()) {
    // Already captured by an adopted index snapshot or sealed delta file;
    // seen only when recovery replays the WAL over adopted artifacts. In
    // normal operation commit tids are strictly above the horizon.
    TV_COUNTER_INC("tv.recovery.replay_deltas_skipped_total");
    return Status::OK();
  }
  pending_.first_pending_tid.try_emplace(delta.id, delta.tid);
  pending_.in_memory.push_back(std::move(delta));
  TV_COUNTER_INC("tv.vacuum.delta_appends_total");
  return Status::OK();
}

Result<size_t> EmbeddingSegment::DeltaMerge(Tid up_to_tid, const std::string& dir,
                                            const std::string& file_stem) {
  TV_SPAN("vacuum.delta_merge");
  Timer timer;
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Deltas are appended in commit order, so the prefix with tid <= up_to_tid
  // is exactly what this pass seals.
  auto split = pending_.in_memory.begin();
  Tid max_tid = 0;
  while (split != pending_.in_memory.end() && split->tid <= up_to_tid) {
    max_tid = split->tid;
    ++split;
  }
  if (split == pending_.in_memory.begin()) return size_t{0};
  DeltaFile file;
  file.base_tid = DurableHorizonLocked();
  file.max_tid = max_tid;
  file.deltas.assign(std::make_move_iterator(pending_.in_memory.begin()),
                     std::make_move_iterator(split));
  const size_t sealed = file.deltas.size();
  if (!dir.empty()) {
    const std::string path = dir + "/" + file_stem + "_seg" +
                             std::to_string(segment_id_) + "_tid" +
                             std::to_string(max_tid) + ".delta";
    Status st = file.Save(path);
    if (!st.ok()) {
      // The deltas were moved out above; put them back so an I/O failure
      // never drops a committed delta (they stay recoverable in memory and
      // a later pass retries the seal).
      std::move(file.deltas.begin(), file.deltas.end(), pending_.in_memory.begin());
      TV_COUNTER_INC("tv.vacuum.delta_merge_failures_total");
      return st;
    }
  }
  pending_.in_memory.erase(pending_.in_memory.begin(), split);
  pending_.sealed.push_back(std::move(file));
  TV_COUNTER_INC("tv.vacuum.delta_merges_total");
  TV_COUNTER_ADD("tv.vacuum.delta_merge_records_total", sealed);
  TV_HISTOGRAM_OBSERVE("tv.vacuum.delta_merge_seconds", timer.ElapsedSeconds());
  return sealed;
}

Result<size_t> EmbeddingSegment::IndexMerge(Tid up_to_tid, ThreadPool* pool) {
  TV_SPAN("vacuum.index_merge");
  Timer timer;
  // Copy the deltas to merge (sealed files are ordered by max_tid) and
  // remember the identity of the retired prefix. A copy (rather than
  // pointers) keeps this safe against a concurrent DeltaMerge reallocating
  // the sealed list; the (max_tid, path) identities let the retirement step
  // below revalidate the prefix instead of blindly erasing by count.
  size_t merged_records = 0;
  std::vector<std::pair<Tid, std::string>> retired;
  std::unordered_map<VertexId, VectorDelta> latest;
  std::shared_ptr<VectorIndex> index;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    index = index_;
    for (const DeltaFile& f : pending_.sealed) {
      if (f.max_tid > up_to_tid) break;
      retired.emplace_back(f.max_tid, f.path);
      // Latest-wins dedup per id across the merged batch: the whole batch
      // becomes visible in the index atomically from the reader's
      // perspective (readers keep using the delta overlay until the files
      // are retired).
      for (const VectorDelta& d : f.deltas) {
        latest[d.id] = d;
        ++merged_records;
      }
    }
  }
  if (retired.empty()) return size_t{0};

  std::vector<VectorIndexUpdate> items;
  items.reserve(latest.size());
  for (const auto& [id, d] : latest) {
    VectorIndexUpdate item;
    item.label = id;
    item.is_delete = d.action == VectorDelta::Action::kDelete;
    item.value = d.value;
    items.push_back(std::move(item));
  }
  // Runs unlocked so searches and commits proceed; the shared_ptr keeps the
  // index alive even if a concurrent RebuildIndex swaps in a fresh one.
  TV_RETURN_NOT_OK(index->UpdateItems(items, pool));
  // Merge-triggered requantization: the segment's value distribution just
  // changed, so refresh the SQ8 statistics and codes (no-op on fp32-only
  // indexes). Also unlocked — concurrent searches keep their tier snapshot.
  TV_RETURN_NOT_OK(index->TrainQuantization());

  // Retire the merged files and advance the merged horizon; this is the
  // snapshot switch point (paper Fig. 4).
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (index_ != index) {
    // A concurrent RebuildIndex (or snapshot adoption) replaced the index
    // while we merged: it already folded every pending delta and retired
    // the files. Our updates went to the superseded index; drop them.
    return merged_records;
  }
  // Revalidate the retired prefix under the lock: only erase sealed files
  // that are still exactly the ones we merged — a concurrent RebuildIndex
  // or second IndexMerge may have cleared or shortened the list, and a
  // blind erase of [0, n) would then throw away unmerged files (or walk
  // off the end of the vector).
  size_t matched = 0;
  Tid new_merged = merged_tid_;
  while (matched < retired.size() && matched < pending_.sealed.size() &&
         pending_.sealed[matched].max_tid == retired[matched].first &&
         pending_.sealed[matched].path == retired[matched].second) {
    new_merged = std::max(new_merged, retired[matched].first);
    ++matched;
  }
  for (size_t i = 0; i < matched; ++i) {
    if (!pending_.sealed[i].path.empty()) {
      (void)io::RemoveFile(pending_.sealed[i].path);
    }
  }
  pending_.sealed.erase(pending_.sealed.begin(), pending_.sealed.begin() + matched);
  merged_tid_ = new_merged;
  RebuildFirstPendingLocked();
  TV_COUNTER_INC("tv.vacuum.index_merges_total");
  TV_COUNTER_ADD("tv.vacuum.index_merge_records_total", merged_records);
  TV_HISTOGRAM_OBSERVE("tv.vacuum.index_merge_seconds", timer.ElapsedSeconds());
  return merged_records;
}

Status EmbeddingSegment::RebuildIndex(ThreadPool* pool) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Collect live vectors = index live set overridden by pending deltas.
  std::unordered_map<VertexId, std::vector<float>> live;
  for (uint64_t label : index_->Labels()) {
    std::vector<float> vec(info_.dimension);
    if (index_->GetEmbedding(label, vec.data()).ok()) {
      live.emplace(label, std::move(vec));
    }
  }
  Tid max_tid = merged_tid_;
  auto apply = [&](const VectorDelta& d) {
    max_tid = std::max(max_tid, d.tid);
    if (d.action == VectorDelta::Action::kUpsert) {
      live[d.id] = d.value;
    } else {
      live.erase(d.id);
    }
  };
  for (const DeltaFile& f : pending_.sealed) {
    for (const VectorDelta& d : f.deltas) apply(d);
  }
  for (const VectorDelta& d : pending_.in_memory) apply(d);

  auto fresh = CreateVectorIndex(info_, index_params_);
  std::vector<std::pair<VertexId, const std::vector<float>*>> entries;
  entries.reserve(live.size());
  for (const auto& [id, vec] : live) entries.emplace_back(id, &vec);
  Status status = Status::OK();
  std::mutex status_mu;
  auto add_one = [&](size_t i) {
    Status st = fresh->AddPoint(entries[i].first, entries[i].second->data());
    if (!st.ok()) {
      std::lock_guard<std::mutex> g(status_mu);
      status = st;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(entries.size(), add_one);
  } else {
    for (size_t i = 0; i < entries.size(); ++i) add_one(i);
  }
  TV_RETURN_NOT_OK(status);
  TV_RETURN_NOT_OK(fresh->TrainQuantization());
  for (DeltaFile& f : pending_.sealed) {
    if (!f.path.empty()) (void)io::RemoveFile(f.path);
  }
  pending_.sealed.clear();
  pending_.in_memory.clear();
  pending_.first_pending_tid.clear();
  merged_tid_ = max_tid;
  index_ = std::move(fresh);
  return Status::OK();
}

bool EmbeddingSegment::OverriddenLocked(VertexId id, Tid read_tid) const {
  auto it = pending_.first_pending_tid.find(id);
  return it != pending_.first_pending_tid.end() && it->second <= read_tid;
}

template <typename Fn>
void EmbeddingSegment::ForEachVisibleLocked(Tid read_tid, Fn&& fn) const {
  for (const DeltaFile& f : pending_.sealed) {
    for (const VectorDelta& d : f.deltas) {
      if (d.tid <= read_tid) fn(d);
    }
  }
  for (const VectorDelta& d : pending_.in_memory) {
    if (d.tid <= read_tid) fn(d);
  }
}

EmbeddingSegment::Snapshot EmbeddingSegment::TakeSnapshot(Tid read_tid) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Snapshot snap{index_, {}};
  ForEachVisibleLocked(read_tid, [&](const VectorDelta& d) {
    snap.pending.insert_or_assign(d.id, d);
  });
  return snap;
}

void EmbeddingSegment::RebuildFirstPendingLocked() {
  pending_.first_pending_tid.clear();
  for (const DeltaFile& f : pending_.sealed) {
    for (const VectorDelta& d : f.deltas) {
      pending_.first_pending_tid.try_emplace(d.id, d.tid);
    }
  }
  for (const VectorDelta& d : pending_.in_memory) {
    pending_.first_pending_tid.try_emplace(d.id, d.tid);
  }
}

namespace {

// Trampoline context combining the user filter with the pending-override
// check, handed to the index as its validity predicate. The composite view
// also carries the user filter's bitmap, so the brute-force tier walks the
// segment's candidates instead of every row.
struct CompositeFilterCtx {
  const FilterView* user_filter;
  // Overridden ids, from the search's snapshot.
  const std::unordered_map<VertexId, VectorDelta>* overrides;
};

bool CompositeAccepts(const void* raw_ctx, uint64_t id) {
  const auto* ctx = static_cast<const CompositeFilterCtx*>(raw_ctx);
  if (!ctx->user_filter->Accepts(id)) return false;
  return ctx->overrides->find(id) == ctx->overrides->end();
}

}  // namespace

bool EmbeddingSegment::UseBruteForce(const FilterView& filter, size_t threshold) const {
  if (threshold == 0 || filter.bitmap() == nullptr) return false;
  // Bit 0 of the view's bitmap is id filter.base(): a global bitmap counts
  // this segment's range, a narrowed view its own bitmap.
  const size_t begin = base_vid_ - filter.base();
  return filter.bitmap()->CountRange(begin, begin + capacity_) < threshold;
}

void EmbeddingSegment::OverlayDeltas(const float* query, const PendingView& overrides,
                                     const FilterView& filter, size_t k,
                                     float max_distance, SearchOutput* out) const {
  const ScanQuery q{info_.metric, info_.dimension, query};
  ScanCounts counts;
  const std::vector<SearchHit> delta_hits =
      ExactScan(q, k, max_distance, filter, &counts, [&](auto&& emit) {
        for (const auto& [id, delta] : overrides) {
          if (delta.action != VectorDelta::Action::kUpsert) continue;
          if (!emit(id, delta.value.data(), nullptr, 0)) return;
        }
      });
  out->delta_candidates = counts.scored;
  // The composite filter kept overridden ids out of the index hits, so the
  // two lists are disjoint.
  out->hits.insert(out->hits.end(), delta_hits.begin(), delta_hits.end());
  std::sort(out->hits.begin(), out->hits.end());
  if (out->hits.size() > k) out->hits.resize(k);
}

EmbeddingSegment::SearchOutput EmbeddingSegment::TopKSearch(
    const float* query, const SearchOptions& options) const {
  const Snapshot snap = TakeSnapshot(options.read_tid);
  SearchOutput out;
  const FilterView filter = options.filter.ForSegment(base_vid_);
  CompositeFilterCtx ctx{&filter, &snap.pending};
  FilterView composite(filter.bitmap(), filter.base(), &CompositeAccepts, &ctx);
  out.used_bruteforce = UseBruteForce(filter, options.bruteforce_threshold);
  {
    // Per-query quantization scope: lets the index rank on SQ8 codes (when
    // a trained tier exists) with this query's rerank factor, and reports
    // back how many candidates the index actually reranked.
    simd::ScopedQuantQuery quant_scope(true, options.rerank_factor);
    out.hits = out.used_bruteforce
                   ? snap.index->BruteForceSearch(query, options.k, composite)
                   : snap.index->TopKSearch(query, options.k, options.ef, composite);
    out.used_quant = quant_scope.quant_scans() > 0;
    out.reranked = quant_scope.reranked();
  }
  OverlayDeltas(query, snap.pending, filter, options.k,
                std::numeric_limits<float>::infinity(), &out);
  return out;
}

EmbeddingSegment::SearchOutput EmbeddingSegment::RangeSearch(
    const float* query, float threshold, const SearchOptions& options) const {
  const Snapshot snap = TakeSnapshot(options.read_tid);
  SearchOutput out;
  const FilterView filter = options.filter.ForSegment(base_vid_);
  CompositeFilterCtx ctx{&filter, &snap.pending};
  FilterView composite(filter.bitmap(), filter.base(), &CompositeAccepts, &ctx);
  // Range answers stay exact: the brute-force tier is an exact fp32 range
  // scan, which the differential harness relies on for its strict oracle
  // tier, and the index's RangeSearch pins fp32 itself.
  constexpr size_t kAll = std::numeric_limits<size_t>::max();
  out.used_bruteforce = UseBruteForce(filter, options.bruteforce_threshold);
  out.hits = out.used_bruteforce
                 ? snap.index->BruteForceSearch(query, kAll, composite, threshold)
                 : snap.index->RangeSearch(query, threshold,
                                           std::max<size_t>(options.k, 16), options.ef,
                                           composite);
  OverlayDeltas(query, snap.pending, filter, kAll, threshold, &out);
  return out;
}

Status EmbeddingSegment::GetEmbedding(VertexId vid, Tid read_tid, float* out) const {
  std::shared_ptr<const VectorIndex> index;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (OverriddenLocked(vid, read_tid)) {
      const VectorDelta* latest = nullptr;
      ForEachVisibleLocked(read_tid, [&](const VectorDelta& delta) {
        if (delta.id == vid) latest = &delta;
      });
      if (latest != nullptr) {
        if (latest->action == VectorDelta::Action::kDelete) {
          return Status::NotFound("embedding for vertex " + std::to_string(vid) +
                                  " was deleted");
        }
        std::memcpy(out, latest->value.data(), info_.dimension * sizeof(float));
        return Status::OK();
      }
    }
    index = index_;
  }
  if (index->Contains(vid) && !index->IsDeleted(vid)) {
    return index->GetEmbedding(vid, out);
  }
  return Status::NotFound("no embedding for vertex " + std::to_string(vid));
}

Status EmbeddingSegment::SaveIndexSnapshot(const std::string& path) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto* hnsw = dynamic_cast<const HnswIndex*>(index_.get());
  if (hnsw == nullptr) {
    return Status::Unimplemented("index snapshots are only supported for HNSW");
  }
  return hnsw->SaveToFile(path);
}

Status EmbeddingSegment::AdoptIndexSnapshot(std::unique_ptr<VectorIndex> index,
                                            Tid merged_tid) {
  if (index == nullptr) return Status::InvalidArgument("null index");
  if (index->dim() != info_.dimension) {
    return Status::InvalidArgument("snapshot dimension mismatch");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!pending_.in_memory.empty() || !pending_.sealed.empty()) {
    return Status::InvalidArgument(
        "cannot adopt an index snapshot with pending deltas");
  }
  index_ = std::move(index);
  merged_tid_ = merged_tid;
  return Status::OK();
}

Status EmbeddingSegment::AdoptSealedFile(DeltaFile file) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!pending_.in_memory.empty()) {
    return Status::InvalidArgument(
        "cannot adopt a sealed delta file over in-memory deltas");
  }
  if (file.max_tid <= DurableHorizonLocked()) {
    return Status::InvalidArgument("sealed delta file " + file.path +
                                   " is at or below the durable horizon");
  }
  if (file.base_tid != DurableHorizonLocked()) {
    // The file was sealed against a durable horizon we failed to
    // reconstruct (e.g. its index snapshot was rejected): between the
    // current horizon and base_tid there are deltas only the WAL has, and
    // adopting this file would raise the horizon over them, shadowing the
    // replay. Refuse; the WAL covers this file's contents too.
    return Status::InvalidArgument(
        "sealed delta file " + file.path + " is not contiguous with the " +
        "recovered durable horizon");
  }
  for (const VectorDelta& d : file.deltas) {
    pending_.first_pending_tid.try_emplace(d.id, d.tid);
  }
  pending_.sealed.push_back(std::move(file));
  TV_COUNTER_INC("tv.recovery.delta_files_adopted_total");
  return Status::OK();
}

Tid EmbeddingSegment::DurableHorizonLocked() const {
  return pending_.sealed.empty()
             ? merged_tid_
             : std::max(merged_tid_, pending_.sealed.back().max_tid);
}

Tid EmbeddingSegment::durable_horizon() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return DurableHorizonLocked();
}

Tid EmbeddingSegment::merged_tid() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return merged_tid_;
}

size_t EmbeddingSegment::pending_delta_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  size_t count = pending_.in_memory.size();
  for (const DeltaFile& f : pending_.sealed) count += f.deltas.size();
  return count;
}

size_t EmbeddingSegment::in_memory_delta_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pending_.in_memory.size();
}

size_t EmbeddingSegment::sealed_file_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pending_.sealed.size();
}

size_t EmbeddingSegment::index_size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_->size();
}

std::shared_ptr<const VectorIndex> EmbeddingSegment::index() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_;
}

}  // namespace tigervector
