#include "embedding/embedding_service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/io.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/topk_heap.h"

namespace tigervector {

namespace {

// RAII counter of in-flight searches, feeding SuggestVacuumThreads().
class ActiveSearchScope {
 public:
  explicit ActiveSearchScope(std::atomic<size_t>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~ActiveSearchScope() { counter_->fetch_sub(1, std::memory_order_relaxed); }

 private:
  std::atomic<size_t>* counter_;
};

}  // namespace

EmbeddingService::EmbeddingService(GraphStore* store, Options options)
    : store_(store), options_(std::move(options)) {}

Result<EmbeddingService::AttrState*> EmbeddingService::GetOrCreateAttrState(
    VertexTypeId vtype, const std::string& attr) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = attr_states_.find(AttrKey{vtype, attr});
    if (it != attr_states_.end()) return &it->second;
  }
  // Validate against the schema before creating.
  if (vtype >= store_->schema()->num_vertex_types()) {
    return Status::InvalidArgument("unknown vertex type id");
  }
  const VertexTypeDef& def = store_->schema()->vertex_type(vtype);
  const EmbeddingAttrDef* attr_def = def.FindEmbeddingAttr(attr);
  if (attr_def == nullptr) {
    return Status::NotFound("embedding attribute " + attr + " on " + def.name);
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = attr_states_.try_emplace(AttrKey{vtype, attr});
  if (inserted) it->second.info = attr_def->info;
  return &it->second;
}

Result<const EmbeddingService::AttrState*> EmbeddingService::FindAttrState(
    const std::string& vertex_type, const std::string& attr) const {
  auto vt = store_->schema()->GetVertexType(vertex_type);
  if (!vt.ok()) return vt.status();
  const EmbeddingAttrDef* attr_def = (*vt)->FindEmbeddingAttr(attr);
  if (attr_def == nullptr) {
    return Status::NotFound("embedding attribute " + attr + " on " + vertex_type);
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = attr_states_.find(AttrKey{(*vt)->id, attr});
  // A schema-valid attribute that never received a vector is represented
  // as a null state: searches over it are empty, not errors.
  if (it == attr_states_.end()) return static_cast<const AttrState*>(nullptr);
  return &it->second;
}

EmbeddingSegment* EmbeddingService::GetOrCreateSegment(AttrState* state,
                                                       const EmbeddingTypeInfo& info,
                                                       SegmentId seg_id) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (seg_id < state->segments.size() && state->segments[seg_id] != nullptr) {
      return state->segments[seg_id].get();
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (state->segments.size() <= seg_id) state->segments.resize(seg_id + 1);
  if (state->segments[seg_id] == nullptr) {
    const uint32_t cap = store_->segment_capacity();
    state->segments[seg_id] = std::make_unique<EmbeddingSegment>(
        seg_id, VertexId{seg_id} * cap, cap, info, options_.index_params);
  }
  return state->segments[seg_id].get();
}

Status EmbeddingService::ApplyUpsert(VertexTypeId vtype, const std::string& attr,
                                     VertexId vid, const std::vector<float>& value,
                                     Tid tid) {
  auto state = GetOrCreateAttrState(vtype, attr);
  if (!state.ok()) return state.status();
  if (value.size() != (*state)->info.dimension) {
    return Status::InvalidArgument("embedding dimension mismatch for " + attr);
  }
  const SegmentId seg_id =
      static_cast<SegmentId>(vid / store_->segment_capacity());
  EmbeddingSegment* segment = GetOrCreateSegment(*state, (*state)->info, seg_id);
  VectorDelta delta;
  delta.action = VectorDelta::Action::kUpsert;
  delta.id = vid;
  delta.tid = tid;
  delta.value = value;
  return segment->ApplyDelta(std::move(delta));
}

Status EmbeddingService::ApplyDelete(VertexTypeId vtype, const std::string& attr,
                                     VertexId vid, Tid tid) {
  auto state = GetOrCreateAttrState(vtype, attr);
  if (!state.ok()) return state.status();
  const SegmentId seg_id =
      static_cast<SegmentId>(vid / store_->segment_capacity());
  EmbeddingSegment* segment = GetOrCreateSegment(*state, (*state)->info, seg_id);
  VectorDelta delta;
  delta.action = VectorDelta::Action::kDelete;
  delta.id = vid;
  delta.tid = tid;
  return segment->ApplyDelta(std::move(delta));
}

template <typename SegmentFn>
Result<VectorSearchResult> EmbeddingService::FanOut(const VectorSearchRequest& request,
                                                    SegmentFn segment_fn) const {
  if (request.query == nullptr) {
    return Status::InvalidArgument("vector search requires a query vector");
  }
  if (request.attrs.empty()) {
    return Status::InvalidArgument("vector search requires at least one attribute");
  }
  ActiveSearchScope scope(&active_searches_);

  // Static compatibility analysis across the requested attributes
  // (paper Sec. 4.1): dimension/model/datatype/metric must match; the index
  // type may differ. Incompatible combinations are semantic errors.
  std::vector<const AttrState*> states;
  for (const auto& [vertex_type, attr] : request.attrs) {
    auto state = FindAttrState(vertex_type, attr);
    if (!state.ok()) return state.status();
    if (*state == nullptr) continue;  // schema-valid but empty attribute
    for (const AttrState* prev : states) {
      Status st = CheckCompatible(prev->info, (*state)->info);
      if (!st.ok()) {
        return Status::SemanticError("attributes " + request.attrs.front().second +
                                     " and " + attr + " are not compatible: " +
                                     st.message());
      }
      break;  // comparing against the first is enough (transitivity)
    }
    states.push_back(*state);
  }

  // Collect the target embedding segments.
  std::vector<const EmbeddingSegment*> segments;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const AttrState* state : states) {
      for (const auto& seg : state->segments) {
        if (seg == nullptr) continue;
        if (request.segment_subset != nullptr) {
          const auto& subset = *request.segment_subset;
          if (std::find(subset.begin(), subset.end(), seg->segment_id()) ==
              subset.end()) {
            continue;
          }
        }
        segments.push_back(seg.get());
      }
    }
  }

  VectorSearchResult result;
  result.segments_searched = segments.size();
  std::mutex merge_mu;
  // ParallelFor runs chunks on worker threads only; carry the dispatching
  // thread's active trace into them so segment-level spans (hnsw.search)
  // land in the profiled query's breakdown, and the request's cancel token
  // so a deadline expiring mid-fan-out stops every segment scan.
  obs::QueryTrace* parent_trace = obs::CurrentTrace();
  CancelToken* cancel_token = CurrentCancelToken();
  auto run_one = [&, parent_trace, cancel_token](size_t i) {
    obs::ScopedTraceActivation trace_scope(parent_trace);
    ScopedCancel cancel_scope(cancel_token);
    if (cancel_token != nullptr && cancel_token->fired()) return;
    EmbeddingSegment::SearchOutput out = segment_fn(*segments[i]);
    std::lock_guard<std::mutex> lock(merge_mu);
    if (out.used_bruteforce) ++result.bruteforce_segments;
    if (out.used_quant) ++result.quant_segments;
    result.reranked += out.reranked;
    result.delta_candidates += out.delta_candidates;
    result.hits.insert(result.hits.end(), out.hits.begin(), out.hits.end());
  };
  if (request.pool != nullptr && segments.size() > 1) {
    request.pool->ParallelFor(segments.size(), run_one);
  } else {
    for (size_t i = 0; i < segments.size(); ++i) run_one(i);
  }
  return result;
}

Result<VectorSearchResult> EmbeddingService::TopKSearch(
    const VectorSearchRequest& request) const {
  TV_SPAN("embedding.topk");
  Timer timer;
  TV_COUNTER_INC("tv.query.vector_searches_total");
  EmbeddingSegment::SearchOptions seg_options;
  seg_options.k = request.k;
  seg_options.ef = request.ef;
  seg_options.filter = request.filter;
  seg_options.read_tid =
      request.read_tid == kMaxTid ? store_->visible_tid() : request.read_tid;
  seg_options.bruteforce_threshold = request.bruteforce_threshold != 0
                                         ? request.bruteforce_threshold
                                         : options_.bruteforce_threshold;
  seg_options.rerank_factor = request.rerank_factor;
  auto result = FanOut(request, [&](const EmbeddingSegment& segment) {
    return segment.TopKSearch(request.query, seg_options);
  });
  if (!result.ok()) return result;
  // Authoritative cancellation gate: if the request's deadline fired at any
  // point during the fan-out, the merged hits may be missing candidates
  // from aborted scans — discard them and surface the typed error instead
  // of a silently short top-k.
  TV_RETURN_NOT_OK(CancelCheckStatus());
  // Global merge of per-segment top-k lists (paper Fig. 5).
  TopKHeap<VertexId> heap(request.k);
  for (const SearchHit& h : result->hits) heap.Push(h.distance, h.label);
  result->hits.clear();
  for (const auto& e : heap.TakeSorted()) {
    result->hits.push_back(SearchHit{e.distance, e.id});
  }
  TV_HISTOGRAM_OBSERVE("tv.query.vector_search_seconds", timer.ElapsedSeconds());
  return result;
}

Result<VectorSearchResult> EmbeddingService::RangeSearch(
    const VectorSearchRequest& request, float threshold) const {
  TV_SPAN("embedding.range");
  Timer timer;
  TV_COUNTER_INC("tv.query.vector_searches_total");
  EmbeddingSegment::SearchOptions seg_options;
  seg_options.k = std::max<size_t>(request.k, 16);
  seg_options.ef = request.ef;
  seg_options.filter = request.filter;
  seg_options.read_tid =
      request.read_tid == kMaxTid ? store_->visible_tid() : request.read_tid;
  seg_options.bruteforce_threshold = request.bruteforce_threshold != 0
                                         ? request.bruteforce_threshold
                                         : options_.bruteforce_threshold;
  auto result = FanOut(request, [&](const EmbeddingSegment& segment) {
    return segment.RangeSearch(request.query, threshold, seg_options);
  });
  if (!result.ok()) return result;
  // See TopKSearch: an expired deadline discards partial range results.
  TV_RETURN_NOT_OK(CancelCheckStatus());
  std::sort(result->hits.begin(), result->hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.label < b.label;
            });
  TV_HISTOGRAM_OBSERVE("tv.query.vector_search_seconds", timer.ElapsedSeconds());
  return result;
}

Status EmbeddingService::GetEmbedding(const std::string& vertex_type,
                                      const std::string& attr, VertexId vid,
                                      float* out) const {
  auto state = FindAttrState(vertex_type, attr);
  if (!state.ok()) return state.status();
  if (*state == nullptr) {
    return Status::NotFound("no embedding for vertex " + std::to_string(vid));
  }
  const SegmentId seg_id =
      static_cast<SegmentId>(vid / store_->segment_capacity());
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (seg_id >= (*state)->segments.size() ||
      (*state)->segments[seg_id] == nullptr) {
    return Status::NotFound("no embedding for vertex " + std::to_string(vid));
  }
  const EmbeddingSegment* segment = (*state)->segments[seg_id].get();
  lock.unlock();
  return segment->GetEmbedding(vid, store_->visible_tid(), out);
}

Result<size_t> EmbeddingService::RunDeltaMerge() {
  ScopedStructureChange structure_change(this);
  const Tid up_to = store_->visible_tid();
  size_t sealed = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, state] : attr_states_) {
    // Per-attribute stem keeps delta file names unique across attributes
    // sharing a segment id, and recovery parses them back to the attribute.
    const std::string stem = "emb_" + std::to_string(key.vtype) + "_" + key.attr;
    for (auto& seg : state.segments) {
      if (seg == nullptr) continue;
      auto n = seg->DeltaMerge(up_to, options_.delta_dir, stem);
      if (!n.ok()) return n.status();
      sealed += *n;
    }
  }
  return sealed;
}

Result<size_t> EmbeddingService::RunIndexMerge(ThreadPool* pool) {
  ScopedStructureChange structure_change(this);
  const Tid up_to = store_->visible_tid();
  size_t merged = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, state] : attr_states_) {
    for (auto& seg : state.segments) {
      if (seg == nullptr) continue;
      auto n = seg->IndexMerge(up_to, pool);
      if (!n.ok()) return n.status();
      merged += *n;
    }
  }
  return merged;
}

Status EmbeddingService::RebuildAllIndexes(ThreadPool* pool) {
  ScopedStructureChange structure_change(this);
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (auto& [key, state] : attr_states_) {
    for (auto& seg : state.segments) {
      if (seg == nullptr) continue;
      TV_RETURN_NOT_OK(seg->RebuildIndex(pool));
    }
  }
  return Status::OK();
}

Status EmbeddingService::SaveIndexSnapshots(const std::string& dir,
                                            ThreadPool* pool) {
  // Fold everything first so the snapshot is self-contained.
  TV_RETURN_NOT_OK(RunDeltaMerge().status());
  TV_RETURN_NOT_OK(RunIndexMerge(pool).status());
  // Snapshot files first, manifest last: each snapshot is written atomically
  // (tmp + rename), and the manifest rename is the commit point for the set.
  // A crash anywhere mid-save leaves the previous manifest naming the
  // previous, still-intact snapshot files.
  std::string manifest_body;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [key, state] : attr_states_) {
      for (const auto& seg : state.segments) {
        if (seg == nullptr) continue;
        const std::string file = "emb_" + std::to_string(key.vtype) + "_" +
                                 key.attr + "_seg" +
                                 std::to_string(seg->segment_id()) + ".hnsw";
        TV_RETURN_NOT_OK(seg->SaveIndexSnapshot(dir + "/" + file));
        manifest_body += std::to_string(key.vtype) + " " + key.attr + " " +
                         std::to_string(seg->segment_id()) + " " +
                         std::to_string(seg->merged_tid()) + " " + file + "\n";
      }
    }
  }
  auto create = io::AtomicFile::Create(dir + "/embedding_snapshots.manifest",
                                       "manifest.save");
  if (!create.ok()) return create.status();
  io::AtomicFile manifest = std::move(create).value();
  TV_RETURN_NOT_OK(manifest.Write(manifest_body.data(), manifest_body.size()));
  return manifest.Commit();
}

Status EmbeddingService::LoadIndexSnapshots(const std::string& dir) {
  ScopedStructureChange structure_change(this);
  FILE* manifest = std::fopen((dir + "/embedding_snapshots.manifest").c_str(), "r");
  if (manifest == nullptr) {
    return Status::IOError("cannot open manifest in " + dir);
  }
  char attr_buf[256];
  char file_buf[512];
  unsigned vtype = 0, seg_id = 0;
  unsigned long long merged_tid = 0;
  Status status = Status::OK();
  while (std::fscanf(manifest, "%u %255s %u %llu %511s", &vtype, attr_buf, &seg_id,
                     &merged_tid, file_buf) == 5) {
    auto state = GetOrCreateAttrState(static_cast<VertexTypeId>(vtype), attr_buf);
    if (!state.ok()) {
      status = state.status();
      break;
    }
    EmbeddingSegment* segment = GetOrCreateSegment(*state, (*state)->info,
                                                   static_cast<SegmentId>(seg_id));
    auto index = HnswIndex::LoadFromFile(dir + "/" + file_buf);
    if (!index.ok()) {
      status = index.status();
      break;
    }
    status = segment->AdoptIndexSnapshot(std::move(index).value(),
                                         static_cast<Tid>(merged_tid));
    if (!status.ok()) break;
  }
  std::fclose(manifest);
  return status;
}

Status EmbeddingService::RecoverSnapshots(const std::string& dir,
                                          RecoveryStats* stats) {
  ScopedStructureChange structure_change(this);
  FILE* manifest = std::fopen((dir + "/embedding_snapshots.manifest").c_str(), "r");
  if (manifest == nullptr) return Status::OK();  // no snapshot set to adopt
  char attr_buf[256];
  char file_buf[512];
  unsigned vtype = 0, seg_id = 0;
  unsigned long long merged_tid = 0;
  while (std::fscanf(manifest, "%u %255s %u %llu %511s", &vtype, attr_buf, &seg_id,
                     &merged_tid, file_buf) == 5) {
    // Each snapshot is best-effort: snapshots only shorten WAL replay, so a
    // file that fails to load or adopt is skipped, never fatal.
    auto state = GetOrCreateAttrState(static_cast<VertexTypeId>(vtype), attr_buf);
    if (!state.ok()) {
      ++stats->snapshots_rejected;
      continue;
    }
    EmbeddingSegment* segment = GetOrCreateSegment(*state, (*state)->info,
                                                   static_cast<SegmentId>(seg_id));
    auto index = HnswIndex::LoadFromFile(dir + "/" + file_buf);
    if (!index.ok() ||
        !segment
             ->AdoptIndexSnapshot(std::move(index).value(),
                                  static_cast<Tid>(merged_tid))
             .ok()) {
      ++stats->snapshots_rejected;
      TV_COUNTER_INC("tv.recovery.snapshots_rejected_total");
      continue;
    }
    ++stats->snapshots_adopted;
    TV_COUNTER_INC("tv.recovery.snapshots_adopted_total");
  }
  std::fclose(manifest);
  return Status::OK();
}

namespace {

// A RunDeltaMerge artifact name: `emb_<vtype>_<attr>_seg<id>_tid<max>.delta`.
struct DeltaFileName {
  VertexTypeId vtype = 0;
  std::string attr;
  SegmentId seg_id = 0;
  Tid max_tid = 0;
};

bool ParseUnsigned(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Parsed from the right, since the attribute name may contain underscores.
bool ParseDeltaFileName(const std::string& name, DeltaFileName* out) {
  if (!EndsWith(name, ".delta")) return false;
  const std::string base = name.substr(0, name.size() - 6);
  const size_t tid_pos = base.rfind("_tid");
  if (tid_pos == std::string::npos || tid_pos == 0) return false;
  const size_t seg_pos = base.rfind("_seg", tid_pos - 1);
  if (seg_pos == std::string::npos) return false;
  const std::string stem = base.substr(0, seg_pos);
  if (stem.rfind("emb_", 0) != 0) return false;
  const std::string rest = stem.substr(4);
  const size_t us = rest.find('_');
  if (us == std::string::npos || us + 1 >= rest.size()) return false;
  uint64_t vtype = 0, seg_id = 0, max_tid = 0;
  if (!ParseUnsigned(rest.substr(0, us), &vtype) ||
      !ParseUnsigned(base.substr(seg_pos + 4, tid_pos - seg_pos - 4), &seg_id) ||
      !ParseUnsigned(base.substr(tid_pos + 4), &max_tid)) {
    return false;
  }
  out->vtype = static_cast<VertexTypeId>(vtype);
  out->attr = rest.substr(us + 1);
  out->seg_id = static_cast<SegmentId>(seg_id);
  out->max_tid = static_cast<Tid>(max_tid);
  return true;
}

}  // namespace

Status EmbeddingService::RecoverDeltaFiles(const std::string& dir,
                                           RecoveryStats* stats) {
  ScopedStructureChange structure_change(this);
  if (dir.empty()) return Status::OK();
  auto listing = io::ListDir(dir);
  if (!listing.ok()) return Status::OK();  // no delta directory yet
  struct Entry {
    DeltaFileName meta;
    std::string path;
  };
  std::vector<Entry> entries;
  for (const std::string& name : *listing) {
    const std::string path = dir + "/" + name;
    if (EndsWith(name, io::kTmpSuffix)) {
      // Staging leftover from an interrupted atomic write; never committed.
      (void)io::RemoveFile(path);
      ++stats->tmp_files_removed;
      continue;
    }
    Entry e;
    if (ParseDeltaFileName(name, &e.meta)) {
      e.path = path;
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.meta.vtype != b.meta.vtype) return a.meta.vtype < b.meta.vtype;
    if (a.meta.attr != b.meta.attr) return a.meta.attr < b.meta.attr;
    if (a.meta.seg_id != b.meta.seg_id) return a.meta.seg_id < b.meta.seg_id;
    return a.meta.max_tid < b.meta.max_tid;
  });

  size_t i = 0;
  while (i < entries.size()) {
    // One (attribute, segment) group at a time, files in ascending max_tid.
    const DeltaFileName& head = entries[i].meta;
    size_t end = i;
    while (end < entries.size() && entries[end].meta.vtype == head.vtype &&
           entries[end].meta.attr == head.attr &&
           entries[end].meta.seg_id == head.seg_id) {
      ++end;
    }
    auto state = GetOrCreateAttrState(head.vtype, head.attr);
    if (!state.ok()) {
      i = end;  // not in the current schema; leave the files alone
      continue;
    }
    EmbeddingSegment* segment =
        GetOrCreateSegment(*state, (*state)->info, head.seg_id);
    bool chain_broken = false;
    for (; i < end; ++i) {
      const Entry& entry = entries[i];
      if (chain_broken) {
        // Past a quarantined file the chain has a tid gap, so adopting later
        // files would shadow WAL replay of the gap. They are redundant with
        // the WAL (which is never pruned past them) — drop and replay.
        (void)io::RemoveFile(entry.path);
        ++stats->stale_files_removed;
        continue;
      }
      if (entry.meta.max_tid <= segment->durable_horizon()) {
        // Fully captured by the adopted index snapshot (or an earlier file).
        (void)io::RemoveFile(entry.path);
        ++stats->stale_files_removed;
        continue;
      }
      auto file = DeltaFile::Load(entry.path);
      if (!file.ok()) {
        (void)io::Rename(entry.path, entry.path + io::kQuarantineSuffix);
        ++stats->delta_files_quarantined;
        TV_COUNTER_INC("tv.recovery.delta_files_quarantined_total");
        chain_broken = true;
        continue;
      }
      if (!segment->AdoptSealedFile(std::move(file).value()).ok()) {
        chain_broken = true;
        continue;
      }
      ++stats->delta_files_adopted;
    }
  }
  return Status::OK();
}

size_t EmbeddingService::SuggestVacuumThreads() const {
  const size_t active = active_searches_.load(std::memory_order_relaxed);
  const size_t max_threads = std::max<size_t>(1, options_.max_vacuum_threads);
  if (active >= max_threads) return 1;
  return max_threads - active;
}

size_t EmbeddingService::TotalPendingDeltas() const {
  size_t total = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [key, state] : attr_states_) {
    for (const auto& seg : state.segments) {
      if (seg != nullptr) total += seg->pending_delta_count();
    }
  }
  return total;
}

size_t EmbeddingService::NumEmbeddingSegments() const {
  size_t total = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [key, state] : attr_states_) {
    for (const auto& seg : state.segments) {
      if (seg != nullptr) ++total;
    }
  }
  return total;
}

std::vector<const EmbeddingSegment*> EmbeddingService::SegmentsOf(
    const std::string& vertex_type, const std::string& attr) const {
  std::vector<const EmbeddingSegment*> out;
  auto state = FindAttrState(vertex_type, attr);
  if (!state.ok() || *state == nullptr) return out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& seg : (*state)->segments) {
    if (seg != nullptr) out.push_back(seg.get());
  }
  return out;
}

}  // namespace tigervector
