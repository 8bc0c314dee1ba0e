#include "graph/graph_store.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tigervector {

GraphStore::GraphStore(Schema* schema, Options options)
    : schema_(schema), options_(std::move(options)) {
  if (!options_.wal_path.empty()) {
    Status st = wal_.Open(options_.wal_path, options_.wal_sync);
    if (!st.ok()) {
      TV_LOG(Error) << "failed to open WAL: " << st.ToString();
    }
  }
}

VertexId GraphStore::AllocateVid() {
  const VertexId vid = next_vid_.fetch_add(1, std::memory_order_acq_rel);
  EnsureSegmentsFor(vid);
  return vid;
}

void GraphStore::EnsureSegmentsFor(VertexId vid) {
  const size_t seg = vid / options_.segment_capacity;
  {
    std::shared_lock<std::shared_mutex> lock(segments_mu_);
    if (seg < segments_.size()) return;
  }
  std::unique_lock<std::shared_mutex> lock(segments_mu_);
  while (segments_.size() <= seg) {
    const SegmentId id = static_cast<SegmentId>(segments_.size());
    segments_.push_back(std::make_unique<GraphSegment>(
        id, VertexId{id} * options_.segment_capacity, options_.segment_capacity));
  }
}

GraphSegment* GraphStore::SegmentFor(VertexId vid) {
  std::shared_lock<std::shared_mutex> lock(segments_mu_);
  const size_t seg = vid / options_.segment_capacity;
  if (seg >= segments_.size()) return nullptr;
  return segments_[seg].get();
}

const GraphSegment* GraphStore::SegmentForConst(VertexId vid) const {
  std::shared_lock<std::shared_mutex> lock(segments_mu_);
  const size_t seg = vid / options_.segment_capacity;
  if (seg >= segments_.size()) return nullptr;
  return segments_[seg].get();
}

Status GraphStore::ValidateMutations(const std::vector<Mutation>& mutations) const {
  // Vertices inserted earlier in the same transaction count as existing for
  // later mutations of that transaction.
  std::unordered_set<VertexId> inserted;
  const Tid read_tid = visible_tid();
  auto vertex_known = [&](VertexId vid) {
    return inserted.count(vid) > 0 || IsVisible(vid, read_tid);
  };
  for (const Mutation& m : mutations) {
    switch (m.kind) {
      case Mutation::Kind::kInsertVertex: {
        if (m.vtype >= schema_->num_vertex_types()) {
          return Status::InvalidArgument("unknown vertex type id");
        }
        const VertexTypeDef& def = schema_->vertex_type(m.vtype);
        if (m.attrs.size() != def.attrs.size()) {
          return Status::InvalidArgument("attribute count mismatch for " + def.name);
        }
        if (vertex_known(m.vid)) {
          return Status::AlreadyExists("vertex " + std::to_string(m.vid));
        }
        inserted.insert(m.vid);
        break;
      }
      case Mutation::Kind::kSetAttr:
      case Mutation::Kind::kDeleteVertex:
        if (!vertex_known(m.vid)) {
          return Status::NotFound("vertex " + std::to_string(m.vid));
        }
        break;
      case Mutation::Kind::kInsertEdge:
      case Mutation::Kind::kDeleteEdge: {
        if (m.etype >= schema_->num_edge_types()) {
          return Status::InvalidArgument("unknown edge type id");
        }
        if (!vertex_known(m.vid) || !vertex_known(m.dst)) {
          return Status::NotFound("edge endpoint missing");
        }
        break;
      }
      case Mutation::Kind::kUpsertEmbedding:
      case Mutation::Kind::kDeleteEmbedding: {
        if (!vertex_known(m.vid)) {
          return Status::NotFound("vertex " + std::to_string(m.vid));
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status GraphStore::ApplyOne(const Mutation& m, Tid tid) {
  switch (m.kind) {
    case Mutation::Kind::kInsertVertex: {
      EnsureSegmentsFor(m.vid);
      GraphSegment* seg = SegmentFor(m.vid);
      TV_RETURN_NOT_OK(seg->ApplyInsertVertex(m.vid, m.vtype, m.attrs, tid));
      {
        std::unique_lock<std::shared_mutex> lock(bitmap_mu_);
        if (type_bitmaps_.size() <= m.vtype) type_bitmaps_.resize(m.vtype + 1);
        Bitmap& bm = type_bitmaps_[m.vtype];
        if (bm.size() <= m.vid) {
          // Grow in segment-sized strides to amortize re-allocation.
          Bitmap grown(((m.vid / options_.segment_capacity) + 1) *
                       options_.segment_capacity);
          for (size_t i = 0; i < bm.size(); ++i) {
            if (bm.Test(i)) grown.Set(i);
          }
          bm = std::move(grown);
        }
        bm.Set(m.vid);
      }
      return Status::OK();
    }
    case Mutation::Kind::kSetAttr:
      return SegmentFor(m.vid)->ApplySetAttr(m.vid, m.attr_idx, m.value, tid);
    case Mutation::Kind::kDeleteVertex: {
      GraphSegment* seg = SegmentFor(m.vid);
      TV_RETURN_NOT_OK(seg->ApplyDeleteVertex(m.vid, tid));
      const int vtype = seg->VertexType(m.vid);
      if (vtype >= 0) {
        std::unique_lock<std::shared_mutex> lock(bitmap_mu_);
        if (static_cast<size_t>(vtype) < type_bitmaps_.size() &&
            m.vid < type_bitmaps_[vtype].size()) {
          type_bitmaps_[vtype].Clear(m.vid);
        }
      }
      // Deleting a vertex also deletes its embeddings.
      if (embedding_sink_ != nullptr && vtype >= 0) {
        const VertexTypeDef& def = schema_->vertex_type(vtype);
        for (const EmbeddingAttrDef& e : def.embedding_attrs) {
          TV_RETURN_NOT_OK(
              embedding_sink_->ApplyDelete(def.id, e.name, m.vid, tid));
        }
      }
      return Status::OK();
    }
    case Mutation::Kind::kInsertEdge: {
      const EdgeTypeDef& def = schema_->edge_type(m.etype);
      TV_RETURN_NOT_OK(SegmentFor(m.vid)->ApplyAddEdge(m.vid, m.etype, m.dst,
                                                       /*out=*/true, tid));
      if (def.directed) {
        return SegmentFor(m.dst)->ApplyAddEdge(m.dst, m.etype, m.vid, /*out=*/false,
                                               tid);
      }
      // Undirected: store an outgoing entry on both endpoints.
      return SegmentFor(m.dst)->ApplyAddEdge(m.dst, m.etype, m.vid, /*out=*/true, tid);
    }
    case Mutation::Kind::kDeleteEdge: {
      const EdgeTypeDef& def = schema_->edge_type(m.etype);
      TV_RETURN_NOT_OK(SegmentFor(m.vid)->ApplyDeleteEdge(m.vid, m.etype, m.dst,
                                                          /*out=*/true, tid));
      if (def.directed) {
        return SegmentFor(m.dst)->ApplyDeleteEdge(m.dst, m.etype, m.vid,
                                                  /*out=*/false, tid);
      }
      return SegmentFor(m.dst)->ApplyDeleteEdge(m.dst, m.etype, m.vid, /*out=*/true,
                                                tid);
    }
    case Mutation::Kind::kUpsertEmbedding: {
      if (embedding_sink_ == nullptr) {
        return Status::Internal("embedding mutation without embedding sink");
      }
      const GraphSegment* seg = SegmentForConst(m.vid);
      const int vtype = seg != nullptr ? seg->VertexType(m.vid) : -1;
      if (vtype < 0) return Status::NotFound("vertex " + std::to_string(m.vid));
      return embedding_sink_->ApplyUpsert(static_cast<VertexTypeId>(vtype), m.emb_attr,
                                          m.vid, m.embedding, tid);
    }
    case Mutation::Kind::kDeleteEmbedding: {
      if (embedding_sink_ == nullptr) {
        return Status::Internal("embedding mutation without embedding sink");
      }
      const GraphSegment* seg = SegmentForConst(m.vid);
      const int vtype = seg != nullptr ? seg->VertexType(m.vid) : -1;
      if (vtype < 0) return Status::NotFound("vertex " + std::to_string(m.vid));
      return embedding_sink_->ApplyDelete(static_cast<VertexTypeId>(vtype), m.emb_attr,
                                          m.vid, tid);
    }
  }
  return Status::Internal("unknown mutation kind");
}

Result<Tid> GraphStore::CommitTransaction(const std::vector<Mutation>& mutations) {
  TV_SPAN("graph.commit");
  Timer timer;
  std::lock_guard<std::mutex> commit_lock(commit_mu_);
  TV_RETURN_NOT_OK(ValidateMutations(mutations));
  const Tid tid = next_tid_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // WAL before apply: a crash after this point replays the transaction.
  TV_RETURN_NOT_OK(wal_.Append(tid, mutations));
  for (const Mutation& m : mutations) {
    Status st = ApplyOne(m, tid);
    if (!st.ok()) {
      // Validation should have caught everything; an apply failure here
      // leaves a partially applied transaction that is never made visible.
      TV_LOG(Error) << "apply failed mid-commit (tid " << tid
                    << "): " << st.ToString();
      return st;
    }
  }
  visible_tid_.store(tid, std::memory_order_release);
  graph_version_.fetch_add(1, std::memory_order_acq_rel);
  TV_COUNTER_INC("tv.graph.commits_total");
  TV_COUNTER_ADD("tv.graph.committed_mutations_total", mutations.size());
  TV_HISTOGRAM_OBSERVE("tv.graph.commit_seconds", timer.ElapsedSeconds());
  return tid;
}

Status GraphStore::ReplayRecords(const std::vector<WriteAheadLog::Record>& records) {
  Tid max_tid = 0;
  VertexId max_vid = 0;
  for (const auto& rec : records) {
    for (const Mutation& m : rec.mutations) {
      if (m.vid != kInvalidVertexId && m.vid + 1 > max_vid) max_vid = m.vid + 1;
      if (m.kind == Mutation::Kind::kInsertEdge ||
          m.kind == Mutation::Kind::kDeleteEdge) {
        if (m.dst + 1 > max_vid) max_vid = m.dst + 1;
      }
      TV_RETURN_NOT_OK(ApplyOne(m, rec.tid));
    }
    if (rec.tid > max_tid) max_tid = rec.tid;
  }
  next_tid_.store(max_tid);
  visible_tid_.store(max_tid);
  graph_version_.fetch_add(1, std::memory_order_acq_rel);
  VertexId expect = next_vid_.load();
  if (max_vid > expect) next_vid_.store(max_vid);
  if (max_vid > 0) EnsureSegmentsFor(max_vid - 1);
  return Status::OK();
}

Status GraphStore::Recover(const std::string& wal_path) {
  auto records = WriteAheadLog::ReadAll(wal_path);
  if (!records.ok()) return records.status();
  return ReplayRecords(*records);
}

Result<GraphStore::WalRecoveryInfo> GraphStore::RecoverWal(
    const std::string& wal_path, bool truncate_tail) {
  WalRecoveryInfo info;
  if (!io::Exists(wal_path)) return info;  // nothing committed yet
  auto outcome = WriteAheadLog::ReadLog(wal_path);
  if (!outcome.ok()) return outcome.status();
  TV_RETURN_NOT_OK(ReplayRecords(outcome->records));
  info.records = outcome->records.size();
  info.max_tid = visible_tid();
  info.truncated = outcome->truncated;
  info.valid_bytes = outcome->valid_bytes;
  TV_COUNTER_ADD("tv.recovery.wal_records_replayed_total", info.records);
  if (info.truncated && truncate_tail) {
    // Cut the torn record so the next Append lands on a record boundary;
    // the prefix being truncated was never acknowledged to any client.
    TV_RETURN_NOT_OK(io::TruncateFile(wal_path, info.valid_bytes));
    TV_COUNTER_INC("tv.recovery.wal_truncations_total");
  }
  return info;
}

bool GraphStore::IsVisible(VertexId vid, Tid read_tid) const {
  const GraphSegment* seg = SegmentForConst(vid);
  return seg != nullptr && seg->IsVisible(vid, read_tid);
}

Result<VertexTypeId> GraphStore::GetVertexType(VertexId vid) const {
  const GraphSegment* seg = SegmentForConst(vid);
  const int vtype = seg != nullptr ? seg->VertexType(vid) : -1;
  if (vtype < 0) return Status::NotFound("vertex " + std::to_string(vid));
  return static_cast<VertexTypeId>(vtype);
}

Result<Value> GraphStore::GetAttr(VertexId vid, const std::string& attr_name,
                                  Tid read_tid) const {
  auto vtype = GetVertexType(vid);
  if (!vtype.ok()) return vtype.status();
  const VertexTypeDef& def = schema_->vertex_type(*vtype);
  const int idx = def.AttrIndex(attr_name);
  if (idx < 0) {
    return Status::NotFound("attribute " + attr_name + " on " + def.name);
  }
  return GetAttrByIndex(vid, static_cast<uint16_t>(idx), read_tid);
}

Result<Value> GraphStore::GetAttrByIndex(VertexId vid, uint16_t attr_idx,
                                         Tid read_tid) const {
  const GraphSegment* seg = SegmentForConst(vid);
  if (seg == nullptr) return Status::NotFound("vertex " + std::to_string(vid));
  Value out;
  TV_RETURN_NOT_OK(seg->GetAttr(vid, attr_idx, read_tid, &out));
  return out;
}

void GraphStore::ForEachNeighbor(VertexId vid, EdgeTypeId etype, Direction dir,
                                 Tid read_tid,
                                 const std::function<void(VertexId)>& fn) const {
  const GraphSegment* seg = SegmentForConst(vid);
  if (seg == nullptr) return;
  // The peers are copied out under vid's segment lock and checked after it
  // is released: IsVisible takes the peer's segment lock, and two walks in
  // opposite directions would otherwise take two segment locks in opposite
  // orders.
  std::vector<VertexId> peers;
  auto collect = [&](VertexId peer) { peers.push_back(peer); };
  if (dir == Direction::kOut || dir == Direction::kAny) {
    seg->ForEachEdge(vid, etype, /*out=*/true, read_tid, collect);
  }
  if (dir == Direction::kIn || dir == Direction::kAny) {
    seg->ForEachEdge(vid, etype, /*out=*/false, read_tid, collect);
  }
  for (VertexId peer : peers) {
    if (IsVisible(peer, read_tid)) fn(peer);
  }
}

Direction GraphStore::ReverseDirection(EdgeTypeId etype, Direction dir) const {
  // Undirected relations are symmetric (kIn is empty both ways).
  if (!schema_->edge_type(etype).directed) return dir;
  switch (dir) {
    case Direction::kOut: return Direction::kIn;
    case Direction::kIn: return Direction::kOut;
    case Direction::kAny: return Direction::kAny;
  }
  return dir;
}

void GraphStore::VertexAction(
    ThreadPool* pool, const std::function<void(const GraphSegment&)>& fn) const {
  std::vector<const GraphSegment*> segs;
  {
    std::shared_lock<std::shared_mutex> lock(segments_mu_);
    segs.reserve(segments_.size());
    for (const auto& s : segments_) segs.push_back(s.get());
  }
  if (pool != nullptr && segs.size() > 1) {
    pool->ParallelFor(segs.size(), [&](size_t i) { fn(*segs[i]); });
  } else {
    for (const GraphSegment* s : segs) fn(*s);
  }
}

void GraphStore::ForEachVertexOfType(VertexTypeId vtype, Tid read_tid,
                                     ThreadPool* pool,
                                     const std::function<void(VertexId)>& fn) const {
  if (pool != nullptr) {
    // Parallel over segments; fn must be thread-safe in this mode.
    VertexAction(pool, [&](const GraphSegment& seg) {
      seg.ForEachVertex(vtype, read_tid, fn);
    });
  } else {
    VertexAction(nullptr, [&](const GraphSegment& seg) {
      seg.ForEachVertex(vtype, read_tid, fn);
    });
  }
}

TypeBitmapGuard GraphStore::LatestTypeBitmap(VertexTypeId vtype) const {
  std::shared_lock<std::shared_mutex> lock(bitmap_mu_);
  static const Bitmap kEmpty;
  const Bitmap* bm =
      vtype < type_bitmaps_.size() ? &type_bitmaps_[vtype] : &kEmpty;
  return TypeBitmapGuard(std::move(lock), bm);
}

size_t GraphStore::VacuumGraph() {
  const Tid up_to = visible_tid();
  // Snapshot the segment pointers and drop segments_mu_ before taking any
  // per-segment write lock: readers acquire segment-then-store (predicate
  // eval under a segment lock calls back into SegmentFor), so holding
  // store-then-segment here would close a lock-order cycle. Segments are
  // append-only and owned by stable unique_ptrs, so the snapshot stays
  // valid after the lock is released.
  std::vector<GraphSegment*> segments;
  {
    std::shared_lock<std::shared_mutex> lock(segments_mu_);
    segments.reserve(segments_.size());
    for (auto& seg : segments_) segments.push_back(seg.get());
  }
  size_t applied = 0;
  for (GraphSegment* seg : segments) applied += seg->Vacuum(up_to);
  graph_version_.fetch_add(1, std::memory_order_acq_rel);
  return applied;
}

size_t GraphStore::NumSegments() const {
  std::shared_lock<std::shared_mutex> lock(segments_mu_);
  return segments_.size();
}

const GraphSegment* GraphStore::SegmentAt(size_t i) const {
  std::shared_lock<std::shared_mutex> lock(segments_mu_);
  return i < segments_.size() ? segments_[i].get() : nullptr;
}

}  // namespace tigervector
