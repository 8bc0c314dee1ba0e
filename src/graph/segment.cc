#include "graph/segment.h"

#include <algorithm>
#include <mutex>

namespace tigervector {

GraphSegment::GraphSegment(SegmentId id, VertexId base_vid, uint32_t capacity)
    : id_(id), base_vid_(base_vid), capacity_(capacity) {
  records_.resize(capacity);
  out_edges_.resize(capacity);
  in_edges_.resize(capacity);
}

Status GraphSegment::ApplyInsertVertex(VertexId vid, VertexTypeId vtype,
                                       std::vector<Value> attrs, Tid tid) {
  if (!InRange(vid)) return Status::InvalidArgument("vid out of segment range");
  std::unique_lock<std::shared_mutex> lock(mu_);
  VertexRecord& rec = records_[OffsetOf(vid)];
  if (rec.exists && rec.deleted_tid == kMaxTid) {
    return Status::AlreadyExists("vertex " + std::to_string(vid));
  }
  rec.type = vtype;
  rec.exists = true;
  rec.created_tid = tid;
  rec.deleted_tid = kMaxTid;
  rec.attrs = std::move(attrs);
  ++used_slots_;
  BumpVersion(tid);
  return Status::OK();
}

Status GraphSegment::ApplySetAttr(VertexId vid, uint16_t attr_idx, Value value,
                                  Tid tid) {
  if (!InRange(vid)) return Status::InvalidArgument("vid out of segment range");
  std::unique_lock<std::shared_mutex> lock(mu_);
  VertexRecord& rec = records_[OffsetOf(vid)];
  if (!rec.exists) return Status::NotFound("vertex " + std::to_string(vid));
  if (attr_idx >= rec.attrs.size()) {
    return Status::OutOfRange("attr index " + std::to_string(attr_idx));
  }
  attr_deltas_.push_back(AttrDelta{tid, OffsetOf(vid), attr_idx, std::move(value)});
  BumpVersion(tid);
  return Status::OK();
}

Status GraphSegment::ApplyDeleteVertex(VertexId vid, Tid tid) {
  if (!InRange(vid)) return Status::InvalidArgument("vid out of segment range");
  std::unique_lock<std::shared_mutex> lock(mu_);
  VertexRecord& rec = records_[OffsetOf(vid)];
  if (!rec.exists || rec.deleted_tid != kMaxTid) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  rec.deleted_tid = tid;
  BumpVersion(tid);
  return Status::OK();
}

Status GraphSegment::ApplyAddEdge(VertexId src_vid, EdgeTypeId etype, VertexId peer,
                                  bool out, Tid tid) {
  if (!InRange(src_vid)) return Status::InvalidArgument("vid out of segment range");
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& list = out ? out_edges_[OffsetOf(src_vid)] : in_edges_[OffsetOf(src_vid)];
  list.push_back(EdgeRec{etype, peer, tid, kMaxTid});
  BumpVersion(tid);
  return Status::OK();
}

Status GraphSegment::ApplyDeleteEdge(VertexId src_vid, EdgeTypeId etype, VertexId peer,
                                     bool out, Tid tid) {
  if (!InRange(src_vid)) return Status::InvalidArgument("vid out of segment range");
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& list = out ? out_edges_[OffsetOf(src_vid)] : in_edges_[OffsetOf(src_vid)];
  for (EdgeRec& e : list) {
    if (e.etype == etype && e.peer == peer && e.deleted_tid == kMaxTid) {
      e.deleted_tid = tid;
      BumpVersion(tid);
      return Status::OK();
    }
  }
  return Status::NotFound("edge " + std::to_string(src_vid) + "->" +
                          std::to_string(peer));
}

bool GraphSegment::IsVisible(VertexId vid, Tid read_tid) const {
  if (!InRange(vid)) return false;
  std::shared_lock<std::shared_mutex> lock(mu_);
  return VisibleLocked(records_[OffsetOf(vid)], read_tid);
}

int GraphSegment::VertexType(VertexId vid) const {
  if (!InRange(vid)) return -1;
  std::shared_lock<std::shared_mutex> lock(mu_);
  const VertexRecord& rec = records_[OffsetOf(vid)];
  if (!rec.exists) return -1;
  return rec.type;
}

Status GraphSegment::GetAttr(VertexId vid, uint16_t attr_idx, Tid read_tid,
                             Value* out) const {
  if (!InRange(vid)) return Status::InvalidArgument("vid out of segment range");
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!VisibleLocked(records_[OffsetOf(vid)], read_tid)) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  const Value* value = AttrLocked(OffsetOf(vid), attr_idx, read_tid);
  if (value == nullptr) {
    return Status::OutOfRange("attr index " + std::to_string(attr_idx));
  }
  *out = *value;
  return Status::OK();
}

const Value* GraphSegment::AttrLocked(uint32_t offset, uint16_t idx, Tid read_tid) const {
  const VertexRecord& rec = records_[offset];
  if (idx >= rec.attrs.size()) return nullptr;
  // Latest visible delta wins over the snapshot (deltas are appended in
  // commit order, so scan backwards).
  for (auto it = attr_deltas_.rbegin(); it != attr_deltas_.rend(); ++it) {
    if (it->offset == offset && it->attr_idx == idx && it->tid <= read_tid) {
      return &it->value;
    }
  }
  return &rec.attrs[idx];
}

void GraphSegment::ForEachEdge(VertexId vid, EdgeTypeId etype, bool out, Tid read_tid,
                               const std::function<void(VertexId)>& fn) const {
  if (!InRange(vid)) return;
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto& list = out ? out_edges_[OffsetOf(vid)] : in_edges_[OffsetOf(vid)];
  for (const EdgeRec& e : list) {
    if (e.etype == etype && e.created_tid <= read_tid && e.deleted_tid > read_tid) {
      fn(e.peer);
    }
  }
}

void GraphSegment::ForEachVertex(int vtype, Tid read_tid,
                                 const std::function<void(VertexId)>& fn) const {
  ScanVertices(vtype, read_tid, [&](VertexId vid, const Attrs&) { fn(vid); });
}

void GraphSegment::ScanVertices(int vtype, Tid read_tid,
                                const std::function<void(VertexId, const Attrs&)>& fn)
    const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (uint32_t offset = 0; offset < capacity_; ++offset) {
    const VertexRecord& rec = records_[offset];
    if (!VisibleLocked(rec, read_tid)) continue;
    if (vtype >= 0 && rec.type != static_cast<VertexTypeId>(vtype)) continue;
    fn(base_vid_ + offset, Attrs(this, offset, read_tid));
  }
}

void GraphSegment::ReadVertex(VertexId vid, Tid read_tid,
                              const std::function<void(const Attrs&)>& fn) const {
  if (!InRange(vid)) return;
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (VisibleLocked(records_[OffsetOf(vid)], read_tid)) {
    fn(Attrs(this, OffsetOf(vid), read_tid));
  }
}

size_t GraphSegment::Vacuum(Tid up_to_tid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t applied = 0;
  // Deltas are in commit order, so the last applied value per slot wins.
  auto it = attr_deltas_.begin();
  while (it != attr_deltas_.end() && it->tid <= up_to_tid) {
    records_[it->offset].attrs[it->attr_idx] = std::move(it->value);
    ++it;
    ++applied;
  }
  attr_deltas_.erase(attr_deltas_.begin(), it);
  // Physically drop old deleted edges (safe once no reader can hold a
  // read_tid below up_to_tid; the engine guarantees that before calling).
  for (auto* lists : {&out_edges_, &in_edges_}) {
    for (auto& list : *lists) {
      list.erase(std::remove_if(list.begin(), list.end(),
                                [up_to_tid](const EdgeRec& e) {
                                  return e.deleted_tid <= up_to_tid;
                                }),
                 list.end());
    }
  }
  // The fold itself changes no MVCC-visible state at or above up_to_tid,
  // but bumping keeps version-keyed caches conservatively fresh across
  // vacuum boundaries (commit/vacuum/merge all advance the version).
  BumpVersion(up_to_tid);
  return applied;
}

size_t GraphSegment::pending_attr_deltas() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return attr_deltas_.size();
}

uint32_t GraphSegment::used_slots() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return used_slots_;
}

}  // namespace tigervector
