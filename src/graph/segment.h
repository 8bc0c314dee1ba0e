#ifndef TIGERVECTOR_GRAPH_SEGMENT_H_
#define TIGERVECTOR_GRAPH_SEGMENT_H_

#include <atomic>
#include <functional>
#include <shared_mutex>
#include <vector>

#include "graph/mutation.h"
#include "graph/types.h"
#include "util/status.h"

namespace tigervector {

// A vertex segment: the unit of storage, parallelism, and (in the paper)
// distribution. Holds a fixed-capacity slab of vertex records, outgoing and
// incoming adjacency (outgoing edges live in the source vertex's segment,
// paper Sec. 2.1), and an MVCC attribute-delta list that a vacuum folds
// into the record snapshot.
class GraphSegment {
 public:
  GraphSegment(SegmentId id, VertexId base_vid, uint32_t capacity);

  GraphSegment(const GraphSegment&) = delete;
  GraphSegment& operator=(const GraphSegment&) = delete;

  struct EdgeRec {
    EdgeTypeId etype;
    VertexId peer;
    Tid created_tid;
    Tid deleted_tid;  // kMaxTid while alive
  };

  // --- Committed-write application (called under the engine commit lock,
  // with `tid` already assigned). ---
  Status ApplyInsertVertex(VertexId vid, VertexTypeId vtype, std::vector<Value> attrs,
                           Tid tid);
  Status ApplySetAttr(VertexId vid, uint16_t attr_idx, Value value, Tid tid);
  Status ApplyDeleteVertex(VertexId vid, Tid tid);
  // Adds an adjacency entry on this (source-side) segment. `out` selects
  // the outgoing vs incoming list.
  Status ApplyAddEdge(VertexId src_vid, EdgeTypeId etype, VertexId peer, bool out,
                      Tid tid);
  Status ApplyDeleteEdge(VertexId src_vid, EdgeTypeId etype, VertexId peer, bool out,
                         Tid tid);

  // --- Reads (take a shared lock; safe concurrently with commits). ---
  bool IsVisible(VertexId vid, Tid read_tid) const;
  // Vertex type, or -1 if the slot was never filled.
  int VertexType(VertexId vid) const;
  Status GetAttr(VertexId vid, uint16_t attr_idx, Tid read_tid, Value* out) const;

  // Invokes fn(peer_vid) for each visible edge of `etype` in direction
  // `out` from `vid`.
  void ForEachEdge(VertexId vid, EdgeTypeId etype, bool out, Tid read_tid,
                   const std::function<void(VertexId)>& fn) const;

  // Invokes fn(vid) for every visible vertex of `vtype` (or all types when
  // vtype < 0).
  void ForEachVertex(int vtype, Tid read_tid, const std::function<void(VertexId)>& fn) const;

  // One visible vertex's attributes as of a read_tid, handed to a callback
  // that runs under the segment lock and valid only inside it.
  class Attrs {
   public:
    // Attribute `idx`, as GetAttr reads it; null when the vertex has no
    // such slot.
    const Value* Get(uint16_t idx) const {
      return seg_->AttrLocked(offset_, idx, read_tid_);
    }

   private:
    friend class GraphSegment;
    Attrs(const GraphSegment* seg, uint32_t offset, Tid read_tid)
        : seg_(seg), offset_(offset), read_tid_(read_tid) {}
    const GraphSegment* seg_;
    uint32_t offset_;
    Tid read_tid_;
  };
  // ForEachVertex for predicate scans: fn(vid, attrs) reads attributes
  // without taking the lock again per read.
  void ScanVertices(int vtype, Tid read_tid,
                    const std::function<void(VertexId, const Attrs&)>& fn) const;
  // Invokes fn(attrs) when `vid` is visible at read_tid.
  void ReadVertex(VertexId vid, Tid read_tid,
                  const std::function<void(const Attrs&)>& fn) const;

  // Folds attribute deltas with tid <= up_to_tid into the record snapshot
  // and drops them; also physically removes edges whose deletion is at or
  // below up_to_tid. Returns the number of deltas applied.
  size_t Vacuum(Tid up_to_tid);

  size_t pending_attr_deltas() const;

  // --- MVCC visibility version (cache invalidation key) ---
  // Monotone counter bumped by every committed mutation applied to this
  // segment and by every vacuum fold. Cached artifacts derived from this
  // segment's contents (predicate bitmaps) embed the version in their key,
  // so any change makes stale entries unreachable without invalidation
  // walks.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  // Highest transaction id applied to this segment. A reader whose
  // read_tid is below this value must not share version-keyed cache
  // entries with readers at the latest horizon.
  Tid last_applied_tid() const {
    return last_applied_tid_.load(std::memory_order_acquire);
  }

  SegmentId id() const { return id_; }
  VertexId base_vid() const { return base_vid_; }
  uint32_t capacity() const { return capacity_; }
  // Number of slots ever filled (monotone; includes deleted vertices).
  uint32_t used_slots() const;

 private:
  struct VertexRecord {
    VertexTypeId type = 0;
    bool exists = false;
    Tid created_tid = kMaxTid;
    Tid deleted_tid = kMaxTid;
    std::vector<Value> attrs;
  };

  struct AttrDelta {
    Tid tid;
    uint32_t offset;
    uint16_t attr_idx;
    Value value;
  };

  // Called (under the write lock) after a successful mutation or vacuum.
  // The horizon is raised BEFORE the version: cache readers capture
  // version() first and then gate on last_applied_tid() <= read_tid, so a
  // version observed by a reader must never be newer than the horizon it
  // checks next. The reverse order would let a reader pinned below this
  // mutation's tid pair the old horizon with the new version and admit a
  // stale bitmap under the new version's key.
  void BumpVersion(Tid tid) {
    Tid prev = last_applied_tid_.load(std::memory_order_relaxed);
    while (tid > prev && !last_applied_tid_.compare_exchange_weak(
                             prev, tid, std::memory_order_acq_rel)) {
    }
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  uint32_t OffsetOf(VertexId vid) const { return static_cast<uint32_t>(vid - base_vid_); }
  bool VisibleLocked(const VertexRecord& rec, Tid read_tid) const {
    return rec.exists && rec.created_tid <= read_tid && rec.deleted_tid > read_tid;
  }
  // Attribute `idx` of the record at `offset` as of read_tid: the latest
  // visible delta, else the record's value; null past the record's slots.
  const Value* AttrLocked(uint32_t offset, uint16_t idx, Tid read_tid) const;
  bool InRange(VertexId vid) const {
    return vid >= base_vid_ && vid < base_vid_ + capacity_;
  }

  SegmentId id_;
  VertexId base_vid_;
  uint32_t capacity_;
  std::vector<VertexRecord> records_;
  std::vector<AttrDelta> attr_deltas_;
  std::vector<std::vector<EdgeRec>> out_edges_;
  std::vector<std::vector<EdgeRec>> in_edges_;
  uint32_t used_slots_ = 0;
  std::atomic<uint64_t> version_{0};
  std::atomic<Tid> last_applied_tid_{0};
  mutable std::shared_mutex mu_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_GRAPH_SEGMENT_H_
