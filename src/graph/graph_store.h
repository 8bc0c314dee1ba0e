#ifndef TIGERVECTOR_GRAPH_GRAPH_STORE_H_
#define TIGERVECTOR_GRAPH_GRAPH_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "graph/mutation.h"
#include "graph/schema.h"
#include "graph/segment.h"
#include "graph/wal.h"
#include "util/bitmap.h"
#include "util/result.h"

namespace tigervector {

class ThreadPool;

// Interface through which committed embedding mutations reach the embedding
// service (implemented in embedding/). Keeping the dependency inverted lets
// the graph engine stay ignorant of vector index internals while the commit
// protocol still covers both stores atomically (paper Sec. 4.3: "updates
// involving both graph attributes and vector attributes are performed
// atomically").
class EmbeddingSink {
 public:
  virtual ~EmbeddingSink() = default;
  virtual Status ApplyUpsert(VertexTypeId vtype, const std::string& attr, VertexId vid,
                             const std::vector<float>& value, Tid tid) = 0;
  virtual Status ApplyDelete(VertexTypeId vtype, const std::string& attr, VertexId vid,
                             Tid tid) = 0;
};

// RAII view of a per-type vertex-status bitmap. Holds a shared lock so the
// bitmap cannot be resized while a vector search is wrapping it as its
// filter (paper Sec. 5.1: the engine "reuses a global vertex status
// structure ... and wraps it as a bitmap" instead of materializing one).
class TypeBitmapGuard {
 public:
  TypeBitmapGuard(std::shared_lock<std::shared_mutex> lock, const Bitmap* bitmap)
      : lock_(std::move(lock)), bitmap_(bitmap) {}
  const Bitmap& get() const { return *bitmap_; }
  const Bitmap* operator->() const { return bitmap_; }

 private:
  std::shared_lock<std::shared_mutex> lock_;
  const Bitmap* bitmap_;
};

// The storage engine: segments, commit protocol, WAL, and the parallel
// VertexAction/EdgeAction primitives. One GraphStore instance corresponds
// to one TigerGraph server's storage layer; the mpp module shards segments
// across several logical servers.
class GraphStore {
 public:
  struct Options {
    uint32_t segment_capacity = 4096;
    std::string wal_path;    // empty -> in-memory WAL
    bool wal_sync = false;
  };

  GraphStore(Schema* schema, Options options);
  explicit GraphStore(Schema* schema) : GraphStore(schema, Options{}) {}

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  Schema* schema() { return schema_; }
  const Schema* schema() const { return schema_; }
  const Options& options() const { return options_; }

  // Registers the embedding service that receives vector mutations at
  // commit (must outlive the store).
  void SetEmbeddingSink(EmbeddingSink* sink) { embedding_sink_ = sink; }

  // Reserves a fresh vertex id (visible only after the inserting
  // transaction commits).
  VertexId AllocateVid();

  // Commits a transaction: validates, appends to the WAL, applies graph
  // mutations to segments and embedding mutations to the sink, then makes
  // the transaction visible. Serialized by an internal commit lock.
  Result<Tid> CommitTransaction(const std::vector<Mutation>& mutations);

  // Replays a WAL file into an empty store (including embedding mutations
  // if a sink is registered). next-vid/next-tid counters are restored.
  Status Recover(const std::string& wal_path);

  // Crash-tolerant WAL replay: a missing file is an empty log and a torn
  // tail (crash mid-append) ends the replay at the last complete record
  // instead of failing. With `truncate_tail` the file is then cut back to
  // that boundary so subsequent appends continue from a clean record edge.
  struct WalRecoveryInfo {
    size_t records = 0;
    Tid max_tid = 0;
    bool truncated = false;       // a torn tail was found (and possibly cut)
    uint64_t valid_bytes = 0;     // byte offset of the last complete record
  };
  Result<WalRecoveryInfo> RecoverWal(const std::string& wal_path,
                                     bool truncate_tail);

  // Highest committed, visible transaction id. Readers snapshot this as
  // their read_tid.
  Tid visible_tid() const { return visible_tid_.load(std::memory_order_acquire); }

  // Store-wide monotone version, bumped on every commit and every graph
  // vacuum. Together with the per-segment versions it lets caches detect
  // "anything changed anywhere" without walking segments.
  uint64_t graph_version() const {
    return graph_version_.load(std::memory_order_acquire);
  }

  // --- Reads ---
  bool IsVisible(VertexId vid, Tid read_tid) const;
  // Type id of a vertex, or error when the slot was never filled.
  Result<VertexTypeId> GetVertexType(VertexId vid) const;
  Result<Value> GetAttr(VertexId vid, const std::string& attr_name, Tid read_tid) const;
  Result<Value> GetAttrByIndex(VertexId vid, uint16_t attr_idx, Tid read_tid) const;

  // Visible out-/in-neighbors over one edge type. An undirected edge is
  // stored as an out entry on both endpoints, so on an undirected type kOut
  // and kAny reach every neighbor and kIn reaches none. `fn` runs with no
  // segment lock held.
  void ForEachNeighbor(VertexId vid, EdgeTypeId etype, Direction dir, Tid read_tid,
                       const std::function<void(VertexId)>& fn) const;

  // The direction that walks `dir`'s relation backwards:
  // ForEachNeighbor(p, etype, ReverseDirection(etype, dir)) reaches v
  // exactly when ForEachNeighbor(v, etype, dir) reaches p. Both entries of
  // an edge carry the same tids, so this holds at every read_tid.
  Direction ReverseDirection(EdgeTypeId etype, Direction dir) const;

  // VertexAction parallel primitive: runs fn over every segment (in
  // parallel when pool != nullptr). fn receives the segment; it typically
  // calls segment.ForEachVertex.
  void VertexAction(ThreadPool* pool,
                    const std::function<void(const GraphSegment&)>& fn) const;

  // Runs fn(vid) over all visible vertices of a type, using VertexAction.
  void ForEachVertexOfType(VertexTypeId vtype, Tid read_tid, ThreadPool* pool,
                           const std::function<void(VertexId)>& fn) const;

  // Current per-type vertex-status bitmap (latest committed state), sized
  // to vid_upper_bound().
  TypeBitmapGuard LatestTypeBitmap(VertexTypeId vtype) const;

  // Folds attribute deltas up to the current visible tid into segment
  // snapshots. Returns total deltas applied.
  size_t VacuumGraph();

  size_t NumSegments() const;
  const GraphSegment* SegmentAt(size_t i) const;
  // One past the highest allocated vid.
  VertexId vid_upper_bound() const { return next_vid_.load(std::memory_order_acquire); }
  uint32_t segment_capacity() const { return options_.segment_capacity; }

  const WriteAheadLog& wal() const { return wal_; }

 private:
  GraphSegment* SegmentFor(VertexId vid);
  const GraphSegment* SegmentForConst(VertexId vid) const;
  void EnsureSegmentsFor(VertexId vid);

  Status ValidateMutations(const std::vector<Mutation>& mutations) const;
  Status ApplyOne(const Mutation& m, Tid tid);
  Status ReplayRecords(const std::vector<WriteAheadLog::Record>& records);

  Schema* schema_;
  Options options_;
  WriteAheadLog wal_;
  EmbeddingSink* embedding_sink_ = nullptr;

  mutable std::shared_mutex segments_mu_;  // guards segments_ growth
  std::vector<std::unique_ptr<GraphSegment>> segments_;

  std::atomic<VertexId> next_vid_{0};
  std::atomic<Tid> next_tid_{0};
  std::atomic<Tid> visible_tid_{0};
  std::atomic<uint64_t> graph_version_{0};
  std::mutex commit_mu_;

  mutable std::shared_mutex bitmap_mu_;
  std::vector<Bitmap> type_bitmaps_;  // indexed by VertexTypeId
};

}  // namespace tigervector

#endif  // TIGERVECTOR_GRAPH_GRAPH_STORE_H_
