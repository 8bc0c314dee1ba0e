#ifndef TIGERVECTOR_EMBEDDING_EMBEDDING_SEGMENT_H_
#define TIGERVECTOR_EMBEDDING_EMBEDDING_SEGMENT_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "embedding/embedding_type.h"
#include "graph/types.h"
#include "hnsw/hnsw_index.h"
#include "hnsw/vector_index.h"
#include "util/bitmap.h"
#include "util/result.h"

namespace tigervector {

class ThreadPool;

// One committed vector mutation, the MVCC vector-delta record of the paper
// (Sec. 4.3): Action Flag (Upsert/Delete), ID, TID, Vector Value.
struct VectorDelta {
  enum class Action : uint8_t { kUpsert = 0, kDelete = 1 };
  Action action;
  VertexId id;
  Tid tid;
  std::vector<float> value;  // empty for deletes
};

// A sealed batch of vector deltas produced by the delta-merge vacuum. When
// the service is configured with a data directory, the batch is also
// persisted to `path` ("flushing deltas from the in-memory store to disk").
struct DeltaFile {
  // The segment's durable horizon when this file was sealed: the file holds
  // every delta the segment received in (base_tid, max_tid]. Recovery may
  // only re-attach a file whose base_tid equals the horizon already
  // reconstructed — otherwise there is a gap only WAL replay can fill, and
  // adopting the file would shadow that replay.
  Tid base_tid = 0;
  Tid max_tid = 0;
  std::vector<VectorDelta> deltas;
  std::string path;  // empty when in-memory only

  // Atomic (tmp + fsync + rename) write; a crash at any point leaves either
  // the previous file or no file, never a torn one.
  Status Save(const std::string& file_path);
  static Result<DeltaFile> Load(const std::string& file_path);
};

// Decoupled vector storage for one (vertex segment, embedding attribute)
// pair (paper Sec. 4.2, Figure 3): vectors follow the vertex partitioning
// scheme but live in their own embedding segment with a per-segment HNSW
// index, an in-memory delta store, and sealed delta files awaiting the
// index-merge vacuum.
class EmbeddingSegment {
 public:
  EmbeddingSegment(SegmentId segment_id, VertexId base_vid, uint32_t capacity,
                   const EmbeddingTypeInfo& info, const HnswParams& index_params);

  EmbeddingSegment(const EmbeddingSegment&) = delete;
  EmbeddingSegment& operator=(const EmbeddingSegment&) = delete;

  // --- Commit path (serialized by the engine commit lock) ---
  // Deltas at or below the durable horizon (already captured by an adopted
  // index snapshot or sealed delta file) are skipped, which makes WAL
  // replay over recovery artifacts idempotent.
  Status ApplyDelta(VectorDelta delta);

  // --- Vacuum (paper Fig. 4) ---
  // Step 1 (delta merge): seals in-memory deltas with tid <= up_to_tid into
  // a delta file; when `dir` is non-empty the file is persisted there as
  // `<file_stem>_seg<id>_tid<max>.delta` (stem defaults to "emb"). The file
  // is saved *before* the in-memory deltas are dropped: an I/O failure
  // leaves every committed delta in place.
  // Returns the number of deltas sealed.
  Result<size_t> DeltaMerge(Tid up_to_tid, const std::string& dir,
                            const std::string& file_stem = "emb");

  // Step 2 (index merge): folds sealed delta files with max_tid <=
  // up_to_tid into the vector index via UpdateItems, then retires them.
  // Returns the number of delta records merged.
  Result<size_t> IndexMerge(Tid up_to_tid, ThreadPool* pool);

  // Rebuilds the index from scratch out of the current live vectors
  // (snapshot + all pending deltas). Used when the update ratio is high
  // enough that rebuild beats incremental merge (paper Fig. 11).
  Status RebuildIndex(ThreadPool* pool);

  // --- Search ---
  struct SearchOptions {
    size_t k = 10;
    size_t ef = 64;
    FilterView filter;            // over global vids
    Tid read_tid = kMaxTid;       // visibility horizon
    // When a filter bitmap leaves fewer than this many valid points in the
    // segment, fall back to exact scan (paper Sec. 5.1). 0 disables.
    size_t bruteforce_threshold = 0;
    // Rerank multiple for quantized scans (candidates kept = factor * k);
    // 0 uses the process default (TV_RERANK_FACTOR, normally 3).
    size_t rerank_factor = 0;
  };

  struct SearchOutput {
    std::vector<SearchHit> hits;
    bool used_bruteforce = false;
    size_t delta_candidates = 0;
    bool used_quant = false;     // the index ranked on SQ8 codes
    size_t reranked = 0;         // candidates rescored with exact fp32
  };

  // Combines index-snapshot search with a brute-force scan over pending
  // deltas (paper Sec. 4.3: "Vector search queries combine index snapshot
  // search results with brute-force search results over vector deltas").
  SearchOutput TopKSearch(const float* query, const SearchOptions& options) const;

  // All hits with distance < threshold, same combination rule.
  SearchOutput RangeSearch(const float* query, float threshold,
                           const SearchOptions& options) const;

  // Latest visible vector for a vertex (checks deltas, then the index).
  Status GetEmbedding(VertexId vid, Tid read_tid, float* out) const;

  // --- Index snapshot persistence (paper Fig. 4: index snapshots are
  // on-disk artifacts the engine switches between) ---
  // Writes the current index snapshot to `path` (HNSW only).
  Status SaveIndexSnapshot(const std::string& path) const;
  // Replaces the index with a loaded snapshot; requires an empty pending
  // delta store (load happens at startup, before traffic).
  Status AdoptIndexSnapshot(std::unique_ptr<VectorIndex> index, Tid merged_tid);
  // Recovery: re-attaches a delta file sealed before a crash. Requires an
  // empty in-memory store and file.max_tid above the current durable
  // horizon; callers adopt files in ascending max_tid order.
  Status AdoptSealedFile(DeltaFile file);
  // Highest tid captured by on-disk artifacts (index snapshot or sealed
  // delta files); deltas at or below it are dropped by ApplyDelta.
  Tid durable_horizon() const;

  // --- Introspection ---
  SegmentId segment_id() const { return segment_id_; }
  VertexId base_vid() const { return base_vid_; }
  uint32_t capacity() const { return capacity_; }
  const EmbeddingTypeInfo& info() const { return info_; }
  Tid merged_tid() const;
  size_t pending_delta_count() const;   // in-memory + sealed, not yet merged
  size_t in_memory_delta_count() const;
  size_t sealed_file_count() const;
  size_t index_size() const;
  // Shared ownership so the caller's view stays valid across a concurrent
  // RebuildIndex swapping in a fresh index.
  std::shared_ptr<const VectorIndex> index() const;

 private:
  struct PendingState {
    // All deltas not yet folded into the index, in commit order.
    std::vector<VectorDelta> in_memory;
    std::vector<DeltaFile> sealed;
    // Earliest unmerged delta tid per id; drives the index-override check.
    std::unordered_map<VertexId, Tid> first_pending_tid;
  };

  // Latest visible pending delta per id.
  using PendingView = std::unordered_map<VertexId, const VectorDelta*>;

  // True when the index entry for `id` is superseded by a pending delta
  // visible at read_tid.
  bool OverriddenLocked(VertexId id, Tid read_tid) const;

  // Delta-store scan producing the PendingView at read_tid.
  PendingView VisiblePendingLocked(Tid read_tid) const;

  // Search tier: when the filter bitmap leaves fewer than
  // bruteforce_threshold valid points in this segment's id range, an exact
  // scan beats the index (paper Sec. 5.1).
  bool UseBruteForce(const SearchOptions& options) const;

  // Delta overlay (paper Sec. 4.3: index results combine with a brute-force
  // scan over pending deltas). Scans the visible upserts accepted by
  // `filter` with the same exact scan as the brute-force tier, merges them
  // into out->hits (the index hits), and keeps the k nearest with distance
  // < max_distance, sorted by (distance, label).
  void OverlayDeltasLocked(const float* query, const PendingView& overrides,
                           const FilterView& filter, size_t k, float max_distance,
                           SearchOutput* out) const;

  void RebuildFirstPendingLocked();

  Tid DurableHorizonLocked() const;

  SegmentId segment_id_;
  VertexId base_vid_;
  uint32_t capacity_;
  EmbeddingTypeInfo info_;
  HnswParams index_params_;
  // Shared so IndexMerge can run UpdateItems outside the segment lock while
  // a concurrent RebuildIndex swaps in a fresh index: the merge keeps the
  // old index alive and detects the swap before retiring delta files.
  std::shared_ptr<VectorIndex> index_;
  Tid merged_tid_ = 0;

  mutable std::shared_mutex mu_;  // guards PendingState + merged_tid_
  PendingState pending_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_EMBEDDING_EMBEDDING_SEGMENT_H_
