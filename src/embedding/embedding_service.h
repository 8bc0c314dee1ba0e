#ifndef TIGERVECTOR_EMBEDDING_EMBEDDING_SERVICE_H_
#define TIGERVECTOR_EMBEDDING_EMBEDDING_SERVICE_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "embedding/embedding_segment.h"
#include "graph/graph_store.h"
#include "util/result.h"

namespace tigervector {

class ThreadPool;

// A multi-attribute vector search request. `attrs` lists one or more
// (vertex type, embedding attribute) pairs; they must pass the embedding
// compatibility check (paper Sec. 4.1). The filter is evaluated over global
// vertex ids, so a predicate bitmap from the graph engine plugs in directly.
struct VectorSearchRequest {
  std::vector<std::pair<std::string, std::string>> attrs;
  const float* query = nullptr;
  size_t k = 10;
  size_t ef = 64;
  FilterView filter;
  Tid read_tid = kMaxTid;
  // Per-segment brute-force fallback threshold; 0 uses the service default.
  size_t bruteforce_threshold = 0;
  // Rerank multiple for quantized (SQ8) scans; 0 uses the process default.
  size_t rerank_factor = 0;
  // When non-null, only segments with segment_mask[seg_id % mask_size]
  // semantics... restricted to these segment ids (used by the MPP layer to
  // scope a request to one logical server's shard). Empty -> all segments.
  const std::vector<SegmentId>* segment_subset = nullptr;
  ThreadPool* pool = nullptr;  // intra-request segment parallelism
};

struct VectorSearchResult {
  std::vector<SearchHit> hits;  // ascending distance, global vids as labels
  size_t segments_searched = 0;
  size_t bruteforce_segments = 0;  // segments that took the exact-scan path
  size_t delta_candidates = 0;     // candidates served from the delta overlay
  size_t quant_segments = 0;       // segments that ranked on SQ8 codes
  size_t reranked = 0;             // candidates rescored with exact fp32
};

// The embedding service module (paper Sec. 4.2): owns every embedding
// segment, receives committed vector deltas from the graph engine's commit
// protocol (EmbeddingSink), runs the two-stage vacuum, and serves
// segment-parallel top-k / range search with global merge (EmbeddingAction).
class EmbeddingService : public EmbeddingSink {
 public:
  struct Options {
    HnswParams index_params;       // dim/metric/max_elements overridden per attr
    std::string delta_dir;         // empty -> in-memory delta files
    size_t bruteforce_threshold = 64;
    size_t max_vacuum_threads = 4;
  };

  EmbeddingService(GraphStore* store, Options options);

  // --- EmbeddingSink (called under the engine commit lock) ---
  Status ApplyUpsert(VertexTypeId vtype, const std::string& attr, VertexId vid,
                     const std::vector<float>& value, Tid tid) override;
  Status ApplyDelete(VertexTypeId vtype, const std::string& attr, VertexId vid,
                     Tid tid) override;

  // --- Search (EmbeddingAction) ---
  // Validates attribute existence and pairwise compatibility, fans the
  // query out across embedding segments (in parallel when request.pool is
  // set), and merges local top-k lists into the global top-k.
  Result<VectorSearchResult> TopKSearch(const VectorSearchRequest& request) const;

  // All hits with distance < threshold across the requested attributes.
  Result<VectorSearchResult> RangeSearch(const VectorSearchRequest& request,
                                         float threshold) const;

  // Latest visible embedding of a vertex.
  Status GetEmbedding(const std::string& vertex_type, const std::string& attr,
                      VertexId vid, float* out) const;

  // --- Vacuum (paper Sec. 4.3, Fig. 4) ---
  // Stage 1 on every segment: seal in-memory deltas (up to the currently
  // visible tid) into delta files. Returns total records sealed.
  Result<size_t> RunDeltaMerge();
  // Stage 2 on every segment: fold sealed delta files into the indexes.
  // Uses up to SuggestVacuumThreads() workers from `pool`.
  Result<size_t> RunIndexMerge(ThreadPool* pool);
  // Rebuild all indexes from scratch (the "rebuild beats incremental when
  // >20% updated" path, paper Fig. 11).
  Status RebuildAllIndexes(ThreadPool* pool);

  // --- Index snapshot persistence ---
  // Writes every (HNSW) segment index to `dir` plus a manifest, after
  // folding all pending deltas. A fresh process with the same schema can
  // then LoadIndexSnapshots instead of replaying the WAL into the indexes.
  Status SaveIndexSnapshots(const std::string& dir, ThreadPool* pool);
  // Restores segment indexes from a snapshot directory.
  Status LoadIndexSnapshots(const std::string& dir);

  // --- Crash recovery (used by Database::Recover) ---
  struct RecoveryStats {
    size_t snapshots_adopted = 0;
    size_t snapshots_rejected = 0;
    size_t delta_files_adopted = 0;
    size_t delta_files_quarantined = 0;
    size_t stale_files_removed = 0;
    size_t tmp_files_removed = 0;
  };
  // Best-effort variant of LoadIndexSnapshots: a missing or unreadable
  // manifest means "no snapshot" (not an error), and a snapshot file that
  // fails to load or adopt is skipped — WAL replay covers the gap either
  // way, snapshots only shorten it.
  Status RecoverSnapshots(const std::string& dir, RecoveryStats* stats);
  // Re-attaches sealed delta files left behind by a pre-crash delta merge
  // (names `emb_<vtype>_<attr>_seg<id>_tid<max>.delta`). Files are adopted
  // per segment in ascending max_tid order; a corrupt file is quarantined
  // (renamed with a ".quarantined" suffix) and stops that segment's chain,
  // leaving the rest to WAL replay. Files at or below a segment's durable
  // horizon are stale duplicates of an adopted snapshot and are removed, as
  // are leftover ".tmp" staging files from interrupted atomic writes.
  Status RecoverDeltaFiles(const std::string& dir, RecoveryStats* stats);

  // Adaptive vacuum parallelism: back off while foreground searches are
  // active (paper Sec. 4.3: the number of index-update threads is tuned
  // dynamically to balance efficiency and query responsiveness).
  size_t SuggestVacuumThreads() const;

  // --- Introspection ---
  size_t TotalPendingDeltas() const;
  size_t NumEmbeddingSegments() const;
  // Embedding segments of one attribute, ordered by segment id.
  std::vector<const EmbeddingSegment*> SegmentsOf(const std::string& vertex_type,
                                                  const std::string& attr) const;
  size_t active_searches() const { return active_searches_.load(); }
  const Options& options() const { return options_; }

  // --- structure version (cache invalidation key) ---
  // Monotone counter bumped at the END of every operation that changes the
  // search structure without a commit: delta merge, index merge, rebuild,
  // snapshot load, recovery adoption. Commits do not bump it — the commit
  // horizon (read_tid) already keys cached results across commits; this
  // covers the vacuum/merge side where approximate (HNSW) answers can
  // change with no tid advancing.
  uint64_t structure_version() const {
    return structure_version_.load(std::memory_order_acquire);
  }
  // False while a structural operation is in flight. The top-k result
  // cache bypasses both lookups and inserts in that window: a search
  // overlapping a merge may observe a half-merged structure and is not
  // reproducible, so it must neither be served from nor admitted to the
  // cache.
  bool structure_stable() const {
    return structure_changes_inflight_.load(std::memory_order_acquire) == 0;
  }

 private:
  struct AttrKey {
    VertexTypeId vtype;
    std::string attr;
    bool operator<(const AttrKey& other) const {
      if (vtype != other.vtype) return vtype < other.vtype;
      return attr < other.attr;
    }
  };

  struct AttrState {
    EmbeddingTypeInfo info;
    // Sparse, indexed by SegmentId; slots are created on first delta.
    std::vector<std::unique_ptr<EmbeddingSegment>> segments;
  };

  // Finds the attribute state, validating against the schema.
  Result<AttrState*> GetOrCreateAttrState(VertexTypeId vtype, const std::string& attr);
  Result<const AttrState*> FindAttrState(const std::string& vertex_type,
                                         const std::string& attr) const;
  EmbeddingSegment* GetOrCreateSegment(AttrState* state, const EmbeddingTypeInfo& info,
                                       SegmentId seg_id);

  // Shared fan-out used by TopK and Range.
  template <typename SegmentFn>
  Result<VectorSearchResult> FanOut(const VectorSearchRequest& request,
                                    SegmentFn segment_fn) const;

  // RAII guard for structural operations: marks the structure unstable for
  // its lifetime and bumps the version on exit (before clearing the
  // in-flight mark, so observers that see the structure stable again also
  // see the new version).
  class ScopedStructureChange {
   public:
    explicit ScopedStructureChange(EmbeddingService* service) : service_(service) {
      service_->structure_changes_inflight_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ScopedStructureChange() {
      service_->structure_version_.fetch_add(1, std::memory_order_acq_rel);
      service_->structure_changes_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }

   private:
    EmbeddingService* service_;
  };

  GraphStore* store_;
  Options options_;
  mutable std::shared_mutex mu_;  // guards attr_states_ map & segment slots
  std::map<AttrKey, AttrState> attr_states_;
  mutable std::atomic<size_t> active_searches_{0};
  std::atomic<uint64_t> structure_version_{0};
  std::atomic<uint32_t> structure_changes_inflight_{0};
};

}  // namespace tigervector

#endif  // TIGERVECTOR_EMBEDDING_EMBEDDING_SERVICE_H_
