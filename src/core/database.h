#ifndef TIGERVECTOR_CORE_DATABASE_H_
#define TIGERVECTOR_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/traversal.h"
#include "cache/query_cache.h"
#include "core/access_control.h"
#include "embedding/embedding_service.h"
#include "graph/graph_store.h"
#include "graph/transaction.h"
#include "mpp/cluster.h"
#include "util/thread_pool.h"

namespace tigervector {

// The TigerVector database facade: wires the schema, the segment-based
// graph store, the embedding service (registered as the store's embedding
// sink so commits cover both atomically), a shared worker pool, and an
// optional simulated MPP cluster. This is the public entry point a
// downstream application uses; the GSQL layer (query/) runs on top of it.
class Database {
 public:
  struct Options {
    GraphStore::Options store;
    EmbeddingService::Options embeddings;
    // Two-tier query cache (predicate bitmaps + top-k results); the
    // TV_CACHE environment variable overrides `cache.enabled`.
    cache::QueryCache::Options cache;
    size_t num_threads = 4;
    // >1 instantiates the simulated MPP cluster for distributed search.
    size_t num_servers = 1;
    size_t threads_per_server = 2;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options);

  Schema* schema() { return &schema_; }
  const Schema* schema() const { return &schema_; }
  GraphStore* store() { return store_.get(); }
  const GraphStore* store() const { return store_.get(); }
  EmbeddingService* embeddings() { return embeddings_.get(); }
  const EmbeddingService* embeddings() const { return embeddings_.get(); }
  ThreadPool* pool() { return pool_.get(); }
  Cluster* cluster() { return cluster_.get(); }
  cache::QueryCache* cache() { return cache_.get(); }
  const cache::QueryCache* cache() const { return cache_.get(); }
  AccessController* access() { return &access_; }
  const AccessController* access() const { return &access_; }

  // Starts a write transaction.
  Transaction Begin() { return Transaction(store_.get()); }

  // Runs both vacuum stages (delta merge then index merge, the latter on
  // the shared worker pool). Returns records folded into indexes.
  Result<size_t> Vacuum();

  // --- Crash recovery ---
  // Rebuilds a freshly constructed database from its on-disk artifacts, in
  // order: (1) adopt valid index snapshots, (2) re-attach sealed delta
  // files (quarantining corrupt ones), (3) replay the WAL past each
  // segment's durable horizon, tolerating and optionally truncating a torn
  // tail. Corrupt or missing artifacts other than the WAL prefix are never
  // fatal — they only lengthen the replay.
  struct RecoveryOptions {
    std::string wal_path;       // empty -> Options::store.wal_path
    std::string snapshot_dir;   // empty -> skip snapshot adoption
    std::string delta_dir;      // empty -> Options::embeddings.delta_dir
    bool truncate_torn_wal = true;
  };
  struct RecoveryReport {
    size_t wal_records_replayed = 0;
    Tid recovered_tid = 0;
    bool wal_truncated = false;
    uint64_t wal_valid_bytes = 0;
    EmbeddingService::RecoveryStats embeddings;
  };
  Result<RecoveryReport> Recover(const RecoveryOptions& options);
  Result<RecoveryReport> Recover() { return Recover(RecoveryOptions{}); }

  // The flexible VectorSearch() function (paper Sec. 5.5): searches one or
  // more compatible embedding attributes, optionally restricted to a
  // candidate vertex set from a previous query block, returning a vertex
  // set assignable to a vertex-set variable plus an optional distance map.
  struct VectorSearchFnOptions {
    const VertexSet* filter = nullptr;  // candidate set from a prior block
    size_t ef = 64;                     // index search accuracy parameter
    // When non-null, receives the top-k (vertex -> distance) pairs.
    std::unordered_map<VertexId, float>* distance_map = nullptr;
    // Role the search runs under; empty = superuser. Attributes on vertex
    // types the role cannot read are excluded ("unauthorized vectors");
    // the search fails only if nothing readable remains.
    std::string role;
    // MVCC horizon the search answers at. kMaxTid pins the currently
    // visible tid at call time; callers composing a search into a larger
    // read (the executor) pass their own snapshot so the whole statement
    // observes one horizon.
    Tid read_tid = kMaxTid;
    // Skip the top-k result cache for this call (both lookup and insert).
    // Used by differential tests comparing cached vs uncached answers.
    bool bypass_cache = false;
    // Rerank multiple for quantized (SQ8) scans; 0 uses the process default
    // (TV_RERANK_FACTOR). Part of the result-cache key either way.
    size_t rerank_factor = 0;
  };
  // `candidates`, when non-null, is the filter in the engine's own form (the
  // GSQL executor's pattern candidates) and options.filter is not read;
  // otherwise options.filter is converted into one.
  Result<VertexSet> VectorSearch(
      const std::vector<std::pair<std::string, std::string>>& attrs,
      const std::vector<float>& query, size_t k, const VectorSearchFnOptions& options,
      const CandidateSet* candidates = nullptr);
  Result<VertexSet> VectorSearch(
      const std::vector<std::pair<std::string, std::string>>& attrs,
      const std::vector<float>& query, size_t k) {
    return VectorSearch(attrs, query, k, VectorSearchFnOptions{});
  }

 private:
  Options options_;
  Schema schema_;
  AccessController access_;
  std::unique_ptr<GraphStore> store_;
  std::unique_ptr<EmbeddingService> embeddings_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<cache::QueryCache> cache_;

  // Top-k search through the result cache. `request.read_tid` must already
  // be pinned to a real horizon (not kMaxTid) for the cache to engage.
  // `candidates` (null: accept-all) are what request.filter accepts; the key
  // fingerprints their contents. The search is filed in the active query
  // trace (TraceVectorSearch); a hit replays the tier counts of the run that
  // filled the entry.
  Result<VectorSearchResult> CachedTopK(const VectorSearchRequest& request,
                                        size_t query_dim,
                                        const CandidateSet* candidates,
                                        bool bypass_cache);
};

// Files one vector search in the active query trace, where EXPLAIN ANALYZE
// reads it back: the result's tier counts as "search.segments",
// "search.bruteforce_segments", "search.delta_candidates",
// "search.quant_segments" and "search.reranked", and the top-k cache outcome
// as "cache.topk_hit|miss|bypass". No-op without an active trace.
void TraceVectorSearch(const VectorSearchResult& result, cache::Outcome outcome);

}  // namespace tigervector

#endif  // TIGERVECTOR_CORE_DATABASE_H_
