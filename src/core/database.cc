#include "core/database.h"

#include <string>

#include "embedding/embedding_type.h"
#include "obs/trace.h"
#include "simd/distance.h"
#include "simd/sq8.h"

namespace tigervector {

Database::Database(Options options) : options_(std::move(options)) {
  // Resolve the distance-kernel dispatch and quantization mode up front so
  // the selected ISA / TV_QUANT choice is logged (and the tv.simd.isa /
  // tv.quant.mode gauges set) at open time, not on the first search.
  simd::ActiveIsa();
  simd::ActiveQuantMode();
  cache_ = std::make_unique<cache::QueryCache>(options_.cache);
  store_ = std::make_unique<GraphStore>(&schema_, options_.store);
  embeddings_ = std::make_unique<EmbeddingService>(store_.get(), options_.embeddings);
  store_->SetEmbeddingSink(embeddings_.get());
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  if (options_.num_servers > 1) {
    Cluster::Options copts;
    copts.num_servers = options_.num_servers;
    copts.threads_per_server = options_.threads_per_server;
    cluster_ = std::make_unique<Cluster>(store_.get(), embeddings_.get(), copts);
  }
}

Result<Database::RecoveryReport> Database::Recover(const RecoveryOptions& options) {
  RecoveryReport report;
  // Snapshots first: they raise each segment's durable horizon so the WAL
  // replay below skips already-captured deltas.
  if (!options.snapshot_dir.empty()) {
    TV_RETURN_NOT_OK(
        embeddings_->RecoverSnapshots(options.snapshot_dir, &report.embeddings));
  }
  // Then sealed delta files, which extend the horizon past the snapshots.
  const std::string& delta_dir =
      options.delta_dir.empty() ? options_.embeddings.delta_dir : options.delta_dir;
  if (!delta_dir.empty()) {
    TV_RETURN_NOT_OK(embeddings_->RecoverDeltaFiles(delta_dir, &report.embeddings));
  }
  // WAL last: the source of truth. It is never pruned, so everything the
  // adopted artifacts missed (including everything, when none were usable)
  // is re-derived here.
  const std::string& wal_path =
      options.wal_path.empty() ? options_.store.wal_path : options.wal_path;
  if (!wal_path.empty()) {
    auto info = store_->RecoverWal(wal_path, options.truncate_torn_wal);
    if (!info.ok()) return info.status();
    report.wal_records_replayed = info->records;
    report.recovered_tid = info->max_tid;
    report.wal_truncated = info->truncated;
    report.wal_valid_bytes = info->valid_bytes;
  }
  return report;
}

Result<size_t> Database::Vacuum() {
  TV_RETURN_NOT_OK(embeddings_->RunDeltaMerge().status());
  auto merged = embeddings_->RunIndexMerge(pool_.get());
  if (!merged.ok()) return merged.status();
  store_->VacuumGraph();
  return *merged;
}

Result<VertexSet> Database::VectorSearch(
    const std::vector<std::pair<std::string, std::string>>& attrs,
    const std::vector<float>& query, size_t k, const VectorSearchFnOptions& options,
    const CandidateSet* candidates) {
  // Drop attributes whose vertex type the role cannot read (their vectors
  // are "unauthorized", paper Sec. 5.1); fail only when nothing remains.
  std::vector<std::pair<std::string, std::string>> permitted;
  const EmbeddingAttrDef* first_def = nullptr;
  std::string first_name;
  for (const auto& [type_name, attr] : attrs) {
    auto vt = schema_.GetVertexType(type_name);
    if (!vt.ok()) return vt.status();
    const EmbeddingAttrDef* def = (*vt)->FindEmbeddingAttr(attr);
    if (def != nullptr) {
      // Cross-attribute compatibility is a semantic property of the query
      // and is reported before any per-attribute validation (Sec. 4.1).
      if (first_def == nullptr) {
        first_def = def;
        first_name = type_name + "." + attr;
      } else {
        Status st = CheckCompatible(first_def->info, def->info);
        if (!st.ok()) {
          return Status::SemanticError("attributes " + first_name + " and " +
                                       type_name + "." + attr +
                                       " are not compatible: " + st.message());
        }
      }
      // Reject a query vector of the wrong dimensionality up front; the
      // search layer below only sees a raw pointer and would read past it.
      if (def->info.dimension != query.size()) {
        return Status::InvalidArgument(
            "query vector dimension " + std::to_string(query.size()) +
            " does not match " + type_name + "." + attr + " dimension " +
            std::to_string(def->info.dimension));
      }
    }
    if (access_.CanRead(options.role, (*vt)->id)) {
      permitted.emplace_back(type_name, attr);
    }
  }
  if (permitted.empty()) {
    return Status::InvalidArgument("permission denied: role '" + options.role +
                                   "' cannot read any requested vertex type");
  }
  VectorSearchRequest request;
  request.attrs = std::move(permitted);
  request.query = query.data();
  request.k = k;
  request.ef = options.ef;
  request.rerank_factor = options.rerank_factor;
  request.pool = pool_.get();
  // Pin the MVCC horizon once, before any per-attribute work: every segment
  // search answers at exactly this tid and the result cache keys on it.
  request.read_tid =
      options.read_tid != kMaxTid ? options.read_tid : store_->visible_tid();
  // The candidates filter every segment search in place.
  CandidateSet from_filter;
  if (candidates == nullptr && options.filter != nullptr) {
    from_filter = VertexSetToCandidates(*options.filter, *store_);
    candidates = &from_filter;
  }
  if (candidates != nullptr) request.filter = FilterView(candidates);
  auto result = CachedTopK(request, query.size(), candidates, options.bypass_cache);
  if (!result.ok()) return result.status();
  VertexSet out;
  for (const SearchHit& hit : result->hits) {
    out.insert(hit.label);
    if (options.distance_map != nullptr) {
      (*options.distance_map)[hit.label] = hit.distance;
    }
  }
  return out;
}

Result<VectorSearchResult> Database::CachedTopK(const VectorSearchRequest& request,
                                                size_t query_dim,
                                                const CandidateSet* candidates,
                                                bool bypass_cache) {
  // With a simulated MPP cluster the search scatters to the logical servers
  // and gathers their local top-k lists; the merge invariant keeps the
  // result bit-identical to the single-node path, so both share one cache.
  auto run = [&](cache::Outcome outcome) -> Result<VectorSearchResult> {
    auto result = cluster_ != nullptr ? cluster_->DistributedTopK(request)
                                      : embeddings_->TopKSearch(request);
    if (result.ok()) TraceVectorSearch(*result, outcome);
    return result;
  };
  // A search overlapping a structural change (vacuum merge, rebuild) can
  // observe a half-merged index; such answers are neither served from nor
  // admitted to the cache.
  if (bypass_cache || !cache_->enabled() || request.read_tid == kMaxTid ||
      !embeddings_->structure_stable()) {
    return run(cache::Outcome::kBypass);
  }
  cache::Fingerprint fp;
  for (const auto& [type_name, attr] : request.attrs) {
    fp = cache::CombineFingerprints(fp, cache::FingerprintString(type_name));
    fp = cache::CombineFingerprints(fp, cache::FingerprintString(attr));
  }
  fp = cache::CombineFingerprints(
      fp, cache::FingerprintBytes(request.query, query_dim * sizeof(float)));
  fp = cache::CombineFingerprint(fp, request.k);
  fp = cache::CombineFingerprint(fp, request.ef);
  fp = cache::CombineFingerprint(fp, request.bruteforce_threshold);
  // Quantized and exact scans return different (both correct) approximate
  // answers, and the rerank budget shapes the quantized one — salt the key
  // with both so TV_QUANT / rerank_factor A/B runs never share entries.
  fp = cache::CombineFingerprint(
      fp, static_cast<uint64_t>(simd::ActiveQuantMode()));
  fp = cache::CombineFingerprint(fp, request.rerank_factor != 0
                                         ? request.rerank_factor
                                         : simd::DefaultRerankFactor());
  const uint64_t structure_version = embeddings_->structure_version();
  // No candidates: the accept-all key Fingerprint{}, which no candidate
  // set's fingerprint equals.
  const cache::CacheKey key = cache::TopKKey(
      fp,
      candidates != nullptr ? cache::FingerprintCandidates(*candidates)
                            : cache::Fingerprint{},
      request.read_tid, structure_version);
  if (cache::QueryCache::TopKPtr entry = cache_->LookupTopK(key)) {
    VectorSearchResult cached;
    cached.hits.reserve(entry->hits.size());
    for (const auto& [distance, vid] : entry->hits) {
      cached.hits.push_back(SearchHit{distance, vid});
    }
    cached.segments_searched = entry->segments_searched;
    cached.bruteforce_segments = entry->bruteforce_segments;
    cached.delta_candidates = entry->delta_candidates;
    cached.quant_segments = entry->quant_segments;
    cached.reranked = entry->reranked;
    TraceVectorSearch(cached, cache::Outcome::kHit);
    return cached;
  }
  auto result = run(cache::Outcome::kMiss);
  if (!result.ok()) return result;
  // Admit only if no structural change raced with the computation; the
  // version re-check pairs with the end-of-operation bump in the service.
  if (embeddings_->structure_stable() &&
      embeddings_->structure_version() == structure_version) {
    auto entry = std::make_shared<cache::QueryCache::TopKEntry>();
    entry->hits.reserve(result->hits.size());
    for (const SearchHit& hit : result->hits) {
      entry->hits.emplace_back(hit.distance, hit.label);
    }
    entry->segments_searched = result->segments_searched;
    entry->bruteforce_segments = result->bruteforce_segments;
    entry->delta_candidates = result->delta_candidates;
    entry->quant_segments = result->quant_segments;
    entry->reranked = result->reranked;
    cache_->InsertTopK(key, std::move(entry));
  }
  return result;
}

void TraceVectorSearch(const VectorSearchResult& result, cache::Outcome outcome) {
  obs::QueryTrace* trace = obs::CurrentTrace();
  if (trace == nullptr) return;
  trace->AddCounter("search.segments", result.segments_searched);
  trace->AddCounter("search.bruteforce_segments", result.bruteforce_segments);
  trace->AddCounter("search.delta_candidates", result.delta_candidates);
  trace->AddCounter("search.quant_segments", result.quant_segments);
  trace->AddCounter("search.reranked", result.reranked);
  const std::string cache_counter =
      std::string("cache.topk_") + cache::OutcomeName(outcome);
  trace->AddCounter(cache_counter.c_str(), 1);
}

}  // namespace tigervector
