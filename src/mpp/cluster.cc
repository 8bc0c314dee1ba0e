#include "mpp/cluster.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/io.h"
#include "util/timer.h"
#include "util/topk_heap.h"

namespace tigervector {

Cluster::Cluster(GraphStore* store, EmbeddingService* service, Options options)
    : store_(store), service_(service), options_(options) {
  if (options_.num_servers == 0) options_.num_servers = 1;
  if (options_.replication_factor == 0) options_.replication_factor = 1;
  options_.replication_factor =
      std::min(options_.replication_factor, options_.num_servers);
  pools_.reserve(options_.num_servers);
  for (size_t i = 0; i < options_.num_servers; ++i) {
    pools_.push_back(std::make_unique<ThreadPool>(options_.threads_per_server));
  }
  up_ = std::vector<std::atomic<bool>>(options_.num_servers);
  for (auto& flag : up_) flag.store(true);
}

void Cluster::SetServerUp(size_t server, bool up) {
  if (server < up_.size()) up_[server].store(up);
}

bool Cluster::server_up(size_t server) const {
  return server < up_.size() && up_[server].load();
}

std::vector<size_t> Cluster::ReplicaSetOf(SegmentId seg) const {
  std::vector<size_t> out;
  for (size_t r = 0; r < options_.replication_factor; ++r) {
    out.push_back((seg + r) % options_.num_servers);
  }
  return out;
}

Result<std::vector<std::vector<SegmentId>>> Cluster::ShardSegments(
    const VectorSearchRequest& request) const {
  std::vector<std::vector<SegmentId>> shards(options_.num_servers);
  std::vector<SegmentId> seen;
  for (const auto& [vertex_type, attr] : request.attrs) {
    for (const EmbeddingSegment* seg : service_->SegmentsOf(vertex_type, attr)) {
      const SegmentId id = seg->segment_id();
      if (std::find(seen.begin(), seen.end(), id) != seen.end()) continue;
      seen.push_back(id);
      // Route to the first live replica.
      size_t target = options_.num_servers;
      for (size_t server : ReplicaSetOf(id)) {
        if (server_up(server)) {
          target = server;
          break;
        }
      }
      if (target == options_.num_servers) {
        return Status::Internal("segment " + std::to_string(id) +
                                " has no live replica");
      }
      shards[target].push_back(id);
    }
  }
  return shards;
}

template <typename Fn>
Result<VectorSearchResult> Cluster::ScatterGather(const VectorSearchRequest& request,
                                                  Fn local_search,
                                                  bool merge_topk) const {
  TV_SPAN("cluster.scatter_gather");
  TV_COUNTER_INC("tv.cluster.fanouts_total");
  Timer total_timer;
  auto shards_result = ShardSegments(request);
  if (!shards_result.ok()) return shards_result.status();
  const auto shards = std::move(shards_result).value();

  struct ServerResponse {
    Result<VectorSearchResult> result = Status::Internal("not run");
    double seconds = 0;
    bool participated = false;
  };
  // The response pool: workers deposit local results, the coordinator
  // collects them once all servers reported (paper Fig. 5).
  std::vector<ServerResponse> responses(options_.num_servers);
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;

  for (size_t server = 0; server < options_.num_servers; ++server) {
    if (shards[server].empty()) continue;
    ++outstanding;
  }
  size_t remaining = outstanding;
  // Server workers run on their own pools; hand them the coordinator's
  // active trace so per-server spans join the profiled query, and the
  // request's cancel token so a deadline stops every shard's local search.
  obs::QueryTrace* parent_trace = obs::CurrentTrace();
  CancelToken* cancel_token = CurrentCancelToken();
  for (size_t server = 0; server < options_.num_servers; ++server) {
    if (shards[server].empty()) continue;
    pools_[server]->Submit([&, server, parent_trace, cancel_token] {
      ServerResponse resp;
      // Everything touching the coordinator's trace — the activation, the
      // span, the search itself — lives in this inner scope so its
      // destructors run BEFORE the notify below. The coordinator is only
      // released once `remaining` hits zero; after that the trace (a stack
      // object in the caller) may be destroyed at any moment.
      {
        obs::ScopedTraceActivation trace_scope(parent_trace);
        ScopedCancel cancel_scope(cancel_token);
        TV_SPAN("cluster.server_search");
        Timer t;
        // Each worker searches only its own shard, using its own pool for
        // intra-server segment parallelism.
        VectorSearchRequest local = request;
        local.segment_subset = &shards[server];
        local.pool = nullptr;  // segments run sequentially on this worker
        // Partial-failure hook: arming "mpp.server<i>.search" (kFailOpen)
        // makes exactly this server's shard fail mid fan-out, so tests can
        // assert the coordinator surfaces the error instead of silently
        // merging a short top-k.
        auto& injector = io::FaultInjector::Instance();
        if (injector.any_armed() &&
            injector.ShouldFail("mpp.server" + std::to_string(server) + ".search",
                                io::FaultKind::kFailOpen)) {
          resp.result = Status::IOError("injected fault: server " +
                                        std::to_string(server) +
                                        " shard search failed");
        } else {
          resp.result = local_search(local);
        }
        resp.seconds = t.ElapsedSeconds();
        resp.participated = true;
      }
      std::lock_guard<std::mutex> lock(mu);
      responses[server] = std::move(resp);
      if (--remaining == 0) cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return remaining == 0; });
  }

  Timer merge_timer;
  VectorSearchResult merged;
  TopKHeap<VertexId> heap(request.k);
  for (ServerResponse& resp : responses) {
    if (!resp.participated) continue;
    if (!resp.result.ok()) return resp.result.status();
    const VectorSearchResult& r = *resp.result;
    merged.segments_searched += r.segments_searched;
    merged.bruteforce_segments += r.bruteforce_segments;
    merged.delta_candidates += r.delta_candidates;
    merged.quant_segments += r.quant_segments;
    merged.reranked += r.reranked;
    if (merge_topk) {
      for (const SearchHit& h : r.hits) heap.Push(h.distance, h.label);
    } else {
      merged.hits.insert(merged.hits.end(), r.hits.begin(), r.hits.end());
    }
  }
  if (merge_topk) {
    for (const auto& e : heap.TakeSorted()) {
      merged.hits.push_back(SearchHit{e.distance, e.id});
    }
  } else {
    std::sort(merged.hits.begin(), merged.hits.end(),
              [](const SearchHit& a, const SearchHit& b) {
                if (a.distance != b.distance) return a.distance < b.distance;
                return a.label < b.label;
              });
  }

  const double merge_seconds = merge_timer.ElapsedSeconds();
  obs::RecordSpanMicros("cluster.merge", merge_seconds * 1e6);
  TV_HISTOGRAM_OBSERVE("tv.cluster.merge_seconds", merge_seconds);
  for (size_t server = 0; server < responses.size(); ++server) {
    if (!responses[server].participated) continue;
    const double seconds = responses[server].seconds;
    obs::RecordSpanMicros(("cluster.server_" + std::to_string(server)).c_str(),
                          seconds * 1e6);
    TV_HISTOGRAM_OBSERVE("tv.cluster.server_seconds", seconds);
  }
  TV_HISTOGRAM_OBSERVE("tv.cluster.fanout_seconds", total_timer.ElapsedSeconds());
  return merged;
}

Result<VectorSearchResult> Cluster::DistributedTopK(
    const VectorSearchRequest& request) const {
  return ScatterGather(
      request,
      [this](const VectorSearchRequest& local) { return service_->TopKSearch(local); },
      /*merge_topk=*/true);
}

Result<VectorSearchResult> Cluster::DistributedRange(const VectorSearchRequest& request,
                                                     float threshold) const {
  return ScatterGather(
      request,
      [this, threshold](const VectorSearchRequest& local) {
        return service_->RangeSearch(local, threshold);
      },
      /*merge_topk=*/false);
}

}  // namespace tigervector
