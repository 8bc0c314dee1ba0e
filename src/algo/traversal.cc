#include "algo/traversal.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tigervector {

VertexSet ExpandPattern(const GraphStore& store, const VertexSet& seeds,
                        const std::vector<HopSpec>& hops, Tid read_tid) {
  TV_SPAN("algo.expand_pattern");
  TV_COUNTER_INC("tv.algo.expansions_total");
  VertexSet frontier = seeds;
  for (const HopSpec& hop : hops) {
    auto et = store.schema()->GetEdgeType(hop.edge_type);
    if (!et.ok()) return {};
    int target_type = -1;
    if (!hop.target_type.empty()) {
      auto vt = store.schema()->GetVertexType(hop.target_type);
      if (!vt.ok()) return {};
      target_type = (*vt)->id;
    }
    VertexSet next;
    for (VertexId vid : frontier) {
      store.ForEachNeighbor(vid, (*et)->id, hop.dir, read_tid, [&](VertexId peer) {
        if (target_type >= 0) {
          auto vt = store.GetVertexType(peer);
          if (!vt.ok() || *vt != target_type) return;
        }
        next.insert(peer);
      });
    }
    frontier = std::move(next);
  }
  return frontier;
}

VertexSet KHopNeighborhood(const GraphStore& store, const VertexSet& seeds,
                           const std::string& edge_type, Direction dir, int max_depth,
                           Tid read_tid) {
  TV_SPAN("algo.k_hop");
  TV_COUNTER_INC("tv.algo.k_hop_total");
  auto et = store.schema()->GetEdgeType(edge_type);
  if (!et.ok()) return {};
  VertexSet visited = seeds;
  VertexSet frontier = seeds;
  size_t edges_followed = 0;
  for (int depth = 0; depth < max_depth && !frontier.empty(); ++depth) {
    VertexSet next;
    for (VertexId vid : frontier) {
      store.ForEachNeighbor(vid, (*et)->id, dir, read_tid, [&](VertexId peer) {
        ++edges_followed;
        if (visited.insert(peer).second) next.insert(peer);
      });
    }
    frontier = std::move(next);
  }
  TV_COUNTER_ADD("tv.algo.edges_followed_total", edges_followed);
  return visited;
}

VertexSet CollectVerticesOfType(const GraphStore& store, const std::string& type,
                                Tid read_tid) {
  VertexSet out;
  auto vt = store.schema()->GetVertexType(type);
  if (!vt.ok()) return out;
  store.ForEachVertexOfType((*vt)->id, read_tid, nullptr,
                            [&](VertexId vid) { out.insert(vid); });
  return out;
}

Bitmap VertexSetToBitmap(const VertexSet& set, VertexId vid_upper_bound) {
  Bitmap bm(vid_upper_bound);
  for (VertexId vid : set) {
    if (vid < vid_upper_bound) bm.Set(vid);
  }
  return bm;
}

CandidateSet VertexSetToCandidates(const VertexSet& set, const GraphStore& store) {
  const VertexId vid_upper_bound = store.vid_upper_bound();
  CandidateSet::Builder out(store.segment_capacity());
  for (VertexId vid : set) {
    if (vid < vid_upper_bound) out.Insert(vid);
  }
  return std::move(out).Build();
}

VertexSet CandidatesToVertexSet(const CandidateSet& set, size_t limit) {
  VertexSet out;
  set.ForEach([&](VertexId vid) {
    if (out.size() < limit) out.insert(vid);
  });
  return out;
}

}  // namespace tigervector
