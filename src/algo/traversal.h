#ifndef TIGERVECTOR_ALGO_TRAVERSAL_H_
#define TIGERVECTOR_ALGO_TRAVERSAL_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph_store.h"

namespace tigervector {

// One hop of a traversal pattern: follow `edge_type` in `dir`, landing on
// vertices of `target_type` (empty string = any type).
struct HopSpec {
  std::string edge_type;
  Direction dir = Direction::kOut;
  std::string target_type;
};

// A set of vertices, the unit of composition between query blocks (the
// GSQL vertex-set-variable analog used throughout Sec. 5.5).
using VertexSet = std::unordered_set<VertexId>;

// Expands `seeds` through the hop sequence, returning the final frontier
// (distinct vertices). Intermediate frontiers are deduplicated, which is
// what a SELECT over a multi-hop pattern binds to the last alias.
VertexSet ExpandPattern(const GraphStore& store, const VertexSet& seeds,
                        const std::vector<HopSpec>& hops, Tid read_tid);

// BFS up to `max_depth` hops over one edge type; returns every reached
// vertex including seeds (the "person knows*1..N" style expansion of the
// LDBC IC queries).
VertexSet KHopNeighborhood(const GraphStore& store, const VertexSet& seeds,
                           const std::string& edge_type, Direction dir,
                           int max_depth, Tid read_tid);

// All visible vertices of a type as a set.
VertexSet CollectVerticesOfType(const GraphStore& store, const std::string& type,
                                Tid read_tid);

// Converts a vertex set into a global-vid bitmap usable as a vector search
// filter.
Bitmap VertexSetToBitmap(const VertexSet& set, VertexId vid_upper_bound);

// The two edges between the API's vertex sets and the engine's candidate
// sets. Vids at or above the store's vid_upper_bound() are dropped.
CandidateSet VertexSetToCandidates(const VertexSet& set, const GraphStore& store);
// The first `limit` candidates in vid order.
VertexSet CandidatesToVertexSet(const CandidateSet& set, size_t limit = SIZE_MAX);

}  // namespace tigervector

#endif  // TIGERVECTOR_ALGO_TRAVERSAL_H_
