// VectorGraphRAG retrieval patterns on a social-network-like corpus
// (paper Sec. 1 and Sec. 5): pure vector search, filtered search, vector
// search on graph patterns, range search, and query composition — each a
// retrieval strategy an advanced RAG pipeline would use to ground an LLM.
#include <cstdio>

#include "query/session.h"
#include "workload/snb.h"

using namespace tigervector;

namespace {

void PrintSet(const Database& db, const char* title,
              const std::vector<VertexId>& vids) {
  std::printf("%s (%zu results)\n", title, vids.size());
  const Tid tid = db.store()->visible_tid();
  size_t shown = 0;
  for (VertexId vid : vids) {
    if (shown++ >= 5) {
      std::printf("  ...\n");
      break;
    }
    auto content = db.store()->GetAttr(vid, "content", tid);
    std::printf("  vid=%llu %s\n", static_cast<unsigned long long>(vid),
                content.ok() ? std::get<std::string>(*content).c_str() : "?");
  }
}

}  // namespace

int main() {
  Database::Options options;
  options.store.segment_capacity = 256;
  Database db(options);
  GsqlSession session(&db);

  SnbConfig config;
  config.num_persons = 400;
  config.posts_per_person = 3;
  config.comments_per_post = 1;
  config.embedding_dim = 32;
  if (!CreateSnbSchema(&db, config).ok()) return 1;
  SnbStats stats;
  if (!LoadSnb(&db, config, &stats).ok()) return 1;
  std::printf("loaded %zu persons, %zu posts, %zu comments, %zu knows edges\n\n",
              stats.num_persons, stats.num_posts, stats.num_comments,
              stats.num_knows_edges);

  // The "user question" embedding a RAG pipeline would produce.
  QueryParams params;
  params["topic"] = std::vector<float>(32, 90.0f);

  // --- Strategy 1: pure vector search over all messages (both types). ---
  auto r1 = session.Run(
      "Hits = VectorSearch({Post.content_emb, Comment.content_emb}, $topic, 5);"
      "PRINT Hits;",
      params);
  if (!r1.ok()) {
    std::fprintf(stderr, "%s\n", r1.status().ToString().c_str());
    return 1;
  }
  PrintSet(db, "1) pure vector search across Post+Comment", r1->prints[0].vertices);

  // --- Strategy 2: filtered vector search (language predicate). ---
  const std::string filtered =
      "Hits = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $topic) LIMIT 5; PRINT Hits;";
  auto r2 = session.Run(filtered, params);
  if (!r2.ok()) return 1;
  PrintSet(db, "\n2) filtered search: English posts only", r2->prints[0].vertices);
  auto plan = session.Run("EXPLAIN " + filtered, params);
  if (!plan.ok()) return 1;
  std::printf("plan:\n%s", plan->explain.c_str());

  // --- Strategy 3: vector search on a graph pattern (friends' posts). ---
  auto r3 = session.Run(
      "Hits = SELECT t FROM (s:Person) -[:knows]- (:Person)"
      " <-[:hasCreator]- (t:Post) WHERE s.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(t.content_emb, $topic) LIMIT 5; PRINT Hits;",
      params);
  if (!r3.ok()) return 1;
  PrintSet(db, "\n3) hybrid: posts by friends of Alice", r3->prints[0].vertices);

  // --- Strategy 4: query composition (Q3 analog): graph block feeds the
  // VectorSearch function as a candidate filter. ---
  auto r4 = session.Run(
      "RecentPosts = SELECT t FROM (t:Post) WHERE t.creationDate > 1000600;"
      "Hits = VectorSearch({Post.content_emb}, $topic, 5,"
      " {filter: RecentPosts, ef: 128, distanceMap: @@dist});"
      "PRINT Hits; PRINT @@dist;",
      params);
  if (!r4.ok()) return 1;
  PrintSet(db, "\n4) composition: vector search within recent posts",
           r4->prints[0].vertices);
  std::printf("   distances:");
  for (const auto& [vid, d] : r4->prints[1].distances) std::printf(" %.1f", d);
  std::printf("\n");

  // --- Strategy 5: range search (everything within a similarity radius). ---
  auto r5 = session.Run(
      "Hits = SELECT s FROM (s:Post)"
      " WHERE VECTOR_DIST(s.content_emb, $topic) < 30000.0; PRINT Hits;",
      params);
  if (!r5.ok()) return 1;
  std::printf("\n5) range search: %zu posts within radius\n",
              r5->prints[0].vertices.size());

  return 0;
}
