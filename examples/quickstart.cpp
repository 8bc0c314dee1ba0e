// Quickstart: define a schema with an embedding attribute, load a few
// documents inside atomic transactions, and run declarative top-k vector
// search through GSQL — the minimal TigerVector workflow.
#include <cstdio>

#include "query/session.h"

using namespace tigervector;

int main() {
  Database db;
  GsqlSession session(&db);

  // 1. Schema: a Post vertex with a 4-d embedding attribute (paper Sec 4.1).
  auto ddl = session.Run(
      "CREATE VERTEX Post (author STRING, content STRING);"
      "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
      " (DIMENSION = 4, MODEL = MiniLM, INDEX = HNSW, DATATYPE = FLOAT,"
      "  METRIC = L2);");
  if (!ddl.ok()) {
    std::fprintf(stderr, "DDL failed: %s\n", ddl.status().ToString().c_str());
    return 1;
  }

  // 2. Data: each post and its embedding commit atomically.
  struct Doc {
    const char* author;
    const char* content;
    std::vector<float> emb;
  };
  const std::vector<Doc> docs = {
      {"alice", "Graph databases store relationships natively", {1, 0, 0, 0}},
      {"bob", "Vector search finds semantically similar items", {0, 1, 0, 0}},
      {"carol", "Hybrid RAG combines graphs and vectors", {0.6f, 0.6f, 0, 0}},
      {"dave", "SQL joins can be expensive at scale", {0, 0, 1, 0}},
  };
  for (const Doc& doc : docs) {
    Transaction txn = db.Begin();
    auto vid = txn.InsertVertex("Post", {std::string(doc.author),
                                         std::string(doc.content)});
    if (!vid.ok()) return 1;
    if (!txn.SetEmbedding(*vid, "Post", "content_emb", doc.emb).ok()) return 1;
    if (!txn.Commit().ok()) return 1;
  }
  // Fold the vector deltas into the per-segment HNSW indexes.
  if (!db.Vacuum().ok()) return 1;

  // 3. Declarative top-k search (paper Sec 5.1).
  QueryParams params;
  params["query_vector"] = std::vector<float>{0.5f, 0.5f, 0, 0};
  const std::string query =
      "TopK = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 2;"
      "PRINT TopK;";
  auto result = session.Run(query, params);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // EXPLAIN plans the same script without running it.
  auto plan = session.Run("EXPLAIN " + query, params);
  if (!plan.ok()) return 1;
  std::printf("query plan:\n%s\n", plan->explain.c_str());
  std::printf("top-2 posts for query [0.5, 0.5, 0, 0]:\n");
  const Tid tid = db.store()->visible_tid();
  for (VertexId vid : result->prints[0].vertices) {
    auto content = db.store()->GetAttr(vid, "content", tid);
    auto author = db.store()->GetAttr(vid, "author", tid);
    std::printf("  vid=%llu  %-8s %s\n", static_cast<unsigned long long>(vid),
                std::get<std::string>(*author).c_str(),
                std::get<std::string>(*content).c_str());
  }
  return 0;
}
