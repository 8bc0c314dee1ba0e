#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

#include "query/lexer.h"
#include "query/parser.h"
#include "query/session.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace tigervector {
namespace {

// ---------------- Lexer ----------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT s FROM (s:Post) LIMIT 10;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(IsKeyword((*tokens)[0], "SELECT"));
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdent);
  EXPECT_TRUE(IsKeyword((*tokens)[2], "FROM"));
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kLParen);
}

TEST(LexerTest, ArrowsAndComparisons) {
  auto tokens = Tokenize("-[:knows]-> <-[:x]- <= >= == != <>");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[0], TokenKind::kDash);
  EXPECT_EQ(kinds[1], TokenKind::kLBracket);
  EXPECT_EQ(kinds[2], TokenKind::kColon);
  EXPECT_EQ(kinds[4], TokenKind::kRBracket);
  EXPECT_EQ(kinds[5], TokenKind::kArrowRight);
  EXPECT_EQ(kinds[6], TokenKind::kArrowLeft);
}

TEST(LexerTest, StringsParamsNumbersComments) {
  auto tokens = Tokenize("-- a comment\n\"hello\" $vec 3.5 42 'single'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kStringLit);
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kParam);
  EXPECT_EQ((*tokens)[1].text, "vec");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kFloatLit);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 3.5);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kIntLit);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_EQ((*tokens)[4].text, "single");
}

TEST(LexerTest, AccumulatorNames) {
  auto tokens = Tokenize("@@disMap");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "@@disMap");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(LexerTest, EmptyParamFails) { EXPECT_FALSE(Tokenize("$ x").ok()); }

// ---------------- Parser ----------------

TEST(ParserTest, CreateVertex) {
  auto stmts = ParseScript(
      "CREATE VERTEX Post (id INT PRIMARY KEY, author STRING, content STRING);");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts->size(), 1u);
  const auto& s = std::get<CreateVertexStmt>((*stmts)[0]);
  EXPECT_EQ(s.name, "Post");
  ASSERT_EQ(s.attrs.size(), 3u);
  EXPECT_EQ(s.attrs[0].type, AttrType::kInt);
  EXPECT_EQ(s.attrs[1].type, AttrType::kString);
}

TEST(ParserTest, CreateEdgeDirectedness) {
  auto stmts = ParseScript(
      "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
      "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);");
  ASSERT_TRUE(stmts.ok());
  EXPECT_TRUE(std::get<CreateEdgeStmt>((*stmts)[0]).directed);
  EXPECT_FALSE(std::get<CreateEdgeStmt>((*stmts)[1]).directed);
}

TEST(ParserTest, EmbeddingSpaceAndAlter) {
  auto stmts = ParseScript(
      "CREATE EMBEDDING SPACE gpt4_space (DIMENSION = 64, MODEL = GPT4,"
      " INDEX = HNSW, DATATYPE = FLOAT, METRIC = COSINE);"
      "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
      " IN EMBEDDING SPACE gpt4_space;"
      "ALTER VERTEX Comment ADD EMBEDDING ATTRIBUTE c_emb (DIMENSION = 32,"
      " MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const auto& space = std::get<CreateEmbeddingSpaceStmt>((*stmts)[0]);
  EXPECT_EQ(space.info.dimension, 64u);
  EXPECT_EQ(space.info.metric, Metric::kCosine);
  const auto& alter1 = std::get<AlterAddEmbeddingStmt>((*stmts)[1]);
  EXPECT_TRUE(alter1.in_space);
  EXPECT_EQ(alter1.space, "gpt4_space");
  const auto& alter2 = std::get<AlterAddEmbeddingStmt>((*stmts)[2]);
  EXPECT_FALSE(alter2.in_space);
  EXPECT_EQ(alter2.info.dimension, 32u);
  EXPECT_EQ(alter2.info.metric, Metric::kL2);
}

TEST(ParserTest, TopKSelect) {
  auto stmts = ParseScript(
      "SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 5;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const auto& s = std::get<SelectStmt>((*stmts)[0]);
  EXPECT_EQ(s.select_aliases, std::vector<std::string>{"s"});
  ASSERT_NE(s.order_dist, nullptr);
  EXPECT_EQ(s.order_dist->lhs->attr, "content_emb");
  EXPECT_EQ(s.order_dist->rhs->param, "query_vector");
  EXPECT_TRUE(s.has_limit);
  EXPECT_EQ(s.limit, 5);
}

TEST(ParserTest, MultiHopPatternWithDirections) {
  auto stmts = ParseScript(
      "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\" AND t.length > 1000"
      " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 3;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const auto& s = std::get<SelectStmt>((*stmts)[0]);
  ASSERT_EQ(s.pattern.nodes.size(), 3u);
  EXPECT_EQ(s.pattern.nodes[0].alias, "s");
  EXPECT_EQ(s.pattern.nodes[1].alias, "");
  EXPECT_EQ(s.pattern.nodes[2].source, "Post");
  ASSERT_EQ(s.pattern.edges.size(), 2u);
  EXPECT_EQ(s.pattern.edges[0].dir, Direction::kOut);
  EXPECT_EQ(s.pattern.edges[1].dir, Direction::kIn);
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->op, BinaryOp::kAnd);
}

TEST(ParserTest, RangeSearchWhere) {
  auto stmts = ParseScript(
      "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 0.5;");
  ASSERT_TRUE(stmts.ok());
  const auto& s = std::get<SelectStmt>((*stmts)[0]);
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->op, BinaryOp::kLt);
  EXPECT_EQ(s.where->lhs->kind, Expr::Kind::kVectorDist);
}

TEST(ParserTest, SimilarityJoin) {
  auto stmts = ParseScript(
      "SELECT s, t FROM (s:Comment) -[:hasCreator]-> (u:Person)"
      " -[:knows]-> (v:Person) <-[:hasCreator]- (t:Comment)"
      " WHERE u.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 10;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const auto& s = std::get<SelectStmt>((*stmts)[0]);
  EXPECT_EQ(s.select_aliases.size(), 2u);
  EXPECT_EQ(s.order_dist->lhs->alias, "s");
  EXPECT_EQ(s.order_dist->rhs->alias, "t");
}

TEST(ParserTest, AssignmentAndVectorSearchCall) {
  auto stmts = ParseScript(
      "TopK = VectorSearch({Comment.content_emb, Post.content_emb}, $topic, 10,"
      " {filter: USComments, ef: 200, distanceMap: @@disMap});"
      "PRINT TopK; PRINT @@disMap;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const auto& vs = std::get<VectorSearchStmt>((*stmts)[0]);
  EXPECT_EQ(vs.out_var, "TopK");
  ASSERT_EQ(vs.attrs.size(), 2u);
  EXPECT_EQ(vs.attrs[0].first, "Comment");
  EXPECT_EQ(vs.query_param, "topic");
  EXPECT_EQ(vs.k, 10);
  EXPECT_EQ(vs.filter_var, "USComments");
  EXPECT_EQ(vs.ef, 200);
  EXPECT_EQ(vs.distance_map, "@@disMap");
  EXPECT_EQ(std::get<PrintStmt>((*stmts)[1]).name, "TopK");
  EXPECT_EQ(std::get<PrintStmt>((*stmts)[2]).name, "@@disMap");
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseScript("SELECT FROM;").ok());
  EXPECT_FALSE(ParseScript("CREATE VERTEX (x INT);").ok());
  EXPECT_FALSE(ParseScript("SELECT s FROM (s:Post) ORDER BY s.x;").ok());
  EXPECT_FALSE(ParseScript("VectorSearch({Post.e}, qv, 10);").ok());  // not $param
  EXPECT_FALSE(ParseScript("bogus statement;").ok());
}

// Fuzz: arbitrary byte soup and truncated statements must produce a parse
// error or a statement list — never crash.
TEST(ParserFuzzTest, RandomInputNeverCrashes) {
  Rng rng(31337);
  const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
      " (){}[],.;:=<>-$\"'@";
  for (int round = 0; round < 300; ++round) {
    std::string input;
    const size_t len = rng.NextBounded(80);
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.NextBounded(alphabet.size())]);
    }
    (void)ParseScript(input);  // must not crash or hang
  }
  SUCCEED();
}

TEST(ParserFuzzTest, TruncationsOfValidScriptFailCleanly) {
  const std::string script =
      "CREATE VERTEX Post (id INT, author STRING);"
      "SELECT s FROM (s:Post) WHERE s.id > 3"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5;";
  for (size_t cut = 0; cut < script.size(); cut += 3) {
    (void)ParseScript(script.substr(0, cut));  // error or partial, no crash
  }
  SUCCEED();
}

// ---------------- End-to-end session ----------------

class QuerySessionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 32;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    session_ = std::make_unique<GsqlSession>(db_.get());
    // Schema via GSQL DDL.
    auto ddl = session_->Run(
        "CREATE VERTEX Person (firstName STRING, age INT);"
        "CREATE VERTEX Post (language STRING, length INT);"
        "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);"
        "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
        "CREATE EMBEDDING SPACE space1 (DIMENSION = 4, MODEL = M, INDEX = HNSW,"
        " DATATYPE = FLOAT, METRIC = L2);"
        "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
        " IN EMBEDDING SPACE space1;");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

    // Data: persons 0..3, Alice knows 1 and 2; posts by everyone.
    Transaction txn = db_->Begin();
    const char* names[] = {"Alice", "Bob", "Carol", "Dave"};
    for (int i = 0; i < 4; ++i) {
      auto vid = txn.InsertVertex("Person", {std::string(names[i]), int64_t{20 + i}});
      ASSERT_TRUE(vid.ok());
      persons_.push_back(*vid);
    }
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[1]).ok());
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[2]).ok());
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[2], persons_[3]).ok());
    ASSERT_TRUE(txn.Commit().ok());
    // Posts: person i authors posts with embedding [10*i + j, ...].
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 3; ++j) {
        Transaction ptxn = db_->Begin();
        auto vid = ptxn.InsertVertex(
            "Post", {std::string(j == 0 ? "English" : "German"),
                     int64_t{500 + 300 * j}});
        ASSERT_TRUE(vid.ok());
        ASSERT_TRUE(ptxn.InsertEdge("hasCreator", *vid, persons_[i]).ok());
        ASSERT_TRUE(ptxn.SetEmbedding(*vid, "Post", "content_emb",
                                      {static_cast<float>(10 * i + j), 0, 0, 0})
                        .ok());
        ASSERT_TRUE(ptxn.Commit().ok());
        posts_.push_back(*vid);
      }
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  QueryParams Params(std::vector<float> qv) {
    QueryParams p;
    p["qv"] = std::move(qv);
    return p;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
  std::vector<VertexId> persons_;
  std::vector<VertexId> posts_;
};

TEST_F(QuerySessionFixture, PureTopKSearch) {
  auto result = session_->Run(
      "EXPLAIN ANALYZE R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints.size(), 1u);
  // Post with embedding 21 = person 2's post j=1.
  EXPECT_EQ(result->prints[0].vertices.size(), 2u);
  EXPECT_NE(result->explain.find("EmbeddingAction[Top 2"), std::string::npos);
}

TEST_F(QuerySessionFixture, FilteredSearchByAttribute) {
  auto result = session_->Run(
      "EXPLAIN ANALYZE R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // English posts are j==0: embeddings 0, 10, 20, 30.
  std::set<VertexId> got(result->prints[0].vertices.begin(),
                         result->prints[0].vertices.end());
  std::set<VertexId> want = {posts_[0], posts_[3], posts_[6], posts_[9]};
  EXPECT_EQ(got, want);
  EXPECT_NE(result->explain.find("VertexAction[Post:s"), std::string::npos);
}

// A pattern's semi-join prunes the Post candidates it started from, a
// bitmap the scan admitted to the cache and so shares with later queries.
// The next plain scan with the same predicate, served from that bitmap,
// still sees every English post.
TEST_F(QuerySessionFixture, SemiJoinLeavesCachedScanBitmapWhole) {
  auto pattern = session_->Run(
      "R = SELECT t FROM (s:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\" AND t.language = \"English\"; PRINT R;");
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_EQ(pattern->prints[0].vertices, std::vector<VertexId>{posts_[0]});

  auto scan = session_->Run(
      "EXPLAIN ANALYZE R = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      " PRINT R;");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_NE(scan->explain.find("* cache: hit"), std::string::npos) << scan->explain;
  EXPECT_EQ(scan->prints[0].vertices,
            (std::vector<VertexId>{posts_[0], posts_[3], posts_[6], posts_[9]}));
}

// Two ranges on one bare alias: the first searches unfiltered and the
// second keeps only the first's hits, so R is their intersection.
TEST_F(QuerySessionFixture, SecondRangeKeepsOnlyTheFirstRangesHits) {
  QueryParams params = Params({0, 0, 0, 0});
  params["qw"] = std::vector<float>{2, 0, 0, 0};
  // Embeddings 0 and 1 are within squared distance 2 of $qv, 1 and 2 of $qw.
  auto result = session_->Run(
      "R = SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 2.0"
      " AND VECTOR_DIST(s.content_emb, $qw) < 2.0; PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices, std::vector<VertexId>{posts_[1]});
}

TEST_F(QuerySessionFixture, GraphPatternVectorSearch) {
  // Posts by people Alice knows (persons 1 and 2), closest to 10.
  auto result = session_->Run(
      "R = SELECT t FROM (s:Person) -[:knows]- (:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 1; PRINT R;",
      Params({10, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], posts_[3]);  // person1, j=0 -> emb 10
}

TEST_F(QuerySessionFixture, GraphPatternExcludesNonMatching) {
  // Alice's own posts are NOT by someone Alice knows.
  auto result = session_->Run(
      "R = SELECT t FROM (s:Person) -[:knows]- (:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 12; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok());
  std::set<VertexId> got(result->prints[0].vertices.begin(),
                         result->prints[0].vertices.end());
  // Only posts of persons 1 and 2 qualify (6 posts).
  EXPECT_EQ(got.size(), 6u);
  EXPECT_EQ(got.count(posts_[0]), 0u);   // Alice's post
  EXPECT_EQ(got.count(posts_[10]), 0u);  // Dave's post (not a direct friend)
}

TEST_F(QuerySessionFixture, RangeSearch) {
  auto result = session_->Run(
      "R = SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 2.0;"
      "PRINT R;",
      Params({1, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Embeddings 0, 1, 2 are within sqrt(2) -> squared distances 1, 0, 1.
  std::set<VertexId> got(result->prints[0].vertices.begin(),
                         result->prints[0].vertices.end());
  EXPECT_EQ(got, (std::set<VertexId>{posts_[0], posts_[1], posts_[2]}));
}

TEST_F(QuerySessionFixture, SimilarityJoinFindsClosestPair) {
  // Pairs (s, t): posts of Alice and posts of people Alice knows.
  auto result = session_->Run(
      "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person)"
      " -[:knows]- (v:Person) <-[:hasCreator]- (t:Post)"
      " WHERE u.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 2;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->last_join_pairs.size(), 2u);
  // Closest pair: Alice post emb=2 (j=2) and Bob post emb=10 -> d=64;
  // verify ordering is ascending and pairs connect Alice's posts.
  EXPECT_LE(result->last_join_pairs[0].distance,
            result->last_join_pairs[1].distance);
  std::set<VertexId> alice_posts = {posts_[0], posts_[1], posts_[2]};
  EXPECT_EQ(alice_posts.count(result->last_join_pairs[0].source), 1u);
}

TEST_F(QuerySessionFixture, QueryCompositionVectorSearchFilter) {
  // Q3 analog: graph block produces a variable consumed as a filter.
  auto result = session_->Run(
      "EnglishPosts = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "TopK = VectorSearch({Post.content_emb}, $qv, 2,"
      " {filter: EnglishPosts, ef: 64, distanceMap: @@disMap});"
      "PRINT TopK; PRINT @@disMap;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints.size(), 2u);
  EXPECT_EQ(result->prints[0].vertices.size(), 2u);
  for (VertexId v : result->prints[0].vertices) {
    EXPECT_TRUE(v == posts_[0] || v == posts_[3]);  // embeddings 0 and 10
  }
  EXPECT_TRUE(result->prints[1].is_distance_map);
  EXPECT_EQ(result->prints[1].distances.size(), 2u);
}

TEST_F(QuerySessionFixture, QueryCompositionVariableAsPatternSource) {
  // Q2 analog: vector search output feeds a graph block.
  auto result = session_->Run(
      "TopKPosts = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1;"
      "Authors = SELECT p FROM (m:TopKPosts) -[:hasCreator]-> (p:Person);"
      "PRINT Authors;",
      Params({30, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], persons_[3]);  // emb 30 -> Dave
}

TEST_F(QuerySessionFixture, MultiTypeSearchRejectedWhenIncompatible) {
  ASSERT_TRUE(session_
                  ->Run("CREATE VERTEX Image (url STRING);"
                        "ALTER VERTEX Image ADD EMBEDDING ATTRIBUTE img_emb"
                        " (DIMENSION = 8, MODEL = CLIP, INDEX = HNSW,"
                        " DATATYPE = FLOAT, METRIC = L2);")
                  .ok());
  // Load one image embedding so the attribute state exists.
  Transaction txn = db_->Begin();
  auto vid = txn.InsertVertex("Image", {std::string("u")});
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(
      txn.SetEmbedding(*vid, "Image", "img_emb", std::vector<float>(8, 0.f)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  auto result = session_->Run(
      "R = VectorSearch({Post.content_emb, Image.img_emb}, $qv, 2); PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(QuerySessionFixture, MissingParamFails) {
  auto result = session_->Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $missing) LIMIT 2;");
  ASSERT_FALSE(result.ok());
}

TEST_F(QuerySessionFixture, UnknownAliasFails) {
  auto result = session_->Run(
      "R = SELECT z FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv)"
      " LIMIT 2;",
      Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(QuerySessionFixture, UnknownTypeOrVariableFails) {
  auto result = session_->Run("R = SELECT s FROM (s:Nope);");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(QuerySessionFixture, PrintUnknownNameFails) {
  auto result = session_->Run("PRINT NoSuchVar;");
  ASSERT_FALSE(result.ok());
}

// @@<var>_dist always belongs to the latest assignment of <var>: a vector
// SELECT replaces it even when it finds nothing, and any other SELECT into
// the variable drops it, so a stale map can never be printed.
TEST_F(QuerySessionFixture, ReassignedSelectReplacesOrDropsDistanceMap) {
  const std::string topk =
      "R = SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2;"
      " PRINT @@R_dist;";
  auto filled = session_->Run(topk, Params({21, 0, 0, 0}));
  ASSERT_TRUE(filled.ok()) << filled.status().ToString();
  ASSERT_EQ(filled->prints.size(), 1u);
  EXPECT_EQ(filled->prints[0].distances.size(), 2u);

  auto empty = session_->Run(
      "R = SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 1.0;"
      " PRINT R; PRINT @@R_dist;",
      Params({1000, 0, 0, 0}));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_EQ(empty->prints.size(), 2u);
  EXPECT_TRUE(empty->prints[0].vertices.empty());
  EXPECT_TRUE(empty->prints[1].is_distance_map);
  EXPECT_TRUE(empty->prints[1].distances.empty());

  ASSERT_TRUE(session_->Run(topk, Params({21, 0, 0, 0})).ok());
  auto plain = session_->Run(
      "R = SELECT s FROM (s:Post) WHERE s.language = \"English\"; PRINT @@R_dist;");
  EXPECT_FALSE(plain.ok());
}

TEST_F(QuerySessionFixture, PlainGraphSelect) {
  auto result = session_->Run(
      "Friends = SELECT p FROM (s:Person) -[:knows]- (p:Person)"
      " WHERE s.firstName = \"Alice\"; PRINT Friends;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<VertexId> got(result->prints[0].vertices.begin(),
                         result->prints[0].vertices.end());
  EXPECT_EQ(got, (std::set<VertexId>{persons_[1], persons_[2]}));
}

TEST_F(QuerySessionFixture, LimitParamAndKParam) {
  QueryParams params = Params({0, 0, 0, 0});
  params["k"] = int64_t{3};
  auto result = session_->Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT $k; PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices.size(), 3u);
  auto vs = session_->Run("R2 = VectorSearch({Post.content_emb}, $qv, $k); PRINT R2;",
                          params);
  ASSERT_TRUE(vs.ok()) << vs.status().ToString();
  EXPECT_EQ(vs->prints[0].vertices.size(), 3u);
}

TEST_F(QuerySessionFixture, SessionVariablePersistsAcrossRuns) {
  ASSERT_TRUE(session_
                  ->Run("English = SELECT t FROM (t:Post)"
                        " WHERE t.language = \"English\";")
                  .ok());
  auto result = session_->Run(
      "R = VectorSearch({Post.content_emb}, $qv, 1, {filter: English}); PRINT R;",
      Params({30, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices[0], posts_[9]);
}

TEST_F(QuerySessionFixture, InjectedVariableFromCpp) {
  session_->SetVariable("Seeded", VertexSet{posts_[5]});
  auto result = session_->Run(
      "R = VectorSearch({Post.content_emb}, $qv, 5, {filter: Seeded}); PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], posts_[5]);
}

TEST_F(QuerySessionFixture, BooleanOperatorsInWhere) {
  auto result = session_->Run(
      "R = SELECT t FROM (t:Post)"
      " WHERE (t.language = \"English\" OR t.length > 1000)"
      " AND NOT t.language = \"French\"; PRINT R;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // English (4 posts, len 500) OR length>1000 (j==2 -> 4 posts, len 1100).
  EXPECT_EQ(result->prints[0].vertices.size(), 8u);
}

TEST_F(QuerySessionFixture, ComparisonOperatorsSpectrum) {
  auto le = session_->Run("R = SELECT t FROM (t:Post) WHERE t.length <= 500;"
                          "PRINT R;");
  ASSERT_TRUE(le.ok());
  EXPECT_EQ(le->prints[0].vertices.size(), 4u);
  auto ne = session_->Run("R = SELECT t FROM (t:Post) WHERE t.length != 500;"
                          "PRINT R;");
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->prints[0].vertices.size(), 8u);
  auto ge = session_->Run("R = SELECT t FROM (t:Post) WHERE t.length >= 1100;"
                          "PRINT R;");
  ASSERT_TRUE(ge.ok());
  EXPECT_EQ(ge->prints[0].vertices.size(), 4u);
}

TEST_F(QuerySessionFixture, UnknownAttributeInPredicateFails) {
  auto result = session_->Run("R = SELECT t FROM (t:Post) WHERE t.nope = 1;");
  ASSERT_FALSE(result.ok());
}

TEST_F(QuerySessionFixture, MultiAliasPredicateRejected) {
  auto result = session_->Run(
      "R = SELECT t FROM (s:Person) -[:knows]- (t:Person) WHERE s.age > t.age;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(QuerySessionFixture, SetOperatorsOnVertexSetVariables) {
  auto result = session_->Run(
      "English = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "Long = SELECT t FROM (t:Post) WHERE t.length > 600;"
      "Both = English INTERSECT Long;"
      "Either = English UNION Long;"
      "OnlyEnglish = English MINUS Long;"
      "PRINT Both; PRINT Either; PRINT OnlyEnglish;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // English posts: j==0 (4 posts, length 500). Long posts: j>=1 (8 posts).
  const auto& both = result->prints[0].vertices;
  const auto& either = result->prints[1].vertices;
  const auto& only = result->prints[2].vertices;
  EXPECT_EQ(both.size(), 0u);     // English posts are all length 500
  EXPECT_EQ(either.size(), 12u);  // all posts
  EXPECT_EQ(only.size(), 4u);
}

TEST_F(QuerySessionFixture, SetOperatorUnknownVariableFails) {
  auto result = session_->Run("X = NoSuchA UNION NoSuchB;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(QuerySessionFixture, SetOpResultComposesWithVectorSearch) {
  QueryParams params = Params({0, 0, 0, 0});
  auto result = session_->Run(
      "English = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "German = SELECT t FROM (t:Post) WHERE t.language = \"German\";"
      "All = English UNION German;"
      "R = VectorSearch({Post.content_emb}, $qv, 12, {filter: All}); PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices.size(), 12u);
}

TEST_F(QuerySessionFixture, EmptyAttributeSearchReturnsEmpty) {
  // An embedding attribute that exists in the schema but holds no vectors
  // yields an empty result, not an error.
  ASSERT_TRUE(session_
                  ->Run("CREATE VERTEX Empty (t STRING);"
                        "ALTER VERTEX Empty ADD EMBEDDING ATTRIBUTE emb"
                        " IN EMBEDDING SPACE space1;")
                  .ok());
  auto result = session_->Run(
      "R = VectorSearch({Empty.emb}, $qv, 3); PRINT R;", Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->prints[0].vertices.empty());
}

// One node of rendered plan text: its label line and the indented detail
// and actual lines under it ("" when no node has the label).
std::string PlanNodeText(const std::string& plan, const std::string& label) {
  std::istringstream lines(plan);
  std::string line, node;
  bool inside = false;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] != ' ') inside = line == label;
    if (inside) node += line + "\n";
  }
  return node;
}

// Each semi-join pass walks the edges of its side with fewer candidates. On
// the similarity-join shape both passes over s -hasCreator- u start from the
// one Person u and follow hasCreator backwards instead of walking all twelve
// posts; the answer is the forward walk's.
TEST_F(QuerySessionFixture, SemiJoinPassesWalkTheSmallerSide) {
  auto result = session_->Run(
      "EXPLAIN ANALYZE SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person)"
      " -[:knows]- (v:Person) <-[:hasCreator]- (t:Post)"
      " WHERE u.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 2;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string& plan = result->explain;
  const std::string first = PlanNodeText(plan, "EdgeAction[s -hasCreator- u]");
  EXPECT_NE(first.find("* forward: walked u (1)\n"), std::string::npos) << plan;
  EXPECT_NE(first.find("* backward: walked u (1)\n"), std::string::npos) << plan;
  EXPECT_NE(first.find("- semi-join: forward then backward pass, each walking the "
                       "edges of the side with fewer candidates\n"),
            std::string::npos)
      << plan;
  // Alice knows two persons, who wrote six posts.
  const std::string last = PlanNodeText(plan, "EdgeAction[v -hasCreator- t]");
  EXPECT_NE(last.find("* forward: walked v (2)\n"), std::string::npos) << plan;
  EXPECT_NE(last.find("* backward: walked v (2)\n"), std::string::npos) << plan;
  // The closest pair: Alice's post at 2 and Bob's post at 10.
  ASSERT_EQ(result->last_join_pairs.size(), 2u);
  EXPECT_EQ(result->last_join_pairs[0].source, posts_[2]);
  EXPECT_EQ(result->last_join_pairs[0].target, posts_[3]);
  EXPECT_EQ(result->last_join_pairs[0].distance, 64.0f);
}

TEST_F(QuerySessionFixture, PlanTextShapeMatchesPaper) {
  auto result = session_->Run(
      "EXPLAIN R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok());
  // Bottom-up plan: EmbeddingAction on top of VertexAction (Sec. 5.2).
  const std::string& plan = result->explain;
  const size_t emb = plan.find("EmbeddingAction[Top 5, {s.content_emb}, $qv]");
  const size_t vertex = plan.find("VertexAction[Post:s");
  ASSERT_NE(emb, std::string::npos) << plan;
  ASSERT_NE(vertex, std::string::npos) << plan;
  EXPECT_LT(emb, vertex);
}

// Planning runs every check that needs only the statement and the schema,
// so plain EXPLAIN rejects a statement exactly as EXPLAIN ANALYZE does.
TEST_F(QuerySessionFixture, ExplainRejectsWhatAnalyzeRejects) {
  ASSERT_TRUE(session_->Run("CREATE UNDIRECTED EDGE near (FROM Post, TO Post);").ok());
  const char* unrunnable[] = {
      // The top-k searches s but selects t.
      "SELECT t FROM (s:Post) -[:near]- (t:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2;",
      // A similarity join must select both endpoints.
      "SELECT s FROM (s:Post) -[:near]- (t:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 2;",
  };
  for (const char* script : unrunnable) {
    SCOPED_TRACE(script);
    auto analyzed =
        session_->Run(std::string("EXPLAIN ANALYZE ") + script, Params({0, 0, 0, 0}));
    ASSERT_FALSE(analyzed.ok());
    EXPECT_EQ(analyzed.status().code(), StatusCode::kSemanticError);
    auto planned = session_->Run(std::string("EXPLAIN ") + script, Params({0, 0, 0, 0}));
    ASSERT_FALSE(planned.ok());
    EXPECT_EQ(planned.status().ToString(), analyzed.status().ToString());
  }
}

// --- VectorSearch() error paths -----------------------------------------

TEST_F(QuerySessionFixture, WrongQueryVectorDimensionFails) {
  // space1 is 4-dimensional; a 3-float query must be rejected up front on
  // both the VectorSearch() and the SELECT ... ORDER BY VECTOR_DIST paths,
  // not read past the buffer.
  auto fn = session_->Run("R = VectorSearch({Post.content_emb}, $qv, 2); PRINT R;",
                          Params({1, 2, 3}));
  ASSERT_FALSE(fn.ok());
  EXPECT_NE(fn.status().ToString().find("dimension"), std::string::npos)
      << fn.status().ToString();
  auto select = session_->Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({1, 2, 3, 4, 5}));
  ASSERT_FALSE(select.ok());
  EXPECT_NE(select.status().ToString().find("dimension"), std::string::npos)
      << select.status().ToString();
}

TEST_F(QuerySessionFixture, VectorSearchUnknownVertexTypeFails) {
  auto result = session_->Run("R = VectorSearch({Nope.emb}, $qv, 2); PRINT R;",
                              Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
}

TEST_F(QuerySessionFixture, VectorSearchUnknownEmbeddingAttrFails) {
  auto result = session_->Run("R = VectorSearch({Post.no_such_emb}, $qv, 2); PRINT R;",
                              Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
}

TEST_F(QuerySessionFixture, ZeroKFails) {
  auto fn = session_->Run("R = VectorSearch({Post.content_emb}, $qv, 0); PRINT R;",
                          Params({0, 0, 0, 0}));
  ASSERT_FALSE(fn.ok());
  auto select = session_->Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 0; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_FALSE(select.ok());
  QueryParams params = Params({0, 0, 0, 0});
  params["k"] = int64_t{0};
  auto param_k = session_->Run(
      "R = VectorSearch({Post.content_emb}, $qv, $k); PRINT R;", params);
  ASSERT_FALSE(param_k.ok());
}

TEST_F(QuerySessionFixture, EmptyVertexSetFilterReturnsEmpty) {
  // An empty candidate set is a valid (if useless) filter: the search
  // returns no hits rather than erroring or ignoring the filter.
  session_->SetVariable("None", VertexSet{});
  auto result = session_->Run(
      "R = VectorSearch({Post.content_emb}, $qv, 3, {filter: None}); PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->prints[0].vertices.empty());
}

// ---------------- Pattern work under a deadline ----------------

// The semi-joins poll the request deadline every kCancelCheckInterval
// vertices they walk, and the similarity join polls it once per source
// vertex. A token that fires at any of those polls fails the statement with
// kDeadlineExceeded instead of returning the candidates or pairs found so
// far.
TEST(QueryDeadlineTest, SemiJoinsAndSimilarityJoinPollTheDeadline) {
  Database::Options options;
  options.store.segment_capacity = 64;
  Database db(options);
  GsqlSession session(&db);
  session.SetCacheBypass(true);  // every run scans, so the poll counts repeat
  ASSERT_TRUE(session
                  .Run("CREATE VERTEX Person (name STRING);"
                       "CREATE VERTEX Post (lang STRING);"
                       "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);"
                       "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
                       "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 2,"
                       " MODEL = M, INDEX = FLAT, DATATYPE = FLOAT, METRIC = L2);")
                  .ok());
  // kN persons in a knows-ring, each the creator of one post.
  constexpr uint64_t kN = 200;
  Transaction txn = db.Begin();
  std::vector<VertexId> persons;
  for (uint64_t i = 0; i < kN; ++i) {
    auto vid = txn.InsertVertex("Person", {std::string("p")});
    ASSERT_TRUE(vid.ok());
    persons.push_back(*vid);
  }
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(txn.InsertEdge("knows", persons[i], persons[(i + 1) % kN]).ok());
    auto post = txn.InsertVertex("Post", {std::string("en")});
    ASSERT_TRUE(post.ok());
    ASSERT_TRUE(txn.InsertEdge("hasCreator", *post, persons[i]).ok());
    ASSERT_TRUE(
        txn.SetEmbedding(*post, "Post", "emb", {static_cast<float>(i), 0}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());

  auto checks_of = [&](const std::string& script) -> uint64_t {
    CancelToken passive;  // never fires; counts the polls
    ScopedCancel scope(&passive);
    auto result = session.Run(script);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return passive.checks();
  };
  const uint64_t polls_per_pass = kN / kCancelCheckInterval;
  // Two statement gates and the two type scans' polls.
  const uint64_t scans =
      checks_of("R = SELECT s FROM (s:Post); S = SELECT u FROM (u:Person);");
  const std::string pattern = "R = SELECT u FROM (s:Post) -[:hasCreator]-> (u:Person);";
  // One gate, the same scans, and two passes that each walk kN vertices.
  EXPECT_EQ(checks_of(pattern), scans - 1 + 2 * polls_per_pass);
  const std::string join =
      "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) -[:knows]- (v:Person)"
      " <-[:hasCreator]- (t:Post) ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 3;";
  // One gate, four scans, six passes, and one poll per source post.
  const uint64_t join_checks = checks_of(join);
  EXPECT_EQ(join_checks, 1 + 2 * (scans - 2) + 6 * polls_per_pass + kN);

  for (const std::string& script : {pattern, join}) {
    const uint64_t total = script == join ? join_checks : checks_of(script);
    for (uint64_t trip_at = 1; trip_at <= total; ++trip_at) {
      CancelToken token;
      token.TripAfterChecks(trip_at);
      ScopedCancel scope(&token);
      auto result = session.Run(script);
      ASSERT_FALSE(result.ok()) << script << " trip_at=" << trip_at << " of " << total;
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
    }
  }
}

// ---------------- Semi-join equivalence ----------------

// A pass's answer does not depend on the side it walks. Seeded random graphs
// with a directed and an undirected edge type; chains of 2-4 aliases over
// every arrow token; candidate sets from one vertex to the whole type; reads
// at a read_tid older than a commit that adds vertices and adds and deletes
// edges, and at the latest commit. Every alias's candidates are checked
// against a reference that walks every pass forward from the near side with
// GraphStore::ForEachNeighbor. (GoldenModel::Neighbors reads arrows on
// undirected types differently, so it cannot be the reference here.)
TEST(SemiJoinPropertyTest, EitherWalkedSideMatchesTheForwardReference) {
  struct Hop {
    std::string type;
    Direction dir;
  };
  size_t walked_near = 0, walked_far = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database::Options options;
    options.store.segment_capacity = 16;
    options.num_threads = 1;
    Database db(options);
    ASSERT_TRUE(GsqlSession(&db)
                    .Run("CREATE VERTEX V (rank INT);"
                         "CREATE DIRECTED EDGE d (FROM V, TO V);"
                         "CREATE UNDIRECTED EDGE u (FROM V, TO V);")
                    .ok());
    // Ranks are a permutation, so `rank < c` selects exactly c vertices.
    const int64_t n = 10 + static_cast<int64_t>(rng.NextBounded(50));
    std::vector<int64_t> ranks(n);
    std::iota(ranks.begin(), ranks.end(), 0);
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(ranks[i], ranks[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
    std::map<VertexId, int64_t> rank_of;
    std::vector<std::tuple<std::string, VertexId, VertexId>> edges;
    auto random_edge = [&](Transaction* txn) {
      auto it = rank_of.begin();
      std::advance(it, rng.NextBounded(rank_of.size()));
      const VertexId a = it->first;
      it = rank_of.begin();
      std::advance(it, rng.NextBounded(rank_of.size()));
      const VertexId b = it->first;
      const std::string type = rng.NextBounded(2) == 0 ? "d" : "u";
      ASSERT_TRUE(txn->InsertEdge(type, a, b).ok());
      edges.emplace_back(type, a, b);
    };
    Transaction first = db.Begin();
    for (int64_t i = 0; i < n; ++i) {
      auto vid = first.InsertVertex("V", {ranks[i]});
      ASSERT_TRUE(vid.ok());
      rank_of[*vid] = ranks[i];
    }
    for (int64_t e = 0; e < 2 * n; ++e) random_edge(&first);
    auto old_tid = first.Commit();
    ASSERT_TRUE(old_tid.ok());
    // The later commit adds vertices and edges and deletes edges of the
    // first; a read at old_tid sees none of it.
    Transaction later = db.Begin();
    for (int64_t i = 0; i < 3; ++i) {
      auto vid = later.InsertVertex("V", {n + i});
      ASSERT_TRUE(vid.ok());
      rank_of[*vid] = n + i;
    }
    for (int64_t e = 0; e < n / 2; ++e) {  // n/2 distinct edges of the first
      std::swap(edges[e], edges[e + rng.NextBounded(edges.size() - e)]);
      const auto& [type, a, b] = edges[e];
      ASSERT_TRUE(later.DeleteEdge(type, a, b).ok());
    }
    for (int64_t e = 0; e < n; ++e) random_edge(&later);
    ASSERT_TRUE(later.Commit().ok());

    QueryExecutor executor(&db);
    for (int q = 0; q < 12; ++q) {
      const size_t len = 2 + rng.NextBounded(3);
      std::vector<int64_t> cut(len);
      std::vector<Hop> hops;
      std::string pattern = "(a0:V)", where;
      for (size_t i = 0; i < len; ++i) {
        // Skewed from a single vertex to the whole type (new vertices too).
        const int64_t cuts[] = {1, 2, n / 8 + 1, n / 2, n, n + 3};
        cut[i] = cuts[rng.NextBounded(6)];
        where += (i == 0 ? " WHERE " : " AND ") + std::string("a") +
                 std::to_string(i) + ".rank < " + std::to_string(cut[i]);
        if (i == 0) continue;
        Hop hop{rng.NextBounded(2) == 0 ? "d" : "u",
                static_cast<Direction>(rng.NextBounded(3))};
        const char* arrows[][2] = {{" -[:", "]-> "}, {" <-[:", "]- "}, {" -[:", "]- "}};
        const auto& arrow = arrows[static_cast<int>(hop.dir)];
        pattern += arrow[0] + hop.type + arrow[1] + "(a" + std::to_string(i) + ":V)";
        hops.push_back(hop);
      }
      for (const Tid read_tid : {*old_tid, kMaxTid}) {
        // The reference: every pass walks forward from its near side.
        const Tid tid = std::min(read_tid, db.store()->visible_tid());
        std::vector<std::set<VertexId>> want(len);
        for (size_t i = 0; i < len; ++i) {
          for (const auto& [vid, rank] : rank_of) {
            if (rank < cut[i] && db.store()->IsVisible(vid, tid)) want[i].insert(vid);
          }
        }
        auto pass = [&](size_t e, bool forward) {
          const EdgeTypeId type = (*db.schema()->GetEdgeType(hops[e].type))->id;
          std::set<VertexId> kept;
          for (VertexId vid : want[e]) {
            db.store()->ForEachNeighbor(vid, type, hops[e].dir, tid, [&](VertexId peer) {
              if (want[e + 1].count(peer) > 0) kept.insert(forward ? peer : vid);
            });
          }
          want[forward ? e + 1 : e] = std::move(kept);
        };
        for (size_t e = 0; e + 1 < len; ++e) pass(e, /*forward=*/true);
        for (size_t e = len - 1; e-- > 0;) pass(e, /*forward=*/false);

        for (size_t out = 0; out < len; ++out) {
          const std::string script =
              "SELECT a" + std::to_string(out) + " FROM " + pattern + where + ";";
          SCOPED_TRACE(script + " at tid " + std::to_string(tid));
          auto stmts = ParseScript(script);
          ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
          auto plan = executor.PlanSelect(std::get<SelectStmt>((*stmts)[0]), {});
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          auto result = executor.Execute(&*plan, {}, /*analyze=*/true, read_tid);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(std::set<VertexId>(result->vertices.begin(), result->vertices.end()),
                    want[out]);
          for (const QueryPlan::Op& op : plan->ops) {
            if (op.kind != QueryPlan::Op::Kind::kSemiJoin) continue;
            const std::string near = "walked a" + std::to_string(op.alias) + " (";
            for (const auto& [key, value] : op.node.actuals) {
              if (key == "rows_out") continue;
              (value.rfind(near, 0) == 0 ? walked_near : walked_far) += 1;
            }
          }
        }
      }
    }
  }
  // The sizes were skewed both ways, so both walks ran.
  EXPECT_GT(walked_near, 100u);
  EXPECT_GT(walked_far, 100u);
}

}  // namespace
}  // namespace tigervector
