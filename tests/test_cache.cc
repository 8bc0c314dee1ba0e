#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/query_cache.h"
#include "obs/metrics.h"
#include "plan_text.h"
#include "query/session.h"

namespace tigervector {
namespace {

using cache::CacheKey;
using cache::Fingerprint;
using cache::QueryCache;
using cache::ShardedLruCache;

CacheKey Key(uint64_t a, uint64_t b = 0, uint64_t c = 0, uint64_t d = 0) {
  return CacheKey{{a, b, c, d}};
}

// ---------------- Fingerprints ----------------

// Pins of the exact fingerprint values. The bitmap/top-k cache keys embed
// these; an accidental change to the mixing scheme would silently invalidate
// (or worse, alias) every persisted assumption tests make about keys, so the
// constants are asserted verbatim.
TEST(FingerprintTest, ExactValuePins) {
  EXPECT_EQ(cache::Mix64(1), 0x910a2dec89025cc1ULL);
  const Fingerprint s = cache::FingerprintString("Post.content_emb");
  EXPECT_EQ(s.hi, 0xab2461bb35df23e6ULL);
  EXPECT_EQ(s.lo, 0x192eb386ccd63e44ULL);
  CandidateSet::Builder ids(64);
  for (uint64_t id : {3, 7, 11, 70}) ids.Insert(id);
  const Fingerprint u = cache::FingerprintCandidates(std::move(ids).Build());
  EXPECT_EQ(u.hi, 0x78dbb87d4e0e6202ULL);
  EXPECT_EQ(u.lo, 0x7ab1bfe0a867c2c1ULL);
  const float q[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const Fingerprint b = cache::FingerprintBytes(q, sizeof(q));
  EXPECT_EQ(b.hi, 0x0db431570f940fb2ULL);
  EXPECT_EQ(b.lo, 0x03448609f58baa74ULL);
}

TEST(FingerprintTest, DistinctInputsDistinctFingerprints) {
  // Near-miss byte strings must not collide: shared prefix, single-bit
  // flips, and length-extension pairs.
  EXPECT_NE(cache::FingerprintString("a"), cache::FingerprintString("b"));
  EXPECT_NE(cache::FingerprintString("abc"), cache::FingerprintString("abd"));
  EXPECT_NE(cache::FingerprintString("abc"), cache::FingerprintString("abcd"));
  EXPECT_NE(cache::FingerprintString(""), cache::FingerprintString(std::string(1, '\0')));
  EXPECT_NE(cache::FingerprintString(std::string(1, '\0')),
            cache::FingerprintString(std::string(2, '\0')));
  // Concatenation boundaries must matter when combining fingerprints
  // ("ab"+"c" vs "a"+"bc").
  Fingerprint ab_c = cache::CombineFingerprints(cache::FingerprintString("ab"),
                                                cache::FingerprintString("c"));
  Fingerprint a_bc = cache::CombineFingerprints(cache::FingerprintString("a"),
                                                cache::FingerprintString("bc"));
  EXPECT_NE(ab_c, a_bc);
  // Query vectors differing in one float must not collide.
  const float q1[4] = {1, 2, 3, 4};
  const float q2[4] = {1, 2, 3, 5};
  EXPECT_NE(cache::FingerprintBytes(q1, sizeof(q1)),
            cache::FingerprintBytes(q2, sizeof(q2)));
}

CandidateSet Candidates(std::initializer_list<uint64_t> ids) {
  CandidateSet::Builder out(64);
  for (uint64_t id : ids) out.Insert(id);
  return std::move(out).Build();
}

TEST(FingerprintTest, CandidateFingerprintIsContentOnly) {
  const CandidateSet a = Candidates({5, 900, 17, 3});
  // Same members inserted in another order, plus an all-clear bitmap where
  // `a` has none: the same contents, so the same key.
  CandidateSet b = Candidates({3, 17, 900, 5});
  b.set_segment(3, std::make_shared<Bitmap>(64));
  EXPECT_EQ(cache::FingerprintCandidates(a), cache::FingerprintCandidates(b));
  // ...but content-sensitive: one missing, one extra, and one moved to the
  // same offset of another segment all change it.
  EXPECT_NE(cache::FingerprintCandidates(a),
            cache::FingerprintCandidates(Candidates({5, 900, 17})));
  EXPECT_NE(cache::FingerprintCandidates(a),
            cache::FingerprintCandidates(Candidates({5, 900, 17, 3, 4})));
  EXPECT_NE(cache::FingerprintCandidates(a),
            cache::FingerprintCandidates(Candidates({5, 900, 17, 67})));
  // The empty set is distinct from {0}, and never aliases the accept-all
  // filter's key.
  const CandidateSet empty;
  EXPECT_NE(cache::FingerprintCandidates(empty),
            cache::FingerprintCandidates(Candidates({0})));
  EXPECT_NE(cache::FingerprintCandidates(empty), Fingerprint{});
  EXPECT_EQ(cache::FingerprintCandidates(empty),
            cache::FingerprintCandidates(Candidates({})));
}

TEST(FingerprintTest, VersionWordsAreExactNotHashed) {
  // Same fingerprint, different segment version => different key, compared
  // word-for-word (staleness cannot hide behind a hash collision).
  const Fingerprint fp = cache::FingerprintString("pred");
  const CacheKey k1 = cache::BitmapKey(fp, /*segment_id=*/2, /*version=*/7);
  const CacheKey k2 = cache::BitmapKey(fp, 2, 8);
  const CacheKey k3 = cache::BitmapKey(fp, 3, 7);
  EXPECT_FALSE(k1 == k2);
  EXPECT_FALSE(k1 == k3);
  EXPECT_EQ(k1.w[2], 2u);
  EXPECT_EQ(k1.w[3], 7u);
  const CacheKey t1 = cache::TopKKey(fp, fp, /*read_tid=*/10, /*structure_version=*/4);
  const CacheKey t2 = cache::TopKKey(fp, fp, 11, 4);
  const CacheKey t3 = cache::TopKKey(fp, fp, 10, 5);
  EXPECT_FALSE(t1 == t2);
  EXPECT_FALSE(t1 == t3);
}

// ---------------- Sharded LRU ----------------

TEST(ShardedLruTest, LruEvictionOrder) {
  // One shard so recency order is globally observable; room for two
  // 40-byte entries.
  ShardedLruCache<int> lru(/*capacity_bytes=*/100, /*num_shards=*/1);
  EXPECT_EQ(lru.Insert(Key(1), 101, 40), 0u);
  EXPECT_EQ(lru.Insert(Key(2), 102, 40), 0u);
  int out = 0;
  ASSERT_TRUE(lru.Lookup(Key(1), &out));  // refresh 1: now 2 is LRU
  EXPECT_EQ(out, 101);
  EXPECT_EQ(lru.Insert(Key(3), 103, 40), 1u);  // evicts 2, not 1
  EXPECT_TRUE(lru.Lookup(Key(1), &out));
  EXPECT_FALSE(lru.Lookup(Key(2), &out));
  EXPECT_TRUE(lru.Lookup(Key(3), &out));
  EXPECT_EQ(lru.entries(), 2u);
  EXPECT_EQ(lru.bytes(), 80u);
  EXPECT_EQ(lru.evictions(), 1u);
}

TEST(ShardedLruTest, OversizedEntryNotAdmitted) {
  ShardedLruCache<int> lru(100, 1);
  lru.Insert(Key(1), 101, 40);
  EXPECT_EQ(lru.Insert(Key(9), 999, 500), 0u);  // larger than the shard
  int out = 0;
  EXPECT_FALSE(lru.Lookup(Key(9), &out));
  EXPECT_TRUE(lru.Lookup(Key(1), &out));  // nothing was evicted for it
  EXPECT_EQ(lru.entries(), 1u);
}

TEST(ShardedLruTest, OversizedReplacementKeepsExistingEntry) {
  // A replacement that cannot be admitted must leave the previously cached
  // entry intact (keys are content-addressed, so the old value is still
  // valid) and count no eviction for it.
  ShardedLruCache<int> lru(100, 1);
  lru.Insert(Key(1), 101, 40);
  EXPECT_EQ(lru.Insert(Key(1), 999, 500), 0u);  // larger than the shard
  int out = 0;
  ASSERT_TRUE(lru.Lookup(Key(1), &out));
  EXPECT_EQ(out, 101);
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 40u);
  EXPECT_EQ(lru.evictions(), 0u);
}

TEST(ShardedLruTest, ReplaceUpdatesBytes) {
  ShardedLruCache<int> lru(100, 1);
  lru.Insert(Key(1), 101, 40);
  lru.Insert(Key(1), 201, 60);  // replace: old 40 bytes released
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 60u);
  int out = 0;
  ASSERT_TRUE(lru.Lookup(Key(1), &out));
  EXPECT_EQ(out, 201);
  lru.Clear();
  EXPECT_EQ(lru.entries(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_FALSE(lru.Lookup(Key(1), &out));
}

TEST(ShardedLruTest, CapacityIsBoundedUnderPressure) {
  ShardedLruCache<int> lru(/*capacity_bytes=*/1 << 12, /*num_shards=*/4);
  for (uint64_t i = 0; i < 4096; ++i) {
    lru.Insert(Key(i, i * 31), static_cast<int>(i), 64);
  }
  EXPECT_LE(lru.bytes(), lru.capacity_bytes());
  EXPECT_GT(lru.evictions(), 0u);
}

// Exercised under TSan in CI: concurrent writers and readers across shards
// must be race-free and keep byte accounting consistent.
TEST(ShardedLruTest, ConcurrentShardedWriters) {
  ShardedLruCache<std::shared_ptr<int>> lru(1 << 16, 8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)lru.entries();
      (void)lru.bytes();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&lru, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const CacheKey key = Key(static_cast<uint64_t>(i % 257), t % 3);
        lru.Insert(key, std::make_shared<int>(i), 48);
        std::shared_ptr<int> out;
        (void)lru.Lookup(key, &out);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_LE(lru.bytes(), lru.capacity_bytes());
  EXPECT_GT(lru.entries(), 0u);
}

// ---------------- QueryCache env + toggle ----------------

TEST(QueryCacheTest, TvCacheOffDisablesAtConstruction) {
  ::setenv("TV_CACHE", "off", 1);
  QueryCache off_cache;
  ::unsetenv("TV_CACHE");
  EXPECT_FALSE(off_cache.enabled());
  // Disabled lookups are counted as bypasses and stay misses-free.
  EXPECT_EQ(off_cache.LookupTopK(Key(1)), nullptr);
  EXPECT_EQ(off_cache.topk_stats().bypasses, 1u);
  EXPECT_EQ(off_cache.topk_stats().misses, 0u);

  // TV_CACHE=on overrides a disabled-by-options cache.
  ::setenv("TV_CACHE", "on", 1);
  QueryCache::Options disabled;
  disabled.enabled = false;
  QueryCache on_cache(disabled);
  ::unsetenv("TV_CACHE");
  EXPECT_TRUE(on_cache.enabled());
}

TEST(QueryCacheTest, RuntimeToggleRetainsEntries) {
  QueryCache qc;
  auto entry = std::make_shared<QueryCache::TopKEntry>();
  entry->hits.emplace_back(1.0f, 42u);
  qc.InsertTopK(Key(5), entry);
  ASSERT_NE(qc.LookupTopK(Key(5)), nullptr);
  qc.set_enabled(false);
  EXPECT_EQ(qc.LookupTopK(Key(5)), nullptr);  // bypass while off
  qc.set_enabled(true);
  auto back = qc.LookupTopK(Key(5));  // entry survived the off window
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->hits.size(), 1u);
  EXPECT_EQ(back->hits[0].second, 42u);
}

// ---------------- End-to-end fixture ----------------

class CacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 8;  // several segments
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    session_ = std::make_unique<GsqlSession>(db_.get());
    auto ddl = session_->Run(
        "CREATE VERTEX Person (firstName STRING, age INT);"
        "CREATE VERTEX Post (language STRING, length INT);"
        "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);"
        "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
        "CREATE EMBEDDING SPACE space1 (DIMENSION = 4, MODEL = M, INDEX = HNSW,"
        " DATATYPE = FLOAT, METRIC = L2);"
        "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
        " IN EMBEDDING SPACE space1;"
        "ALTER VERTEX Person ADD EMBEDDING ATTRIBUTE profile_emb"
        " IN EMBEDDING SPACE space1;");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    Transaction txn = db_->Begin();
    const char* names[] = {"Alice", "Bob", "Carol", "Dave"};
    for (int i = 0; i < 4; ++i) {
      auto vid = txn.InsertVertex("Person", {std::string(names[i]), int64_t{20 + i}});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Person", "profile_emb",
                                   {static_cast<float>(100 + i), 0, 0, 0})
                      .ok());
      persons_.push_back(*vid);
    }
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[1]).ok());
    ASSERT_TRUE(txn.Commit().ok());
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 3; ++j) {
        Transaction ptxn = db_->Begin();
        auto vid = ptxn.InsertVertex(
            "Post",
            {std::string(j == 0 ? "English" : "German"), int64_t{500 + 300 * j}});
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

  static bool Has(const std::string& text, const std::string& needle) {
    return text.find(needle) != std::string::npos;
  }

  // Runs `q` under EXPLAIN ANALYZE and returns the annotated plan.
  std::string Analyze(const std::string& q, const QueryParams& params) {
    auto result = session_->Run("EXPLAIN ANALYZE " + q, params);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->explain : std::string();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
  std::vector<VertexId> persons_;
  std::vector<VertexId> posts_;
};

// ---------------- Version bumps on commit / vacuum / merge ----------------

TEST_F(CacheFixture, SegmentVersionBumpsOnCommit) {
  const GraphSegment* seg = db_->store()->SegmentAt(0);
  const uint64_t v0 = seg->version();
  const uint64_t g0 = db_->store()->graph_version();
  const Tid tid_before = seg->last_applied_tid();
  Transaction txn = db_->Begin();
  ASSERT_TRUE(
      txn.SetAttr(persons_[0], "Person", "firstName", std::string("Alicia")).ok());
  auto tid = txn.Commit();
  ASSERT_TRUE(tid.ok());
  EXPECT_GT(seg->version(), v0);
  EXPECT_GT(db_->store()->graph_version(), g0);
  EXPECT_GT(seg->last_applied_tid(), tid_before);
  EXPECT_EQ(seg->last_applied_tid(), *tid);
}

TEST_F(CacheFixture, SegmentAndGraphVersionBumpOnVacuum) {
  // Leave a pending delta so the vacuum folds something.
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.SetAttr(persons_[1], "Person", "age", int64_t{99}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  const GraphSegment* seg = db_->store()->SegmentAt(0);
  const uint64_t v0 = seg->version();
  const uint64_t g0 = db_->store()->graph_version();
  (void)db_->store()->VacuumGraph();
  EXPECT_GT(seg->version(), v0);
  EXPECT_GT(db_->store()->graph_version(), g0);
}

TEST_F(CacheFixture, StructureVersionBumpsOnMergeAndStaysStable) {
  EXPECT_TRUE(db_->embeddings()->structure_stable());
  const uint64_t s0 = db_->embeddings()->structure_version();
  Transaction txn = db_->Begin();
  ASSERT_TRUE(txn.SetEmbedding(posts_[0], "Post", "content_emb", {77, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(db_->Vacuum().ok());  // delta merge + index merge
  EXPECT_GT(db_->embeddings()->structure_version(), s0);
  EXPECT_TRUE(db_->embeddings()->structure_stable());
}

// ---------------- EXPLAIN ANALYZE cache annotations, all five shapes -------

constexpr char kPureTopK[] =
    "R = SELECT s FROM (s:Post)"
    " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;";

TEST_F(CacheFixture, PureTopKMissThenHit) {
  const std::string first = Analyze(kPureTopK, Params({21, 0, 0, 0}));
  EXPECT_TRUE(Has(first, "* cache: miss")) << first;
  const std::string second = Analyze(kPureTopK, Params({21, 0, 0, 0}));
  EXPECT_TRUE(Has(second, "* cache: hit")) << second;
  // A hit does no index work at all.
  EXPECT_TRUE(Has(second, "* hnsw_distance_evals: 0")) << second;
  // A different query vector is a different key.
  const std::string other = Analyze(kPureTopK, Params({5, 0, 0, 0}));
  EXPECT_TRUE(Has(other, "* cache: miss")) << other;
}

TEST_F(CacheFixture, FilteredTopKScanAndResultTiers) {
  const std::string q =
      "R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;";
  const std::string first = Analyze(q, Params({0, 0, 0, 0}));
  // Cold: the VertexAction scan misses the bitmap tier, the top-k misses
  // the result tier.
  EXPECT_TRUE(Has(first, "* cache: miss")) << first;
  const std::string second = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(second, "* cache: hit")) << second;
  EXPECT_FALSE(Has(second, "* cache: miss")) << second;
  // Results must be identical either way.
  auto plain = session_->Run(q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->prints[0].vertices.size(), 4u);
}

TEST_F(CacheFixture, PatternShapeScanCacheAnnotations) {
  const std::string q =
      "R = SELECT t FROM (s:Person) <-[:hasCreator]- (t:Post)"
      " WHERE s.firstName = \"Alice\""
      " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 2; PRINT R;";
  const std::string first = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(first, "* cache: miss")) << first;
  const std::string second = Analyze(q, Params({0, 0, 0, 0}));
  // Both VertexAction scans hit their per-segment bitmaps; the top-k result
  // hits too (the pattern filter set is unchanged).
  EXPECT_TRUE(Has(second, "* cache: hit")) << second;
  EXPECT_FALSE(Has(second, "* cache: miss")) << second;
  auto an = session_->Run("EXPLAIN ANALYZE " + q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(an.ok());
  ASSERT_EQ(an->prints.size(), 1u);
  EXPECT_EQ(an->prints[0].vertices.size(), 2u);
}

TEST_F(CacheFixture, ComposedVectorSearchShape) {
  const std::string q =
      "EnglishPosts = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "TopK = VectorSearch({Post.content_emb}, $qv, 2, {filter: EnglishPosts});"
      "PRINT TopK;";
  const std::string first = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(first, "* cache: miss")) << first;
  const std::string second = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(second, "* cache: hit")) << second;
  EXPECT_FALSE(Has(second, "* cache: miss")) << second;
}

TEST_F(CacheFixture, RangeShapeIsAlwaysBypass) {
  const std::string q =
      "R = SELECT s FROM (s:Post)"
      " WHERE VECTOR_DIST(s.content_emb, $qv) < 5.0; PRINT R;";
  const std::string first = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(first, "* cache: bypass")) << first;
  const std::string second = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(second, "* cache: bypass")) << second;
}

TEST_F(CacheFixture, ExplainWithoutAnalyzeCarriesNoCacheActuals) {
  auto ex = session_->Run(std::string("EXPLAIN ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_FALSE(Has(ex->explain, "    * ")) << ex->explain;
}

TEST_F(CacheFixture, SessionBypassAnnotatesAndSkipsCache) {
  (void)Analyze(kPureTopK, Params({21, 0, 0, 0}));  // warm
  GsqlSession bypass(db_.get());
  bypass.SetCacheBypass(true);
  auto result = bypass.Run(std::string("EXPLAIN ANALYZE ") + kPureTopK,
                           Params({21, 0, 0, 0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(Has(result->explain, "* cache: bypass")) << result->explain;
  EXPECT_FALSE(Has(result->explain, "* cache: hit")) << result->explain;
  // And the answer matches the cached session's bit-for-bit.
  auto cached = session_->Run(kPureTopK, Params({21, 0, 0, 0}));
  auto raw = bypass.Run(kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(cached->prints[0].vertices, raw->prints[0].vertices);
}

// PROFILE measures what a query actually does, so it must never be served
// from the cache: even with a warm top-k entry, the profiled run redoes the
// search and reports real HNSW work, and afterwards the session still caches.
TEST_F(CacheFixture, ProfileAlwaysBypassesCache) {
  (void)session_->Run(kPureTopK, Params({21, 0, 0, 0}));  // warm
  auto prof =
      session_->Run(std::string("PROFILE ") + kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  ASSERT_TRUE(prof->analyzed);
  // The plan's top-k actuals and the trace's counter rows both show the
  // outcome: the profiled run bypassed the warm entry and did the HNSW work
  // itself.
  const std::string& text = prof->explain;
  EXPECT_TRUE(Has(text, "* cache: bypass")) << text;
  EXPECT_FALSE(Has(text, "* cache: hit")) << text;
  EXPECT_GT(PlanTextValue(text, "* hnsw_distance_evals:"), 0.0) << text;
  EXPECT_EQ(PlanTextValue(text, "cache.topk_bypass"), 1.0) << text;
  EXPECT_EQ(PlanTextValue(text, "cache.topk_hit"), -1.0) << text;
  // The forced bypass is scoped to the PROFILE run: the next plain query on
  // the same session is served from the still-warm cache.
  EXPECT_TRUE(Has(Analyze(kPureTopK, Params({21, 0, 0, 0})), "* cache: hit"));
}

// ---------------- Invalidation by key mismatch ----------------

TEST_F(CacheFixture, CommitInvalidatesScanAndResultTiers) {
  const std::string q =
      "R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;";
  (void)Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_TRUE(Has(Analyze(q, Params({0, 0, 0, 0})), "* cache: hit"));
  // A commit bumps the touched segment's version and the visible tid: both
  // tiers must go stale by key mismatch, not return the old answer.
  Transaction txn = db_->Begin();
  auto vid = txn.InsertVertex("Post", {std::string("English"), int64_t{100}});
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(
      txn.SetEmbedding(*vid, "Post", "content_emb", {0.1f, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  const std::string after = Analyze(q, Params({0, 0, 0, 0}));
  EXPECT_FALSE(Has(after, "* cache: hit")) << after;
  auto fresh = session_->Run(q, Params({0, 0, 0, 0}));
  ASSERT_TRUE(fresh.ok());
  // The new nearby post must appear (the old cached answer would lack it).
  bool found = false;
  for (VertexId v : fresh->prints[0].vertices) found |= (v == *vid);
  EXPECT_TRUE(found);
}

TEST_F(CacheFixture, VacuumInvalidatesResultTier) {
  (void)Analyze(kPureTopK, Params({21, 0, 0, 0}));
  EXPECT_TRUE(Has(Analyze(kPureTopK, Params({21, 0, 0, 0})), "* cache: hit"));
  // An index merge changes the structure version: the warm entry must not
  // be served even though the visible tid is unchanged.
  ASSERT_TRUE(db_->Vacuum().ok());
  const std::string after = Analyze(kPureTopK, Params({21, 0, 0, 0}));
  EXPECT_TRUE(Has(after, "* cache: miss")) << after;
  // And the re-computed answer matches what was cached before.
  auto again = session_->Run(kPureTopK, Params({21, 0, 0, 0}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->prints[0].vertices.size(), 2u);
}

// ---------------- TV_CACHE=off end to end ----------------

TEST(CacheEnvTest, TvCacheOffBypassesEndToEnd) {
  ::setenv("TV_CACHE", "off", 1);
  Database db;
  ::unsetenv("TV_CACHE");
  ASSERT_FALSE(db.cache()->enabled());
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX Doc (title STRING);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 4, MODEL = M,"
      " INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Transaction txn = db.Begin();
  for (int i = 0; i < 6; ++i) {
    auto vid = txn.InsertVertex("Doc", {std::string("d") + std::to_string(i)});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(
        txn.SetEmbedding(*vid, "Doc", "emb", {static_cast<float>(i), 0, 0, 0}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{2, 0, 0, 0};
  const std::string q =
      "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2;"
      " PRINT R;";
  for (int i = 0; i < 2; ++i) {
    auto result = session.Run("EXPLAIN ANALYZE " + q, params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NE(result->explain.find("* cache: bypass"), std::string::npos)
        << result->explain;
    EXPECT_EQ(result->explain.find("* cache: hit"), std::string::npos)
        << result->explain;
  }
  const QueryCache::TierStats topk = db.cache()->topk_stats();
  EXPECT_EQ(topk.hits, 0u);
  EXPECT_EQ(topk.misses, 0u);
  EXPECT_EQ(topk.entries, 0u);
}

#if !defined(TIGERVECTOR_NO_METRICS)

// ---------------- tv.cache.* metrics reconcile with annotations ----------

TEST_F(CacheFixture, MetricsReconcileWithExplainOutcomes) {
  auto* topk_hits = obs::MetricsRegistry::Global().GetCounter("tv.cache.topk.hits_total");
  auto* topk_misses =
      obs::MetricsRegistry::Global().GetCounter("tv.cache.topk.misses_total");
  auto* bm_hits =
      obs::MetricsRegistry::Global().GetCounter("tv.cache.bitmap.hits_total");
  auto* bm_misses =
      obs::MetricsRegistry::Global().GetCounter("tv.cache.bitmap.misses_total");
  const uint64_t th0 = topk_hits->Value(), tm0 = topk_misses->Value();
  const uint64_t bh0 = bm_hits->Value(), bm0 = bm_misses->Value();
  const QueryCache::TierStats inst_t0 = db_->cache()->topk_stats();
  const QueryCache::TierStats inst_b0 = db_->cache()->bitmap_stats();

  const std::string q =
      "R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;";
  const std::string first = Analyze(q, Params({3, 0, 0, 0}));
  const std::string second = Analyze(q, Params({3, 0, 0, 0}));
  EXPECT_TRUE(Has(first, "* cache: miss")) << first;
  EXPECT_TRUE(Has(second, "* cache: hit")) << second;

  // One top-k miss then one top-k hit.
  EXPECT_EQ(topk_misses->Value() - tm0, 1u);
  EXPECT_EQ(topk_hits->Value() - th0, 1u);
  // The scan missed every Post segment once, then hit every one.
  const uint64_t scan_misses = bm_misses->Value() - bm0;
  const uint64_t scan_hits = bm_hits->Value() - bh0;
  EXPECT_GT(scan_misses, 0u);
  EXPECT_EQ(scan_hits, scan_misses);
  // Instance-local stats moved in lockstep with the process-wide counters.
  const QueryCache::TierStats inst_t1 = db_->cache()->topk_stats();
  const QueryCache::TierStats inst_b1 = db_->cache()->bitmap_stats();
  EXPECT_EQ(inst_t1.hits - inst_t0.hits, 1u);
  EXPECT_EQ(inst_t1.misses - inst_t0.misses, 1u);
  EXPECT_EQ(inst_b1.hits - inst_b0.hits, scan_hits);
  EXPECT_EQ(inst_b1.misses - inst_b0.misses, scan_misses);
  EXPECT_GT(inst_t1.entries, 0u);
  EXPECT_GT(inst_b1.bytes, 0u);
  // RenderStats (the shell's \cache output) reflects the same state.
  const std::string stats = db_->cache()->RenderStats();
  EXPECT_TRUE(Has(stats, "bitmap tier:")) << stats;
  EXPECT_TRUE(Has(stats, "top-k tier")) << stats;
  EXPECT_TRUE(Has(stats, "enabled")) << stats;
}

// ---------------- Satellite: predicate evaluations are hoisted ----------

// The filter pipeline must evaluate each predicate once per scanned vertex —
// never once per searched attribute — and a warm bitmap cache must skip
// predicate evaluation entirely.
TEST_F(CacheFixture, PredicateEvalsCountedOncePerVertexAndZeroWhenWarm) {
  auto* evals =
      obs::MetricsRegistry::Global().GetCounter("tv.query.predicate_evals_total");
  const std::string single =
      "Cand = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "R = VectorSearch({Post.content_emb}, $qv, 2, {filter: Cand}); PRINT R;";
  const std::string multi =
      "Cand = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
      "R = VectorSearch({Post.content_emb, Person.profile_emb}, $qv, 2,"
      " {filter: Cand}); PRINT R;";
  const uint64_t e0 = evals->Value();
  auto r1 = session_->Run(single, Params({0, 0, 0, 0}));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const uint64_t cold_single = evals->Value() - e0;
  // Cold scan: one evaluation per visible Post (12 of them).
  EXPECT_EQ(cold_single, 12u);
  // Doubling the searched attributes must not re-run the predicate scan:
  // the candidate set is computed once and only fingerprinted per search,
  // and the second scan hits the bitmap cache (0 evaluations).
  const uint64_t e1 = evals->Value();
  auto r2 = session_->Run(multi, Params({0, 0, 0, 0}));
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(evals->Value() - e1, 0u);
  // An uncached rerun of the same multi-attribute search still evaluates
  // once per vertex, not once per attribute.
  GsqlSession bypass(db_.get());
  bypass.SetCacheBypass(true);
  const uint64_t e2 = evals->Value();
  auto r3 = bypass.Run(multi, Params({0, 0, 0, 0}));
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_EQ(evals->Value() - e2, cold_single);
}

#endif  // !TIGERVECTOR_NO_METRICS

}  // namespace
}  // namespace tigervector
