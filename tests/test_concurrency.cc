#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "hnsw/hnsw_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/session.h"
#include "util/rng.h"
#include "workload/driver.h"

namespace tigervector {
namespace {

// Stress tests for the concurrency contract: searches may run concurrently
// with commits and with both vacuum stages; results must always be
// internally consistent (sorted, no tombstoned or invisible vertices).

class ConcurrencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 128;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 48;
    db_ = std::make_unique<Database>(options);
    EmbeddingTypeInfo info;
    info.dimension = 8;
    info.model = "M";
    info.metric = Metric::kL2;
    ASSERT_TRUE(db_->schema()->CreateVertexType("Item", {}).ok());
    ASSERT_TRUE(db_->schema()->AddEmbeddingAttr("Item", "emb", info).ok());
    // Seed data.
    for (int i = 0; i < 400; ++i) {
      Transaction txn = db_->Begin();
      auto vid = txn.InsertVertex("Item", {});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Item", "emb", Vec(i)).ok());
      ASSERT_TRUE(txn.Commit().ok());
      vids_.push_back(*vid);
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  std::vector<float> Vec(int i) {
    std::vector<float> v(8, 0.f);
    v[0] = static_cast<float>(i);
    v[1] = static_cast<float>(i % 13);
    return v;
  }

  void SearchLoop(std::atomic<bool>* stop, std::atomic<int>* errors) {
    int i = 0;
    while (!stop->load()) {
      std::vector<float> q = Vec(i++ % 500);
      VectorSearchRequest request;
      request.attrs = {{"Item", "emb"}};
      request.query = q.data();
      request.k = 5;
      request.ef = 32;
      auto result = db_->embeddings()->TopKSearch(request);
      if (!result.ok()) {
        errors->fetch_add(1);
        continue;
      }
      // Sorted ascending and within k.
      for (size_t j = 1; j < result->hits.size(); ++j) {
        if (result->hits[j - 1].distance > result->hits[j].distance) {
          errors->fetch_add(1);
        }
      }
      if (result->hits.size() > 5) errors->fetch_add(1);
    }
  }

  std::unique_ptr<Database> db_;
  std::vector<VertexId> vids_;
};

TEST_F(ConcurrencyFixture, SearchesConcurrentWithCommits) {
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread reader1([&] { SearchLoop(&stop, &errors); });
  std::thread reader2([&] { SearchLoop(&stop, &errors); });
  // Writer: 200 update transactions.
  for (int round = 0; round < 200; ++round) {
    Transaction txn = db_->Begin();
    const VertexId target = vids_[round % vids_.size()];
    ASSERT_TRUE(txn.SetEmbedding(target, "Item", "emb", Vec(1000 + round)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  stop.store(true);
  reader1.join();
  reader2.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST_F(ConcurrencyFixture, SearchesConcurrentWithVacuum) {
  // Build a delta backlog, then vacuum while searching.
  for (int round = 0; round < 100; ++round) {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(txn.SetEmbedding(vids_[round % vids_.size()], "Item", "emb",
                                 Vec(2000 + round))
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread reader([&] { SearchLoop(&stop, &errors); });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Vacuum().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db_->embeddings()->TotalPendingDeltas(), 0u);
}

TEST_F(ConcurrencyFixture, ConcurrentWritersSerializeCleanly) {
  // Multiple threads committing transactions concurrently: every commit
  // must succeed and each gets a distinct tid.
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < 50; ++i) {
        Transaction txn = db_->Begin();
        auto vid = txn.InsertVertex("Item", {});
        if (!vid.ok() ||
            !txn.SetEmbedding(*vid, "Item", "emb", Vec(w * 1000 + i)).ok() ||
            !txn.Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All 200 new vertices are visible.
  size_t count = 0;
  db_->store()->ForEachVertexOfType(0, db_->store()->visible_tid(), nullptr,
                                    [&](VertexId) { ++count; });
  EXPECT_EQ(count, 400u + 200u);
}

TEST_F(ConcurrencyFixture, DeleteDuringSearchNeverReturnsDeleted) {
  // Delete vertices one by one while verifying they never appear after
  // their deletion is visible.
  for (int i = 0; i < 50; ++i) {
    const VertexId victim = vids_[i];
    {
      Transaction txn = db_->Begin();
      ASSERT_TRUE(txn.DeleteVertex(victim).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    std::vector<float> q = Vec(i);
    VectorSearchRequest request;
    request.attrs = {{"Item", "emb"}};
    request.query = q.data();
    request.k = 3;
    request.ef = 64;
    auto result = db_->embeddings()->TopKSearch(request);
    ASSERT_TRUE(result.ok());
    for (const auto& hit : result->hits) EXPECT_NE(hit.label, victim);
  }
}

// ---------------- Cached vs uncached under concurrency ----------------
//
// The query cache must never change an answer: a cached session and a
// bypassing session reading at the same MVCC horizon (same visible tid,
// graph version, and index structure version) must produce bit-for-bit
// identical results while writers and the vacuum race them. Comparisons are
// only scored when the horizon is provably stable across the pair; a final
// quiesced pass guarantees the test always scores at least one.

class CacheConcurrencyFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 64;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 48;
    db_ = std::make_unique<Database>(options);
    GsqlSession ddl(db_.get());
    auto r = ddl.Run(
        "CREATE VERTEX Item (grp INT);"
        "ALTER VERTEX Item ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 8,"
        " MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (int i = 0; i < 300; ++i) {
      Transaction txn = db_->Begin();
      auto vid = txn.InsertVertex("Item", {int64_t{i % 4}});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Item", "emb", Vec(i)).ok());
      ASSERT_TRUE(txn.Commit().ok());
      vids_.push_back(*vid);
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  std::vector<float> Vec(int i) {
    std::vector<float> v(8, 0.f);
    v[0] = static_cast<float>(i);
    v[1] = static_cast<float>(i % 13);
    return v;
  }

  // `stable` must hold at both ends of a comparison window: the structure
  // version only bumps when a merge *finishes*, so a merge still in flight
  // at both samples would otherwise be invisible while the two legs observe
  // different mid-merge index states.
  struct Horizon {
    Tid visible_tid;
    uint64_t graph_version;
    uint64_t structure_version;
    bool stable;
    bool operator==(const Horizon& o) const {
      return visible_tid == o.visible_tid && graph_version == o.graph_version &&
             structure_version == o.structure_version && stable && o.stable;
    }
  };

  Horizon Sample() const {
    return Horizon{db_->store()->visible_tid(), db_->store()->graph_version(),
                   db_->embeddings()->structure_version(),
                   db_->embeddings()->structure_stable()};
  }

  // Runs `script` through both sessions; when the horizon held still across
  // the pair, the printed vertex sets must match exactly. Returns whether a
  // comparison was scored.
  bool CompareSessions(GsqlSession* cached, GsqlSession* bypass,
                       const std::string& script, const QueryParams& params,
                       std::atomic<int>* errors) {
    const Horizon before = Sample();
    auto warm = cached->Run(script, params);
    auto raw = bypass->Run(script, params);
    if (!(Sample() == before)) return false;  // a writer raced the pair
    if (!warm.ok() || !raw.ok()) {
      errors->fetch_add(1);
      return true;
    }
    if (warm->prints.size() != raw->prints.size() ||
        warm->prints[0].vertices != raw->prints[0].vertices) {
      errors->fetch_add(1);
    }
    return true;
  }

  // Direct-API leg: two VectorSearch calls pinned to the same read_tid, one
  // through the cache and one bypassing it. Distances compared bit-for-bit.
  bool CompareDirect(const std::vector<float>& q, std::atomic<int>* errors) {
    const Horizon before = Sample();
    std::unordered_map<VertexId, float> warm_dist, raw_dist;
    Database::VectorSearchFnOptions warm_opts;
    warm_opts.read_tid = before.visible_tid;
    warm_opts.distance_map = &warm_dist;
    auto warm = db_->VectorSearch({{"Item", "emb"}}, q, 5, warm_opts);
    Database::VectorSearchFnOptions raw_opts;
    raw_opts.read_tid = before.visible_tid;
    raw_opts.distance_map = &raw_dist;
    raw_opts.bypass_cache = true;
    auto raw = db_->VectorSearch({{"Item", "emb"}}, q, 5, raw_opts);
    if (!(Sample() == before)) return false;
    if (!warm.ok() || !raw.ok() || !(*warm == *raw)) {
      errors->fetch_add(1);
      return true;
    }
    for (const VertexId vid : *warm) {
      const auto w = warm_dist.find(vid);
      const auto r = raw_dist.find(vid);
      if (w == warm_dist.end() || r == raw_dist.end() || w->second != r->second) {
        errors->fetch_add(1);
        break;
      }
    }
    return true;
  }

  std::unique_ptr<Database> db_;
  std::vector<VertexId> vids_;
};

TEST_F(CacheConcurrencyFixture, CachedReadersRaceMutatorsAndVacuum) {
  constexpr int kReaders = 3;
  constexpr int kMutators = 2;
  const std::string filtered =
      "R = SELECT s FROM (s:Item) WHERE s.grp = 1"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5; PRINT R;";
  const std::string pure =
      "R = SELECT s FROM (s:Item)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5; PRINT R;";
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> checks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      GsqlSession cached(db_.get());
      GsqlSession bypass(db_.get());
      bypass.SetCacheBypass(true);
      int i = t * 101;
      while (!stop.load()) {
        QueryParams params;
        params["qv"] = Vec(i % 350);
        // Reuse a small pool of vectors so warm entries actually get hit.
        const std::string& script = (i % 2 == 0) ? filtered : pure;
        if (CompareSessions(&cached, &bypass, script, params, &errors)) {
          checks.fetch_add(1);
        }
        if (CompareDirect(Vec(i % 350), &errors)) checks.fetch_add(1);
        ++i;
      }
    });
  }
  // Updates touch only the lower half of the seeded vids and deletes only
  // the upper half, so no mutator ever writes a vertex another one deleted.
  std::vector<std::thread> mutators;
  std::atomic<size_t> next_delete_slot{0};
  for (int m = 0; m < kMutators; ++m) {
    mutators.emplace_back([&, m] {
      for (int round = 0; round < 120; ++round) {
        Transaction txn = db_->Begin();
        const int op = (m + round) % 4;
        bool ok = true;
        if (op == 0) {
          auto vid = txn.InsertVertex("Item", {int64_t{round % 4}});
          ok = vid.ok() &&
               txn.SetEmbedding(*vid, "Item", "emb", Vec(3000 + round)).ok();
        } else if (op == 1) {
          ok = txn.SetEmbedding(vids_[(m * 97 + round) % 150], "Item", "emb",
                                Vec(4000 + round))
                   .ok();
        } else if (op == 2) {
          ok = txn.SetAttr(vids_[(m * 89 + round) % 150], "Item", "grp",
                           int64_t{(round + 1) % 4})
                   .ok();
        } else {
          // Each delete claims a distinct slot: no vid is deleted twice.
          const size_t slot = 150 + next_delete_slot.fetch_add(1) % 150;
          ok = txn.DeleteVertex(vids_[slot]).ok();
        }
        if (!ok || !txn.Commit().ok()) errors.fetch_add(1);
      }
    });
  }
  std::thread vacuum([&] {
    for (int i = 0; i < 6; ++i) {
      if (!db_->Vacuum().ok()) errors.fetch_add(1);
    }
  });
  for (auto& t : mutators) t.join();
  vacuum.join();
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);

  // Quiesced pass: the horizon cannot move now, so every comparison scores.
  GsqlSession cached(db_.get());
  GsqlSession bypass(db_.get());
  bypass.SetCacheBypass(true);
  int final_checks = 0;
  for (int i = 0; i < 8; ++i) {
    QueryParams params;
    params["qv"] = Vec(i * 37);
    ASSERT_TRUE(CompareSessions(&cached, &bypass, filtered, params, &errors));
    ASSERT_TRUE(CompareSessions(&cached, &bypass, pure, params, &errors));
    ASSERT_TRUE(CompareDirect(Vec(i * 37), &errors));
    final_checks += 3;
  }
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GE(checks.load() + final_checks, 24);
}

// HNSW cost accounting has one channel: every public call flushes its
// thread-local tally into the registry and the caller's active trace at
// once. Under concurrent searches each trace must hold exactly its own
// queries' cost, and the registry delta exactly the sum of all traces.
TEST(HnswCostAccountingTest, RegistryDeltaEqualsSumOfPerThreadTraces) {
  constexpr size_t kDim = 16;
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 40;
  HnswParams params;
  params.dim = kDim;
  params.m = 8;
  params.ef_construction = 64;
  params.max_elements = 1000;
  HnswIndex index(params);
  Rng rng(5);
  std::vector<float> v(kDim);
  for (uint64_t i = 0; i < params.max_elements; ++i) {
    for (float& x : v) x = rng.NextFloat();
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
  }
  auto run_queries = [&](int thread) {
    Rng qrng(100 + thread);
    std::vector<float> q(kDim);
    for (int i = 0; i < kQueriesPerThread; ++i) {
      for (float& x : q) x = qrng.NextFloat();
      // RangeSearch nests TopKSearch calls; neither may count twice.
      if (i % 4 == 3) {
        (void)index.RangeSearch(q.data(), 0.5f, 8, 32);
      } else {
        (void)index.TopKSearch(q.data(), 10, 64);
      }
    }
  };

  obs::Counter* evals =
      obs::MetricsRegistry::Global().GetCounter("tv.hnsw.distance_evals_total");
  obs::Counter* hops = obs::MetricsRegistry::Global().GetCounter("tv.hnsw.hops_total");
  const uint64_t evals0 = evals->Value();
  const uint64_t hops0 = hops->Value();
  std::vector<obs::QueryTrace> traces(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::ScopedTraceActivation activation(&traces[t]);
      run_queries(t);
    });
  }
  for (std::thread& th : threads) th.join();
  const uint64_t registry_evals = evals->Value() - evals0;
  const uint64_t registry_hops = hops->Value() - hops0;

  uint64_t trace_evals = 0;
  uint64_t trace_hops = 0;
  for (int t = 0; t < kThreads; ++t) {
    auto counters = traces[t].Counters();
    EXPECT_GT(counters["hnsw.distance_evals"], 0u);
    EXPECT_GT(counters["hnsw.hops"], 0u);
    trace_evals += counters["hnsw.distance_evals"];
    trace_hops += counters["hnsw.hops"];
    // Searches over a static index are deterministic, so a solo replay of
    // this thread's queries must record the very same cost: nothing leaked
    // in from the other threads.
    obs::QueryTrace replay;
    {
      obs::ScopedTraceActivation activation(&replay);
      run_queries(t);
    }
    EXPECT_EQ(replay.Counters(), counters) << "thread " << t;
  }
#if !defined(TIGERVECTOR_NO_METRICS)
  EXPECT_EQ(registry_evals, trace_evals);
  EXPECT_EQ(registry_hops, trace_hops);
#else
  (void)registry_evals;
  (void)registry_hops;
#endif
}

TEST(OpenLoopDriverTest, MeasuresFromSchedule) {
  // A 1ms query at a 100/s schedule should show ~1ms latency, not more.
  auto result = RunOpenLoop(2, 20, 200.0, [](size_t, size_t) {
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
    (void)x;
  });
  EXPECT_EQ(result.queries, 40u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GE(result.p99_ms, result.p50_ms);
}

TEST(OpenLoopDriverTest, ZeroRateFallsBackToClosedLoop) {
  std::atomic<int> count{0};
  auto result = RunOpenLoop(2, 10, 0.0, [&](size_t, size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(result.queries, 20u);
}

TEST(OpenLoopDriverTest, OverloadShowsQueueingDelay) {
  // Each query takes ~2ms but the schedule demands 5000/s: latency from
  // the schedule must blow up well past the service time (coordinated
  // omission would hide this).
  auto result = RunOpenLoop(1, 30, 5000.0, [](size_t, size_t) {
    volatile double x = 0;
    for (int i = 0; i < 300000; ++i) x = x + i;
    (void)x;
  });
  EXPECT_GT(result.p99_ms, result.p50_ms);
  EXPECT_GT(result.p99_ms, 1.0);
}

}  // namespace
}  // namespace tigervector
