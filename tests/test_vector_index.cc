#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "hnsw/flat_index.h"
#include "hnsw/hnsw_index.h"
#include "hnsw/ivf_index.h"
#include "query/session.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace tigervector {
namespace {

// The VectorIndex contract, run against every implementation (the paper's
// Sec. 4.4 claim: once the four generic functions exist, new index types
// integrate transparently).

enum class Impl { kHnsw, kFlat, kIvf };

std::unique_ptr<VectorIndex> MakeIndex(Impl impl, size_t dim, size_t capacity) {
  switch (impl) {
    case Impl::kHnsw: {
      HnswParams params;
      params.dim = dim;
      params.metric = Metric::kL2;
      params.m = 8;
      params.ef_construction = 64;
      params.max_elements = capacity;
      return std::make_unique<HnswIndex>(params);
    }
    case Impl::kFlat:
      return std::make_unique<FlatIndex>(dim, Metric::kL2);
    case Impl::kIvf: {
      IvfParams params;
      params.dim = dim;
      params.metric = Metric::kL2;
      params.nlist = 8;
      params.train_threshold = 64;
      return std::make_unique<IvfFlatIndex>(params);
    }
  }
  return nullptr;
}

class VectorIndexContract : public ::testing::TestWithParam<Impl> {
 protected:
  static constexpr size_t kDim = 8;

  void Fill(VectorIndex* index, size_t n) {
    Rng rng(71);
    data_.clear();
    for (size_t i = 0; i < n; ++i) {
      std::vector<float> v(kDim);
      for (float& x : v) x = rng.NextFloat() * 50.0f;
      ASSERT_TRUE(index->AddPoint(i, v.data()).ok());
      data_.push_back(std::move(v));
    }
  }

  std::vector<std::vector<float>> data_;
};

TEST_P(VectorIndexContract, SelfQueryTopOne) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 200);
  for (size_t i : {0u, 99u, 199u}) {
    auto hits = index->TopKSearch(data_[i].data(), 1, 64);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits[0].label, i);
    EXPECT_NEAR(hits[0].distance, 0.0f, 1e-4);
  }
}

TEST_P(VectorIndexContract, DeleteExcludesAndSizeTracks) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  EXPECT_EQ(index->size(), 100u);
  ASSERT_TRUE(index->MarkDeleted(42).ok());
  EXPECT_EQ(index->size(), 99u);
  EXPECT_TRUE(index->IsDeleted(42));
  auto hits = index->TopKSearch(data_[42].data(), 5, 64);
  for (const auto& h : hits) EXPECT_NE(h.label, 42u);
  EXPECT_EQ(index->MarkDeleted(424242).code(), StatusCode::kNotFound);
}

TEST_P(VectorIndexContract, UpsertMovesPoint) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  ASSERT_TRUE(index->AddPoint(5, data_[70].data()).ok());
  std::vector<float> out(kDim);
  ASSERT_TRUE(index->GetEmbedding(5, out.data()).ok());
  EXPECT_EQ(out, data_[70]);
  EXPECT_EQ(index->size(), 100u);  // upsert, not insert
}

TEST_P(VectorIndexContract, FilteredSearchHonorsBitmap) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 150);
  Bitmap bm(150);
  bm.Set(10);
  bm.Set(20);
  FilterView filter(&bm);
  auto hits = index->TopKSearch(data_[0].data(), 10, 256, filter);
  std::set<uint64_t> labels;
  for (const auto& h : hits) labels.insert(h.label);
  EXPECT_EQ(labels, (std::set<uint64_t>{10, 20}));
}

TEST_P(VectorIndexContract, UpdateItemsBatch) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 100);
  std::vector<VectorIndexUpdate> items;
  items.push_back({3, true, {}});
  items.push_back({200, false, data_[0]});
  items.push_back({9999, true, {}});  // delete of unknown label: no-op
  ASSERT_TRUE(index->UpdateItems(items, nullptr).ok());
  EXPECT_TRUE(index->IsDeleted(3));
  EXPECT_TRUE(index->Contains(200));
}

TEST_P(VectorIndexContract, RangeSearchReturnsOnlyWithinThreshold) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 150);
  auto exact = index->BruteForceSearch(data_[0].data(), 20);
  ASSERT_GE(exact.size(), 20u);
  const float threshold = exact[10].distance;
  auto hits = index->RangeSearch(data_[0].data(), threshold, 8, 256);
  for (const auto& h : hits) EXPECT_LT(h.distance, threshold);
  EXPECT_GE(hits.size() + 3, 10u);  // approximately the 10 within threshold
}

TEST_P(VectorIndexContract, LabelsMatchLiveSet) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 50);
  ASSERT_TRUE(index->MarkDeleted(7).ok());
  auto labels = index->Labels();
  EXPECT_EQ(labels.size(), 49u);
}

// Exact scans break distance ties by label, like the segment merge and the
// oracle: among equidistant points the lowest labels win.
TEST_P(VectorIndexContract, BruteForceTiesGoToLowestLabels) {
  auto index = MakeIndex(GetParam(), kDim, 16);
  const std::vector<float> v(kDim, 1.0f);
  for (uint64_t label = 10; label-- > 0;) {
    ASSERT_TRUE(index->AddPoint(label, v.data()).ok());
  }
  auto hits = index->BruteForceSearch(v.data(), 3);
  ASSERT_EQ(hits.size(), 3u);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].label, i);
}

// Index searches order and cut distance ties by label too, whatever order
// the index meets the tied rows in: a top-k is sorted by (distance, label)
// and is the k-prefix of the top-(k+10).
TEST_P(VectorIndexContract, TopKTiesCutByLabelAtEveryK) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 200);
  // Three copies of each of eight rows, labelled in descending order so the
  // insertion order disagrees with the label order.
  uint64_t label = 299;
  for (size_t row = 0; row < 200; row += 25) {
    for (int copy = 0; copy < 3; ++copy) {
      ASSERT_TRUE(index->AddPoint(label--, data_[row].data()).ok());
    }
  }
  for (size_t row = 0; row < 200; row += 25) {
    const std::vector<SearchHit> wide = index->TopKSearch(data_[row].data(), 14, 64);
    ASSERT_EQ(wide.size(), 14u);
    EXPECT_TRUE(std::is_sorted(wide.begin(), wide.end())) << "row " << row;
    for (size_t k = 1; k <= 4; ++k) {
      const std::vector<SearchHit> hits = index->TopKSearch(data_[row].data(), k, 64);
      ASSERT_EQ(hits.size(), k) << "row " << row;
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(hits[i].label, wide[i].label) << "row " << row << " k " << k;
        EXPECT_EQ(hits[i].distance, wide[i].distance) << "row " << row << " k " << k;
      }
    }
  }
}

TEST_P(VectorIndexContract, BruteForceWithZeroKIsEmpty) {
  auto index = MakeIndex(GetParam(), kDim, 300);
  Fill(index.get(), 200);
  EXPECT_TRUE(index->BruteForceSearch(data_[0].data(), 0).empty());
}

// Every exact scan honours the request deadline: under an already-fired
// token a scan that would return every row stops within one check interval.
TEST_P(VectorIndexContract, ExactScansStopAtFiredDeadline) {
  constexpr size_t kRows = 1000;
  auto index = MakeIndex(GetParam(), kDim, kRows);
  Fill(index.get(), kRows);
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
  ScopedCancel scope(&token);
  EXPECT_LT(index->BruteForceSearch(data_[0].data(), kRows).size(), kRows);
  // Squared L2 between rows of [0, 50)^kDim stays below kDim * 2500.
  EXPECT_LT(index->RangeSearch(data_[0].data(), 1e9f, 16, 64).size(), kRows);
  EXPECT_GT(token.checks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Impls, VectorIndexContract,
                         ::testing::Values(Impl::kHnsw, Impl::kFlat, Impl::kIvf),
                         [](const ::testing::TestParamInfo<Impl>& info) {
                           switch (info.param) {
                             case Impl::kHnsw: return "Hnsw";
                             case Impl::kFlat: return "Flat";
                             case Impl::kIvf: return "IvfFlat";
                           }
                           return "?";
                         });

// ---------------- IVF-specific behaviour ----------------

TEST(IvfFlatTest, TrainsAfterThresholdAndProbesScaleWithEf) {
  IvfParams params;
  params.dim = 4;
  params.nlist = 8;
  params.train_threshold = 32;
  IvfFlatIndex index(params);
  Rng rng(5);
  for (size_t i = 0; i < 64; ++i) {
    std::vector<float> v(4);
    for (float& x : v) x = rng.NextFloat();
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
  }
  EXPECT_TRUE(index.trained());
  EXPECT_EQ(index.NProbeFor(8), 1u);
  EXPECT_EQ(index.NProbeFor(64), 8u);
  EXPECT_EQ(index.NProbeFor(10000), 8u);  // clamped to nlist
}

TEST(IvfFlatTest, HighNprobeRecallBeatsLowNprobe) {
  IvfParams params;
  params.dim = 16;
  params.nlist = 16;
  params.train_threshold = 128;
  IvfFlatIndex index(params);
  FlatIndex exact(16, Metric::kL2);
  Rng rng(6);
  std::vector<std::vector<float>> data;
  for (size_t i = 0; i < 800; ++i) {
    std::vector<float> v(16);
    for (float& x : v) x = rng.NextFloat() * 10;
    ASSERT_TRUE(index.AddPoint(i, v.data()).ok());
    ASSERT_TRUE(exact.AddPoint(i, v.data()).ok());
    data.push_back(std::move(v));
  }
  std::vector<std::vector<float>> queries;
  for (size_t q = 0; q < 20; ++q) {
    std::vector<float> v(16);
    for (float& x : v) x = rng.NextFloat() * 10;
    queries.push_back(std::move(v));
  }
  auto recall_at_ef = [&](size_t ef) {
    double total = 0;
    for (const auto& query : queries) {
      auto got = index.TopKSearch(query.data(), 10, ef);
      auto want = exact.TopKSearch(query.data(), 10, 0);
      std::set<uint64_t> want_ids;
      for (const auto& h : want) want_ids.insert(h.label);
      size_t hit = 0;
      for (const auto& h : got) hit += want_ids.count(h.label);
      total += static_cast<double>(hit) / want.size();
    }
    return total / queries.size();
  };
  const double low = recall_at_ef(8);     // nprobe 1
  const double high = recall_at_ef(128);  // nprobe 16 (all lists = exact)
  EXPECT_GE(high, low);
  EXPECT_GT(high, 0.99);
}

// ---------------- End-to-end: FLAT index through GSQL ----------------

TEST(FlatThroughGsqlTest, FlatIndexAttributeWorksEndToEnd) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX Doc (title STRING);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = FLAT, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  for (int i = 0; i < 20; ++i) {
    Transaction txn = db.Begin();
    auto vid = txn.InsertVertex("Doc", {std::string("d") + std::to_string(i)});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb",
                                 {static_cast<float>(i), 0, 0, 0})
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(db.Vacuum().ok());
  // With an exact index, top-1 must be exact regardless of ef.
  QueryParams params;
  params["qv"] = std::vector<float>{7, 0, 0, 0};
  auto result = session.Run(
      "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1;"
      "PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], 7u);
  // Exercise the segment's reported index type.
  auto segments = db.embeddings()->SegmentsOf("Doc", "emb");
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments[0]->index()->index_type(), "FLAT");
}

TEST(FlatThroughGsqlTest, IvfIndexAttributeWorksEndToEnd) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX Doc (title STRING);"
      "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = IVF_FLAT, DATATYPE = FLOAT,"
      " METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Transaction txn = db.Begin();
  for (int i = 0; i < 30; ++i) {
    auto vid = txn.InsertVertex("Doc", {std::string("d")});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb",
                                 {static_cast<float>(i), 1, 2, 3})
                    .ok());
  }
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(db.Vacuum().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{12, 1, 2, 3};
  auto result = session.Run(
      "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1;"
      "PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints[0].vertices.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices[0], 12u);
  auto segments = db.embeddings()->SegmentsOf("Doc", "emb");
  ASSERT_FALSE(segments.empty());
  EXPECT_EQ(segments[0]->index()->index_type(), "IVF_FLAT");
}

// Compatibility check permits mixing FLAT and HNSW attributes in one
// search when the rest of the metadata matches (paper Sec. 4.1: "If all
// aspects of the vector metadata, except for the index type, are
// identical, the query is allowed").
TEST(FlatThroughGsqlTest, MixedIndexTypesSearchTogether) {
  Database db;
  GsqlSession session(&db);
  auto ddl = session.Run(
      "CREATE VERTEX A (x STRING); CREATE VERTEX B (x STRING);"
      "ALTER VERTEX A ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);"
      "ALTER VERTEX B ADD EMBEDDING ATTRIBUTE emb"
      " (DIMENSION = 4, MODEL = M, INDEX = FLAT, DATATYPE = FLOAT, METRIC = L2);");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  Transaction txn = db.Begin();
  auto a = txn.InsertVertex("A", {std::string("a")});
  auto b = txn.InsertVertex("B", {std::string("b")});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(txn.SetEmbedding(*a, "A", "emb", {1, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.SetEmbedding(*b, "B", "emb", {2, 0, 0, 0}).ok());
  ASSERT_TRUE(txn.Commit().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{1.4f, 0, 0, 0};
  auto result = session.Run(
      "R = VectorSearch({A.emb, B.emb}, $qv, 2); PRINT R;", params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->prints[0].vertices.size(), 2u);
}

}  // namespace
}  // namespace tigervector
