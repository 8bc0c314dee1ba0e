#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "embedding/embedding_segment.h"
#include "embedding/embedding_service.h"
#include "graph/transaction.h"
#include "util/thread_pool.h"

namespace tigervector {
namespace {

EmbeddingTypeInfo Info(size_t dim, const std::string& model = "M",
                       Metric metric = Metric::kL2) {
  EmbeddingTypeInfo info;
  info.dimension = dim;
  info.model = model;
  info.metric = metric;
  return info;
}

// ---------------- Embedding type compatibility ----------------

TEST(EmbeddingTypeTest, CompatibleWhenOnlyIndexDiffers) {
  EmbeddingTypeInfo a = Info(8);
  EmbeddingTypeInfo b = Info(8);
  b.index = VectorIndexType::kFlat;
  EXPECT_TRUE(CheckCompatible(a, b).ok());
}

TEST(EmbeddingTypeTest, DimensionMismatchRejected) {
  EXPECT_EQ(CheckCompatible(Info(8), Info(16)).code(), StatusCode::kIncompatible);
}

TEST(EmbeddingTypeTest, ModelMismatchRejected) {
  EXPECT_EQ(CheckCompatible(Info(8, "A"), Info(8, "B")).code(),
            StatusCode::kIncompatible);
}

TEST(EmbeddingTypeTest, MetricMismatchRejected) {
  EXPECT_EQ(CheckCompatible(Info(8, "M", Metric::kL2), Info(8, "M", Metric::kCosine))
                .code(),
            StatusCode::kIncompatible);
}

TEST(EmbeddingTypeTest, ToStringMentionsEverything) {
  EmbeddingTypeInfo info = Info(1024, "GPT4", Metric::kCosine);
  const std::string s = info.ToString();
  EXPECT_NE(s.find("1024"), std::string::npos);
  EXPECT_NE(s.find("GPT4"), std::string::npos);
  EXPECT_NE(s.find("HNSW"), std::string::npos);
  EXPECT_NE(s.find("COSINE"), std::string::npos);
}

// ---------------- EmbeddingSegment ----------------

class EmbeddingSegmentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HnswParams params;
    params.m = 8;
    params.ef_construction = 64;
    segment_ = std::make_unique<EmbeddingSegment>(0, 0, 256, Info(4), params);
  }

  std::vector<float> Vec(float a, float b = 0, float c = 0, float d = 0) {
    return {a, b, c, d};
  }

  Status Upsert(VertexId id, Tid tid, std::vector<float> v) {
    VectorDelta delta;
    delta.action = VectorDelta::Action::kUpsert;
    delta.id = id;
    delta.tid = tid;
    delta.value = std::move(v);
    return segment_->ApplyDelta(std::move(delta));
  }

  Status Delete(VertexId id, Tid tid) {
    VectorDelta delta;
    delta.action = VectorDelta::Action::kDelete;
    delta.id = id;
    delta.tid = tid;
    return segment_->ApplyDelta(std::move(delta));
  }

  EmbeddingSegment::SearchOptions Options(size_t k, Tid read_tid) {
    EmbeddingSegment::SearchOptions o;
    o.k = k;
    o.ef = 64;
    o.read_tid = read_tid;
    return o;
  }

  std::unique_ptr<EmbeddingSegment> segment_;
};

TEST_F(EmbeddingSegmentFixture, SearchServedFromDeltasBeforeMerge) {
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  ASSERT_TRUE(Upsert(2, 2, Vec(2)).ok());
  EXPECT_EQ(segment_->pending_delta_count(), 2u);
  EXPECT_EQ(segment_->index_size(), 0u);  // nothing merged yet
  float q[4] = {1, 0, 0, 0};
  auto out = segment_->TopKSearch(q, Options(1, /*read_tid=*/10));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].label, 1u);
  EXPECT_GT(out.delta_candidates, 0u);
}

TEST_F(EmbeddingSegmentFixture, MvccVisibilityByTid) {
  ASSERT_TRUE(Upsert(1, 5, Vec(1)).ok());
  float q[4] = {1, 0, 0, 0};
  EXPECT_TRUE(segment_->TopKSearch(q, Options(1, /*read_tid=*/4)).hits.empty());
  EXPECT_EQ(segment_->TopKSearch(q, Options(1, /*read_tid=*/5)).hits.size(), 1u);
}

TEST_F(EmbeddingSegmentFixture, DeltaDimensionValidated) {
  VectorDelta d;
  d.action = VectorDelta::Action::kUpsert;
  d.id = 1;
  d.tid = 1;
  d.value = {1, 2};  // wrong dim
  EXPECT_EQ(segment_->ApplyDelta(std::move(d)).code(), StatusCode::kInvalidArgument);
}

TEST_F(EmbeddingSegmentFixture, OutOfRangeIdRejected) {
  EXPECT_EQ(Upsert(9999, 1, Vec(1)).code(), StatusCode::kInvalidArgument);
}

TEST_F(EmbeddingSegmentFixture, TwoStageVacuumMovesDeltasIntoIndex) {
  for (VertexId i = 0; i < 20; ++i) {
    ASSERT_TRUE(Upsert(i, i + 1, Vec(static_cast<float>(i))).ok());
  }
  // Stage 1: seal in-memory deltas into a delta file.
  auto sealed = segment_->DeltaMerge(/*up_to_tid=*/20, /*dir=*/"");
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 20u);
  EXPECT_EQ(segment_->in_memory_delta_count(), 0u);
  EXPECT_EQ(segment_->sealed_file_count(), 1u);
  EXPECT_EQ(segment_->pending_delta_count(), 20u);  // still pending for search
  // Stage 2: fold the delta file into the index.
  ThreadPool pool(2);
  auto merged = segment_->IndexMerge(/*up_to_tid=*/20, &pool);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 20u);
  EXPECT_EQ(segment_->pending_delta_count(), 0u);
  EXPECT_EQ(segment_->index_size(), 20u);
  EXPECT_EQ(segment_->merged_tid(), 20u);
  // Search now served from the index.
  float q[4] = {7, 0, 0, 0};
  auto out = segment_->TopKSearch(q, Options(1, 100));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].label, 7u);
  EXPECT_EQ(out.delta_candidates, 0u);
}

TEST_F(EmbeddingSegmentFixture, PartialVacuumRespectsTidHorizon) {
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  ASSERT_TRUE(Upsert(2, 5, Vec(2)).ok());
  auto sealed = segment_->DeltaMerge(/*up_to_tid=*/3, "");
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 1u);  // only tid 1 sealed
  EXPECT_EQ(segment_->in_memory_delta_count(), 1u);
}

TEST_F(EmbeddingSegmentFixture, UpdateOverridesIndexValue) {
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  ThreadPool pool(2);
  ASSERT_TRUE(segment_->DeltaMerge(1, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(1, &pool).ok());
  // Now update id 1 to a far location; before merge the delta must win.
  ASSERT_TRUE(Upsert(1, 2, Vec(100)).ok());
  float q[4] = {1, 0, 0, 0};
  auto out = segment_->TopKSearch(q, Options(1, 10));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].label, 1u);
  // Distance reflects the NEW value (99^2), not the stale index value (0).
  EXPECT_GT(out.hits[0].distance, 9000.0f);
  // GetEmbedding also sees the new value.
  float buf[4];
  ASSERT_TRUE(segment_->GetEmbedding(1, 10, buf).ok());
  EXPECT_EQ(buf[0], 100.0f);
}

TEST_F(EmbeddingSegmentFixture, DeleteHidesFromSearchBeforeAndAfterMerge) {
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  ASSERT_TRUE(Upsert(2, 2, Vec(1.1f)).ok());
  ThreadPool pool(2);
  ASSERT_TRUE(segment_->DeltaMerge(2, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(2, &pool).ok());
  ASSERT_TRUE(Delete(1, 3).ok());
  float q[4] = {1, 0, 0, 0};
  // Before merge: pending delete overrides the index entry.
  auto out = segment_->TopKSearch(q, Options(2, 10));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].label, 2u);
  // After merge: tombstone in the index.
  ASSERT_TRUE(segment_->DeltaMerge(3, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(3, &pool).ok());
  out = segment_->TopKSearch(q, Options(2, 10));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_EQ(out.hits[0].label, 2u);
  float buf[4];
  EXPECT_EQ(segment_->GetEmbedding(1, 10, buf).code(), StatusCode::kNotFound);
}

TEST_F(EmbeddingSegmentFixture, RebuildIndexFoldsEverything) {
  for (VertexId i = 0; i < 10; ++i) {
    ASSERT_TRUE(Upsert(i, i + 1, Vec(static_cast<float>(i))).ok());
  }
  ASSERT_TRUE(Delete(3, 11).ok());
  ThreadPool pool(2);
  ASSERT_TRUE(segment_->RebuildIndex(&pool).ok());
  EXPECT_EQ(segment_->pending_delta_count(), 0u);
  EXPECT_EQ(segment_->index_size(), 9u);
  float q[4] = {3, 0, 0, 0};
  auto out = segment_->TopKSearch(q, Options(1, 100));
  ASSERT_EQ(out.hits.size(), 1u);
  EXPECT_NE(out.hits[0].label, 3u);
}

TEST_F(EmbeddingSegmentFixture, FilterBitmapAppliesAcrossIndexAndDeltas) {
  ThreadPool pool(2);
  for (VertexId i = 0; i < 10; ++i) {
    ASSERT_TRUE(Upsert(i, i + 1, Vec(static_cast<float>(i))).ok());
  }
  ASSERT_TRUE(segment_->DeltaMerge(5, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(5, &pool).ok());  // ids 0..4 in index
  Bitmap bm(256);
  bm.Set(2);
  bm.Set(7);  // one from index, one from deltas
  auto options = Options(10, 100);
  options.filter = FilterView(&bm);
  float q[4] = {0, 0, 0, 0};
  auto out = segment_->TopKSearch(q, options);
  std::set<uint64_t> labels;
  for (const auto& h : out.hits) labels.insert(h.label);
  EXPECT_EQ(labels, (std::set<uint64_t>{2, 7}));
}

TEST_F(EmbeddingSegmentFixture, BruteForceThresholdPath) {
  ThreadPool pool(2);
  for (VertexId i = 0; i < 50; ++i) {
    ASSERT_TRUE(Upsert(i, i + 1, Vec(static_cast<float>(i))).ok());
  }
  ASSERT_TRUE(segment_->DeltaMerge(100, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(100, &pool).ok());
  Bitmap bm(256);
  bm.Set(30);
  bm.Set(31);
  auto options = Options(2, 200);
  options.filter = FilterView(&bm);
  options.bruteforce_threshold = 10;  // 2 valid < 10 -> exact scan
  float q[4] = {30, 0, 0, 0};
  auto out = segment_->TopKSearch(q, options);
  EXPECT_TRUE(out.used_bruteforce);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_EQ(out.hits[0].label, 30u);
  // With threshold disabled the index path is used.
  options.bruteforce_threshold = 1;
  out = segment_->TopKSearch(q, options);
  EXPECT_FALSE(out.used_bruteforce);
}

TEST_F(EmbeddingSegmentFixture, RangeSearchCombinesIndexAndDeltas) {
  ThreadPool pool(2);
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  ASSERT_TRUE(Upsert(2, 2, Vec(2)).ok());
  ASSERT_TRUE(segment_->DeltaMerge(2, "").ok());
  ASSERT_TRUE(segment_->IndexMerge(2, &pool).ok());
  ASSERT_TRUE(Upsert(3, 3, Vec(1.5f)).ok());  // still a delta
  float q[4] = {1, 0, 0, 0};
  auto out = segment_->RangeSearch(q, /*threshold=*/0.5f, Options(10, 10));
  std::set<uint64_t> labels;
  for (const auto& h : out.hits) labels.insert(h.label);
  EXPECT_EQ(labels, (std::set<uint64_t>{1, 3}));
}

TEST_F(EmbeddingSegmentFixture, DeltaFileSaveLoadRoundTrip) {
  DeltaFile file;
  file.max_tid = 9;
  VectorDelta d1;
  d1.action = VectorDelta::Action::kUpsert;
  d1.id = 4;
  d1.tid = 8;
  d1.value = {1, 2, 3, 4};
  VectorDelta d2;
  d2.action = VectorDelta::Action::kDelete;
  d2.id = 5;
  d2.tid = 9;
  file.deltas = {d1, d2};
  const std::string path = ::testing::TempDir() + "/delta_roundtrip.bin";
  ASSERT_TRUE(file.Save(path).ok());
  auto loaded = DeltaFile::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->max_tid, 9u);
  ASSERT_EQ(loaded->deltas.size(), 2u);
  EXPECT_EQ(loaded->deltas[0].value, (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(loaded->deltas[1].action, VectorDelta::Action::kDelete);
  std::remove(path.c_str());
}

TEST_F(EmbeddingSegmentFixture, DeltaMergePersistsFileWhenDirGiven) {
  ASSERT_TRUE(Upsert(1, 1, Vec(1)).ok());
  auto sealed = segment_->DeltaMerge(1, ::testing::TempDir());
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 1u);
  // The file should exist and be loadable.
  const std::string path = ::testing::TempDir() + "/emb_seg0_tid1.delta";
  auto loaded = DeltaFile::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->deltas.size(), 1u);
  // IndexMerge retires (deletes) the file.
  ThreadPool pool(1);
  ASSERT_TRUE(segment_->IndexMerge(1, &pool).ok());
  EXPECT_FALSE(DeltaFile::Load(path).ok());
}

// ---------------- EmbeddingService on a GraphStore ----------------

class EmbeddingServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(schema_.CreateVertexType("Post", {{"lang", AttrType::kString}}).ok());
    ASSERT_TRUE(
        schema_.CreateVertexType("Comment", {{"lang", AttrType::kString}}).ok());
    ASSERT_TRUE(schema_.AddEmbeddingAttr("Post", "emb", Info(4)).ok());
    ASSERT_TRUE(schema_.AddEmbeddingAttr("Comment", "emb", Info(4)).ok());
    ASSERT_TRUE(schema_.AddEmbeddingAttr("Post", "other", Info(8, "OTHER")).ok());
    GraphStore::Options options;
    options.segment_capacity = 32;
    store_ = std::make_unique<GraphStore>(&schema_, options);
    EmbeddingService::Options eopts;
    eopts.index_params.m = 8;
    eopts.index_params.ef_construction = 64;
    service_ = std::make_unique<EmbeddingService>(store_.get(), eopts);
    store_->SetEmbeddingSink(service_.get());
    pool_ = std::make_unique<ThreadPool>(2);
  }

  VertexId AddPost(const std::string& lang, std::vector<float> emb) {
    Transaction txn(store_.get());
    auto vid = txn.InsertVertex("Post", {lang});
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(txn.SetEmbedding(*vid, "Post", "emb", std::move(emb)).ok());
    EXPECT_TRUE(txn.Commit().ok());
    return *vid;
  }

  Schema schema_;
  std::unique_ptr<GraphStore> store_;
  std::unique_ptr<EmbeddingService> service_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(EmbeddingServiceFixture, SearchAcrossSegmentsAndDeltas) {
  std::vector<VertexId> posts;
  for (int i = 0; i < 100; ++i) {
    posts.push_back(AddPost("en", {static_cast<float>(i), 0, 0, 0}));
  }
  EXPECT_GT(service_->NumEmbeddingSegments(), 1u);  // capacity 32 -> several
  std::vector<float> q = {42, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}};
  request.query = q.data();
  request.k = 3;
  request.ef = 64;
  request.pool = pool_.get();
  auto result = service_->TopKSearch(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hits.size(), 3u);
  EXPECT_EQ(result->hits[0].label, posts[42]);
}

TEST_F(EmbeddingServiceFixture, IncompatibleAttrsRejected) {
  AddPost("en", {1, 0, 0, 0});
  {
    // Populate 'other' so the attr state exists.
    Transaction txn(store_.get());
    auto vid = txn.InsertVertex("Post", {std::string("en")});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(
        txn.SetEmbedding(*vid, "Post", "other", std::vector<float>(8, 1.0f)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::vector<float> q = {1, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}, {"Post", "other"}};
  request.query = q.data();
  request.k = 1;
  auto result = service_->TopKSearch(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
}

TEST_F(EmbeddingServiceFixture, MultiTypeSearchWithSharedMetadata) {
  AddPost("en", {1, 0, 0, 0});
  {
    Transaction txn(store_.get());
    auto vid = txn.InsertVertex("Comment", {std::string("en")});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Comment", "emb",
                                 std::vector<float>{1.1f, 0, 0, 0})
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::vector<float> q = {1, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}, {"Comment", "emb"}};
  request.query = q.data();
  request.k = 2;
  auto result = service_->TopKSearch(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hits.size(), 2u);
}

TEST_F(EmbeddingServiceFixture, UnknownAttrFails) {
  std::vector<float> q = {1, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "missing"}};
  request.query = q.data();
  request.k = 1;
  EXPECT_FALSE(service_->TopKSearch(request).ok());
}

TEST_F(EmbeddingServiceFixture, WrongDimensionRejectedAtBufferTime) {
  Transaction txn(store_.get());
  auto vid = txn.InsertVertex("Post", {std::string("en")});
  ASSERT_TRUE(vid.ok());
  EXPECT_EQ(
      txn.SetEmbedding(*vid, "Post", "emb", std::vector<float>{1, 2}).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(EmbeddingServiceFixture, VacuumPipelineEndToEnd) {
  for (int i = 0; i < 50; ++i) {
    AddPost("en", {static_cast<float>(i), 0, 0, 0});
  }
  EXPECT_EQ(service_->TotalPendingDeltas(), 50u);
  auto sealed = service_->RunDeltaMerge();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, 50u);
  auto merged = service_->RunIndexMerge(pool_.get());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 50u);
  EXPECT_EQ(service_->TotalPendingDeltas(), 0u);
}

TEST_F(EmbeddingServiceFixture, DeleteVertexRemovesFromVectorSearch) {
  const VertexId a = AddPost("en", {1, 0, 0, 0});
  const VertexId b = AddPost("en", {1.1f, 0, 0, 0});
  (void)b;
  {
    Transaction txn(store_.get());
    ASSERT_TRUE(txn.DeleteVertex(a).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::vector<float> q = {1, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}};
  request.query = q.data();
  request.k = 5;
  auto result = service_->TopKSearch(request);
  ASSERT_TRUE(result.ok());
  for (const auto& h : result->hits) EXPECT_NE(h.label, a);
}

TEST_F(EmbeddingServiceFixture, GetEmbeddingLatestValue) {
  const VertexId a = AddPost("en", {1, 2, 3, 4});
  float buf[4];
  ASSERT_TRUE(service_->GetEmbedding("Post", "emb", a, buf).ok());
  EXPECT_EQ(buf[0], 1.0f);
  {
    Transaction txn(store_.get());
    ASSERT_TRUE(txn.SetEmbedding(a, "Post", "emb", {9, 9, 9, 9}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(service_->GetEmbedding("Post", "emb", a, buf).ok());
  EXPECT_EQ(buf[0], 9.0f);
}

// A reader pinned at an older horizon (a similarity join reading at its
// statement's snapshot) sees the embedding as of that horizon.
TEST_F(EmbeddingServiceFixture, GetEmbeddingAtReadTid) {
  const VertexId a = AddPost("en", {1, 2, 3, 4});
  const Tid first = store_->visible_tid();
  {
    Transaction txn(store_.get());
    ASSERT_TRUE(txn.SetEmbedding(a, "Post", "emb", {9, 9, 9, 9}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  float buf[4];
  ASSERT_TRUE(service_->GetEmbedding("Post", "emb", a, buf, first).ok());
  EXPECT_EQ(buf[0], 1.0f);
  ASSERT_TRUE(service_->GetEmbedding("Post", "emb", a, buf).ok());
  EXPECT_EQ(buf[0], 9.0f);
}

TEST_F(EmbeddingServiceFixture, AtomicGraphPlusVectorCommit) {
  // A transaction touching both a scalar attribute and an embedding becomes
  // visible atomically: before commit neither is observable.
  Transaction txn(store_.get());
  auto vid = txn.InsertVertex("Post", {std::string("de")});
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(txn.SetEmbedding(*vid, "Post", "emb", {5, 0, 0, 0}).ok());
  float buf[4];
  EXPECT_FALSE(service_->GetEmbedding("Post", "emb", *vid, buf).ok());
  EXPECT_FALSE(store_->IsVisible(*vid, store_->visible_tid()));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(store_->IsVisible(*vid, store_->visible_tid()));
  EXPECT_TRUE(service_->GetEmbedding("Post", "emb", *vid, buf).ok());
}

TEST_F(EmbeddingServiceFixture, DiskBackedDeltaFilesRoundTripThroughVacuum) {
  // Re-create the service with a delta directory: stage 1 persists files,
  // stage 2 retires them from disk.
  EmbeddingService::Options eopts;
  eopts.index_params.m = 8;
  eopts.delta_dir = ::testing::TempDir();
  EmbeddingService service(store_.get(), eopts);
  store_->SetEmbeddingSink(&service);
  for (int i = 0; i < 10; ++i) {
    AddPost("en", {static_cast<float>(i), 0, 0, 0});
  }
  auto sealed = service.RunDeltaMerge();
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  EXPECT_EQ(*sealed, 10u);
  // Files exist on disk for each touched segment.
  auto segments = service.SegmentsOf("Post", "emb");
  size_t files = 0;
  for (const auto* seg : segments) files += seg->sealed_file_count();
  EXPECT_GT(files, 0u);
  // Searches during the sealed-file window still see everything.
  std::vector<float> q = {7, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}};
  request.query = q.data();
  request.k = 1;
  auto result = service.TopKSearch(request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  auto merged = service.RunIndexMerge(pool_.get());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 10u);
  EXPECT_EQ(service.TotalPendingDeltas(), 0u);
  // Restore the fixture's sink for other tests.
  store_->SetEmbeddingSink(service_.get());
}

TEST_F(EmbeddingServiceFixture, IndexMergeWithoutDeltaMergeIsNoop) {
  AddPost("en", {1, 0, 0, 0});
  // Stage 2 without stage 1 has nothing sealed to fold.
  auto merged = service_->RunIndexMerge(pool_.get());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 0u);
  EXPECT_EQ(service_->TotalPendingDeltas(), 1u);
  ASSERT_TRUE(service_->RunDeltaMerge().ok());
  merged = service_->RunIndexMerge(pool_.get());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*merged, 1u);
}

TEST_F(EmbeddingServiceFixture, RangeSearchThroughService) {
  for (int i = 0; i < 20; ++i) {
    AddPost("en", {static_cast<float>(i), 0, 0, 0});
  }
  std::vector<float> q = {10, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}};
  request.query = q.data();
  request.k = 8;
  request.ef = 64;
  // Squared-L2 < 4.5 captures 9, 10, 11, 12 and 8 (distances 1,0,1,4,4).
  auto result = service_->RangeSearch(request, 4.5f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hits.size(), 5u);
  for (const auto& hit : result->hits) EXPECT_LT(hit.distance, 4.5f);
}

TEST_F(EmbeddingServiceFixture, SegmentSubsetRestrictsSearch) {
  std::vector<VertexId> posts;
  for (int i = 0; i < 100; ++i) {
    posts.push_back(AddPost("en", {static_cast<float>(i), 0, 0, 0}));
  }
  // Restrict to segment 0 (vids 0..31): searching for 42 must return
  // something from segment 0 instead.
  std::vector<SegmentId> subset = {0};
  std::vector<float> q = {42, 0, 0, 0};
  VectorSearchRequest request;
  request.attrs = {{"Post", "emb"}};
  request.query = q.data();
  request.k = 1;
  request.segment_subset = &subset;
  auto result = service_->TopKSearch(request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_LT(result->hits[0].label, 32u);
  EXPECT_EQ(result->segments_searched, 1u);
}

}  // namespace
}  // namespace tigervector
