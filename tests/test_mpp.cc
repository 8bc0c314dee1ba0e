#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/database.h"
#include "mpp/cluster.h"
#include "obs/trace.h"
#include "util/io.h"

namespace tigervector {
namespace {

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 16;  // many segments
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    EmbeddingTypeInfo info;
    info.dimension = 4;
    info.model = "M";
    info.metric = Metric::kL2;
    ASSERT_TRUE(db_->schema()->CreateVertexType("Item", {}).ok());
    ASSERT_TRUE(db_->schema()->AddEmbeddingAttr("Item", "emb", info).ok());
    for (int i = 0; i < 200; ++i) {
      Transaction txn = db_->Begin();
      auto vid = txn.InsertVertex("Item", {});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Item", "emb",
                                   {static_cast<float>(i), 0, 0, 0})
                      .ok());
      ASSERT_TRUE(txn.Commit().ok());
      vids_.push_back(*vid);
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  VectorSearchRequest Request(const std::vector<float>& q, size_t k) {
    VectorSearchRequest r;
    r.attrs = {{"Item", "emb"}};
    r.query = q.data();
    r.k = k;
    r.ef = 64;
    return r;
  }

  std::unique_ptr<Database> db_;
  std::vector<VertexId> vids_;
};

TEST_F(ClusterFixture, ServerOfPartitionsRoundRobin) {
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1});
  EXPECT_EQ(cluster.num_servers(), 4u);
  EXPECT_EQ(cluster.ServerOf(0), 0u);
  EXPECT_EQ(cluster.ServerOf(5), 1u);
  EXPECT_EQ(cluster.ServerOf(7), 3u);
}

TEST_F(ClusterFixture, DistributedTopKMatchesSingleNode) {
  std::vector<float> q = {77, 0, 0, 0};
  auto single = db_->embeddings()->TopKSearch(Request(q, 5));
  ASSERT_TRUE(single.ok());
  for (size_t servers : {1u, 2u, 4u, 8u}) {
    Cluster cluster(db_->store(), db_->embeddings(), {servers, 2});
    obs::QueryTrace trace;
    Result<VectorSearchResult> dist = Status::Internal("not run");
    {
      obs::ScopedTraceActivation activation(&trace);
      dist = cluster.DistributedTopK(Request(q, 5));
    }
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    ASSERT_EQ(dist->hits.size(), single->hits.size()) << servers << " servers";
    for (size_t i = 0; i < dist->hits.size(); ++i) {
      EXPECT_EQ(dist->hits[i].label, single->hits[i].label);
    }
    // Every server owns a segment here, so each files one local-search span
    // beside the coordinator's merge.
    std::map<std::string, int> spans;
    for (const auto& span : trace.Spans()) ++spans[span.name];
    EXPECT_EQ(spans["cluster.merge"], 1);
    for (size_t server = 0; server < servers; ++server) {
      EXPECT_EQ(spans["cluster.server_" + std::to_string(server)], 1)
          << "server " << server << " of " << servers;
    }
  }
}

TEST_F(ClusterFixture, EverySegmentAssignedToExactlyOneServer) {
  Cluster cluster(db_->store(), db_->embeddings(), {3, 1});
  std::vector<float> q = {10, 0, 0, 0};
  auto dist = cluster.DistributedTopK(Request(q, 3));
  ASSERT_TRUE(dist.ok());
  // Sum of per-server searched segments equals the attr's segment count.
  EXPECT_EQ(dist->segments_searched,
            db_->embeddings()->SegmentsOf("Item", "emb").size());
}

TEST_F(ClusterFixture, DistributedRangeMatchesSingleNode) {
  std::vector<float> q = {50, 0, 0, 0};
  auto single = db_->embeddings()->RangeSearch(Request(q, 16), 10.0f);
  ASSERT_TRUE(single.ok());
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1});
  auto dist = cluster.DistributedRange(Request(q, 16), 10.0f);
  ASSERT_TRUE(dist.ok());
  std::set<uint64_t> a, b;
  for (const auto& h : single->hits) a.insert(h.label);
  for (const auto& h : dist->hits) b.insert(h.label);
  EXPECT_EQ(a, b);
}

TEST_F(ClusterFixture, FilteredDistributedSearch) {
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1});
  Bitmap bm(db_->store()->vid_upper_bound());
  bm.Set(vids_[3]);
  bm.Set(vids_[150]);
  std::vector<float> q = {0, 0, 0, 0};
  VectorSearchRequest request = Request(q, 10);
  request.filter = FilterView(&bm);
  auto dist = cluster.DistributedTopK(request);
  ASSERT_TRUE(dist.ok());
  std::set<uint64_t> labels;
  for (const auto& h : dist->hits) labels.insert(h.label);
  EXPECT_EQ(labels, (std::set<uint64_t>{vids_[3], vids_[150]}));
}

TEST_F(ClusterFixture, ReplicaSetLayout) {
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1, 2});
  auto replicas = cluster.ReplicaSetOf(6);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0], 2u);  // 6 % 4
  EXPECT_EQ(replicas[1], 3u);  // (6+1) % 4
  // Replication factor is clamped to the server count.
  Cluster tiny(db_->store(), db_->embeddings(), {2, 1, 8});
  EXPECT_EQ(tiny.ReplicaSetOf(0).size(), 2u);
}

TEST_F(ClusterFixture, FailoverToReplicaKeepsResultsIdentical) {
  std::vector<float> q = {123, 0, 0, 0};
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1, 2});
  auto before = cluster.DistributedTopK(Request(q, 5));
  ASSERT_TRUE(before.ok());
  cluster.SetServerUp(1, false);
  EXPECT_FALSE(cluster.server_up(1));
  auto after = cluster.DistributedTopK(Request(q, 5));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->hits.size(), before->hits.size());
  for (size_t i = 0; i < after->hits.size(); ++i) {
    EXPECT_EQ(after->hits[i].label, before->hits[i].label);
  }
  // Recovery restores routing.
  cluster.SetServerUp(1, true);
  EXPECT_TRUE(cluster.server_up(1));
}

TEST_F(ClusterFixture, NoReplicaMeansUnavailable) {
  std::vector<float> q = {5, 0, 0, 0};
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1, 1});  // RF=1
  cluster.SetServerUp(0, false);
  auto result = cluster.DistributedTopK(Request(q, 3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(ClusterFixture, DoubleFailureWithRf2StillUnavailable) {
  std::vector<float> q = {5, 0, 0, 0};
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1, 2});
  cluster.SetServerUp(0, false);
  cluster.SetServerUp(1, false);
  // Segment 0's replicas live on servers 0 and 1 -> unavailable.
  auto result = cluster.DistributedTopK(Request(q, 3));
  ASSERT_FALSE(result.ok());
}

TEST_F(ClusterFixture, ServerFaultMidFanOutSurfacesError) {
  // One server erroring mid scatter-gather must fail the whole query; a
  // silently merged short top-k would return plausible-but-wrong results.
  io::FaultInjector::Instance().Reset();
  Cluster cluster(db_->store(), db_->embeddings(), {4, 1});
  std::vector<float> q = {50, 0, 0, 0};
  auto baseline = cluster.DistributedTopK(Request(q, 5));
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->hits.size(), 5u);

  io::FaultInjector::Instance().Arm("mpp.server1.search",
                                    io::FaultSpec{io::FaultKind::kFailOpen, 0});
  auto faulted = cluster.DistributedTopK(Request(q, 5));
  ASSERT_FALSE(faulted.ok());
  EXPECT_GE(io::FaultInjector::Instance().triggered("mpp.server1.search"), 1u);

  // Recovery: disarming restores bit-identical answers.
  io::FaultInjector::Instance().Reset();
  auto after = cluster.DistributedTopK(Request(q, 5));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->hits.size(), baseline->hits.size());
  for (size_t i = 0; i < after->hits.size(); ++i) {
    EXPECT_EQ(after->hits[i].label, baseline->hits[i].label);
    EXPECT_EQ(after->hits[i].distance, baseline->hits[i].distance);
  }
}

TEST_F(ClusterFixture, DatabaseWithClusterOptionWiresUp) {
  Database::Options options;
  options.num_servers = 2;
  Database db(options);
  EXPECT_NE(db.cluster(), nullptr);
  EXPECT_EQ(db.cluster()->num_servers(), 2u);
  Database single;
  EXPECT_EQ(single.cluster(), nullptr);
}

}  // namespace
}  // namespace tigervector
