#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "algo/louvain.h"
#include "algo/traversal.h"
#include "core/database.h"
#include "workload/snb.h"

namespace tigervector {
namespace {

class AlgoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->schema()->CreateVertexType("Node", {{"x", AttrType::kInt}}).ok());
    ASSERT_TRUE(
        db_->schema()->CreateEdgeType("link", "Node", "Node", /*directed=*/false)
            .ok());
  }

  VertexId Add(int64_t x) {
    Transaction txn = db_->Begin();
    auto vid = txn.InsertVertex("Node", {x});
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(txn.Commit().ok());
    return *vid;
  }

  void Link(VertexId a, VertexId b) {
    Transaction txn = db_->Begin();
    ASSERT_TRUE(txn.InsertEdge("link", a, b).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(AlgoFixture, KHopNeighborhoodGrowsWithDepth) {
  // Chain: 0-1-2-3-4
  std::vector<VertexId> v;
  for (int i = 0; i < 5; ++i) v.push_back(Add(i));
  for (int i = 0; i + 1 < 5; ++i) Link(v[i], v[i + 1]);
  const Tid tid = db_->store()->visible_tid();
  auto h1 = KHopNeighborhood(*db_->store(), {v[0]}, "link", Direction::kAny, 1, tid);
  auto h2 = KHopNeighborhood(*db_->store(), {v[0]}, "link", Direction::kAny, 2, tid);
  auto h4 = KHopNeighborhood(*db_->store(), {v[0]}, "link", Direction::kAny, 4, tid);
  EXPECT_EQ(h1.size(), 2u);  // {0,1}
  EXPECT_EQ(h2.size(), 3u);
  EXPECT_EQ(h4.size(), 5u);
}

TEST_F(AlgoFixture, ExpandPatternFollowsHops) {
  // star: center connected to 3 leaves
  VertexId center = Add(0);
  VertexSet leaves;
  for (int i = 1; i <= 3; ++i) {
    VertexId leaf = Add(i);
    Link(center, leaf);
    leaves.insert(leaf);
  }
  const Tid tid = db_->store()->visible_tid();
  auto out = ExpandPattern(*db_->store(), {center},
                           {{"link", Direction::kAny, "Node"}}, tid);
  EXPECT_EQ(out, leaves);
  // Two hops from a leaf: back to leaves (through center).
  auto two = ExpandPattern(*db_->store(), {*leaves.begin()},
                           {{"link", Direction::kAny, ""},
                            {"link", Direction::kAny, ""}},
                           tid);
  EXPECT_EQ(two.size(), 3u);  // all leaves reachable via center
}

TEST_F(AlgoFixture, ExpandPatternUnknownEdgeTypeEmpty) {
  VertexId a = Add(0);
  auto out = ExpandPattern(*db_->store(), {a}, {{"nope", Direction::kAny, ""}},
                           db_->store()->visible_tid());
  EXPECT_TRUE(out.empty());
}

TEST_F(AlgoFixture, VertexSetToBitmapRoundTrip) {
  VertexSet set = {1, 5, 9};
  Bitmap bm = VertexSetToBitmap(set, 10);
  EXPECT_EQ(bm.Count(), 3u);
  EXPECT_TRUE(bm.Test(5));
  EXPECT_FALSE(bm.Test(2));
  // Out-of-bound ids are dropped.
  Bitmap bm2 = VertexSetToBitmap({3, 100}, 10);
  EXPECT_EQ(bm2.Count(), 1u);
}

// A CandidateSet answers exactly like the VertexSet it was converted from:
// membership, count and vid-order iteration across segment boundaries, the
// per-segment filter view, and no members in a segment created after it.
TEST(CandidateSetTest, MatchesVertexSetOracle) {
  Database::Options options;
  options.store.segment_capacity = 64;
  Database db(options);
  ASSERT_TRUE(db.schema()->CreateVertexType("Node", {{"x", AttrType::kInt}}).ok());
  auto add = [&] {
    Transaction txn = db.Begin();
    auto vid = txn.InsertVertex("Node", {int64_t{0}});
    EXPECT_TRUE(vid.ok());
    EXPECT_TRUE(txn.Commit().ok());
    return *vid;
  };
  for (int i = 0; i < 200; ++i) add();  // segments 0..3, the last one partial
  const VertexId upper = db.store()->vid_upper_bound();
  VertexSet oracle = {0, 63, 64, 127, 128, 191, 192, upper - 1};
  for (VertexId vid = 0; vid < upper; ++vid) {
    if (vid % 7 == 3 && vid / 64 != 2) oracle.insert(vid);  // segment 2: ends only
  }
  VertexSet with_stray = oracle;
  with_stray.insert(upper + 500);  // not a vertex yet: dropped
  const CandidateSet cand = VertexSetToCandidates(with_stray, *db.store());

  EXPECT_EQ(cand.Count(), oracle.size());
  for (VertexId vid = 0; vid < upper + 3 * 64; ++vid) {
    ASSERT_EQ(cand.Contains(vid), oracle.count(vid) > 0) << vid;
  }
  std::vector<VertexId> walked;
  cand.ForEach([&](VertexId vid) { walked.push_back(vid); });
  std::vector<VertexId> sorted(oracle.begin(), oracle.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(walked, sorted);
  EXPECT_EQ(CandidatesToVertexSet(cand), oracle);
  EXPECT_EQ(CandidatesToVertexSet(cand, 5),
            VertexSet(sorted.begin(), sorted.begin() + 5));

  // Narrowed to one segment, the view accepts that segment's members only.
  const FilterView all(&cand);
  for (VertexId base = 0; base < upper; base += 64) {
    const FilterView narrowed = all.ForSegment(base);
    ASSERT_NE(narrowed.bitmap(), nullptr);
    EXPECT_EQ(narrowed.bitmap()->Count(),
              static_cast<size_t>(std::count_if(
                  sorted.begin(), sorted.end(),
                  [&](VertexId vid) { return vid / 64 == base / 64; })));
    for (VertexId vid = 0; vid < upper; ++vid) {
      ASSERT_EQ(narrowed.Accepts(vid), vid / 64 == base / 64 && oracle.count(vid) > 0)
          << base << " " << vid;
    }
  }

  // A vertex in a segment created after the set was built is no candidate.
  VertexId late = 0;
  while (late / 64 < 5) late = add();
  EXPECT_GT(db.store()->NumSegments(), cand.num_segments());
  EXPECT_FALSE(cand.Contains(late));
  EXPECT_FALSE(all.Accepts(late));
  const FilterView late_view = all.ForSegment(late / 64 * 64);
  EXPECT_FALSE(late_view.Accepts(late));
  EXPECT_FALSE(late_view.accepts_all());
}

TEST_F(AlgoFixture, CollectVerticesOfType) {
  for (int i = 0; i < 7; ++i) Add(i);
  auto all = CollectVerticesOfType(*db_->store(), "Node",
                                   db_->store()->visible_tid());
  EXPECT_EQ(all.size(), 7u);
  EXPECT_TRUE(
      CollectVerticesOfType(*db_->store(), "Nope", db_->store()->visible_tid())
          .empty());
}

TEST_F(AlgoFixture, LouvainFindsPlantedCommunities) {
  // Two dense cliques joined by a single bridge edge.
  std::vector<VertexId> a, b;
  for (int i = 0; i < 8; ++i) a.push_back(Add(i));
  for (int i = 0; i < 8; ++i) b.push_back(Add(100 + i));
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      Link(a[i], a[j]);
      Link(b[i], b[j]);
    }
  }
  Link(a[0], b[0]);  // bridge
  auto result = RunLouvain(*db_->store(), "Node", "link");
  EXPECT_GE(result.num_communities, 2);
  // All of clique A in one community, all of clique B in another.
  const int ca = result.community[a[0]];
  const int cb = result.community[b[0]];
  EXPECT_NE(ca, cb);
  for (VertexId v : a) EXPECT_EQ(result.community[v], ca);
  for (VertexId v : b) EXPECT_EQ(result.community[v], cb);
  EXPECT_GT(result.modularity, 0.3);
}

TEST_F(AlgoFixture, LouvainSingletonGraph) {
  Add(1);
  auto result = RunLouvain(*db_->store(), "Node", "link");
  EXPECT_EQ(result.num_communities, 1);
}

TEST(AlgoSnbTest, LouvainRecoversSnbCommunityStructure) {
  Database db;
  SnbConfig config;
  config.num_persons = 200;
  config.communities = 4;
  config.posts_per_person = 1;
  config.comments_per_post = 0;
  config.embedding_dim = 8;
  ASSERT_TRUE(CreateSnbSchema(&db, config).ok());
  SnbStats stats;
  ASSERT_TRUE(LoadSnb(&db, config, &stats).ok());
  auto result = RunLouvain(*db.store(), "Person", "knows");
  // The generator plants 4 community blocks with 90% intra-community
  // edges; Louvain should find a clearly modular partition.
  EXPECT_GE(result.num_communities, 3);
  EXPECT_LE(result.num_communities, 12);
  EXPECT_GT(result.modularity, 0.4);
}

}  // namespace
}  // namespace tigervector
