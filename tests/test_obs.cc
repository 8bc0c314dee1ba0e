#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan_text.h"
#include "query/session.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tigervector {
namespace {

// ---------------- Counter ----------------

TEST(ObsCounterTest, AddAndReset) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("tv.test.counter");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->Value(), 42u);
  c->Reset();
  EXPECT_EQ(c->Value(), 0u);
}

TEST(ObsCounterTest, SameNameSamePointer) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("tv.test.same"), registry.GetCounter("tv.test.same"));
  EXPECT_NE(registry.GetCounter("tv.test.same"), registry.GetCounter("tv.test.other"));
}

TEST(ObsCounterTest, ConcurrentAddsAreExact) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("tv.test.hammer");
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 10000;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](size_t) {
    for (size_t i = 0; i < kPerTask; ++i) c->Increment();
  });
  EXPECT_EQ(c->Value(), kTasks * kPerTask);
}

// ---------------- Gauge ----------------

TEST(ObsGaugeTest, SetAndAdd) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetGauge("tv.test.gauge");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
}

// ---------------- Histogram ----------------

TEST(ObsHistogramTest, PercentilesOfKnownDistribution) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("tv.test.hist");
  // Uniform 1..1000 microseconds.
  for (int i = 1; i <= 1000; ++i) h->Observe(i * 1e-6);
  EXPECT_EQ(h->Count(), 1000u);
  EXPECT_NEAR(h->Sum(), 500.5e-3, 1e-4);
  // Power-of-two buckets with linear interpolation: within 20% of truth.
  EXPECT_NEAR(h->P50(), 500e-6, 100e-6);
  EXPECT_NEAR(h->P95(), 950e-6, 190e-6);
  EXPECT_NEAR(h->Quantile(0.99), 990e-6, 198e-6);
}

TEST(ObsHistogramTest, ConcurrentObservesKeepCount) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("tv.test.hammer_hist");
  constexpr size_t kTasks = 32;
  constexpr size_t kPerTask = 5000;
  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](size_t t) {
    for (size_t i = 0; i < kPerTask; ++i) h->Observe((t + 1) * 1e-6);
  });
  EXPECT_EQ(h->Count(), kTasks * kPerTask);
}

TEST(ObsHistogramTest, BucketBoundsArePowersOfTwoMicros) {
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(obs::Histogram::BucketUpperBound(10), 1024e-6);
  EXPECT_TRUE(std::isinf(
      obs::Histogram::BucketUpperBound(obs::Histogram::kNumBuckets - 1)));
}

// ---------------- Trace spans ----------------

#if !defined(TIGERVECTOR_NO_METRICS)

TEST(ObsTraceTest, SpanNestingDepthsAndNames) {
  obs::QueryTrace trace;
  {
    obs::ScopedTraceActivation activation(&trace);
    TV_SPAN("outer");
    {
      TV_SPAN("inner");
    }
  }
  auto spans = trace.Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes (and records) first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].micros, spans[0].micros);
}

#endif  // !TIGERVECTOR_NO_METRICS

TEST(ObsTraceTest, NoTraceNoRecording) {
  {
    TV_SPAN("dropped");
  }
  obs::QueryTrace trace;
  {
    obs::ScopedTraceActivation activation(&trace);
  }
  EXPECT_TRUE(trace.Spans().empty());
}

#if !defined(TIGERVECTOR_NO_METRICS)

TEST(ObsTraceTest, CrossThreadActivationJoinsSameTrace) {
  obs::QueryTrace trace;
  ThreadPool pool(4);
  {
    obs::ScopedTraceActivation activation(&trace);
    obs::QueryTrace* parent = obs::CurrentTrace();
    pool.ParallelFor(8, [&, parent](size_t) {
      obs::ScopedTraceActivation worker_activation(parent);
      TV_SPAN("worker.stage");
    });
  }
  const std::vector<obs::QueryTrace::Span> spans = trace.Spans();
  EXPECT_EQ(spans.size(), 8u);
  double micros = 0;
  for (const obs::QueryTrace::Span& span : spans) {
    EXPECT_EQ(span.name, "worker.stage");
    micros += span.micros;
  }
  EXPECT_GT(micros, 0.0);
}

#endif  // !TIGERVECTOR_NO_METRICS

// ---------------- Exposition formats ----------------

TEST(ObsRenderTest, PrometheusTextFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tv.test.requests_total")->Add(5);
  registry.GetGauge("tv.test.depth")->Set(-2);
  registry.GetHistogram("tv.test.latency_seconds")->Observe(3e-6);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE tv_test_requests_total counter\n"
                      "tv_test_requests_total 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tv_test_depth gauge\ntv_test_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tv_test_latency_seconds histogram\n"),
            std::string::npos);
  // 3 microseconds lands in the (2us, 4us] bucket; +Inf is mandatory.
  EXPECT_NE(text.find("tv_test_latency_seconds_bucket{le=\"4e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_test_latency_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_test_latency_seconds_sum 0.000003000\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_test_latency_seconds_count 1\n"), std::string::npos);
}

TEST(ObsRenderTest, LabeledCountersShareOneFamilyHeader) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tv.server.rejected_total{reason=inflight}")->Add(3);
  registry.GetCounter("tv.server.rejected_total{reason=conn_limit}")->Add(1);
  const std::string text = registry.RenderText();
  // Two label values, one family: the TYPE header must appear exactly once.
  const std::string header = "# TYPE tv_server_rejected_total counter\n";
  const size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  EXPECT_NE(text.find("tv_server_rejected_total{reason=\"conn_limit\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_server_rejected_total{reason=\"inflight\"} 3\n"),
            std::string::npos);
}

TEST(ObsRenderTest, MultiLabelNamesRenderAllPairsQuoted) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tv.net.errors_total{site=accept,kind=io}")->Add(2);
  const std::string text = registry.RenderText();
  EXPECT_NE(
      text.find("tv_net_errors_total{site=\"accept\",kind=\"io\"} 2\n"),
      std::string::npos);
}

TEST(ObsRenderTest, LabeledGaugeRendersLabelBlock) {
  obs::MetricsRegistry registry;
  registry.GetGauge("tv.server.inflight{port=7001}")->Set(4);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE tv_server_inflight gauge\n"), std::string::npos);
  EXPECT_NE(text.find("tv_server_inflight{port=\"7001\"} 4\n"),
            std::string::npos);
}

TEST(ObsRenderTest, LabeledHistogramMergesLeIntoLabelBlock) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("tv.server.latency_seconds{op=query}")->Observe(3e-6);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE tv_server_latency_seconds histogram\n"),
            std::string::npos);
  // `le` joins the existing label block instead of forming a second one.
  EXPECT_NE(text.find("tv_server_latency_seconds_bucket{op=\"query\","
                      "le=\"4e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_server_latency_seconds_bucket{op=\"query\","
                      "le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_server_latency_seconds_sum{op=\"query\"} "
                      "0.000003000\n"),
            std::string::npos);
  EXPECT_NE(text.find("tv_server_latency_seconds_count{op=\"query\"} 1\n"),
            std::string::npos);
}

TEST(ObsRenderTest, MalformedLabelBlockDegradesToSanitizedName) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tv.test.oddball{no-equals-sign}")->Add(1);
  const std::string text = registry.RenderText();
  // An unparseable label block must not produce invalid exposition output;
  // the whole name is sanitized into a plain literal instead.
  EXPECT_EQ(text.find("{no-equals-sign}"), std::string::npos);
  EXPECT_NE(text.find("tv_test_oddball_no_equals_sign_ 1\n"),
            std::string::npos);
}

TEST(ObsRenderTest, JsonSnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("tv.test.a")->Add(7);
  registry.GetHistogram("tv.test.b")->Observe(0.5);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"tv.test.a\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"tv.test.b\": {\"count\": 1"), std::string::npos);
}

TEST(ObsRenderTest, ResetValuesZeroesInPlace) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("tv.test.reset");
  c->Add(9);
  registry.ResetValues();
  EXPECT_EQ(c->Value(), 0u);
  // The pointer must stay valid (call sites cache it).
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
}

// ---------------- Logging satellites ----------------

TEST(ObsLoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("ERROR", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_FALSE(ParseLogLevel("chatty", &level));
}

// ---------------- PROFILE integration ----------------

class ObsProfileFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 32;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    session_ = std::make_unique<GsqlSession>(db_.get());
    auto ddl = session_->Run(
        "CREATE VERTEX Item (kind STRING);"
        "ALTER VERTEX Item ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 4,"
        " MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    Transaction txn = db_->Begin();
    for (int i = 0; i < 64; ++i) {
      auto vid = txn.InsertVertex("Item", {std::string("k")});
      ASSERT_TRUE(vid.ok());
      ASSERT_TRUE(txn.SetEmbedding(*vid, "Item", "emb",
                                   {static_cast<float>(i), 0, 0, 0})
                      .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
};

TEST_F(ObsProfileFixture, ProfileTopKReportsHnswSearchTime) {
  QueryParams params;
  params["qv"] = std::vector<float>{7, 0, 0, 0};
  auto result = session_->Run(
      "PROFILE R = SELECT s FROM (s:Item)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5; PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->prints.size(), 1u);
  EXPECT_EQ(result->prints[0].vertices.size(), 5u);
  // PROFILE renders the analyzed plan, then the run's stage table.
  const std::string& text = result->explain;
  EXPECT_TRUE(result->explained && result->analyzed);
  EXPECT_NE(text.find("EmbeddingAction[Top 5"), std::string::npos) << text;
  EXPECT_GT(PlanTextValue(text, "* hnsw_distance_evals:"), 0.0) << text;
  EXPECT_GT(PlanTextValue(text, "query.parse"), 0.0) << text;
  EXPECT_GT(PlanTextValue(text, "hnsw.distance_evals"), 0.0) << text;
#if !defined(TIGERVECTOR_NO_METRICS)
  EXPECT_GT(PlanTextValue(text, "hnsw.search"), 0.0) << text;
  EXPECT_GT(PlanTextValue(text, "query.execute"), 0.0) << text;
#endif
}

TEST_F(ObsProfileFixture, ProfileKeywordIsCaseInsensitiveAndOptional) {
  QueryParams params;
  params["qv"] = std::vector<float>{1, 0, 0, 0};
  auto lowered = session_->Run(
      "profile R = SELECT s FROM (s:Item)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2; PRINT R;",
      params);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  EXPECT_TRUE(lowered->analyzed);
  EXPECT_GE(PlanTextValue(lowered->explain, "query.parse"), 0.0) << lowered->explain;
  auto plain = session_->Run(
      "R = SELECT s FROM (s:Item)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 2; PRINT R;",
      params);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_FALSE(plain->explained);
  EXPECT_TRUE(plain->explain.empty());
}

#if !defined(TIGERVECTOR_NO_METRICS)

TEST_F(ObsProfileFixture, GlobalRegistryCoversSubsystems) {
  QueryParams params;
  params["qv"] = std::vector<float>{3, 0, 0, 0};
  auto result = session_->Run(
      "R = SELECT s FROM (s:Item)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 3; PRINT R;",
      params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = obs::MetricsRegistry::Global().RenderText();
  // Query, HNSW, vacuum, WAL, and graph metrics all flowed through the
  // fixture's load + vacuum + search.
  EXPECT_NE(text.find("tv_query_selects_total"), std::string::npos);
  EXPECT_NE(text.find("tv_query_vector_search_seconds"), std::string::npos);
  EXPECT_NE(text.find("tv_hnsw_distance_evals_total"), std::string::npos);
  EXPECT_NE(text.find("tv_hnsw_searches_total"), std::string::npos);
  EXPECT_NE(text.find("tv_vacuum_delta_merges_total"), std::string::npos);
  EXPECT_NE(text.find("tv_vacuum_index_merges_total"), std::string::npos);
  EXPECT_NE(text.find("tv_wal_appends_total"), std::string::npos);
  EXPECT_NE(text.find("tv_graph_commits_total"), std::string::npos);
}

#endif  // !TIGERVECTOR_NO_METRICS

}  // namespace
}  // namespace tigervector
