// Micro-benchmarks (google-benchmark) of the networked serving layer:
// payload CRC throughput, frame + ScriptResult codec round-trips, loopback
// ping RTT, and the headline number — a top-k query via tv_client against
// the same query run in-process, which isolates the wire protocol's
// serialize/send/deserialize overhead from the search itself.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/database.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "query/session.h"
#include "server/tv_server.h"
#include "util/rng.h"

namespace tigervector {
namespace {

constexpr size_t kDim = 64;
constexpr size_t kDocs = 2000;

// One shared database + server for every benchmark in this binary; the
// fixtures below only differ in which side of the socket they exercise.
struct ServingHarness {
  ServingHarness() {
    Database::Options options;
    db = std::make_unique<Database>(options);
    GsqlSession boot(db.get());
    auto ddl = boot.Run(
        "CREATE VERTEX Doc (title STRING);"
        "CREATE EMBEDDING SPACE space1 (DIMENSION = " +
        std::to_string(kDim) +
        ", MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);"
        "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb IN EMBEDDING SPACE "
        "space1;");
    if (!ddl.ok()) std::abort();
    Rng rng(7);
    Transaction txn = db->Begin();
    for (size_t i = 0; i < kDocs; ++i) {
      auto vid = txn.InsertVertex("Doc", {"d" + std::to_string(i)});
      if (!vid.ok()) std::abort();
      std::vector<float> v(kDim);
      for (float& x : v) x = rng.NextFloat();
      if (!txn.SetEmbedding(*vid, "Doc", "emb", v).ok()) std::abort();
    }
    if (!txn.Commit().ok()) std::abort();
    if (!db->Vacuum().ok()) std::abort();

    server::ServerOptions so;
    so.port = 0;  // ephemeral
    server = std::make_unique<server::TvServer>(db.get(), so);
    if (!server->Start().ok()) std::abort();

    net::ClientOptions co;
    co.port = server->port();
    client = std::make_unique<net::TvClient>(co);

    query.assign(kDim, 0.5f);
    topk_script =
        "R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) "
        "LIMIT 10; PRINT R;";
  }
  ~ServingHarness() {
    client->Disconnect();
    server->Stop();
  }

  QueryParams Params() const {
    QueryParams p;
    p["qv"] = query;
    return p;
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<server::TvServer> server;
  std::unique_ptr<net::TvClient> client;
  std::vector<float> query;
  std::string topk_script;
};

ServingHarness& Harness() {
  static ServingHarness harness;
  return harness;
}

void BM_Crc32(benchmark::State& state) {
  const size_t bytes = state.range(0);
  std::string data(bytes, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_ScriptResultCodec(benchmark::State& state) {
  // A realistic top-k response: one print with a distance map of `n` hits.
  const size_t n = state.range(0);
  ScriptResult result;
  ScriptResult::Printed print;
  print.name = "R";
  print.is_distance_map = true;
  for (size_t i = 0; i < n; ++i) {
    print.vertices.push_back(i);
    print.distances[i] = 0.25f * static_cast<float>(i);
  }
  result.prints.push_back(print);
  for (auto _ : state) {
    const std::string payload = net::EncodeScriptResult(result);
    ScriptResult decoded;
    if (!net::DecodeScriptResult(payload, &decoded).ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScriptResultCodec)->Arg(10)->Arg(100)->Arg(1000);

void BM_LoopbackPing(benchmark::State& state) {
  auto& h = Harness();
  for (auto _ : state) {
    if (!h.client->Ping().ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoopbackPing);

void BM_TopKInProcess(benchmark::State& state) {
  auto& h = Harness();
  // The query cache stays enabled on both sides: after the first iteration
  // each run is a warm hit, so the over-wire number minus this one is the
  // wire protocol's cost alone, not search-time noise.
  GsqlSession session(h.db.get());
  const QueryParams params = h.Params();
  for (auto _ : state) {
    auto result = session.Run(h.topk_script, params);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(*result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopKInProcess);

void BM_TopKOverWire(benchmark::State& state) {
  auto& h = Harness();
  const QueryParams params = h.Params();
  net::RunOptions run;
  run.idempotent = true;
  for (auto _ : state) {
    auto result = h.client->Run(h.topk_script, params, run);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(*result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopKOverWire);

}  // namespace
}  // namespace tigervector

int main(int argc, char** argv) {
  // Consume --metrics-out / --slowlog-out before google-benchmark rejects
  // unknown flags.
  tigervector::bench::InitBench(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    if (std::strncmp(argv[i], "--slowlog-out=", 14) == 0) continue;
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
