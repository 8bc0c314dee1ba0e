// End-to-end benchmark of TigerVector as a RAG retrieval layer.
//
// One run builds a workload's database from a seed, serves it with an
// in-process TvServer on an ephemeral loopback port, and drives it with
// closed-loop TvClient readers sending GSQL scripts (plus, on ingest_mixed,
// an open-loop writer and a vacuum thread). Every answer is checked against
// the generated data. With --trace 1 a separate traced replay times each
// layer's public entry points and the per-layer metrics are printed instead.
//
//   perfbench --workload doc_topk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "simd/distance.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tigervector::perfbench {
namespace {

constexpr int kReaders = 2;              // closed-loop reader connections
constexpr int kSetups = 3;               // setup_s is the median of these
constexpr size_t kSamplePerReader = 200; // answers scored for recall, per reader
constexpr size_t kReplaySample = 400;    // ingest_mixed: scored queries replayed after writes
constexpr size_t kTraceSample = 64;      // queries in the traced replay
constexpr size_t kWarmupQueries = 200;
constexpr size_t kDurabilitySample = 200;
// ingest_mixed writer and vacuum trigger.
constexpr double kIngestRate = 150;      // commits per second
constexpr size_t kWriteBatch = 1;        // upserts per commit
constexpr size_t kVacuumAt = 128;        // pending deltas that trigger Vacuum
// Other workloads: a quiet writer phase after the read window.
constexpr double kQuietRate = 100;
constexpr size_t kQuietCommits = 150;
constexpr size_t kQuietBatch = 128;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string build_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--build-id") {
      args->build_id = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && FindWorkload(args->workload) != nullptr && args->seconds > 0;
}

struct ReaderOut {
  std::vector<std::pair<double, double>> latency_ms;  // (sent at, latency), ms
  size_t attempted = 0;
  size_t failed = 0;
  std::string why;
  std::vector<std::pair<Query, ScriptResult>> samples;
};

// One closed-loop client: sends the next query only after the previous
// answer arrived, until the deadline.
void Reader(uint16_t port, const Inputs& inputs, const Corpus& corpus, uint64_t stream,
            Clock::time_point start, Clock::time_point deadline, bool check_distances,
            size_t sample_cap, ReaderOut* out) {
  net::ClientOptions options;
  options.port = port;
  net::TvClient client(options);
  net::RunOptions run;
  run.idempotent = true;
  QueryStream queries(inputs, corpus, stream);
  while (Clock::now() < deadline) {
    Query q = queries.Next();
    const Clock::time_point t0 = Clock::now();
    auto result = client.Run(q.script, q.params, run);
    out->latency_ms.emplace_back(std::chrono::duration<double, std::milli>(t0 - start).count(),
                                 SecondsSince(t0) * 1e3);
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
      out->why = std::string(ShapeName(q.shape)) + ": " + result.status().ToString();
      continue;
    }
    const Verdict verdict = CheckAnswer(corpus, q, *result, check_distances);
    if (!verdict.ok) {
      ++out->failed;
      out->why = std::string(ShapeName(q.shape)) + ": " + verdict.why;
    }
    if (out->samples.size() < sample_cap) out->samples.emplace_back(std::move(q), *result);
  }
  client.Disconnect();
}

struct VacuumStats {
  size_t pending_max = 0;
  std::vector<double> seconds;
  size_t failed = 0;
};

// Runs Database::Vacuum each time the pending-delta backlog crosses
// `threshold`.
void VacuumLoop(Database* db, size_t threshold, const std::atomic<bool>& stop,
                VacuumStats* out) {
  while (!stop.load(std::memory_order_relaxed)) {
    const size_t pending = db->embeddings()->TotalPendingDeltas();
    out->pending_max = std::max(out->pending_max, pending);
    if (pending < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    if (!db->Vacuum().ok()) ++out->failed;
    out->seconds.push_back(SecondsSince(t0));
  }
}

// p99 that a rare stall of the host cannot swing: with at least three
// chunks of 1000 samples (`all` is in sending order), the median of the
// chunks' p99s; otherwise the p99 of all samples.
double RobustP99(const std::vector<double>& all) {
  const size_t chunks = all.size() / 1000;
  if (chunks < 3) return Quantile(all, 0.99);
  std::vector<double> p99s;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * all.size() / chunks;
    const size_t end = (c + 1) * all.size() / chunks;
    const std::vector<double> chunk(all.begin() + begin, all.begin() + end);
    p99s.push_back(Quantile(chunk, 0.99));
  }
  return Median(p99s);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

namespace fs = std::filesystem;

// One run; scratch files go to `run_dir`, which the caller removes.
int RunBenchmark(const Args& args, const fs::path& run_dir) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const uint64_t seed = args.seed;
  const fs::path out_dir = ".bench_out";
  fs::create_directories(run_dir);
  fs::create_directories(out_dir);
  const std::string tag = std::string(spec.name) + "-seed" + std::to_string(seed);

  // Environment record; runs with a knob set are flagged as not comparable.
  std::string flagged;
  for (const char* knob : {"TV_CACHE", "TV_SIMD", "TV_QUANT", "TV_RERANK_FACTOR"}) {
    if (std::getenv(knob) == nullptr) continue;
    flagged += (flagged.empty() ? "" : ",") + std::string(knob);
  }
  std::ostringstream env;
  env << "{\"env\": {\"workload\": " << JsonString(spec.name) << ", \"seed\": " << seed
      << ", \"build_id\": " << JsonString(args.build_id)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": " << JsonString(simd::ActiveIsaName())
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"flagged_knobs\": " << JsonString(flagged) << "}}";
  std::printf("%s\n", env.str().c_str());
  if (!flagged.empty()) {
    std::fprintf(stderr, "warning: %s set; results are not comparable to default runs\n",
                 flagged.c_str());
  }

  // --- setup: the kept database, then more setups timed and discarded ---
  const Inputs inputs = MakeInputs(spec, seed);
  Corpus corpus;
  // Only ingest_mixed recovers from its WAL; the others log in memory, so
  // their commit latency carries no file-system writeback stalls.
  const bool ingest = spec.kind == WorkloadKind::kIngestMixed;
  auto wal_path = [&](int i) {
    return ingest ? (run_dir / ("wal" + std::to_string(i))).string() : std::string();
  };
  auto first = Setup(inputs, wal_path(0), &corpus);
  if (!first.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", first.status().ToString().c_str());
    return 1;
  }
  Served served = std::move(first).value();
  const double rss_mb = PeakRssMiB();
  std::vector<double> setup_s = {served.setup_s}, load_s = {served.load_s},
                      build_s = {served.build_s};
  for (int i = 1; i < kSetups; ++i) {
    const std::string wal = wal_path(i);
    auto extra = Setup(inputs, wal, nullptr);
    if (!extra.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", extra.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(extra->setup_s);
    load_s.push_back(extra->load_s);
    build_s.push_back(extra->build_s);
    extra->server->Stop();
    extra->db.reset();
    if (!wal.empty()) fs::remove(wal);
  }
  const uint16_t port = served.server->port();
  Database* db = served.db.get();

  // --- warm-up: every hot query once; otherwise a short untimed stream ---
  {
    net::ClientOptions options;
    options.port = port;
    net::TvClient client(options);
    if (spec.kind == WorkloadKind::kHotTopK) {
      for (const Query& q : inputs.hot_pool) (void)client.Run(q.script, q.params);
    } else {
      QueryStream warm(inputs, corpus, 90);
      for (size_t i = 0; i < kWarmupQueries; ++i) {
        const Query q = warm.Next();
        (void)client.Run(q.script, q.params);
      }
    }
  }

  // --- timed window ---
  const RegistrySnapshot before = RegistrySnapshot::Take();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<ReaderOut> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(Reader, port, std::cref(inputs), std::cref(corpus), 10 + r, start,
                         deadline,
                         /*check_distances=*/!ingest,
                         spec.kind == WorkloadKind::kDocTopK ||
                                 spec.kind == WorkloadKind::kGraphHybrid
                             ? kSamplePerReader
                             : 0,
                         &readers[r]);
  }
  std::atomic<bool> stop{false};
  WriterStats writer;
  VacuumStats vacuum;
  std::thread writer_thread, vacuum_thread;
  if (ingest) {
    WriterConfig config;
    config.rate = kIngestRate;
    config.batch = kWriteBatch;
    config.max_commits = static_cast<size_t>(kIngestRate * args.seconds) + 1;
    config.stop = &stop;
    config.seed = 7;
    writer_thread =
        std::thread([&, config] { writer = RunWriter(db, inputs, &corpus, config); });
    vacuum_thread = std::thread(VacuumLoop, db, kVacuumAt, std::cref(stop), &vacuum);
  }
  for (auto& t : threads) t.join();
  const double window_s = SecondsSince(start);
  stop = true;
  if (ingest) {
    writer_thread.join();
    vacuum_thread.join();
  }
  const RegistrySnapshot after = RegistrySnapshot::Take();

  size_t attempted = 0, failed = 0, completed = 0;
  std::string why;
  std::vector<std::pair<double, double>> sent_latency;
  std::vector<std::pair<Query, ScriptResult>> scored;
  for (ReaderOut& r : readers) {
    attempted += r.attempted;
    failed += r.failed;
    completed += r.attempted - r.failed;
    if (!r.why.empty()) why = r.why;
    sent_latency.insert(sent_latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    for (auto& s : r.samples) scored.push_back(std::move(s));
  }

  // Recall is scored on a fixed sample. ingest_mixed answers raced the
  // writer, so a sample is replayed once writes stop, against the final
  // acknowledged data; hot_topk replays each pool query once, so the sample
  // is not dominated by the few queries Zipf draws most.
  const bool hot = spec.kind == WorkloadKind::kHotTopK;
  if (ingest || hot) {
    net::ClientOptions options;
    options.port = port;
    net::TvClient client(options);
    QueryStream stream(inputs, corpus, 80);
    const size_t replay = hot ? inputs.hot_pool.size() : kReplaySample;
    for (size_t i = 0; i < replay; ++i) {
      Query q = hot ? inputs.hot_pool[i] : stream.Next();
      auto result = client.Run(q.script, q.params);
      ++attempted;
      if (!result.ok() || !CheckAnswer(corpus, q, *result, true).ok) {
        ++failed;
        why = "post-window replay: wrong or failed answer";
        continue;
      }
      scored.emplace_back(std::move(q), std::move(*result));
    }
  }
  std::vector<double> recalls, completeness;
  for (const auto& [q, result] : scored) {
    double rec = 0, comp = 0;
    if (!ScoreAnswer(corpus, q, result, &rec, &comp)) continue;
    if (q.shape == Shape::kRange) {
      completeness.push_back(comp);
    } else {
      recalls.push_back(rec);
    }
  }
  const std::string self_check = SelfCheck(corpus, scored);
  if (!self_check.empty()) why = self_check;

  std::vector<Measure> layers;
  if (args.trace) {
    std::vector<Query> sample;
    QueryStream stream(inputs, corpus, 70);
    for (size_t i = 0; i < kTraceSample; ++i) sample.push_back(stream.Next());
    std::string trace_why;
    // On its own thread, like the server's connection handlers, so local
    // and remote calls run on the same kind of allocator arena.
    size_t parity = 0;
    std::thread([&] {
      const std::string spans = (out_dir / (tag + "-spans.jsonl")).string();
      parity = TracedReplay(served, corpus, sample, spans, &layers, &trace_why);
    }).join();
    attempted += sample.size();
    failed += parity;
    if (parity > 0) why = trace_why;
  }

  // Commit latency: the ingest writer ran inside the window; elsewhere a
  // quiet writer phase runs now, after reads and checks are done.
  RegistrySnapshot write_before = before, write_after = after;
  if (!ingest) {
    WriterConfig config;
    config.rate = kQuietRate;
    config.batch = kQuietBatch;
    config.max_commits = kQuietCommits;
    config.seed = 8;
    write_before = RegistrySnapshot::Take();
    std::thread([&] { writer = RunWriter(db, inputs, &corpus, config); }).join();
    write_after = RegistrySnapshot::Take();
  }
  attempted += writer.latency_ms.size();
  failed += writer.failed;
  if (writer.failed > 0) why = "writer: commit failed";
  if (ingest) {
    std::string durability_why;
    const size_t lost =
        CheckDurability(served, inputs, corpus, writer.acked, kDurabilitySample,
                        &durability_why);
    attempted += std::min(kDurabilitySample, writer.acked.size());
    failed += lost;
    if (lost > 0) why = durability_why;
  }
  served.server->Stop();

  // --- report ---
  const double queries = static_cast<double>(std::max<size_t>(1, attempted));
  const double window_queries = static_cast<double>(std::max<size_t>(1, completed));
  std::sort(sent_latency.begin(), sent_latency.end());
  std::vector<double> latency;
  for (const auto& [at, ms] : sent_latency) latency.push_back(ms);
  const double p99 = RobustP99(latency);
  const double commit_p99 = RobustP99(writer.latency_ms);
  std::vector<Measure> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", static_cast<double>(completed) / window_s, "1/s"},
      {"p50_ms", Quantile(latency, 0.50), "ms"},
      {"recall_at_10", Mean(recalls), "ratio"},
      {"commit_p50_ms", Quantile(writer.latency_ms, 0.50), "ms"},
      {"rss_mb", rss_mb, "MiB"},
  };
  auto delta = [&](const char* name) { return after.Delta(before, name); };
  const double topk_lookups =
      delta("tv.cache.topk.hits_total") + delta("tv.cache.topk.misses_total");
  const double bitmap_lookups =
      delta("tv.cache.bitmap.hits_total") + delta("tv.cache.bitmap.misses_total");
  auto& registry = obs::MetricsRegistry::Global();
  const std::vector<Measure> counted = {
      {"p99_ms", p99, "ms"},
      {"net.bytes_per_query", delta("tv.net.bytes_sent_total") / window_queries, "bytes"},
      {"server.rejected",
       delta("tv.server.rejected_total{reason=inflight}") +
           delta("tv.server.rejected_total{reason=conn_limit}"),
       "count"},
      {"query.predicate_evals_per_query",
       delta("tv.query.predicate_evals_total") / window_queries, "count"},
      {"cache.topk_hit_ratio",
       topk_lookups > 0 ? delta("tv.cache.topk.hits_total") / topk_lookups : 0, "ratio"},
      {"cache.topk_lookups", topk_lookups, "count"},
      {"cache.bitmap_hit_ratio",
       bitmap_lookups > 0 ? delta("tv.cache.bitmap.hits_total") / bitmap_lookups : 0, "ratio"},
      {"cache.bitmap_lookups", bitmap_lookups, "count"},
      {"cache.bytes",
       static_cast<double>(registry.GetGauge("tv.cache.topk.bytes")->Value() +
                           registry.GetGauge("tv.cache.bitmap.bytes")->Value()),
       "bytes"},
      {"hnsw.dist_evals_per_query", delta("tv.hnsw.distance_evals_total") / window_queries,
       "count"},
      {"hnsw.hops_per_query", delta("tv.hnsw.hops_total") / window_queries, "count"},
      {"embedding.pending_deltas_max", static_cast<double>(vacuum.pending_max), "count"},
      {"embedding.vacuum_s_mean", Mean(vacuum.seconds), "s"},
      {"embedding.vacuum_s_max", Quantile(vacuum.seconds, 1.0), "s"},
      {"embedding.vacuum_cycles", static_cast<double>(vacuum.seconds.size()), "count"},
      {"embedding.index_merge_s", delta("tv.vacuum.index_merge_seconds"), "s"},
      {"embedding.index_build_s", Median(build_s), "s"},
      {"graph.load_s", Median(load_s), "s"},
      {"graph.commit_us", Median(writer.commit_us), "us"},
      {"graph.wal_bytes_per_upsert",
       write_after.Delta(write_before, "tv.wal.bytes_total") /
           static_cast<double>(std::max<size_t>(1, writer.upserts)),
       "bytes"},
      {"graph.writer_late_ms_max", writer.max_late_ms, "ms"},
      {"graph.commit_p99_ms", commit_p99, "ms"},
  };
  layers.insert(layers.begin(), counted.begin(), counted.end());

  const double error_frac = static_cast<double>(failed) / queries;
  std::printf("%-34s %14s  %s\n", "metric", "value", "unit");
  for (const Measure& m : e2e) {
    std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Printed for reading, not bounded in BENCHMARK.json: error_frac is 0 on a
  // healthy run, and p99s track how often the shared host preempts the
  // process more than they track the program.
  std::printf("%-34s %14.6g  %s\n", "p99_ms", p99, "ms");
  std::printf("%-34s %14.6g  %s\n", "commit_p99_ms", commit_p99, "ms");
  std::printf("%-34s %14.6g  %s\n", "error_frac", error_frac, "ratio");
  std::printf("# %zu latency samples; %zu recall samples; range completeness %.4f over %zu\n",
              latency.size(), recalls.size(), Mean(completeness), completeness.size());
  if (args.trace) {
    for (const Measure& m : layers) {
      std::printf("%-34s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!why.empty()) std::fprintf(stderr, "check failed: %s\n", why.c_str());

  const bool correct = failed == 0 && self_check.empty();
  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  const std::vector<Measure>& shown = args.trace ? layers : e2e;
  for (size_t i = 0; i < shown.size(); ++i) {
    result << (i ? ", " : "") << JsonString(shown[i].name) << ": {\"value\": "
           << JsonNumber(shown[i].value) << ", \"unit\": " << JsonString(shown[i].unit) << "}";
  }
  result << "}}";
  std::ofstream(out_dir / (tag + (args.trace ? "-trace" : "") + ".json"))
      << env.str() << "\n" << result.str() << "\n";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace tigervector::perfbench

int main(int argc, char** argv) {
  tigervector::perfbench::Args args;
  if (!tigervector::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload doc_topk|hot_topk|graph_hybrid|ingest_mixed"
                 " --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path run_dir =
      fs::path(".bench_run") /
      (args.workload + "-" + std::to_string(args.seed) + "-" + std::to_string(getpid()));
  const int rc = tigervector::perfbench::RunBenchmark(args, run_dir);
  fs::remove_all(run_dir);
  return rc;
}
