// The traced run: per-layer timings from spans recorded around calls into
// each module's public functions, and registry snapshots for counts.
#include <algorithm>
#include <fstream>
#include <functional>

#include "algo/traversal.h"
#include "bench.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "simd/distance.h"
#include "util/rng.h"

namespace tigervector::perfbench {

namespace {

// Registry names the benchmark reads (counters, then histogram sums).
const char* const kCounters[] = {
    "tv.net.bytes_sent_total",
    "tv.server.rejected_total{reason=inflight}",
    "tv.server.rejected_total{reason=conn_limit}",
    "tv.query.predicate_evals_total",
    "tv.cache.topk.hits_total",
    "tv.cache.topk.misses_total",
    "tv.cache.bitmap.hits_total",
    "tv.cache.bitmap.misses_total",
    "tv.hnsw.distance_evals_total",
    "tv.hnsw.hops_total",
    "tv.wal.bytes_total",
};
const char* const kHistogramSums[] = {"tv.vacuum.index_merge_seconds"};

struct Span {
  const char* layer;
  const char* parent;  // logical parent layer ("" for a root call)
  uint32_t qid;
  double start_us;
  double end_us;
};

bool SearchesVectors(Shape shape) {
  return shape == Shape::kTopK || shape == Shape::kFiltered || shape == Shape::kPattern ||
         shape == Shape::kLanguage;
}

// Candidate set the executor hands to the vector search, rebuilt from the
// oracle's view of the corpus (null = no filter).
std::unique_ptr<VertexSet> FilterOf(const Corpus& corpus, const Query& q) {
  if (q.shape == Shape::kTopK) return nullptr;
  auto set = std::make_unique<VertexSet>();
  if (q.shape == Shape::kPattern) {
    for (VertexId vid : corpus.PatternCandidates(q.person)) set->insert(vid);
    return set;
  }
  for (VertexId vid : corpus.searchable) {
    const bool keep = q.shape == Shape::kFiltered
                          ? corpus.CategoryOf(vid) == q.category
                          : vid < corpus.language.size() && corpus.language[vid] == q.language;
    if (keep) set->insert(vid);
  }
  return set;
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  auto& registry = obs::MetricsRegistry::Global();
  RegistrySnapshot snap;
  for (const char* name : kCounters) {
    snap.values[name] = static_cast<double>(registry.GetCounter(name)->Value());
  }
  for (const char* name : kHistogramSums) {
    snap.values[name] = registry.GetHistogram(name)->Sum();
  }
  return snap;
}

double RegistrySnapshot::Delta(const RegistrySnapshot& before, const std::string& name) const {
  auto after = values.find(name);
  auto prior = before.values.find(name);
  if (after == values.end() || prior == before.values.end()) return 0;
  return after->second - prior->second;
}

size_t TracedReplay(Served& served, const Corpus& corpus, const std::vector<Query>& sample,
                    const std::string& spans_path, std::vector<Measure>* metrics,
                    std::string* why) {
  Database* db = served.db.get();
  net::ClientOptions client_options;
  client_options.port = served.server->port();
  net::TvClient client(client_options);
  GsqlSession warm(db);
  GsqlSession cold(db);
  cold.SetCacheBypass(true);
  net::RunOptions run;
  run.idempotent = true;

  std::vector<Span> spans;
  spans.reserve(sample.size() * 16);
  const Clock::time_point origin = Clock::now();
  auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  auto timed = [&](const char* layer, const char* parent, uint32_t qid,
                   const std::function<void()>& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    spans.push_back({layer, parent, qid, micros(t0), micros(Clock::now())});
  };

  const std::vector<std::pair<std::string, std::string>> attrs = {{corpus.vtype, corpus.attr}};
  const auto segments = db->embeddings()->SegmentsOf(corpus.vtype, corpus.attr);
  const size_t bruteforce = db->embeddings()->options().bruteforce_threshold;
  size_t parity_failures = 0;
  std::vector<double> ping_us, candidates;

  for (uint32_t qid = 0; qid < sample.size(); ++qid) {
    const Query& q = sample[qid];
    const std::unique_ptr<VertexSet> filter_set = FilterOf(corpus, q);
    Bitmap filter_bitmap;
    FilterView filter;
    if (filter_set != nullptr) {
      filter_bitmap = VertexSetToBitmap(*filter_set, db->store()->vid_upper_bound());
      filter = FilterView(&filter_bitmap);
    }
    const Tid read_tid = db->store()->visible_tid();
    Result<ScriptResult> remote = Status::Internal("not run");
    Result<ScriptResult> local = Status::Internal("not run");
    Result<ScriptResult> bypassed = Status::Internal("not run");

    std::vector<std::function<void()>> calls;
    calls.push_back([&] {
      (void)client.Run(q.script, q.params, run);  // warms the server-side cache
      timed("net.client", "", qid, [&] { remote = client.Run(q.script, q.params, run); });
    });
    calls.push_back([&] {
      (void)warm.Run(q.script, q.params);
      timed("query.session_warm", "net.client", qid,
            [&] { local = warm.Run(q.script, q.params); });
    });
    calls.push_back([&] {
      timed("query.session_cold", "", qid, [&] { bypassed = cold.Run(q.script, q.params); });
    });
    calls.push_back([&] {
      timed("query.parse", "query.session_cold", qid, [&] { (void)ParseScript(q.script); });
    });
    calls.push_back([&] {
      const Clock::time_point t0 = Clock::now();
      const bool ok = client.Ping().ok();
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      if (ok) ping_us.push_back(us);
    });
    if (SearchesVectors(q.shape)) {
      Database::VectorSearchFnOptions options;
      options.filter = filter_set.get();
      calls.push_back([&, options]() mutable {
        options.bypass_cache = true;
        timed("core.vector_search", "query.session_cold", qid,
              [&] { (void)db->VectorSearch(attrs, q.qv, 10, options); });
      });
      calls.push_back([&, options]() mutable {
        options.bypass_cache = false;
        (void)db->VectorSearch(attrs, q.qv, 10, options);
        timed("core.vector_search_hit", "query.session_warm", qid,
              [&] { (void)db->VectorSearch(attrs, q.qv, 10, options); });
      });
      calls.push_back([&] {
        VectorSearchRequest request;
        request.attrs = attrs;
        request.query = q.qv.data();
        request.k = 10;
        request.filter = filter;
        request.read_tid = read_tid;
        request.pool = db->pool();
        timed("embedding.service", "core.vector_search", qid,
              [&] { (void)db->embeddings()->TopKSearch(request); });
      });
      calls.push_back([&] {
        EmbeddingSegment::SearchOptions options;
        options.k = 10;
        options.filter = filter;
        options.read_tid = read_tid;
        options.bruteforce_threshold = bruteforce;
        timed("embedding.segment", "embedding.service", qid, [&] {
          for (const EmbeddingSegment* segment : segments) {
            (void)segment->TopKSearch(q.qv.data(), options);
          }
        });
      });
      calls.push_back([&] {
        timed("hnsw.search", "embedding.segment", qid, [&] {
          for (const EmbeddingSegment* segment : segments) {
            (void)segment->index()->TopKSearch(q.qv.data(), 10, 64, filter);
          }
        });
      });
    }
    if (q.shape == Shape::kPattern || q.shape == Shape::kJoin) {
      calls.push_back([&] {
        const VertexSet seeds = {corpus.person_vids[q.person]};
        const std::vector<HopSpec> hops = {{"knows", Direction::kAny, "Person"},
                                           {"hasCreator", Direction::kIn, "Post"}};
        VertexSet found;
        timed("algo.expand", "query.session_cold", qid, [&] {
          found = ExpandPattern(*db->store(), seeds, hops, read_tid);
        });
        candidates.push_back(static_cast<double>(found.size()));
      });
    }
    // Shuffle the call order (seeded by the query id) so no layer always
    // runs right after the same neighbour, on caches or heap state it left.
    Rng order(qid + 1);
    for (size_t i = calls.size(); i > 1; --i) {
      std::swap(calls[i - 1], calls[order.NextBounded(i)]);
    }
    for (auto& call : calls) call();

    if (!remote.ok() || !local.ok() || !bypassed.ok() || !SameResult(*remote, *local) ||
        !SameResult(*local, *bypassed)) {
      ++parity_failures;
      *why = std::string("parity: ") + ShapeName(q.shape) +
             " differs between TvClient::Run, GsqlSession::Run and the bypassed session";
    }
  }

  // Distance kernel at the workload dimension, one pair at a time.
  std::vector<double> l2_ns;
  const size_t rows = std::min<size_t>(corpus.searchable.size(), 1024);
  volatile float sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const Clock::time_point t0 = Clock::now();
    size_t pairs = 0;
    for (size_t i = 0; i < rows; i += 8) {
      const float* a = corpus.rows[corpus.searchable[i]].data();
      for (size_t j = 0; j < rows; ++j) {
        const float* b = corpus.rows[corpus.searchable[j]].data();
        sink = sink + L2SquaredDistance(a, b, corpus.dim);
        ++pairs;
      }
    }
    l2_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                    static_cast<double>(pairs));
  }

  // Tracing overhead: the same queries on one connection in alternating
  // blocks, with and without a span recorded per call.
  std::vector<double> lat_traced, lat_plain;
  double busy_traced = 0, busy_plain = 0;
  std::vector<Span> overhead_spans;
  overhead_spans.reserve(sample.size() * 4);
  for (int round = 0; round < 4; ++round) {
    const bool traced = round % 2 == 1;
    for (uint32_t qid = 0; qid < sample.size(); ++qid) {
      const Query& q = sample[qid];
      const Clock::time_point t0 = Clock::now();
      (void)client.Run(q.script, q.params, run);
      const Clock::time_point t1 = Clock::now();
      if (traced) overhead_spans.push_back({"net.client", "", qid, micros(t0), micros(t1)});
      const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
      (traced ? lat_traced : lat_plain).push_back(us);
      (traced ? busy_traced : busy_plain) += us;
    }
  }

  std::ofstream out(spans_path);
  for (const Span& s : spans) {
    out << "{\"layer\":\"" << s.layer << "\",\"parent\":\"" << s.parent
        << "\",\"qid\":" << s.qid << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << "}\n";
  }

  // Median duration of one layer over the queries that passed `keep`.
  auto median = [&](const char* layer, const std::function<bool(const Query&)>& keep) {
    std::vector<double> d;
    for (const Span& s : spans) {
      if (std::string(s.layer) == layer && keep(sample[s.qid])) {
        d.push_back(s.end_us - s.start_us);
      }
    }
    return Median(d);
  };
  auto all = [](const Query&) { return true; };
  auto vec = [](const Query& q) { return SearchesVectors(q.shape); };
  const double client_us = median("net.client", all);
  const double warm_us = median("query.session_warm", all);
  const double cold_us = median("query.session_cold", all);
  const double service_us = median("embedding.service", vec);
  const double segment_us = median("embedding.segment", vec);
  const double hnsw_us = median("hnsw.search", vec);
  const double search_us = median("core.vector_search", vec);
  auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  add("net.ping_us", Median(ping_us), "us");
  add("net.wire_self_us", client_us - warm_us, "us");
  add("query.parse_us", median("query.parse", all), "us");
  add("query.session_warm_us", warm_us, "us");
  add("query.session_cold_us", cold_us, "us");
  add("query.executor_self_us",
      search_us > 0
          ? median("query.session_cold", vec) - median("query.parse", vec) - search_us
          : 0,
      "us");
  add("core.vector_search_us", search_us, "us");
  add("core.vector_search_hit_us", median("core.vector_search_hit", vec), "us");
  add("embedding.service_us", service_us, "us");
  add("embedding.fanout_self_us", service_us - segment_us, "us");
  add("embedding.segment_us", segment_us, "us");
  add("embedding.delta_overlay_us", segment_us - hnsw_us, "us");
  add("hnsw.search_us", hnsw_us, "us");
  add("simd.l2_ns", Median(l2_ns), "ns");
  add("algo.expand_us", median("algo.expand", all), "us");
  add("algo.candidates_per_query", Median(candidates), "count");
  add("trace.overhead_p50_ms", (Median(lat_traced) - Median(lat_plain)) / 1e3, "ms");
  add("trace.overhead_qps",
      static_cast<double>(lat_traced.size()) / (busy_traced / 1e6) -
          static_cast<double>(lat_plain.size()) / (busy_plain / 1e6),
      "1/s");
  return parity_failures;
}

}  // namespace tigervector::perfbench
