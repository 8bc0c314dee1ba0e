// Shared declarations of the end-to-end benchmark: workload corpora, the
// GSQL query streams clients send, the oracle that checks every answer, and
// the served database a run measures.
#ifndef TIGERVECTOR_PERFBENCH_BENCH_H_
#define TIGERVECTOR_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "query/session.h"
#include "server/tv_server.h"
#include "workload/snb.h"

namespace tigervector::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Quantile of an unsorted sample (nearest-rank on a sorted copy); 0 when
// the sample is empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }
// Arithmetic mean; 0 when the sample is empty.
double Mean(const std::vector<double>& values);

enum class WorkloadKind { kDocTopK, kHotTopK, kGraphHybrid, kIngestMixed };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  bool doc_corpus;  // Doc vertices with `category` vs the SNB-like graph
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

enum class Shape { kTopK, kFiltered, kPattern, kLanguage, kRange, kJoin };
const char* ShapeName(Shape shape);

// One GSQL request as a client sends it, plus what the oracle needs to
// judge the answer.
struct Query {
  Shape shape = Shape::kTopK;
  std::string script;
  QueryParams params;
  std::vector<float> qv;  // empty for joins
  int64_t category = -1;  // kFiltered
  size_t person = 0;      // kPattern / kJoin: index into Corpus::person_vids
  size_t language = 0;    // kLanguage
  double radius = 0;      // kRange
};

// Everything the benchmark generated (or, for the SNB graph, read back
// once after loading) that the oracle judges answers against. Embedding
// rows are the generated vectors, never vectors read from the engine.
struct Corpus {
  size_t dim = 0;
  std::string vtype;  // vertex type searched: Doc or Post
  std::string attr;   // embedding attribute searched
  // Rows of every searchable vertex, indexed by vid (empty row = no vector).
  std::vector<std::vector<float>> rows;
  std::vector<VertexId> searchable;  // vids with a row, in load order

  // Doc corpus.
  std::vector<int8_t> category;  // by vid; -1 = not a Doc
  // Per-vid category of Docs inserted by the writer. Written before the
  // inserting commit, so a reader that sees the vid also sees its category.
  std::unique_ptr<std::atomic<int8_t>[]> inserted_category;
  size_t inserted_capacity = 0;
  VertexId inserted_base = 0;

  // SNB graph.
  std::vector<VertexId> person_vids;
  std::vector<std::vector<size_t>> friends;       // person index -> person indexes
  std::vector<std::vector<VertexId>> posts_by;    // person index -> post vids
  std::vector<uint8_t> language;                  // by vid (posts only)
  double range_radius = 0;

  int64_t CategoryOf(VertexId vid) const;
  // Candidate posts of the pattern `(p) -knows- (:Person) <-hasCreator- (t)`.
  std::vector<VertexId> PatternCandidates(size_t person) const;
};

extern const char* const kLanguages[5];

// Generated inputs of one workload and seed.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::vector<float> base;     // Doc corpus rows, num_docs x dim
  std::vector<int8_t> base_category;
  std::vector<float> extra;    // rows the writer upserts/inserts
  std::vector<Query> hot_pool; // kHotTopK query pool
  std::vector<double> hot_cdf; // cumulative Zipf(1) weights over hot_pool
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// Deterministic stream of queries: (stream, index) -> query, so every
// client's sequence depends only on the seed.
class QueryStream {
 public:
  QueryStream(const Inputs& inputs, const Corpus& corpus, uint64_t stream)
      : inputs_(inputs), corpus_(corpus), stream_(stream) {}
  Query Next();

 private:
  const Inputs& inputs_;
  const Corpus& corpus_;
  uint64_t stream_;
  uint64_t index_ = 0;
};

// A database built from empty, loaded, vacuumed and served on loopback.
struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<server::TvServer> server;
  std::string wal_path;
  double load_s = 0;   // load commits
  double build_s = 0;  // setup Vacuum (index build)
  double setup_s = 0;  // empty Database -> serving
};

// Creates the workload's schema on an empty database.
Status CreateSchema(Database* db, const Inputs& inputs);
// Builds and serves one database; fills `corpus` when non-null.
Result<Served> Setup(const Inputs& inputs, const std::string& wal_path, Corpus* corpus);

// Exact answers and answer checks.
struct Verdict {
  bool ok = true;
  std::string why;
};
// Checks that `result` is a sound answer to `query`: status, result size,
// predicate, and (when `check_distances`) the reported distances.
Verdict CheckAnswer(const Corpus& corpus, const Query& query, const ScriptResult& result,
                    bool check_distances);
// Scores an answer against the exact answer over the generated rows:
// recall@10 for top-k shapes and joins, completeness for ranges. Returns
// false when the shape has no score.
bool ScoreAnswer(const Corpus& corpus, const Query& query, const ScriptResult& result,
                 double* recall, double* completeness);
// Corrupts copies of one answer per shape (a wrong distance, a hit outside
// the predicate or radius) and confirms CheckAnswer rejects every copy.
// Returns a description of the first corruption that slipped through.
std::string SelfCheck(const Corpus& corpus,
                      const std::vector<std::pair<Query, ScriptResult>>& answers);
float ExactDistance(const float* a, const float* b, size_t dim);
bool SameResult(const ScriptResult& a, const ScriptResult& b);

// Open-loop embedding writer: `commits` transactions of `batch` upserts
// at `rate` per second (80% overwrite existing vectors, 20% insert new
// vertices). Commit latency runs from each commit's scheduled time.
struct WriterStats {
  std::vector<double> latency_ms;  // scheduled time -> Commit() returned
  std::vector<double> commit_us;   // Commit() call alone
  double max_late_ms = 0;          // how far the generator fell behind
  size_t upserts = 0;
  size_t failed = 0;
  // Vids of acknowledged upserts, in acknowledgement order.
  std::vector<VertexId> acked;
};
struct WriterConfig {
  double rate = 0;
  size_t batch = 1;
  size_t max_commits = 0;
  const std::atomic<bool>* stop = nullptr;  // optional early stop
  uint64_t seed = 0;
};
WriterStats RunWriter(Database* db, const Inputs& inputs, Corpus* corpus,
                      const WriterConfig& config);

// Recovers a fresh database from `served`'s WAL and checks that the last
// `sample` acknowledged upserts read back bit-for-bit. Returns failures.
size_t CheckDurability(const Served& served, const Inputs& inputs, const Corpus& corpus,
                       const std::vector<VertexId>& acked, size_t sample,
                       std::string* why);

// Peak resident set size of this process so far, in MiB.
double PeakRssMiB();

// One reported number.
struct Measure {
  std::string name;
  double value;
  std::string unit;
};

// Values of the obs::MetricsRegistry counters and histogram sums the
// benchmark reads, so a phase's counts are the difference of two snapshots.
struct RegistrySnapshot {
  std::map<std::string, double> values;
  static RegistrySnapshot Take();
  double Delta(const RegistrySnapshot& before, const std::string& name) const;
};

// The traced replay: each sampled query is sent once through every layer's
// public entry point, in a shuffled order, and each call is recorded as a
// span. Spans are written to `spans_path` when the replay ends. Appends the
// per-layer timings to `metrics`; returns the number of parity failures
// (TvClient::Run vs GsqlSession::Run, cached vs bypassed).
size_t TracedReplay(Served& served, const Corpus& corpus, const std::vector<Query>& sample,
                    const std::string& spans_path, std::vector<Measure>* metrics,
                    std::string* why);

}  // namespace tigervector::perfbench

#endif  // TIGERVECTOR_PERFBENCH_BENCH_H_
