#include "testing/fuzz_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/database.h"
#include "graph/transaction.h"
#include "query/session.h"
#include "testing/oracle.h"
#include "util/io.h"
#include "util/rng.h"

namespace tigervector {
namespace testing {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Op tape
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t {
  kInsert = 0,
  kSetEmb,
  kSetAttr,
  kDelEmb,
  kDelVertex,
  kAddEdge,
  kDelEdge,
  kDeltaMerge,
  kIndexMerge,
  kQuery,
  kCrash,
};

const char* OpName(OpKind k) {
  switch (k) {
    case OpKind::kInsert: return "insert";
    case OpKind::kSetEmb: return "set-emb";
    case OpKind::kSetAttr: return "set-attr";
    case OpKind::kDelEmb: return "del-emb";
    case OpKind::kDelVertex: return "del-vertex";
    case OpKind::kAddEdge: return "add-edge";
    case OpKind::kDelEdge: return "del-edge";
    case OpKind::kDeltaMerge: return "delta-merge";
    case OpKind::kIndexMerge: return "index-merge";
    case OpKind::kQuery: return "query";
    case OpKind::kCrash: return "crash";
  }
  return "?";
}

// Each op carries its own sub-seed so skipping an op (during shrinking)
// leaves every other op's behavior byte-identical.
struct FuzzOp {
  OpKind kind;
  uint64_t seed;
};

// Scalar predicate subset the generator emits; evaluated both by the GSQL
// executor (from the rendered text) and by the harness over the golden model.
struct Pred {
  enum class Kind { kNone, kIntLt, kIntGe, kLangEq } kind = Kind::kNone;
  int64_t c = 0;
  std::string lang;

  bool Eval(const GoldenVertex& v) const {
    switch (kind) {
      case Kind::kNone: return true;
      case Kind::kIntLt: {
        auto it = v.attrs.find("a");
        return it != v.attrs.end() && std::get<int64_t>(it->second) < c;
      }
      case Kind::kIntGe: {
        auto it = v.attrs.find("a");
        return it != v.attrs.end() && std::get<int64_t>(it->second) >= c;
      }
      case Kind::kLangEq: {
        auto it = v.attrs.find("lang");
        return it != v.attrs.end() && std::get<std::string>(it->second) == lang;
      }
    }
    return true;
  }

  std::string ToGsql(const std::string& alias) const {
    switch (kind) {
      case Kind::kNone: return "";
      case Kind::kIntLt: return alias + ".a < " + std::to_string(c);
      case Kind::kIntGe: return alias + ".a >= " + std::to_string(c);
      case Kind::kLangEq: return alias + ".lang = \"" + lang + "\"";
    }
    return "";
  }
};

const char* kLangs[] = {"en", "fr", "de"};

std::string JoinIndices(const std::vector<size_t>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out;
}

// A vertex-scoped mutation attempted while a fault was armed. The commit
// failed, so after crash/recovery the vertex must be in exactly one of two
// states: `before` (the append never became durable) or `after` (the record
// was durable — e.g. a post-write fsync failure — and WAL replay applied it).
struct UncertainMutation {
  VertexId vid = 0;
  bool existed_before = false;
  GoldenVertex before;
  bool attempted_delete = false;
  GoldenVertex after;
};

// ---------------------------------------------------------------------------
// One fuzz case
// ---------------------------------------------------------------------------

class FuzzCase {
 public:
  explicit FuzzCase(const FuzzOptions& options) : opts_(options) {}

  FuzzCaseResult Run();

 private:
  // --- scenario / lifecycle ---
  void DeriveScenario();
  std::vector<FuzzOp> BuildTape();
  Database::Options MakeDbOptions() const;
  Status DefineSchema(Database* db) const;
  bool OpenDatabase();

  // --- op handlers (return false once a failure is recorded) ---
  bool Dispatch(const FuzzOp& op);
  bool DoInsert(Rng& r);
  bool DoSetEmb(Rng& r);
  bool DoSetAttr(Rng& r);
  bool DoDelEmb(Rng& r);
  bool DoDelVertex(Rng& r);
  bool DoAddEdge(Rng& r);
  bool DoDelEdge(Rng& r);
  bool DoDeltaMerge();
  bool DoIndexMerge(Rng& r);
  bool DoQuery(Rng& r);
  bool DoCrash(Rng& r);
  bool VerifySq8RecoveryStability(Rng& r);

  // --- query shapes ---
  bool QueryPlainGraph(Rng& r, const std::vector<float>& qv);
  bool QueryPureTopK(Rng& r, const std::vector<float>& qv);
  bool QueryRange(Rng& r, const std::vector<float>& qv);
  bool QueryFilteredTopK(Rng& r, const std::vector<float>& qv);
  bool QueryHybridPattern(Rng& r, const std::vector<float>& qv);
  bool QueryVectorSearchFn(Rng& r, const std::vector<float>& qv);
  bool QuerySimilarityJoin(Rng& r);

  // --- checks ---
  struct QueryRun {
    std::vector<VertexId> vids;  // sorted by the session's PRINT
    std::unordered_map<VertexId, float> distances;
  };
  bool RunSelect(const std::string& script, const QueryParams& params,
                 bool want_distances, QueryRun* out);
  // Cache differential for VectorSearch() scripts that PRINT the result set
  // and distance map: reruns with the cache bypassed and compares both
  // prints bit-for-bit against `run`.
  bool CacheDiffVectorSearch(const std::string& script, const QueryParams& params,
                             const QueryRun& run);
  bool CheckSoundness(const std::string& script, const QueryRun& run,
                      const std::string& type, const std::vector<float>& qv,
                      const VertexSet* candidates);
  bool CheckExactTopK(const std::string& script, const QueryRun& run,
                      const std::vector<OracleHit>& oracle_full, size_t k);
  bool CheckRecallTopK(const std::string& script, const QueryRun& run,
                       const std::vector<OracleHit>& oracle_full, size_t k);
  bool CheckRange(const std::string& script, const QueryRun& run,
                  const std::vector<OracleHit>& oracle_full, float threshold,
                  bool exact);
  bool CheckMpp(const std::string& label, const std::string& type,
                const std::vector<float>& qv, size_t k, const VertexSet* candidates,
                bool is_range, float threshold);
  bool VerifyModel(const char* context);

  // --- helpers ---
  bool Fail(const std::string& kind, const std::string& detail,
            const std::string& script = "");
  std::vector<float> RandVec(Rng& r) const;
  std::vector<float> RandStoredVec(Rng& r) const;
  VertexId PickLive(Rng& r, const std::string& type) const;
  std::string PickType(Rng& r) const { return r.NextBounded(2) == 0 ? "T0" : "T1"; }
  Pred RandPred(Rng& r) const;
  VertexSet CandOfType(const std::string& type, const Pred& pred) const;
  // Midpoint between consecutive oracle distances around `idx`, so float
  // noise at the boundary cannot flip membership.
  static float MidpointThreshold(const std::vector<OracleHit>& sorted, size_t idx);

  bool exact_filtered() const { return bruteforce_threshold_ > 32; }
  // Whether a filtered/brute-forced top-k must equal the oracle exactly.
  // Under --sq8 even the brute-force tier ranks its candidate pool on int8
  // codes before the exact rerank, so completeness is a recall bound there
  // too; soundness (type, filter, distance correctness) stays exact.
  bool exact_answers() const { return exact_filtered() && !opts_.sq8; }

  FuzzOptions opts_;
  std::string dir_;

  // Scenario constants derived from the seed.
  size_t dim_ = 4;
  Metric metric_ = Metric::kL2;
  size_t bruteforce_threshold_ = 1;
  bool wal_sync_ = false;

  std::unique_ptr<Database> db_;
  std::unique_ptr<GsqlSession> session_;
  GoldenModel model_;
  FuzzStats stats_;
  std::optional<FuzzFailure> failure_;
  size_t cur_op_ = 0;
  bool snapshot_saved_ = false;
};

// ---------------------------------------------------------------------------
// Scenario & lifecycle
// ---------------------------------------------------------------------------

void FuzzCase::DeriveScenario() {
  Rng r(opts_.seed ^ 0xa5c1e9d2b7f30461ULL);
  dim_ = r.NextBounded(2) == 0 ? 4 : 8;
  metric_ = r.NextBounded(2) == 0 ? Metric::kL2 : Metric::kCosine;
  // Two oracle tiers. 64 > segment capacity (32), so every *filtered*
  // search brute-forces and must match the oracle exactly; 1 keeps the
  // HNSW path hot, where soundness stays exact and completeness is a
  // recall bound.
  bruteforce_threshold_ = r.NextBounded(2) == 0 ? 64 : 1;
  wal_sync_ = r.NextBounded(2) == 0;
}

std::vector<FuzzOp> FuzzCase::BuildTape() {
  Rng r(opts_.seed);
  std::vector<FuzzOp> tape;
  tape.reserve(opts_.ops);
  const size_t warmup = std::min<size_t>(opts_.ops / 3, 48);
  struct Weighted {
    OpKind kind;
    uint32_t weight;
  };
  const Weighted weights[] = {
      {OpKind::kInsert, 14}, {OpKind::kSetEmb, 8},     {OpKind::kSetAttr, 8},
      {OpKind::kDelEmb, 3},  {OpKind::kDelVertex, 5},  {OpKind::kAddEdge, 10},
      {OpKind::kDelEdge, 3}, {OpKind::kDeltaMerge, 3}, {OpKind::kIndexMerge, 2},
      {OpKind::kQuery, 30},  {OpKind::kCrash, opts_.with_faults ? 3u : 0u},
  };
  uint32_t total = 0;
  for (const Weighted& w : weights) total += w.weight;
  for (size_t i = 0; i < opts_.ops; ++i) {
    OpKind kind = OpKind::kInsert;
    if (i >= warmup) {
      uint32_t pick = static_cast<uint32_t>(r.NextBounded(total));
      for (const Weighted& w : weights) {
        if (pick < w.weight) {
          kind = w.kind;
          break;
        }
        pick -= w.weight;
      }
    }
    tape.push_back(FuzzOp{kind, r.Next64()});
  }
  return tape;
}

Database::Options FuzzCase::MakeDbOptions() const {
  Database::Options options;
  options.store.segment_capacity = 32;  // several graph + embedding segments
  options.store.wal_path = dir_ + "/wal.log";
  options.store.wal_sync = wal_sync_;
  options.embeddings.delta_dir = dir_;
  options.embeddings.index_params.m = 8;
  options.embeddings.index_params.ef_construction = 48;
  options.embeddings.bruteforce_threshold = bruteforce_threshold_;
  options.num_threads = 2;
  if (opts_.with_mpp) {
    options.num_servers = 3;
    options.threads_per_server = 1;
  }
  return options;
}

Status FuzzCase::DefineSchema(Database* db) const {
  EmbeddingTypeInfo info;
  info.dimension = dim_;
  info.model = "M";
  info.metric = metric_;
  // Pin the quant choice in the schema (not TV_QUANT) so an --sq8 sweep is
  // reproducible regardless of the environment the fuzzer runs under.
  if (opts_.sq8) info.quant = QuantOption::kSq8;
  TV_RETURN_NOT_OK(db->schema()
                       ->CreateVertexType("T0", {{"a", AttrType::kInt},
                                                 {"lang", AttrType::kString}})
                       .status());
  TV_RETURN_NOT_OK(db->schema()
                       ->CreateVertexType("T1", {{"a", AttrType::kInt},
                                                 {"lang", AttrType::kString}})
                       .status());
  TV_RETURN_NOT_OK(db->schema()->CreateEmbeddingSpace("ES", info));
  TV_RETURN_NOT_OK(db->schema()->AddEmbeddingAttrInSpace("T0", "emb", "ES"));
  TV_RETURN_NOT_OK(db->schema()->AddEmbeddingAttrInSpace("T1", "emb", "ES"));
  TV_RETURN_NOT_OK(db->schema()->CreateEdgeType("e0", "T0", "T1", true).status());
  return Status::OK();
}

bool FuzzCase::OpenDatabase() {
  db_ = std::make_unique<Database>(MakeDbOptions());
  Status s = DefineSchema(db_.get());
  if (!s.ok()) return Fail("schema-error", s.ToString());
  session_ = std::make_unique<GsqlSession>(db_.get());
  return true;
}

FuzzCaseResult FuzzCase::Run() {
  FuzzCaseResult result;
  // The injector is process-global: never inherit an armed fault from a
  // previous (possibly failed) case.
  io::FaultInjector::Instance().Reset();

  dir_ = opts_.work_dir;
  if (dir_.empty()) {
    dir_ = (fs::temp_directory_path() /
            ("tv_fuzz_" + std::to_string(opts_.seed)))
               .string();
  }
  std::error_code ec;
  fs::remove_all(dir_, ec);
  fs::create_directories(dir_, ec);
  if (ec) {
    result.ok = false;
    result.failures.push_back(
        FuzzFailure{0, "io-error", "cannot create work dir " + dir_, ""});
    return result;
  }

  DeriveScenario();
  const std::vector<FuzzOp> tape = BuildTape();
  std::set<size_t> skip(opts_.skip.begin(), opts_.skip.end());

  if (OpenDatabase()) {
    for (cur_op_ = 0; cur_op_ < tape.size(); ++cur_op_) {
      if (skip.count(cur_op_) > 0) continue;
      if (opts_.verbose) {
        std::fprintf(stderr, "[tv_fuzz seed=%llu] op %zu: %s\n",
                     static_cast<unsigned long long>(opts_.seed), cur_op_,
                     OpName(tape[cur_op_].kind));
      }
      if (!Dispatch(tape[cur_op_])) break;
    }
    if (!failure_.has_value()) VerifyModel("final");
  }

  session_.reset();
  db_.reset();
  io::FaultInjector::Instance().Reset();

  result.stats = stats_;
  if (failure_.has_value()) {
    result.ok = false;
    result.failures.push_back(*failure_);
  } else {
    result.ok = true;
    fs::remove_all(dir_, ec);  // keep artifacts only for failing cases
  }
  return result;
}

bool FuzzCase::Dispatch(const FuzzOp& op) {
  Rng r(op.seed);
  switch (op.kind) {
    case OpKind::kInsert: return DoInsert(r);
    case OpKind::kSetEmb: return DoSetEmb(r);
    case OpKind::kSetAttr: return DoSetAttr(r);
    case OpKind::kDelEmb: return DoDelEmb(r);
    case OpKind::kDelVertex: return DoDelVertex(r);
    case OpKind::kAddEdge: return DoAddEdge(r);
    case OpKind::kDelEdge: return DoDelEdge(r);
    case OpKind::kDeltaMerge: return DoDeltaMerge();
    case OpKind::kIndexMerge: return DoIndexMerge(r);
    case OpKind::kQuery: return DoQuery(r);
    case OpKind::kCrash: return DoCrash(r);
  }
  return true;
}

bool FuzzCase::Fail(const std::string& kind, const std::string& detail,
                    const std::string& script) {
  if (!failure_.has_value()) {
    failure_ = FuzzFailure{cur_op_, kind, detail, script};
  }
  return false;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::vector<float> FuzzCase::RandVec(Rng& r) const {
  std::vector<float> v(dim_);
  for (float& x : v) x = r.NextGaussian();
  return v;
}

std::vector<float> FuzzCase::RandStoredVec(Rng& r) const {
  // 1-in-16 stored embeddings are the all-zero vector: exercises the cosine
  // zero-norm sentinel (distance 2 = metric max) through the differential
  // oracle. Only stored vectors, never queries — a zero query under cosine
  // ties every distance at 2 and would make approximate-recall checks
  // meaningless.
  if (r.NextBounded(16) == 0) return std::vector<float>(dim_, 0.f);
  return RandVec(r);
}

VertexId FuzzCase::PickLive(Rng& r, const std::string& type) const {
  std::vector<VertexId> live = model_.LiveOfType(type);
  if (live.empty()) return kInvalidVertexId;
  return live[r.NextBounded(live.size())];
}

Pred FuzzCase::RandPred(Rng& r) const {
  Pred p;
  switch (r.NextBounded(3)) {
    case 0:
      p.kind = Pred::Kind::kIntLt;
      p.c = 1 + static_cast<int64_t>(r.NextBounded(50));
      break;
    case 1:
      p.kind = Pred::Kind::kIntGe;
      p.c = static_cast<int64_t>(r.NextBounded(40));
      break;
    default:
      p.kind = Pred::Kind::kLangEq;
      p.lang = kLangs[r.NextBounded(3)];
      break;
  }
  return p;
}

VertexSet FuzzCase::CandOfType(const std::string& type, const Pred& pred) const {
  VertexSet out;
  for (const auto& [vid, v] : model_.vertices()) {
    if (v.type == type && pred.Eval(v)) out.insert(vid);
  }
  return out;
}

float FuzzCase::MidpointThreshold(const std::vector<OracleHit>& sorted, size_t idx) {
  if (sorted.empty()) return 0.5f;
  if (idx + 1 < sorted.size()) {
    return 0.5f * (sorted[idx].distance + sorted[idx + 1].distance);
  }
  return sorted.back().distance + 0.1f;
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

bool FuzzCase::DoInsert(Rng& r) {
  const size_t n = 1 + r.NextBounded(3);
  Transaction txn = db_->Begin();
  struct Pending {
    VertexId vid;
    GoldenVertex v;
  };
  std::vector<Pending> pending;
  for (size_t i = 0; i < n; ++i) {
    GoldenVertex v;
    v.type = PickType(r);
    v.attrs["a"] = static_cast<int64_t>(r.NextBounded(50));
    v.attrs["lang"] = std::string(kLangs[r.NextBounded(3)]);
    auto vid = txn.InsertVertex(
        v.type, {v.attrs["a"], v.attrs["lang"]});
    if (!vid.ok()) return Fail("insert-error", vid.status().ToString());
    if (r.NextBounded(100) < 85) {
      std::vector<float> emb = RandStoredVec(r);
      Status s = txn.SetEmbedding(*vid, v.type, "emb", emb);
      if (!s.ok()) return Fail("insert-error", s.ToString());
      v.embeddings["emb"] = std::move(emb);
    }
    pending.push_back(Pending{*vid, std::move(v)});
  }
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  for (Pending& p : pending) model_.InsertVertex(p.vid, std::move(p.v));
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoSetEmb(Rng& r) {
  const std::string type = PickType(r);
  const VertexId vid = PickLive(r, type);
  std::vector<float> emb = RandStoredVec(r);
  if (vid == kInvalidVertexId) return true;
  Transaction txn = db_->Begin();
  Status s = txn.SetEmbedding(vid, type, "emb", emb);
  if (!s.ok()) return Fail("set-emb-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.SetEmbedding(vid, "emb", std::move(emb));
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoSetAttr(Rng& r) {
  const std::string type = PickType(r);
  const VertexId vid = PickLive(r, type);
  const bool int_attr = r.NextBounded(2) == 0;
  Value value = int_attr ? Value(static_cast<int64_t>(r.NextBounded(50)))
                         : Value(std::string(kLangs[r.NextBounded(3)]));
  if (vid == kInvalidVertexId) return true;
  Transaction txn = db_->Begin();
  Status s = txn.SetAttr(vid, type, int_attr ? "a" : "lang", value);
  if (!s.ok()) return Fail("set-attr-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.SetAttr(vid, int_attr ? "a" : "lang", std::move(value));
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoDelEmb(Rng& r) {
  const std::string type = PickType(r);
  const VertexId vid = PickLive(r, type);
  if (vid == kInvalidVertexId) return true;
  Transaction txn = db_->Begin();
  Status s = txn.DeleteEmbedding(vid, "emb");
  if (!s.ok()) return Fail("del-emb-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.DeleteEmbedding(vid, "emb");
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoDelVertex(Rng& r) {
  const std::string type = PickType(r);
  const VertexId vid = PickLive(r, type);
  if (vid == kInvalidVertexId) return true;
  Transaction txn = db_->Begin();
  Status s = txn.DeleteVertex(vid);
  if (!s.ok()) return Fail("del-vertex-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.DeleteVertex(vid);
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoAddEdge(Rng& r) {
  const VertexId src = PickLive(r, "T0");
  const VertexId dst = PickLive(r, "T1");
  if (src == kInvalidVertexId || dst == kInvalidVertexId) return true;
  if (model_.HasEdge("e0", src, dst)) return true;
  Transaction txn = db_->Begin();
  Status s = txn.InsertEdge("e0", src, dst);
  if (!s.ok()) return Fail("add-edge-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.InsertEdge("e0", src, dst);
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoDelEdge(Rng& r) {
  const auto& edges = model_.edges();
  if (edges.empty()) return true;
  auto it = edges.begin();
  std::advance(it, r.NextBounded(edges.size()));
  const GoldenEdge edge = *it;
  Transaction txn = db_->Begin();
  Status s = txn.DeleteEdge(edge.type, edge.src, edge.dst);
  if (!s.ok()) return Fail("del-edge-error", s.ToString());
  auto tid = txn.Commit();
  if (!tid.ok()) return Fail("commit-failed", tid.status().ToString());
  model_.DeleteEdge(edge.type, edge.src, edge.dst);
  ++stats_.committed_txns;
  return true;
}

bool FuzzCase::DoDeltaMerge() {
  auto sealed = db_->embeddings()->RunDeltaMerge();
  if (!sealed.ok()) return Fail("vacuum-error", sealed.status().ToString());
  ++stats_.delta_merges;
  return true;
}

bool FuzzCase::DoIndexMerge(Rng& r) {
  // Database::Vacuum() schedules index folds on the pool; segment insert
  // order into HNSW would then depend on thread timing. The fuzzer needs
  // the same bits every run, so it drives both vacuum stages sequentially.
  auto sealed = db_->embeddings()->RunDeltaMerge();
  if (!sealed.ok()) return Fail("vacuum-error", sealed.status().ToString());
  if (r.NextBounded(4) == 0) {
    Status s = db_->embeddings()->RebuildAllIndexes(nullptr);
    if (!s.ok()) return Fail("vacuum-error", s.ToString());
  } else {
    auto folded = db_->embeddings()->RunIndexMerge(nullptr);
    if (!folded.ok()) return Fail("vacuum-error", folded.status().ToString());
  }
  ++stats_.index_merges;
  return true;
}

// ---------------------------------------------------------------------------
// Query execution + checks
// ---------------------------------------------------------------------------

bool FuzzCase::RunSelect(const std::string& script, const QueryParams& params,
                         bool want_distances, QueryRun* out) {
  // Under --explain-analyze the same script runs with plan-node annotation;
  // EXPLAIN ANALYZE still executes, so PRINT output must be unchanged.
  const std::string run_script =
      opts_.explain_analyze ? "EXPLAIN ANALYZE " + script : script;
  auto result = session_->Run(run_script, params);
  if (!result.ok()) {
    return Fail("query-error", result.status().ToString(), run_script);
  }
  if (opts_.explain_analyze &&
      (!result->analyzed || result->explain.empty())) {
    return Fail("explain-analyze-missing",
                "EXPLAIN ANALYZE produced no analyzed plan", run_script);
  }
  if (result->prints.empty()) {
    return Fail("query-error", "no PRINT output", script);
  }
  out->vids = result->prints[0].vertices;
  out->distances.clear();
  if (want_distances && !out->vids.empty()) {
    // The session materializes "@@R_dist" only when the block produced
    // distances, which is guaranteed here because the result is non-empty.
    auto dist = session_->Run("PRINT @@R_dist;");
    if (!dist.ok()) {
      return Fail("query-error",
                  "distance map missing: " + dist.status().ToString(), script);
    }
    out->distances = dist->prints[0].distances;
  }
  if (opts_.cache_diff) {
    // Cache differential: the identical script, bypassing both cache tiers,
    // must produce bit-for-bit the same answer. The rerun rebinds the same
    // session variables to the same values (the tape is single-threaded),
    // so session state is unchanged afterwards.
    session_->SetCacheBypass(true);
    auto uncached = session_->Run(run_script, params);
    QueryRun raw;
    bool raw_ok = uncached.ok() && !uncached->prints.empty();
    if (raw_ok) {
      raw.vids = uncached->prints[0].vertices;
      if (want_distances && !raw.vids.empty()) {
        auto dist = session_->Run("PRINT @@R_dist;");
        raw_ok = dist.ok() && !dist->prints.empty();
        if (raw_ok) raw.distances = dist->prints[0].distances;
      }
    }
    session_->SetCacheBypass(false);
    if (!raw_ok) {
      return Fail("cache-divergence", "uncached rerun failed", run_script);
    }
    if (raw.vids != out->vids) {
      return Fail("cache-divergence",
                  "cached run returned " + std::to_string(out->vids.size()) +
                      " vids, uncached rerun " + std::to_string(raw.vids.size()) +
                      " (or different ids)",
                  run_script);
    }
    for (VertexId vid : out->vids) {
      auto a = out->distances.find(vid);
      auto b = raw.distances.find(vid);
      const bool has_a = a != out->distances.end();
      const bool has_b = b != raw.distances.end();
      if (has_a != has_b || (has_a && a->second != b->second)) {
        return Fail("cache-divergence",
                    "distance mismatch for vid " + std::to_string(vid),
                    run_script);
      }
    }
  }
  return true;
}

bool FuzzCase::CacheDiffVectorSearch(const std::string& script,
                                     const QueryParams& params,
                                     const QueryRun& run) {
  if (!opts_.cache_diff) return true;
  session_->SetCacheBypass(true);
  auto uncached = session_->Run(script, params);
  session_->SetCacheBypass(false);
  if (!uncached.ok() || uncached->prints.size() < 2) {
    return Fail("cache-divergence", "uncached VectorSearch rerun failed", script);
  }
  if (uncached->prints[0].vertices != run.vids) {
    return Fail("cache-divergence",
                "cached VectorSearch returned different vertex set", script);
  }
  const auto& raw_dist = uncached->prints[1].distances;
  for (VertexId vid : run.vids) {
    auto a = run.distances.find(vid);
    auto b = raw_dist.find(vid);
    const bool has_a = a != run.distances.end();
    const bool has_b = b != raw_dist.end();
    if (has_a != has_b || (has_a && a->second != b->second)) {
      return Fail("cache-divergence",
                  "VectorSearch distance mismatch for vid " + std::to_string(vid),
                  script);
    }
  }
  return true;
}

bool FuzzCase::CheckSoundness(const std::string& script, const QueryRun& run,
                              const std::string& type, const std::vector<float>& qv,
                              const VertexSet* candidates) {
  ++stats_.soundness_checks;
  for (VertexId vid : run.vids) {
    const GoldenVertex* v = model_.Get(vid);
    if (v == nullptr) {
      return Fail("soundness-dead-vertex",
                  "result contains deleted/unknown vid " + std::to_string(vid),
                  script);
    }
    if (v->type != type) {
      return Fail("soundness-wrong-type",
                  "vid " + std::to_string(vid) + " has type " + v->type +
                      ", searched " + type,
                  script);
    }
    auto emb = v->embeddings.find("emb");
    if (emb == v->embeddings.end()) {
      return Fail("soundness-no-embedding",
                  "vid " + std::to_string(vid) + " has no embedding", script);
    }
    if (candidates != nullptr && candidates->count(vid) == 0) {
      return Fail("soundness-filter-violation",
                  "vid " + std::to_string(vid) + " fails the query filter", script);
    }
    auto d = run.distances.find(vid);
    if (d != run.distances.end()) {
      const float expect =
          ComputeDistance(metric_, qv.data(), emb->second.data(), dim_);
      const float tol = 1e-4f + 1e-3f * std::fabs(expect);
      if (std::fabs(d->second - expect) > tol) {
        return Fail("soundness-distance",
                    "vid " + std::to_string(vid) + " reported distance " +
                        std::to_string(d->second) + ", oracle " +
                        std::to_string(expect),
                    script);
      }
    }
  }
  return true;
}

bool FuzzCase::CheckExactTopK(const std::string& script, const QueryRun& run,
                              const std::vector<OracleHit>& oracle_full, size_t k) {
  ++stats_.exact_checks;
  const size_t expected = std::min(k, oracle_full.size());
  if (run.vids.size() != expected) {
    return Fail("oracle-exact-mismatch",
                "result size " + std::to_string(run.vids.size()) +
                    ", oracle expects " + std::to_string(expected),
                script);
  }
  if (expected == 0) return true;
  std::unordered_map<VertexId, float> oracle_dist;
  for (const OracleHit& h : oracle_full) oracle_dist[h.vid] = h.distance;
  const float kth = oracle_full[expected - 1].distance;
  const float eps = 1e-5f + 1e-4f * std::fabs(kth);
  VertexSet returned(run.vids.begin(), run.vids.end());
  // Every returned vertex must be at least as close as the oracle's k-th
  // hit; every strictly-closer oracle hit must be returned. Distance ties
  // at the boundary may legitimately resolve either way.
  for (VertexId vid : run.vids) {
    auto it = oracle_dist.find(vid);
    if (it == oracle_dist.end() || it->second > kth + eps) {
      return Fail("oracle-exact-mismatch",
                  "vid " + std::to_string(vid) + " is not an exact top-" +
                      std::to_string(k) + " answer",
                  script);
    }
  }
  for (size_t i = 0; i < expected; ++i) {
    if (oracle_full[i].distance < kth - eps &&
        returned.count(oracle_full[i].vid) == 0) {
      return Fail("oracle-exact-mismatch",
                  "missing vid " + std::to_string(oracle_full[i].vid) +
                      " at oracle distance " +
                      std::to_string(oracle_full[i].distance),
                  script);
    }
  }
  return true;
}

bool FuzzCase::CheckRecallTopK(const std::string& script, const QueryRun& run,
                               const std::vector<OracleHit>& oracle_full, size_t k) {
  ++stats_.recall_checks;
  const size_t expected = std::min(k, oracle_full.size());
  if (expected == 0) {
    if (!run.vids.empty()) {
      return Fail("oracle-phantom-results",
                  "oracle expects an empty result, engine returned " +
                      std::to_string(run.vids.size()),
                  script);
    }
    return true;
  }
  VertexSet returned(run.vids.begin(), run.vids.end());
  // Tie-tolerant recall: with duplicated distances (e.g. several zero
  // stored vectors under cosine, all at the metric max of 2) the engine may
  // return a different-but-equidistant vid than the oracle's id-tie-broken
  // prefix. Any returned vid whose true distance ties the oracle's k-th
  // distance is a correct retrieval, so scan the whole tie group.
  const float kth = oracle_full[expected - 1].distance;
  size_t found = 0;
  for (const OracleHit& h : oracle_full) {
    if (h.distance > kth) break;
    if (returned.count(h.vid) > 0) ++found;
  }
  found = std::min(found, expected);
  const double recall = static_cast<double>(found) / static_cast<double>(expected);
  if (recall + 1e-12 < opts_.min_recall) {
    return Fail("oracle-low-recall",
                "recall " + std::to_string(recall) + " < " +
                    std::to_string(opts_.min_recall) + " (found " +
                    std::to_string(found) + "/" + std::to_string(expected) + ")",
                script);
  }
  return true;
}

bool FuzzCase::CheckRange(const std::string& script, const QueryRun& run,
                          const std::vector<OracleHit>& oracle_full, float threshold,
                          bool exact) {
  std::unordered_map<VertexId, float> oracle_dist;
  for (const OracleHit& h : oracle_full) oracle_dist[h.vid] = h.distance;
  const float eps = 1e-5f + 1e-4f * std::fabs(threshold);
  size_t required = 0;
  for (const OracleHit& h : oracle_full) {
    if (h.distance < threshold - eps) ++required;
  }
  // Soundness half is exact in both tiers: nothing at or beyond the
  // threshold may be returned.
  for (VertexId vid : run.vids) {
    auto it = oracle_dist.find(vid);
    if (it == oracle_dist.end() || it->second >= threshold + eps) {
      return Fail("oracle-range-unsound",
                  "vid " + std::to_string(vid) + " is outside the range", script);
    }
  }
  VertexSet returned(run.vids.begin(), run.vids.end());
  size_t found = 0;
  for (const OracleHit& h : oracle_full) {
    if (h.distance < threshold - eps && returned.count(h.vid) > 0) ++found;
  }
  if (exact) {
    ++stats_.exact_checks;
    if (found != required) {
      return Fail("oracle-range-incomplete",
                  "exact range returned " + std::to_string(found) + "/" +
                      std::to_string(required) + " answers",
                  script);
    }
  } else {
    ++stats_.recall_checks;
    if (required > 0) {
      const double recall =
          static_cast<double>(found) / static_cast<double>(required);
      if (recall + 1e-12 < opts_.min_recall) {
        return Fail("oracle-range-low-recall",
                    "range recall " + std::to_string(recall) + " < " +
                        std::to_string(opts_.min_recall),
                    script);
      }
    }
  }
  return true;
}

bool FuzzCase::CheckMpp(const std::string& label, const std::string& type,
                        const std::vector<float>& qv, size_t k,
                        const VertexSet* candidates, bool is_range,
                        float threshold) {
  if (db_->cluster() == nullptr) return true;
  ++stats_.mpp_checks;
  VectorSearchRequest request;
  request.attrs = {{type, "emb"}};
  request.query = qv.data();
  request.k = k;
  request.pool = nullptr;  // identical sequential execution on both legs
  Bitmap bitmap;
  if (candidates != nullptr) {
    bitmap = VertexSetToBitmap(*candidates, db_->store()->vid_upper_bound());
    request.filter = FilterView(&bitmap);
  }
  Result<VectorSearchResult> single =
      is_range ? db_->embeddings()->RangeSearch(request, threshold)
               : db_->embeddings()->TopKSearch(request);
  Result<VectorSearchResult> distributed =
      is_range ? db_->cluster()->DistributedRange(request, threshold)
               : db_->cluster()->DistributedTopK(request);
  if (!single.ok() || !distributed.ok()) {
    return Fail("mpp-error",
                "single: " + single.status().ToString() +
                    "; distributed: " + distributed.status().ToString(),
                label);
  }
  auto by_dist_label = [](const SearchHit& a, const SearchHit& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.label < b.label;
  };
  std::vector<SearchHit> lhs = single->hits;
  std::vector<SearchHit> rhs = distributed->hits;
  std::sort(lhs.begin(), lhs.end(), by_dist_label);
  std::sort(rhs.begin(), rhs.end(), by_dist_label);
  if (lhs.size() != rhs.size()) {
    return Fail("mpp-divergence",
                "single-node returned " + std::to_string(lhs.size()) +
                    " hits, cluster " + std::to_string(rhs.size()),
                label);
  }
  for (size_t i = 0; i < lhs.size(); ++i) {
    // Bit-for-bit: the cluster merge re-ranks the same per-segment floats,
    // it must not perturb them.
    if (lhs[i].label != rhs[i].label || lhs[i].distance != rhs[i].distance) {
      return Fail("mpp-divergence",
                  "hit " + std::to_string(i) + ": single (" +
                      std::to_string(lhs[i].label) + ", " +
                      std::to_string(lhs[i].distance) + ") vs cluster (" +
                      std::to_string(rhs[i].label) + ", " +
                      std::to_string(rhs[i].distance) + ")",
                  label);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Query shapes
// ---------------------------------------------------------------------------

bool FuzzCase::DoQuery(Rng& r) {
  ++stats_.queries;
  const std::vector<float> qv = RandVec(r);
  switch (r.NextBounded(7)) {
    case 0: return QueryPlainGraph(r, qv);
    case 1: return QueryPureTopK(r, qv);
    case 2: return QueryRange(r, qv);
    case 3: return QueryFilteredTopK(r, qv);
    case 4: return QueryHybridPattern(r, qv);
    case 5: return QueryVectorSearchFn(r, qv);
    default: return QuerySimilarityJoin(r);
  }
}

bool FuzzCase::QueryPlainGraph(Rng& r, const std::vector<float>& qv) {
  (void)qv;
  const bool two_nodes = r.NextBounded(2) == 1;
  const Pred pred = r.NextBounded(2) == 0 ? Pred{} : RandPred(r);
  std::ostringstream script;
  VertexSet expect;
  if (!two_nodes) {
    const std::string type = PickType(r);
    script << "R = SELECT s FROM (s:" << type << ")";
    if (pred.kind != Pred::Kind::kNone) script << " WHERE " << pred.ToGsql("s");
    expect = CandOfType(type, pred);
  } else {
    // (s:T0) and (t:T1) joined over e0, with every direction token.
    const int dir_pick = static_cast<int>(r.NextBounded(3));
    const char* token = dir_pick == 0 ? "-[:e0]->" : dir_pick == 1 ? "<-[:e0]-" : "-[:e0]-";
    const Direction dir =
        dir_pick == 0 ? Direction::kOut : dir_pick == 1 ? Direction::kIn : Direction::kAny;
    const bool select_s = r.NextBounded(2) == 0;
    script << "R = SELECT " << (select_s ? "s" : "t") << " FROM (s:T0) " << token
           << " (t:T1)";
    if (pred.kind != Pred::Kind::kNone) script << " WHERE " << pred.ToGsql("s");
    expect = EvalChainPattern(model_, {CandOfType("T0", pred), CandOfType("T1", Pred{})},
                              {"e0"}, {dir}, select_s ? 0 : 1);
  }
  std::optional<size_t> limit;
  if (r.NextBounded(3) == 0) limit = 1 + r.NextBounded(10);
  if (limit.has_value()) script << " LIMIT " << *limit;
  script << "; PRINT R;";

  QueryRun run;
  if (!RunSelect(script.str(), {}, /*want_distances=*/false, &run)) return false;
  std::vector<VertexId> want(expect.begin(), expect.end());
  std::sort(want.begin(), want.end());
  if (limit.has_value() && want.size() > *limit) want.resize(*limit);
  ++stats_.exact_checks;
  if (run.vids != want) {
    return Fail("oracle-exact-mismatch",
                "graph pattern returned " + std::to_string(run.vids.size()) +
                    " vids, oracle expects " + std::to_string(want.size()),
                script.str());
  }
  return true;
}

bool FuzzCase::QueryPureTopK(Rng& r, const std::vector<float>& qv) {
  const std::string type = PickType(r);
  const size_t k = 1 + r.NextBounded(8);
  // The prefix metamorphic does not hold under SQ8: the rerank budget
  // scales with the LIMIT (rerank_factor * k), so LIMIT k+10 rescores a
  // deeper code-ranked pool and may legitimately surface an exact-closer
  // hit the LIMIT-k budget never rescored.
  const bool check_prefix = !opts_.sq8 && r.NextBounded(2) == 0;
  const bool check_tautology = !exact_filtered() && r.NextBounded(2) == 0;
  QueryParams params{{"qv", qv}};

  auto script_for = [&](size_t limit) {
    return "R = SELECT s FROM (s:" + type + ") ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT " +
           std::to_string(limit) + "; PRINT R;";
  };
  const std::string script = script_for(k);
  QueryRun run;
  if (!RunSelect(script, params, /*want_distances=*/true, &run)) return false;

  const std::vector<OracleHit> oracle =
      model_.ExactTopK({{type, "emb"}}, metric_, qv,
                       model_.vertices().size() + 1, nullptr);
  if (!CheckSoundness(script, run, type, qv, nullptr)) return false;
  if (!CheckRecallTopK(script, run, oracle, k)) return false;

  if (check_prefix) {
    // Metamorphic: under a fixed ef, LIMIT k must be a prefix of
    // LIMIT k+10 when both are ordered by (distance, vid).
    QueryRun wider;
    if (!RunSelect(script_for(k + 10), params, /*want_distances=*/true, &wider)) {
      return false;
    }
    ++stats_.metamorphic_checks;
    auto ranked = [](const QueryRun& q) {
      std::vector<std::pair<float, VertexId>> out;
      for (VertexId vid : q.vids) {
        auto it = q.distances.find(vid);
        out.push_back({it == q.distances.end() ? 0.f : it->second, vid});
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    const auto narrow_seq = ranked(run);
    const auto wide_seq = ranked(wider);
    if (narrow_seq.size() > wide_seq.size()) {
      return Fail("metamorphic-prefix",
                  "LIMIT " + std::to_string(k) + " returned more hits than LIMIT " +
                      std::to_string(k + 10),
                  script);
    }
    for (size_t i = 0; i < narrow_seq.size(); ++i) {
      if (narrow_seq[i].second != wide_seq[i].second) {
        return Fail("metamorphic-prefix",
                    "rank " + std::to_string(i) + " differs: " +
                        std::to_string(narrow_seq[i].second) + " vs " +
                        std::to_string(wide_seq[i].second),
                    script);
      }
    }
  }

  if (check_tautology) {
    // Metamorphic: a filter every vertex passes must not change the answer
    // (only meaningful on the ANN tier, where both legs take the HNSW path;
    // on the exact tier the filter deliberately switches to brute force).
    const std::string taut = "R2 = SELECT s FROM (s:" + type +
                             ") WHERE s.a >= 0 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT " +
                             std::to_string(k) + "; PRINT R2;";
    auto taut_result = session_->Run(taut, params);
    if (!taut_result.ok()) {
      return Fail("query-error", taut_result.status().ToString(), taut);
    }
    ++stats_.metamorphic_checks;
    if (taut_result->prints[0].vertices != run.vids) {
      return Fail("metamorphic-tautology",
                  "tautological filter changed the result set", taut);
    }
  }

  if (opts_.with_mpp && r.NextBounded(2) == 0) {
    if (!CheckMpp(script, type, qv, k, nullptr, /*is_range=*/false, 0)) return false;
  }
  return true;
}

bool FuzzCase::QueryRange(Rng& r, const std::vector<float>& qv) {
  const std::string type = PickType(r);
  const bool filtered = r.NextBounded(2) == 0;
  const Pred pred = filtered ? RandPred(r) : Pred{};
  VertexSet candidates = CandOfType(type, pred);
  const std::vector<OracleHit> oracle = model_.ExactRange(
      {{type, "emb"}}, metric_, qv, std::numeric_limits<float>::max(), &candidates);
  const size_t idx = oracle.empty() ? 0 : r.NextBounded(std::min<size_t>(oracle.size(), 20));
  const float threshold = MidpointThreshold(oracle, idx);

  std::ostringstream script;
  script << "R = SELECT s FROM (s:" << type << ") WHERE ";
  if (filtered) script << pred.ToGsql("s") << " AND ";
  script << "VECTOR_DIST(s.emb, $qv) < $thr; PRINT R;";
  QueryParams params{{"qv", qv}, {"thr", static_cast<double>(threshold)}};

  QueryRun run;
  if (!RunSelect(script.str(), params, /*want_distances=*/true, &run)) return false;
  if (!CheckSoundness(script.str(), run, type, qv, &candidates)) return false;
  // Tier rule: a filtered range search carries a candidate bitmap, and with
  // bruteforce_threshold > segment capacity every segment takes the exact
  // scan, so the answer must equal the oracle's. Pure range scans stay on
  // the HNSW path in both tiers. This holds under --sq8 too: range search
  // pins the fp32 path (quantized threshold tests would be unsound), so it
  // deliberately keeps the exact gate — a quant leak here fails loudly.
  const bool exact = filtered && exact_filtered();
  if (!CheckRange(script.str(), run, oracle, threshold, exact)) return false;

  if (opts_.with_mpp && r.NextBounded(2) == 0) {
    if (!CheckMpp(script.str(), type, qv, 16, filtered ? &candidates : nullptr,
                  /*is_range=*/true, threshold)) {
      return false;
    }
  }
  return true;
}

bool FuzzCase::QueryFilteredTopK(Rng& r, const std::vector<float>& qv) {
  const std::string type = PickType(r);
  const size_t k = 1 + r.NextBounded(8);
  const Pred pred = RandPred(r);
  VertexSet candidates = CandOfType(type, pred);
  const std::string script = "R = SELECT s FROM (s:" + type + ") WHERE " +
                             pred.ToGsql("s") +
                             " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT " +
                             std::to_string(k) + "; PRINT R;";
  QueryParams params{{"qv", qv}};
  QueryRun run;
  if (!RunSelect(script, params, /*want_distances=*/true, &run)) return false;
  if (!CheckSoundness(script, run, type, qv, &candidates)) return false;
  const std::vector<OracleHit> oracle = model_.ExactTopK(
      {{type, "emb"}}, metric_, qv, model_.vertices().size() + 1, &candidates);
  if (exact_answers()) {
    if (!CheckExactTopK(script, run, oracle, k)) return false;
  } else {
    if (!CheckRecallTopK(script, run, oracle, k)) return false;
  }
  if (opts_.with_mpp && r.NextBounded(2) == 0) {
    if (!CheckMpp(script, type, qv, k, &candidates, /*is_range=*/false, 0)) {
      return false;
    }
  }
  return true;
}

bool FuzzCase::QueryHybridPattern(Rng& r, const std::vector<float>& qv) {
  const size_t k = 1 + r.NextBounded(8);
  const Pred pred = r.NextBounded(2) == 0 ? Pred{} : RandPred(r);
  // Search the pattern node `t`, constrained through the edge from `s`.
  const bool forward = r.NextBounded(2) == 0;
  std::ostringstream script;
  VertexSet candidates;
  if (forward) {
    script << "R = SELECT t FROM (s:T0) -[:e0]-> (t:T1)";
    if (pred.kind != Pred::Kind::kNone) script << " WHERE " << pred.ToGsql("s");
    candidates = EvalChainPattern(model_,
                                  {CandOfType("T0", pred), CandOfType("T1", Pred{})},
                                  {"e0"}, {Direction::kOut}, 1);
  } else {
    script << "R = SELECT t FROM (t:T1) <-[:e0]- (s:T0)";
    if (pred.kind != Pred::Kind::kNone) script << " WHERE " << pred.ToGsql("s");
    candidates = EvalChainPattern(model_,
                                  {CandOfType("T1", Pred{}), CandOfType("T0", pred)},
                                  {"e0"}, {Direction::kIn}, 0);
  }
  script << " ORDER BY VECTOR_DIST(t.emb, $qv) LIMIT " << k << "; PRINT R;";
  QueryParams params{{"qv", qv}};
  QueryRun run;
  if (!RunSelect(script.str(), params, /*want_distances=*/true, &run)) return false;
  if (!CheckSoundness(script.str(), run, "T1", qv, &candidates)) return false;
  const std::vector<OracleHit> oracle = model_.ExactTopK(
      {{"T1", "emb"}}, metric_, qv, model_.vertices().size() + 1, &candidates);
  if (exact_answers()) {
    return CheckExactTopK(script.str(), run, oracle, k);
  }
  return CheckRecallTopK(script.str(), run, oracle, k);
}

bool FuzzCase::QueryVectorSearchFn(Rng& r, const std::vector<float>& qv) {
  const size_t k = 1 + r.NextBounded(8);
  QueryParams params{{"qv", qv}};
  QueryRun run;
  if (r.NextBounded(2) == 0) {
    // Variant A: filter by a vertex-set variable from a prior block.
    const std::string type = PickType(r);
    const Pred pred = RandPred(r);
    VertexSet candidates = CandOfType(type, pred);
    const std::string script =
        "Cand = SELECT s FROM (s:" + type + ") WHERE " + pred.ToGsql("s") +
        "; R = VectorSearch({" + type + ".emb}, $qv, " + std::to_string(k) +
        ", {filter: Cand, ef: 80, distanceMap: @@dm}); PRINT R; PRINT @@dm;";
    auto result = session_->Run(script, params);
    if (!result.ok()) return Fail("query-error", result.status().ToString(), script);
    if (result->prints.size() != 2) {
      return Fail("query-error", "expected two PRINT outputs", script);
    }
    run.vids = result->prints[0].vertices;
    run.distances = result->prints[1].distances;
    if (!CacheDiffVectorSearch(script, params, run)) return false;
    // VectorSearch's vertex-set-variable filter must behave as a hard
    // pre-filter: nothing outside Cand may appear.
    const VertexSet* cand_var = session_->GetVariable("Cand");
    if (cand_var == nullptr) return Fail("query-error", "Cand variable missing", script);
    for (VertexId vid : run.vids) {
      if (cand_var->count(vid) == 0) {
        return Fail("soundness-filter-violation",
                    "VectorSearch returned vid " + std::to_string(vid) +
                        " outside its filter variable",
                    script);
      }
    }
    if (!CheckSoundness(script, run, type, qv, &candidates)) return false;
    const std::vector<OracleHit> oracle = model_.ExactTopK(
        {{type, "emb"}}, metric_, qv, model_.vertices().size() + 1, &candidates);
    if (exact_answers()) return CheckExactTopK(script, run, oracle, k);
    return CheckRecallTopK(script, run, oracle, k);
  }
  // Variant B: multi-attribute search across both vertex types sharing the
  // embedding space (always the ANN path: no filter, no bitmap).
  const std::string script = "R = VectorSearch({T0.emb, T1.emb}, $qv, " +
                             std::to_string(k) +
                             ", {distanceMap: @@dm}); PRINT R; PRINT @@dm;";
  auto result = session_->Run(script, params);
  if (!result.ok()) return Fail("query-error", result.status().ToString(), script);
  if (result->prints.size() != 2) {
    return Fail("query-error", "expected two PRINT outputs", script);
  }
  run.vids = result->prints[0].vertices;
  run.distances = result->prints[1].distances;
  if (!CacheDiffVectorSearch(script, params, run)) return false;
  ++stats_.soundness_checks;
  for (VertexId vid : run.vids) {
    const GoldenVertex* v = model_.Get(vid);
    if (v == nullptr || v->embeddings.count("emb") == 0) {
      return Fail("soundness-dead-vertex",
                  "multi-attr VectorSearch returned dead/embedding-less vid " +
                      std::to_string(vid),
                  script);
    }
  }
  const std::vector<OracleHit> oracle =
      model_.ExactTopK({{"T0", "emb"}, {"T1", "emb"}}, metric_, qv,
                       model_.vertices().size() + 1, nullptr);
  return CheckRecallTopK(script, run, oracle, k);
}

bool FuzzCase::QuerySimilarityJoin(Rng& r) {
  const size_t k = 1 + r.NextBounded(8);
  const std::string script =
      "R = SELECT s, t FROM (s:T0) -[:e0]-> (t:T1)"
      " ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT " +
      std::to_string(k) + ";";
  auto result = session_->Run(script);
  if (!result.ok()) return Fail("query-error", result.status().ToString(), script);

  // Oracle: enumerate every live edge whose endpoints both carry the
  // embedding; the join is brute-force in the engine, so it must be exact.
  struct OraclePair {
    float d;
    VertexId s, t;
    bool operator<(const OraclePair& o) const {
      if (d != o.d) return d < o.d;
      if (s != o.s) return s < o.s;
      return t < o.t;
    }
  };
  std::vector<OraclePair> oracle;
  for (const GoldenEdge& e : model_.edges()) {
    const GoldenVertex* sv = model_.Get(e.src);
    const GoldenVertex* tv = model_.Get(e.dst);
    if (sv == nullptr || tv == nullptr) continue;
    auto se = sv->embeddings.find("emb");
    auto te = tv->embeddings.find("emb");
    if (se == sv->embeddings.end() || te == tv->embeddings.end()) continue;
    oracle.push_back(OraclePair{
        ComputeDistance(metric_, se->second.data(), te->second.data(), dim_),
        e.src, e.dst});
  }
  std::sort(oracle.begin(), oracle.end());
  if (oracle.size() > k) oracle.resize(k);

  std::vector<SelectResult::Pair> pairs = result->last_join_pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const SelectResult::Pair& a, const SelectResult::Pair& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.source != b.source) return a.source < b.source;
              return a.target < b.target;
            });
  ++stats_.exact_checks;
  if (pairs.size() != oracle.size()) {
    return Fail("oracle-join-mismatch",
                "join returned " + std::to_string(pairs.size()) +
                    " pairs, oracle expects " + std::to_string(oracle.size()),
                script);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    const float tol = 1e-4f + 1e-3f * std::fabs(oracle[i].d);
    if (pairs[i].source != oracle[i].s || pairs[i].target != oracle[i].t ||
        std::fabs(pairs[i].distance - oracle[i].d) > tol) {
      return Fail("oracle-join-mismatch",
                  "pair " + std::to_string(i) + ": (" +
                      std::to_string(pairs[i].source) + ", " +
                      std::to_string(pairs[i].target) + ") vs oracle (" +
                      std::to_string(oracle[i].s) + ", " +
                      std::to_string(oracle[i].t) + ")",
                  script);
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Crash / recover
// ---------------------------------------------------------------------------

bool FuzzCase::DoCrash(Rng& r) {
  auto& injector = io::FaultInjector::Instance();
  const std::string snap_dir = dir_ + "/snap";

  // Sometimes leave a clean snapshot set behind, so recovery exercises
  // snapshot adoption + shorter WAL replay instead of full replay.
  if (r.NextBounded(3) == 0) {
    std::error_code ec;
    fs::create_directories(snap_dir, ec);
    Status s = db_->embeddings()->SaveIndexSnapshots(snap_dir, nullptr);
    if (!s.ok()) return Fail("snapshot-error", s.ToString());
    snapshot_saved_ = true;
  }

  // Arm one durability fault from the compiled-in catalog, then attempt a
  // few vertex-scoped mutations through it. A commit that fails inside the
  // fault window leaves its vertex in an *uncertain* state: either nothing
  // became durable (committed state survives) or the WAL record did (the
  // attempted state replays). Both are legal; anything else is a bug.
  const auto& catalog = io::FaultInjector::RegisteredFaults();
  const bool armed = r.NextBounded(10) < 7 && !catalog.empty();
  if (armed) {
    const io::RegisteredFault& fault = catalog[r.NextBounded(catalog.size())];
    io::FaultSpec spec;
    spec.kind = fault.kind;
    spec.after_bytes = std::string(fault.site) == "wal.append"
                           ? db_->store()->wal().appended_bytes() + r.NextBounded(64)
                           : r.NextBounded(48);
    injector.Arm(fault.site, spec);
    ++stats_.faults_armed;
  }

  std::vector<UncertainMutation> uncertain;
  std::set<VertexId> touched;
  const size_t attempts = 1 + r.NextBounded(3);
  for (size_t i = 0; i < attempts; ++i) {
    UncertainMutation u;
    const uint32_t kind = static_cast<uint32_t>(r.NextBounded(4));
    Transaction txn = db_->Begin();
    if (kind == 0) {
      // Fresh insert (with embedding).
      GoldenVertex v;
      v.type = PickType(r);
      v.attrs["a"] = static_cast<int64_t>(r.NextBounded(50));
      v.attrs["lang"] = std::string(kLangs[r.NextBounded(3)]);
      std::vector<float> emb = RandStoredVec(r);
      auto vid = txn.InsertVertex(v.type, {v.attrs["a"], v.attrs["lang"]});
      if (!vid.ok()) return Fail("insert-error", vid.status().ToString());
      Status s = txn.SetEmbedding(*vid, v.type, "emb", emb);
      if (!s.ok()) return Fail("insert-error", s.ToString());
      v.embeddings["emb"] = std::move(emb);
      u.vid = *vid;
      u.existed_before = false;
      u.after = v;
    } else {
      const std::string type = PickType(r);
      const VertexId vid = PickLive(r, type);
      // One uncertain mutation per vid per crash cycle; otherwise the
      // post-recovery state space explodes beyond before/after.
      const std::vector<float> emb = RandStoredVec(r);
      const int64_t a = static_cast<int64_t>(r.NextBounded(50));
      if (vid == kInvalidVertexId || touched.count(vid) > 0) continue;
      u.vid = vid;
      u.existed_before = true;
      u.before = *model_.Get(vid);
      u.after = u.before;
      if (kind == 1) {
        Status s = txn.SetAttr(vid, type, "a", Value(a));
        if (!s.ok()) return Fail("set-attr-error", s.ToString());
        u.after.attrs["a"] = a;
      } else if (kind == 2) {
        Status s = txn.SetEmbedding(vid, type, "emb", emb);
        if (!s.ok()) return Fail("set-emb-error", s.ToString());
        u.after.embeddings["emb"] = emb;
      } else {
        Status s = txn.DeleteVertex(vid);
        if (!s.ok()) return Fail("del-vertex-error", s.ToString());
        u.attempted_delete = true;
      }
    }
    touched.insert(u.vid);
    auto tid = txn.Commit();
    if (tid.ok()) {
      // The fault didn't fire (or wasn't armed): a normal committed write.
      if (u.attempted_delete) {
        model_.DeleteVertex(u.vid);
      } else {
        model_.InsertVertex(u.vid, u.after);
      }
      ++stats_.committed_txns;
    } else {
      if (!armed) return Fail("commit-failed", tid.status().ToString());
      uncertain.push_back(std::move(u));
      ++stats_.failed_commits;
    }
  }

  // Give the delta-save fault site a chance to fire mid-vacuum too.
  if (armed && r.NextBounded(2) == 0) {
    db_->embeddings()->RunDeltaMerge().status();  // failure is the point
  }

  // --- Crash ---
  session_.reset();
  db_.reset();
  injector.Reset();

  // Optionally make recovery itself run through a failing .load site;
  // recovery is best-effort there (WAL replay covers the gap), so it must
  // still succeed.
  std::string load_site;
  if (r.NextBounded(10) < 3) {
    for (const io::RegisteredFault& f : catalog) {
      const std::string site = f.site;
      if (site == "delta.load" || site == "snapshot.load") {
        if (load_site.empty() || r.NextBounded(2) == 0) load_site = site;
      }
    }
    if (!load_site.empty()) {
      injector.Arm(load_site, io::FaultSpec{io::FaultKind::kFailOpen, 0});
      ++stats_.faults_armed;
    }
  }

  db_ = std::make_unique<Database>(MakeDbOptions());
  Status schema_status = DefineSchema(db_.get());
  if (!schema_status.ok()) return Fail("schema-error", schema_status.ToString());
  Database::RecoveryOptions ropts;
  if (snapshot_saved_) ropts.snapshot_dir = snap_dir;
  auto report = db_->Recover(ropts);
  injector.Reset();
  if (!report.ok()) {
    return Fail("recovery-failed", report.status().ToString());
  }
  session_ = std::make_unique<GsqlSession>(db_.get());
  ++stats_.crash_recoveries;

  // --- Reconcile uncertain vertices against what actually recovered ---
  const Tid read_tid = db_->store()->visible_tid();
  auto matches = [&](VertexId vid, bool exists, const GoldenVertex& v) -> bool {
    if (db_->store()->IsVisible(vid, read_tid) != exists) return false;
    if (!exists) return true;
    for (const auto& [name, value] : v.attrs) {
      auto actual = db_->store()->GetAttr(vid, name, read_tid);
      if (!actual.ok() || !ValueEquals(*actual, value)) return false;
    }
    std::vector<float> buf(dim_);
    auto emb = v.embeddings.find("emb");
    const bool has =
        db_->embeddings()->GetEmbedding(v.type, "emb", vid, buf.data()).ok();
    if (has != (emb != v.embeddings.end())) return false;
    if (has && buf != emb->second) return false;
    return true;
  };
  for (const UncertainMutation& u : uncertain) {
    const bool before_ok =
        matches(u.vid, u.existed_before, u.before);
    const bool after_ok = u.attempted_delete
                              ? matches(u.vid, false, u.after)
                              : matches(u.vid, true, u.after);
    if (before_ok) {
      continue;  // the failed commit never became durable
    }
    if (after_ok) {
      // The WAL record was durable after all; fold the attempt into the
      // model so later oracle checks agree with the engine.
      if (u.attempted_delete) {
        model_.DeleteVertex(u.vid);
      } else {
        model_.InsertVertex(u.vid, u.after);
      }
      continue;
    }
    return Fail("recovery-divergence",
                "vid " + std::to_string(u.vid) +
                    " recovered to neither its committed nor its attempted state");
  }

  if (opts_.sq8 && !VerifySq8RecoveryStability(r)) return false;

  return VerifyModel("post-recovery");
}

bool FuzzCase::VerifySq8RecoveryStability(Rng& r) {
  // The recovered quantizer must act as a pure function of the adopted
  // state: the same query, asked twice, must rank the same code-ordered
  // candidate pool and rerank to the same answer, bit for bit — any drift
  // means the trailer params or the load-time re-encode are nondeterministic.
  // (Pre-crash answers are not comparable: recovery re-derives segment and
  // index structure from the WAL, which legitimately changes the approximate
  // candidate pool, so stability is asserted on the recovered database.)
  const std::vector<float> qv = RandVec(r);
  VectorSearchRequest request;
  request.attrs = {{"T0", "emb"}, {"T1", "emb"}};
  request.query = qv.data();
  request.k = 8;
  request.pool = nullptr;  // identical sequential execution on both runs
  auto first = db_->embeddings()->TopKSearch(request);
  auto second = db_->embeddings()->TopKSearch(request);
  if (!first.ok() || !second.ok()) {
    return Fail("sq8-recovered-search-error",
                "first: " + first.status().ToString() +
                    "; second: " + second.status().ToString());
  }
  ++stats_.sq8_stability_checks;
  if (first->hits.size() != second->hits.size() ||
      first->quant_segments != second->quant_segments ||
      first->reranked != second->reranked) {
    return Fail("sq8-recovery-instability",
                "recovered quantizer returned different rerank sets: " +
                    std::to_string(first->hits.size()) + " hits/" +
                    std::to_string(first->reranked) + " reranked vs " +
                    std::to_string(second->hits.size()) + "/" +
                    std::to_string(second->reranked));
  }
  for (size_t i = 0; i < first->hits.size(); ++i) {
    if (first->hits[i].label != second->hits[i].label ||
        first->hits[i].distance != second->hits[i].distance) {
      return Fail("sq8-recovery-instability",
                  "hit " + std::to_string(i) + " differs across identical "
                  "post-recovery queries: (" +
                      std::to_string(first->hits[i].label) + ", " +
                      std::to_string(first->hits[i].distance) + ") vs (" +
                      std::to_string(second->hits[i].label) + ", " +
                      std::to_string(second->hits[i].distance) + ")");
    }
  }
  return true;
}

bool FuzzCase::VerifyModel(const char* context) {
  const Tid read_tid = db_->store()->visible_tid();
  auto e0 = db_->schema()->GetEdgeType("e0");
  if (!e0.ok()) return Fail("schema-error", e0.status().ToString());
  for (const auto& [vid, v] : model_.vertices()) {
    if (!db_->store()->IsVisible(vid, read_tid)) {
      return Fail("model-divergence", std::string(context) + ": live vid " +
                                          std::to_string(vid) + " is not visible");
    }
    auto type_id = db_->store()->GetVertexType(vid);
    if (!type_id.ok() || db_->schema()->vertex_type(*type_id).name != v.type) {
      return Fail("model-divergence", std::string(context) + ": vid " +
                                          std::to_string(vid) + " type mismatch");
    }
    for (const auto& [name, value] : v.attrs) {
      auto actual = db_->store()->GetAttr(vid, name, read_tid);
      if (!actual.ok() || !ValueEquals(*actual, value)) {
        return Fail("model-divergence",
                    std::string(context) + ": vid " + std::to_string(vid) +
                        " attr '" + name + "' diverged (model " +
                        ValueToString(value) + ")");
      }
    }
    std::vector<float> buf(dim_);
    const bool has_emb =
        db_->embeddings()->GetEmbedding(v.type, "emb", vid, buf.data()).ok();
    auto emb = v.embeddings.find("emb");
    if (has_emb != (emb != v.embeddings.end())) {
      return Fail("model-divergence",
                  std::string(context) + ": vid " + std::to_string(vid) +
                      " embedding presence diverged");
    }
    if (has_emb && buf != emb->second) {
      return Fail("model-divergence",
                  std::string(context) + ": vid " + std::to_string(vid) +
                      " embedding bytes diverged");
    }
    if (v.type == "T0") {
      std::set<VertexId> actual;
      db_->store()->ForEachNeighbor(vid, (*e0)->id, Direction::kOut, read_tid,
                                    [&](VertexId peer) {
                                      if (db_->store()->IsVisible(peer, read_tid)) {
                                        actual.insert(peer);
                                      }
                                    });
      const std::vector<VertexId> expect = model_.Neighbors(vid, "e0", Direction::kOut);
      if (std::vector<VertexId>(actual.begin(), actual.end()) != expect) {
        return Fail("model-divergence",
                    std::string(context) + ": vid " + std::to_string(vid) +
                        " out-edge set diverged (" + std::to_string(actual.size()) +
                        " vs " + std::to_string(expect.size()) + ")");
      }
    }
  }
  for (VertexId vid : model_.tombstones()) {
    if (db_->store()->IsVisible(vid, read_tid)) {
      return Fail("deleted-vertex-visible",
                  std::string(context) + ": deleted vid " + std::to_string(vid) +
                      " is visible again");
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

FuzzCaseResult RunFuzzCase(const FuzzOptions& options) {
  FuzzCase c(options);
  return c.Run();
}

std::vector<size_t> ShrinkFailingCase(const FuzzOptions& options, size_t max_runs) {
  size_t runs = 0;
  auto still_fails = [&](const std::vector<size_t>& skip) {
    if (runs >= max_runs) return false;
    ++runs;
    FuzzOptions o = options;
    o.skip = skip;
    o.verbose = false;
    return !RunFuzzCase(o).ok;
  };

  std::set<size_t> skip(options.skip.begin(), options.skip.end());
  // ddmin-lite over op indices: try removing aligned chunks, halving the
  // chunk size until single ops. The per-op sub-seeds make any subset of
  // the tape replay identically, so every probe is meaningful.
  for (size_t chunk = options.ops; chunk >= 1; chunk /= 2) {
    bool progress = true;
    while (progress && runs < max_runs) {
      progress = false;
      for (size_t start = 0; start < options.ops && runs < max_runs; start += chunk) {
        std::set<size_t> candidate = skip;
        bool grew = false;
        for (size_t i = start; i < std::min(options.ops, start + chunk); ++i) {
          grew |= candidate.insert(i).second;
        }
        if (!grew) continue;
        std::vector<size_t> candidate_vec(candidate.begin(), candidate.end());
        if (still_fails(candidate_vec)) {
          skip = std::move(candidate);
          progress = chunk > 1;  // single-op sweep needs only one pass
        }
      }
    }
    if (chunk == 1) break;
  }
  return std::vector<size_t>(skip.begin(), skip.end());
}

std::string ReproCommand(const FuzzOptions& options, const std::vector<size_t>& skip) {
  std::string cmd = "tools/tv_fuzz --seed=" + std::to_string(options.seed) +
                    " --ops=" + std::to_string(options.ops);
  if (options.with_faults) cmd += " --faults";
  if (!options.with_mpp) cmd += " --no-mpp";
  if (options.cache_diff) cmd += " --cache";
  if (options.sq8) cmd += " --sq8";
  if (!skip.empty()) cmd += " --skip=" + JoinIndices(skip);
  return cmd;
}

}  // namespace testing
}  // namespace tigervector
