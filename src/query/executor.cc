#include "query/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

#include "cache/query_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/timer.h"
#include "util/topk_heap.h"

namespace tigervector {

namespace {

const char* OpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

// Collects the aliases referenced by an expression.
void CollectAliases(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kAttrRef) {
    if (std::find(out->begin(), out->end(), expr.alias) == out->end()) {
      out->push_back(expr.alias);
    }
  }
  if (expr.lhs != nullptr) CollectAliases(*expr.lhs, out);
  if (expr.rhs != nullptr) CollectAliases(*expr.rhs, out);
}

bool ContainsVectorDist(const Expr& expr) {
  if (expr.kind == Expr::Kind::kVectorDist) return true;
  if (expr.lhs != nullptr && ContainsVectorDist(*expr.lhs)) return true;
  if (expr.rhs != nullptr && ContainsVectorDist(*expr.rhs)) return true;
  return false;
}

// Splits a WHERE tree into top-level AND conjuncts.
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinaryOp::kAnd) {
    SplitConjuncts(expr->lhs.get(), out);
    SplitConjuncts(expr->rhs.get(), out);
    return;
  }
  out->push_back(expr);
}

Result<double> ParamAsDouble(const QueryParams& params, const std::string& name) {
  auto it = params.find(name);
  if (it == params.end()) {
    return Status::InvalidArgument("missing query parameter $" + name);
  }
  if (std::holds_alternative<int64_t>(it->second)) {
    return static_cast<double>(std::get<int64_t>(it->second));
  }
  if (std::holds_alternative<double>(it->second)) {
    return std::get<double>(it->second);
  }
  return Status::InvalidArgument("parameter $" + name + " is not numeric");
}

Result<const std::vector<float>*> ParamAsVector(const QueryParams& params,
                                                const std::string& name) {
  auto it = params.find(name);
  if (it == params.end()) {
    return Status::InvalidArgument("missing query parameter $" + name);
  }
  if (!std::holds_alternative<std::vector<float>>(it->second)) {
    return Status::InvalidArgument("parameter $" + name + " is not a vector");
  }
  return &std::get<std::vector<float>>(it->second);
}

std::string FmtMillis(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string FmtSelectivity(size_t kept, size_t universe) {
  if (universe == 0) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f",
                static_cast<double>(kept) / static_cast<double>(universe));
  return buf;
}

// Collects the $parameter names referenced by an expression, in a stable
// (traversal) order.
void CollectParamNames(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kParam) {
    if (std::find(out->begin(), out->end(), expr.param) == out->end()) {
      out->push_back(expr.param);
    }
  }
  if (expr.lhs != nullptr) CollectParamNames(*expr.lhs, out);
  if (expr.rhs != nullptr) CollectParamNames(*expr.rhs, out);
}

// Folds one bound parameter value into a fingerprint, tagged by type so
// e.g. int64 3 and double 3.0 cannot alias.
cache::Fingerprint FingerprintParamValue(cache::Fingerprint fp,
                                         const QueryParam& value) {
  if (std::holds_alternative<int64_t>(value)) {
    fp = cache::CombineFingerprint(fp, 1);
    return cache::CombineFingerprint(fp,
                                     static_cast<uint64_t>(std::get<int64_t>(value)));
  }
  if (std::holds_alternative<double>(value)) {
    const double d = std::get<double>(value);
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    fp = cache::CombineFingerprint(fp, 2);
    return cache::CombineFingerprint(fp, bits);
  }
  if (std::holds_alternative<std::string>(value)) {
    fp = cache::CombineFingerprint(fp, 3);
    return cache::CombineFingerprints(
        fp, cache::FingerprintString(std::get<std::string>(value)));
  }
  const auto& vec = std::get<std::vector<float>>(value);
  fp = cache::CombineFingerprint(fp, 4);
  return cache::CombineFingerprints(
      fp, cache::FingerprintBytes(vec.data(), vec.size() * sizeof(float)));
}

// Renders a ScanCacheProbe as the `cache:` actual value.
std::string ScanCacheLabel(size_t hits, size_t misses, size_t bypasses) {
  const bool h = hits > 0, m = misses > 0, b = bypasses > 0;
  if (h && !m && !b) return "hit";
  if (m && !h && !b) return "miss";
  if (!h && !m) return "bypass";
  return "partial(hit=" + std::to_string(hits) + ",miss=" + std::to_string(misses) +
         ",bypass=" + std::to_string(bypasses) + ")";
}

// The active query trace at one instant. EXPLAIN ANALYZE snapshots it
// before and after a search node; every actual of the node is the diff.
// Spans are compared by position: a query's span list only grows.
struct TraceSnapshot {
  std::map<std::string, uint64_t> counters;
  std::vector<obs::QueryTrace::Span> spans;
};

TraceSnapshot SnapshotTrace() {
  TraceSnapshot snap;
  if (const obs::QueryTrace* trace = obs::CurrentTrace()) {
    snap.counters = trace->Counters();
    snap.spans = trace->Spans();
  }
  return snap;
}

// Appends the actuals every vector-search node reports, all read from what
// the trace gained since `before`: tier counts, quantization, HNSW cost, the
// top-k cache outcome and, under an MPP `cluster`, per-server and merge
// times. Range search pins quantization off, so `range` fixes that line.
void AddSearchActuals(const TraceSnapshot& before, const Cluster* cluster, bool range,
                      std::vector<std::pair<std::string, std::string>>* actuals) {
  const TraceSnapshot after = SnapshotTrace();
  auto delta = [&](const char* name) -> uint64_t {
    const auto now = after.counters.find(name);
    if (now == after.counters.end()) return 0;
    const auto then = before.counters.find(name);
    return now->second - (then == before.counters.end() ? 0 : then->second);
  };
  auto add = [&](std::string key, std::string value) {
    actuals->emplace_back(std::move(key), std::move(value));
  };
  add("segments_searched", std::to_string(delta("search.segments")));
  add("bruteforce_segments", std::to_string(delta("search.bruteforce_segments")));
  add("delta_candidates", std::to_string(delta("search.delta_candidates")));
  if (range) {
    add("quant", "off (range is exact)");
  } else {
    add("quant", delta("search.quant_segments") > 0
                     ? "sq8, reranked " + std::to_string(delta("search.reranked"))
                     : "off");
  }
  add("hnsw_distance_evals", std::to_string(delta("hnsw.distance_evals")));
  add("hnsw_hops", std::to_string(delta("hnsw.hops")));
  add("cache", ScanCacheLabel(delta("cache.topk_hit"), delta("cache.topk_miss"),
                              delta("cache.topk_bypass")));
  if (cluster == nullptr) return;
  std::map<std::string, double> seconds;  // by span name
  for (size_t i = before.spans.size(); i < after.spans.size(); ++i) {
    seconds[after.spans[i].name] += after.spans[i].micros / 1e6;
  }
  // A search served without fanning out (a cache hit) has no server lines;
  // one that did lists every server, idle ones at zero.
  if (seconds.count("cluster.merge") > 0) {
    for (size_t s = 0; s < cluster->num_servers(); ++s) {
      add("server_" + std::to_string(s),
          FmtMillis(seconds["cluster.server_" + std::to_string(s)]));
    }
  }
  add("mpp_merge", FmtMillis(seconds["cluster.merge"]));
}

// The read check of a typed pattern node: a type scan, and a pure top-k or
// range that searches the type without scanning it, fail alike for a role
// that cannot read the type.
Status CheckCanRead(Database* db, const std::string& role, int type_id) {
  if (db->access()->CanRead(role, static_cast<VertexTypeId>(type_id))) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "permission denied: role '" + role + "' cannot read vertex type " +
      db->schema()->vertex_type(type_id).name);
}

}  // namespace

std::string QueryPlan::Render(bool analyzed) const {
  std::ostringstream out;
  for (const Op& op : ops) {
    const PlanNode& node = op.node;
    out << node.label << "\n";
    for (const std::string& detail : node.details) {
      out << "    - " << detail << "\n";
    }
    if (analyzed) {
      for (const auto& [key, value] : node.actuals) {
        out << "    * " << key << ": " << value << "\n";
      }
    }
  }
  return out.str();
}

std::string ExprToString(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return ValueToString(expr.literal);
    case Expr::Kind::kAttrRef:
      return expr.alias + "." + expr.attr;
    case Expr::Kind::kParam:
      return "$" + expr.param;
    case Expr::Kind::kNot:
      return "NOT (" + ExprToString(*expr.lhs) + ")";
    case Expr::Kind::kVectorDist:
      return "VECTOR_DIST(" + ExprToString(*expr.lhs) + ", " +
             ExprToString(*expr.rhs) + ")";
    case Expr::Kind::kBinary:
      return ExprToString(*expr.lhs) + " " + OpName(expr.op) + " " +
             ExprToString(*expr.rhs);
  }
  return "?";
}

Result<std::vector<QueryPlan::Alias>> QueryExecutor::ResolveNodes(
    const SelectStmt& stmt, const VarMap& vars) const {
  std::vector<QueryPlan::Alias> nodes;
  int anon = 0;
  for (const NodePattern& np : stmt.pattern.nodes) {
    QueryPlan::Alias node;
    node.name = np.alias.empty() ? "_" + std::to_string(anon++) : np.alias;
    if (np.source.empty()) {
      return Status::SemanticError("node '" + node.name +
                                   "' needs a vertex type or a vertex set variable");
    }
    auto var_it = vars.find(np.source);
    if (var_it != vars.end()) {
      node.var = &var_it->second;
    } else {
      auto vt = db_->schema()->GetVertexType(np.source);
      if (!vt.ok()) {
        return Status::SemanticError("'" + np.source +
                                     "' is neither a vertex type nor a vertex set "
                                     "variable");
      }
      node.type_id = (*vt)->id;
    }
    nodes.push_back(std::move(node));
  }
  // Duplicate aliases are not supported (no cyclic patterns).
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].name == nodes[j].name) {
        return Status::SemanticError("duplicate alias '" + nodes[i].name + "'");
      }
    }
  }
  return nodes;
}

Result<const Value*> QueryExecutor::EvalValue(const Expr& expr, const Row& row,
                                              const QueryParams& params,
                                              Value* scratch) const {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return &expr.literal;
    case Expr::Kind::kAttrRef: {
      const int idx = row.type->AttrIndex(expr.attr);
      const Value* value = idx < 0 ? nullptr : row.attrs->Get(static_cast<uint16_t>(idx));
      if (value != nullptr) return value;
      return Status::NotFound("attribute " + expr.attr + " on " + row.type->name);
    }
    case Expr::Kind::kParam: {
      auto it = params.find(expr.param);
      if (it == params.end()) {
        return Status::InvalidArgument("missing query parameter $" + expr.param);
      }
      if (std::holds_alternative<int64_t>(it->second)) {
        return &(*scratch = Value{std::get<int64_t>(it->second)});
      }
      if (std::holds_alternative<double>(it->second)) {
        return &(*scratch = Value{std::get<double>(it->second)});
      }
      if (std::holds_alternative<std::string>(it->second)) {
        return &(*scratch = Value{std::get<std::string>(it->second)});
      }
      return Status::InvalidArgument("vector parameter $" + expr.param +
                                     " used in scalar context");
    }
    default:
      return Status::SemanticError("expression is not a scalar: " +
                                   ExprToString(expr));
  }
}

Result<bool> QueryExecutor::EvalPredicate(const Expr& expr, const Row& row,
                                          const QueryParams& params) const {
  switch (expr.kind) {
    case Expr::Kind::kNot: {
      auto inner = EvalPredicate(*expr.lhs, row, params);
      if (!inner.ok()) return inner;
      return !*inner;
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        auto lhs = EvalPredicate(*expr.lhs, row, params);
        if (!lhs.ok()) return lhs;
        if (expr.op == BinaryOp::kAnd && !*lhs) return false;
        if (expr.op == BinaryOp::kOr && *lhs) return true;
        return EvalPredicate(*expr.rhs, row, params);
      }
      Value lhs_param, rhs_param;
      auto lhs = EvalValue(*expr.lhs, row, params, &lhs_param);
      if (!lhs.ok()) return lhs.status();
      auto rhs = EvalValue(*expr.rhs, row, params, &rhs_param);
      if (!rhs.ok()) return rhs.status();
      switch (expr.op) {
        case BinaryOp::kEq: return ValueEquals(**lhs, **rhs);
        case BinaryOp::kNe: return !ValueEquals(**lhs, **rhs);
        case BinaryOp::kLt: return ValueLess(**lhs, **rhs);
        case BinaryOp::kGt: return ValueLess(**rhs, **lhs);
        case BinaryOp::kLe: return !ValueLess(**rhs, **lhs);
        case BinaryOp::kGe: return !ValueLess(**lhs, **rhs);
        default: break;
      }
      return Status::SemanticError("unsupported operator");
    }
    case Expr::Kind::kLiteral:
      if (std::holds_alternative<bool>(expr.literal)) {
        return std::get<bool>(expr.literal);
      }
      return Status::SemanticError("non-boolean literal as predicate");
    case Expr::Kind::kAttrRef: {
      Value param;
      auto v = EvalValue(expr, row, params, &param);
      if (!v.ok()) return v.status();
      if (std::holds_alternative<bool>(**v)) return std::get<bool>(**v);
      return Status::SemanticError("attribute " + expr.attr + " is not boolean");
    }
    default:
      return Status::SemanticError("unsupported predicate: " + ExprToString(expr));
  }
}

Result<CandidateSet> QueryExecutor::BaseSet(const QueryPlan::Alias& node, Tid read_tid,
                                            const QueryParams& params,
                                            ScanCacheProbe* probe) const {
  // Predicate scans poll the request's cancel token every check interval,
  // so a deadline expiring mid-scan aborts the statement promptly instead
  // of finishing a large segment sweep.
  uint32_t scanned = 0;
  auto passes = [&](const Row& row) -> Result<bool> {
    if ((++scanned & (kCancelCheckInterval - 1)) == 0) {
      Status cancelled = CancelCheckStatus();
      if (!cancelled.ok()) return cancelled;
    }
    for (const Expr* pred : node.predicates) {
      TV_COUNTER_INC("tv.query.predicate_evals_total");
      auto ok = EvalPredicate(*pred, row, params);
      if (!ok.ok()) return ok;
      if (!*ok) return false;
    }
    return true;
  };
  if (node.var != nullptr) {
    // Variable-bound sets are query-local; their contents are not keyed by
    // any store version, so they never touch the bitmap cache.
    probe->bypasses += 1;
    CandidateSet::Builder base(db_->store()->segment_capacity());
    for (VertexId vid : *node.var) {
      auto vt = db_->store()->GetVertexType(vid);
      if (!vt.ok()) continue;
      if (node.type_id >= 0 && *vt != node.type_id) continue;
      // Vertices of unauthorized types are invalid for this role.
      if (!db_->access()->CanRead(role_, *vt)) continue;
      Result<bool> ok = false;  // stays false unless visible at read_tid
      db_->store()->SegmentAt(vid / db_->store()->segment_capacity())
          ->ReadVertex(vid, read_tid, [&](const GraphSegment::Attrs& attrs) {
            ok = passes(Row{&db_->schema()->vertex_type(*vt), &attrs});
          });
      if (!ok.ok()) return ok.status();
      if (*ok) base.Insert(vid);
    }
    return std::move(base).Build();
  }
  TV_RETURN_NOT_OK(CheckCanRead(db_, role_, node.type_id));
  const VertexTypeDef* type = &db_->schema()->vertex_type(node.type_id);
  cache::QueryCache* cache = db_->cache();
  const bool cacheable = cache != nullptr && cache->enabled() && !cache_bypass_;
  // Predicate fingerprint: type + normalized predicate text + the values of
  // every referenced $parameter (same text with different bindings must not
  // alias).
  cache::Fingerprint pred_fp;
  if (cacheable) {
    pred_fp = cache::CombineFingerprint(
        pred_fp, static_cast<uint64_t>(node.type_id));
    std::vector<std::string> param_names;
    for (const Expr* pred : node.predicates) {
      pred_fp = cache::CombineFingerprints(
          pred_fp, cache::FingerprintString(ExprToString(*pred)));
      CollectParamNames(*pred, &param_names);
    }
    for (const std::string& name : param_names) {
      pred_fp = cache::CombineFingerprints(pred_fp, cache::FingerprintString(name));
      auto it = params.find(name);
      // A missing binding fails evaluation identically regardless of cache
      // state, so it need not be fingerprinted.
      if (it != params.end()) {
        pred_fp = FingerprintParamValue(pred_fp, it->second);
      }
    }
  }
  const size_t num_segments = db_->store()->NumSegments();
  CandidateSet base(db_->store()->segment_capacity());
  for (size_t i = 0; i < num_segments; ++i) {
    const GraphSegment* seg = db_->store()->SegmentAt(i);
    // Capture the version BEFORE the horizon gate. BumpVersion publishes
    // last_applied_tid before version, so a racing commit either trips the
    // gate below (horizon already raised) or fails the admit re-check
    // after the scan (version raised) — it can never pair the old horizon
    // with the new version and key a stale bitmap under it.
    const uint64_t version = seg->version();
    // Version-keyed entries describe the segment at its latest applied
    // horizon; a reader pinned below that horizon sees different rows and
    // must scan directly.
    cache::CacheKey key;
    const bool lookup = cacheable && seg->last_applied_tid() <= read_tid;
    if (!lookup) {
      probe->bypasses += 1;
    } else {
      key = cache::BitmapKey(pred_fp, seg->id(), version);
      if (cache::QueryCache::BitmapPtr bits = cache->LookupBitmap(key)) {
        probe->hits += 1;
        base.set_segment(i, std::move(bits));
        continue;
      }
      probe->misses += 1;
    }
    auto fresh = std::make_shared<Bitmap>(seg->capacity());
    Status status = Status::OK();
    const VertexId base_vid = seg->base_vid();
    seg->ScanVertices(node.type_id, read_tid, [&](VertexId vid,
                                                  const GraphSegment::Attrs& attrs) {
      if (!status.ok()) return;
      auto ok = passes(Row{type, &attrs});
      if (!ok.ok()) {
        status = ok.status();
        return;
      }
      if (*ok) fresh->Set(static_cast<size_t>(vid - base_vid));
    });
    TV_RETURN_NOT_OK(status);
    // Admit only if no commit or vacuum raced with the scan; a racing
    // writer would leave the bitmap describing neither version. The
    // horizon re-check is belt-and-braces for the window where a racing
    // mutation has raised last_applied_tid but its version bump is not
    // yet visible to this thread.
    if (lookup && seg->version() == version && seg->last_applied_tid() <= read_tid) {
      cache->InsertBitmap(key, fresh);
    }
    base.set_segment(i, std::move(fresh));
  }
  return base;
}

namespace {

// Static decision lines of one EmbeddingAction, SELECT's and VectorSearch()'s
// alike: the searched attributes (validated by the planner), the fan-out
// degree, the filter strategy (`filter_source` names the candidates; empty
// for a pure search), the brute-force-vs-HNSW tier threshold math (decided
// per segment at run time, so EXPLAIN states the rule rather than a winner;
// `accuracy` names the HNSW setting), the SIMD kernels and the quantization
// each attribute's schema pin, else the process TV_QUANT mode, selects.
std::vector<std::string> EmbeddingDetails(Database* db, const QueryPlan::Op& op,
                                          const std::string& accuracy,
                                          const std::string& filter_source) {
  std::vector<std::string> details;
  size_t segments = 0;
  std::string sq8_attrs;
  size_t num_sq8 = 0;
  for (const auto& [type_name, attr] : op.attrs) {
    const EmbeddingAttrDef* def =
        (*db->schema()->GetVertexType(type_name))->FindEmbeddingAttr(attr);
    details.push_back("embedding: " + type_name + "." + attr +
                      " dim=" + std::to_string(def->info.dimension) +
                      " metric=" + MetricName(def->info.metric));
    segments += db->embeddings()->SegmentsOf(type_name, attr).size();
    if (QuantEnabled(def->info)) {
      sq8_attrs += (num_sq8++ == 0 ? "" : ", ") + type_name + "." + attr;
    }
  }
  const size_t num_servers =
      db->cluster() != nullptr ? db->cluster()->num_servers() : 1;
  details.push_back("fan-out: " + std::to_string(segments) + " segment(s) across " +
                    std::to_string(num_servers) + " server(s)" +
                    (num_servers > 1 ? " [MPP scatter/gather]" : ""));
  if (filter_source.empty()) {
    details.push_back("strategy: pure vector search (no filter bitmap)");
    details.push_back("tier: HNSW(" + accuracy + ") on every segment");
  } else {
    details.push_back("strategy: pre-filter (" + filter_source +
                      " -> candidate bitmap)");
    details.push_back("tier: per segment, brute-force if |bitmap * segment| < " +
                      std::to_string(db->embeddings()->options().bruteforce_threshold) +
                      ", else HNSW(" + accuracy + ")");
  }
  details.push_back(std::string("simd: ") + simd::ActiveIsaName() +
                    " distance kernels");
  if (num_sq8 == 0) {
    details.push_back("quant: off (exact fp32 scan)");
  } else {
    details.push_back("quant: sq8 (rank on int8 codes, rerank " +
                      std::to_string(simd::DefaultRerankFactor()) + "*k exact fp32)" +
                      (num_sq8 == op.attrs.size()
                           ? ""
                           : " on " + sq8_attrs + ", exact fp32 elsewhere"));
  }
  return details;
}

// k of a top-k or join: the planned literal, or its $parameter's binding.
Result<size_t> ResolveK(const QueryPlan::Op& op, const QueryParams& params) {
  if (op.k_param.empty()) return op.k;
  auto kd = ParamAsDouble(params, op.k_param);
  if (!kd.ok()) return kd.status();
  const int64_t k = static_cast<int64_t>(*kd);
  if (k <= 0) {
    return Status::InvalidArgument("top-k $" + op.k_param + " must be positive, got " +
                                   std::to_string(k));
  }
  return static_cast<size_t>(k);
}

void AddActual(QueryPlan::Op* op, std::string key, std::string value) {
  op->node.actuals.emplace_back(std::move(key), std::move(value));
}

// One Execute run: the database and the session settings it runs under,
// the statement's MVCC horizon and, per pattern alias, its candidate set.
struct ExecState {
  Database* db = nullptr;
  std::string role;
  bool cache_bypass = false;
  Tid read_tid = 0;
  bool analyze = false;
  std::vector<CandidateSet> cand;
};

// One pass of an EdgeAction's semi-join over edge `op.alias`, which joins
// the candidates of aliases `near` (op.alias) and `far` (op.alias + 1). The
// forward pass keeps the far candidates with a neighbor among the near ones;
// the backward pass keeps the near candidates with one among the far ones.
// Either pass walks the edges of the side with fewer candidates (exact
// popcounts), from the far side along the reverse relation, so the work is
// proportional to the smaller side. A pass writes a new set: a scan's
// bitmaps may be shared with the bitmap cache and with other queries.
Status RunSemiJoin(const QueryPlan& plan, QueryPlan::Op* op, bool forward,
                   ExecState* st) {
  const QueryPlan::Edge& edge = plan.edges[op->alias];
  const GraphStore* store = st->db->store();
  const int near = op->alias, far = op->alias + 1;
  const int walked = st->cand[near].Count() <= st->cand[far].Count() ? near : far;
  const int other = walked == near ? far : near;
  const Direction dir =
      walked == near ? edge.dir : store->ReverseDirection(edge.type, edge.dir);
  const CandidateSet& from = st->cand[walked];
  const CandidateSet& to = st->cand[other];
  // The pass filters `forward ? far : near`: the walked side itself, kept
  // when it reaches the other, or the other side, kept where it is reached.
  const bool keep_walked = walked == (forward ? far : near);
  CandidateSet::Builder kept(store->segment_capacity());
  uint32_t visited = 0;
  Status status = Status::OK();
  from.ForEach([&](VertexId vid) {
    if (!status.ok()) return;
    if ((++visited & (kCancelCheckInterval - 1)) == 0) {
      status = CancelCheckStatus();
      if (!status.ok()) return;
    }
    bool reached = false;
    store->ForEachNeighbor(vid, edge.type, dir, st->read_tid, [&](VertexId peer) {
      if (keep_walked && reached) return;  // one neighbor is enough
      if (!to.Contains(peer)) return;
      reached = true;
      if (!keep_walked) kept.Insert(peer);
    });
    if (keep_walked && reached) kept.Insert(vid);
  });
  TV_RETURN_NOT_OK(status);
  st->cand[forward ? far : near] = std::move(kept).Build();
  if (st->analyze) {
    AddActual(op, forward ? "forward" : "backward",
              "walked " + plan.aliases[walked].name + " (" +
                  std::to_string(visited) + ")");
  }
  return Status::OK();
}

Status RunRange(QueryPlan::Op* op, const QueryParams& params, ExecState* st,
                SelectResult* result) {
  auto query = ParamAsVector(params, op->query_param);
  if (!query.ok()) return query.status();
  double threshold = op->threshold;
  if (!op->threshold_param.empty()) {
    auto t = ParamAsDouble(params, op->threshold_param);
    if (!t.ok()) return t.status();
    threshold = *t;
  }
  if ((*query)->size() != op->info.dimension) {
    return Status::InvalidArgument(
        "query vector dimension " + std::to_string((*query)->size()) +
        " does not match " + op->attrs[0].first + "." + op->attrs[0].second +
        " dimension " + std::to_string(op->info.dimension));
  }
  VectorSearchRequest request;
  request.attrs = op->attrs;
  request.query = (*query)->data();
  request.k = 16;
  request.pool = st->db->pool();
  // The whole statement answers at one MVCC horizon.
  request.read_tid = st->read_tid;
  CandidateSet& cand = st->cand[op->alias];
  if (!op->pure) request.filter = FilterView(&cand);
  const size_t cand_in = st->analyze && !op->pure ? cand.Count() : 0;
  const TraceSnapshot before = st->analyze ? SnapshotTrace() : TraceSnapshot{};
  const float radius = static_cast<float>(threshold);
  auto hits = st->db->cluster() != nullptr
                  ? st->db->cluster()->DistributedRange(request, radius)
                  : st->db->embeddings()->RangeSearch(request, radius);
  if (!hits.ok()) return hits.status();
  // Range results (unbounded hit count, ef-doubling restarts) are not
  // admitted to the top-k result cache.
  TraceVectorSearch(*hits, cache::Outcome::kBypass);
  auto& distances = result->distances ? *result->distances : result->distances.emplace();
  CandidateSet::Builder kept(st->db->store()->segment_capacity());
  for (const SearchHit& h : hits->hits) {
    distances[h.label] = h.distance;
    if (op->pure || cand.Contains(h.label)) kept.Insert(h.label);
  }
  cand = std::move(kept).Build();
  if (st->analyze) {
    AddActual(op, "candidates_in",
              op->pure ? "all (pure range)" : std::to_string(cand_in));
    AddActual(op, "hits_in_range", std::to_string(hits->hits.size()));
    AddActual(op, "rows_out", std::to_string(cand.Count()));
    AddSearchActuals(before, st->db->cluster(), /*range=*/true, &op->node.actuals);
  }
  return Status::OK();
}

Status RunTopK(QueryPlan::Op* op, const QueryParams& params, ExecState* st,
               SelectResult* result) {
  TV_SPAN("query.topk");
  const bool from_pattern = op->alias >= 0;
  auto k = ResolveK(*op, params);
  if (!k.ok()) return k.status();
  auto query = ParamAsVector(params, op->query_param);
  if (!query.ok()) return query.status();
  // A SELECT's filter is its pattern's candidates: graph pattern and
  // predicates become the bitmaps one EmbeddingAction consumes (Sec.
  // 5.2/5.3). VectorSearch() takes a vertex-set variable instead.
  const CandidateSet* filter = from_pattern && !op->pure ? &st->cand[op->alias] : nullptr;
  Database::VectorSearchFnOptions options;
  options.filter = op->filter;
  options.ef = op->ef;
  options.distance_map =
      result->distances ? &*result->distances : &result->distances.emplace();
  options.role = st->role;
  // The whole statement answers at one MVCC horizon; the result cache keys
  // on it.
  options.read_tid = st->read_tid;
  options.bypass_cache = st->cache_bypass;
  const TraceSnapshot before = st->analyze ? SnapshotTrace() : TraceSnapshot{};
  auto hits = st->db->VectorSearch(op->attrs, **query, *k, options, filter);
  if (!hits.ok()) return hits.status();
  result->vertices = std::move(hits).value();
  if (!st->analyze) return Status::OK();
  if (op->filter != nullptr) {
    AddActual(op, "filter_candidates", std::to_string(op->filter->size()));
  } else if (filter != nullptr) {
    const size_t count = filter->Count();
    AddActual(op, "filter_candidates", std::to_string(count));
    AddActual(op, "filter_selectivity",
              FmtSelectivity(count, st->db->store()->vid_upper_bound()));
  } else if (from_pattern) {
    AddActual(op, "filter_candidates", "none (pure search)");
  }
  AddActual(op, "rows_out", std::to_string(result->vertices.size()));
  AddSearchActuals(before, st->db->cluster(), /*range=*/false, &op->node.actuals);
  return Status::OK();
}

Status RunSimilarityJoin(const QueryPlan& plan, QueryPlan::Op* op,
                         const QueryParams& params, ExecState* st,
                         SelectResult* result) {
  TV_SPAN("query.topk");
  auto k = ResolveK(*op, params);
  if (!k.ok()) return k.status();
  const size_t dim = op->info.dimension;
  // Enumerate matched (s, t) pairs by walking the chain from each s;
  // brute-force distances with a global top-k heap accumulator. Every s
  // comes once from its candidate set and every t once from that s's
  // frontier set, so no pair is scored twice.
  std::unordered_map<VertexId, std::vector<float>> s_vecs, t_vecs;
  auto vec_of = [&](std::unordered_map<VertexId, std::vector<float>>& cache,
                    const std::pair<std::string, std::string>& attr,
                    VertexId vid) -> const std::vector<float>* {
    auto it = cache.find(vid);
    if (it != cache.end()) return &it->second;
    std::vector<float> v(dim);
    if (!st->db->embeddings()
             ->GetEmbedding(attr.first, attr.second, vid, v.data(), st->read_tid)
             .ok()) {
      return nullptr;
    }
    return &cache.emplace(vid, std::move(v)).first->second;
  };
  TopKHeap<std::pair<VertexId, VertexId>> heap(*k);  // ties by (s, t)
  size_t pairs_evaluated = 0;
  // The request deadline is polled once per s; a fired token fails the
  // statement rather than returning the pairs found so far.
  Status status = Status::OK();
  st->cand[op->alias].ForEach([&](VertexId s) {
    if (!status.ok()) return;
    status = CancelCheckStatus();
    if (!status.ok()) return;
    // Walk the chain to find reachable t's under the candidate sets.
    VertexSet frontier{s};
    for (size_t e = 0; e < plan.edges.size(); ++e) {
      VertexSet next;
      for (VertexId vid : frontier) {
        st->db->store()->ForEachNeighbor(
            vid, plan.edges[e].type, plan.edges[e].dir, st->read_tid,
            [&](VertexId peer) {
              if (st->cand[e + 1].Contains(peer)) next.insert(peer);
            });
      }
      frontier = std::move(next);
    }
    if (frontier.empty()) return;
    const std::vector<float>* sv = vec_of(s_vecs, op->attrs[0], s);
    if (sv == nullptr) return;
    for (VertexId t : frontier) {
      if (s == t) continue;
      ++pairs_evaluated;
      const std::vector<float>* tv = vec_of(t_vecs, op->attrs[1], t);
      if (tv == nullptr) continue;
      heap.Push(ComputeDistance(op->info.metric, sv->data(), tv->data(), dim), {s, t});
    }
  });
  TV_RETURN_NOT_OK(status);
  result->is_join = true;
  for (const auto& e : heap.TakeSorted()) {
    result->pairs.push_back(SelectResult::Pair{e.id.first, e.id.second, e.distance});
  }
  if (st->analyze) {
    AddActual(op, "pairs_evaluated", std::to_string(pairs_evaluated));
    AddActual(op, "rows_out", std::to_string(result->pairs.size()));
  }
  return Status::OK();
}

}  // namespace

Result<QueryPlan> QueryExecutor::PlanSelect(const SelectStmt& stmt,
                                            const VarMap& vars) const {
  Timer plan_timer;
  QueryPlan plan;
  auto nodes_result = ResolveNodes(stmt, vars);
  if (!nodes_result.ok()) return nodes_result.status();
  plan.aliases = std::move(nodes_result).value();
  std::vector<QueryPlan::Alias>& nodes = plan.aliases;
  auto alias_index = [&](const std::string& alias) -> int {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == alias) return static_cast<int>(i);
    }
    return -1;
  };
  // Looks up the embedding attribute a vector op searches on `alias`.
  auto embedding_attr = [&](int alias,
                            const std::string& attr) -> Result<const EmbeddingAttrDef*> {
    const VertexTypeDef& vt = db_->schema()->vertex_type(nodes[alias].type_id);
    const EmbeddingAttrDef* def = vt.FindEmbeddingAttr(attr);
    if (def == nullptr) {
      return Status::SemanticError("'" + attr + "' is not an embedding attribute of " +
                                   vt.name);
    }
    return def;
  };

  // ---- Classify WHERE conjuncts ----
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  std::vector<const Expr*> range_conjuncts;
  for (const Expr* conjunct : conjuncts) {
    if (ContainsVectorDist(*conjunct)) {
      // Range search predicate: VECTOR_DIST(alias.attr, $q) < threshold.
      if (conjunct->kind != Expr::Kind::kBinary ||
          (conjunct->op != BinaryOp::kLt && conjunct->op != BinaryOp::kLe) ||
          conjunct->lhs->kind != Expr::Kind::kVectorDist) {
        return Status::SemanticError(
            "VECTOR_DIST in WHERE must have the form VECTOR_DIST(v.attr, $q) < t");
      }
      const Expr& dist = *conjunct->lhs;
      if (dist.lhs->kind != Expr::Kind::kAttrRef) {
        return Status::SemanticError("VECTOR_DIST first argument must be v.attr");
      }
      if (alias_index(dist.lhs->alias) < 0) {
        return Status::SemanticError("unknown alias '" + dist.lhs->alias + "'");
      }
      range_conjuncts.push_back(conjunct);
      continue;
    }
    std::vector<std::string> aliases;
    CollectAliases(*conjunct, &aliases);
    if (aliases.size() > 1) {
      return Status::SemanticError("predicates across aliases are not supported: " +
                                   ExprToString(*conjunct));
    }
    if (aliases.empty()) {
      return Status::SemanticError("predicate references no alias: " +
                                   ExprToString(*conjunct));
    }
    const int idx = alias_index(aliases[0]);
    if (idx < 0) {
      return Status::SemanticError("unknown alias '" + aliases[0] + "'");
    }
    nodes[idx].predicates.push_back(conjunct);
  }

  // ---- Resolve edge types ----
  for (const EdgePattern& ep : stmt.pattern.edges) {
    auto et = db_->schema()->GetEdgeType(ep.edge_type);
    if (!et.ok()) return et.status();
    plan.edges.push_back(QueryPlan::Edge{(*et)->id, ep.dir});
  }

  // ---- Range search conjuncts ----
  std::vector<QueryPlan::Op> ranges;
  for (const Expr* conjunct : range_conjuncts) {
    const Expr& dist = *conjunct->lhs;
    const Expr& threshold = *conjunct->rhs;
    QueryPlan::Op op;
    op.kind = QueryPlan::Op::Kind::kRange;
    op.alias = alias_index(dist.lhs->alias);
    if (dist.rhs->kind != Expr::Kind::kParam) {
      return Status::SemanticError("VECTOR_DIST query operand must be a $parameter");
    }
    op.query_param = dist.rhs->param;
    if (threshold.kind == Expr::Kind::kLiteral) {
      if (std::holds_alternative<double>(threshold.literal)) {
        op.threshold = std::get<double>(threshold.literal);
      } else if (std::holds_alternative<int64_t>(threshold.literal)) {
        op.threshold = static_cast<double>(std::get<int64_t>(threshold.literal));
      } else {
        return Status::SemanticError("range threshold must be numeric");
      }
    } else if (threshold.kind == Expr::Kind::kParam) {
      op.threshold_param = threshold.param;
    } else {
      return Status::SemanticError("range threshold must be a literal or $parameter");
    }
    const QueryPlan::Alias& node = nodes[op.alias];
    if (node.type_id < 0) {
      return Status::SemanticError("range search alias must have a vertex type");
    }
    auto def = embedding_attr(op.alias, dist.lhs->attr);
    if (!def.ok()) return def.status();
    op.attrs = {{db_->schema()->vertex_type(node.type_id).name, dist.lhs->attr}};
    op.info = (*def)->info;
    // A single bare alias's first range searches unfiltered; every later
    // range keeps only the candidates of the ranges before it.
    op.pure = nodes.size() == 1 && node.predicates.empty() && node.var == nullptr &&
              ranges.empty();
    op.node.label = "EmbeddingAction[Range, {" + node.name + "." + dist.lhs->attr +
                    "}, " + ExprToString(*dist.rhs) + " < " +
                    ExprToString(threshold) + "]";
    op.node.details = EmbeddingDetails(db_, op, "doubling ef, k=16",
                                       op.pure ? "" : "pattern + predicates");
    ranges.push_back(std::move(op));
  }

  // ---- ORDER BY VECTOR_DIST: top-k search or similarity join ----
  if (stmt.order_dist != nullptr) {
    const Expr& dist = *stmt.order_dist;
    QueryPlan::Op op;
    if (stmt.has_limit && !stmt.limit_param.empty()) {
      op.k_param = stmt.limit_param;
    } else if (stmt.has_limit) {
      if (stmt.limit <= 0) {
        return Status::InvalidArgument("top-k LIMIT must be positive");
      }
      op.k = static_cast<size_t>(stmt.limit);
    }
    if (dist.lhs->kind == Expr::Kind::kAttrRef &&
        dist.rhs->kind == Expr::Kind::kAttrRef) {
      // ---- Vector similarity join on the pattern (Sec. 5.4) ----
      const int s_idx = alias_index(dist.lhs->alias);
      const int t_idx = alias_index(dist.rhs->alias);
      if (s_idx < 0 || t_idx < 0) {
        return Status::SemanticError("join aliases must appear in the pattern");
      }
      if (!(s_idx == 0 && t_idx == static_cast<int>(nodes.size()) - 1)) {
        return Status::SemanticError(
            "similarity join aliases must be the pattern endpoints");
      }
      if (stmt.select_aliases.size() != 2) {
        return Status::SemanticError("similarity join requires SELECT s, t");
      }
      if (nodes[s_idx].type_id < 0 || nodes[t_idx].type_id < 0) {
        return Status::SemanticError("join endpoints must have vertex types");
      }
      const VertexTypeDef& s_type = db_->schema()->vertex_type(nodes[s_idx].type_id);
      const VertexTypeDef& t_type = db_->schema()->vertex_type(nodes[t_idx].type_id);
      const EmbeddingAttrDef* s_def = s_type.FindEmbeddingAttr(dist.lhs->attr);
      const EmbeddingAttrDef* t_def = t_type.FindEmbeddingAttr(dist.rhs->attr);
      if (s_def == nullptr || t_def == nullptr) {
        return Status::SemanticError("join attributes must be embedding attributes");
      }
      TV_RETURN_NOT_OK(CheckCompatible(s_def->info, t_def->info));
      op.kind = QueryPlan::Op::Kind::kSimilarityJoin;
      op.alias = s_idx;
      op.attrs = {{s_type.name, dist.lhs->attr}, {t_type.name, dist.rhs->attr}};
      op.info = s_def->info;
      op.node.details.push_back(
          "similarity join: brute-force distances over matched endpoint "
          "pairs, global top-k heap");
    } else {
      // ---- Top-k vector search (pure or filtered, Sec. 5.1-5.3) ----
      if (dist.lhs->kind != Expr::Kind::kAttrRef ||
          dist.rhs->kind != Expr::Kind::kParam) {
        return Status::SemanticError(
            "ORDER BY VECTOR_DIST expects (alias.attr, $query_vector)");
      }
      const int idx = alias_index(dist.lhs->alias);
      if (idx < 0) {
        return Status::SemanticError("unknown alias '" + dist.lhs->alias + "'");
      }
      if (stmt.select_aliases.size() != 1 || alias_index(stmt.select_aliases[0]) < 0) {
        return Status::SemanticError("select alias must appear in the pattern");
      }
      if (stmt.select_aliases[0] != dist.lhs->alias) {
        return Status::SemanticError(
            "top-k vector search must select the searched alias '" +
            dist.lhs->alias + "'");
      }
      if (nodes[idx].type_id < 0) {
        return Status::SemanticError("vector search alias must have a vertex type");
      }
      auto def = embedding_attr(idx, dist.lhs->attr);
      if (!def.ok()) return def.status();
      op.kind = QueryPlan::Op::Kind::kTopK;
      op.alias = idx;
      op.attrs = {{db_->schema()->vertex_type(nodes[idx].type_id).name, dist.lhs->attr}};
      op.info = (*def)->info;
      op.query_param = dist.rhs->param;
      op.pure = nodes.size() == 1 && nodes[idx].predicates.empty() &&
                nodes[idx].var == nullptr && ranges.empty();
      op.node.details = EmbeddingDetails(db_, op, "ef=" + std::to_string(op.ef),
                                         op.pure ? "" : "pattern + predicates");
    }
    const std::string k_str =
        stmt.has_limit ? (stmt.limit_param.empty() ? std::to_string(stmt.limit)
                                                   : "$" + stmt.limit_param)
                       : "all";
    op.node.label = "EmbeddingAction[Top " + k_str + ", {" + ExprToString(*dist.lhs) +
                    "}, " + ExprToString(*dist.rhs) + "]";
    plan.ops.push_back(std::move(op));
  } else {
    // ---- Plain graph query: returns the selected alias's candidates ----
    if (stmt.select_aliases.size() != 1) {
      return Status::SemanticError("SELECT of two aliases requires a similarity join");
    }
    plan.output = alias_index(stmt.select_aliases[0]);
    if (plan.output < 0) {
      return Status::SemanticError("unknown select alias '" + stmt.select_aliases[0] +
                                   "'");
    }
    if (stmt.has_limit) plan.limit = static_cast<size_t>(stmt.limit);
  }
  for (QueryPlan::Op& op : ranges) plan.ops.push_back(std::move(op));
  // A single bare alias that a range or top-k searches needs no scan: the
  // first of those ops (a range runs before the top-k) searches unfiltered.
  const bool scan_free =
      nodes.size() == 1 && nodes[0].predicates.empty() && nodes[0].var == nullptr &&
      std::any_of(plan.ops.begin(), plan.ops.end(), [](const QueryPlan::Op& op) {
        return op.kind == QueryPlan::Op::Kind::kRange ||
               op.kind == QueryPlan::Op::Kind::kTopK;
      });

  // ---- Pattern: VertexAction / EdgeAction, printed from the last node down ----
  for (size_t i = scan_free ? 0 : nodes.size(); i-- > 0;) {
    QueryPlan::Op scan;
    scan.kind = QueryPlan::Op::Kind::kScan;
    scan.alias = static_cast<int>(i);
    std::string preds;
    for (const Expr* p : nodes[i].predicates) {
      if (!preds.empty()) preds += " AND ";
      preds += ExprToString(*p);
    }
    const std::string type_name = nodes[i].var != nullptr
                                      ? "<var>"
                                      : db_->schema()->vertex_type(nodes[i].type_id).name;
    scan.node.label = "VertexAction[" + type_name + ":" + nodes[i].name +
                      (preds.empty() ? "" : " {" + preds + "}") + "]";
    scan.node.details.push_back(nodes[i].var != nullptr ? "source: vertex-set variable"
                                                        : "source: type scan");
    if (!nodes[i].predicates.empty()) {
      scan.node.details.push_back("predicates: " +
                                  std::to_string(nodes[i].predicates.size()));
    }
    plan.ops.push_back(std::move(scan));
    if (i == 0) break;
    QueryPlan::Op edge;
    edge.kind = QueryPlan::Op::Kind::kSemiJoin;
    edge.alias = static_cast<int>(i - 1);
    edge.node.label = "EdgeAction[" + nodes[i - 1].name + " -" +
                      stmt.pattern.edges[i - 1].edge_type + "- " + nodes[i].name + "]";
    edge.node.details.push_back(
        "semi-join: forward then backward pass, each walking the edges of the side "
        "with fewer candidates");
    plan.ops.push_back(std::move(edge));
  }
  obs::RecordSpanMicros("query.plan", plan_timer.ElapsedMicros());
  return plan;
}

Result<QueryPlan> QueryExecutor::PlanVectorSearch(const VectorSearchStmt& stmt,
                                                  const VarMap& vars) const {
  Timer plan_timer;
  QueryPlan::Op op;
  op.kind = QueryPlan::Op::Kind::kTopK;
  op.attrs = stmt.attrs;
  op.query_param = stmt.query_param;
  if (stmt.k_param.empty()) {
    if (stmt.k <= 0) {
      return Status::InvalidArgument("VectorSearch k must be positive, got " +
                                     std::to_string(stmt.k));
    }
    op.k = static_cast<size_t>(stmt.k);
  }
  op.k_param = stmt.k_param;
  if (stmt.ef > 0) op.ef = static_cast<size_t>(stmt.ef);
  if (!stmt.filter_var.empty()) {
    auto it = vars.find(stmt.filter_var);
    if (it == vars.end()) {
      return Status::SemanticError("unknown vertex set variable '" + stmt.filter_var +
                                   "'");
    }
    op.filter = &it->second;
    op.pure = false;
  }
  std::string attrs_str;
  const EmbeddingAttrDef* first = nullptr;
  for (const auto& [type_name, attr] : stmt.attrs) {
    auto vt = db_->schema()->GetVertexType(type_name);
    if (!vt.ok()) return vt.status();
    const EmbeddingAttrDef* def = (*vt)->FindEmbeddingAttr(attr);
    if (def == nullptr) {
      return Status::SemanticError("'" + attr + "' is not an embedding attribute of " +
                                   type_name);
    }
    if (first == nullptr) {
      first = def;
    } else if (Status st = CheckCompatible(first->info, def->info); !st.ok()) {
      return Status::SemanticError("attributes " + stmt.attrs[0].first + "." +
                                   stmt.attrs[0].second + " and " + type_name + "." +
                                   attr + " are not compatible: " + st.message());
    }
    if (!attrs_str.empty()) attrs_str += ", ";
    attrs_str += type_name + "." + attr;
  }
  op.node.label = "EmbeddingAction[VectorSearch k=" +
                  (op.k_param.empty() ? std::to_string(op.k) : "$" + op.k_param) +
                  ", {" + attrs_str + "}]";
  op.node.details =
      EmbeddingDetails(db_, op, "ef=" + std::to_string(op.ef),
                       op.pure ? "" : "vertex-set variable '" + stmt.filter_var + "'");
  QueryPlan plan;
  plan.ops.push_back(std::move(op));
  obs::RecordSpanMicros("query.plan", plan_timer.ElapsedMicros());
  return plan;
}

Result<SelectResult> QueryExecutor::Execute(QueryPlan* plan, const QueryParams& params,
                                            bool analyze, Tid read_tid) {
  TV_SPAN("query.execute");
  TV_COUNTER_INC("tv.query.selects_total");
  // Records the latency on every exit path.
  struct SelectTimer {
    Timer timer;
    ~SelectTimer() {
      TV_HISTOGRAM_OBSERVE("tv.query.select_seconds", timer.ElapsedSeconds());
    }
  } select_timer;
  using Kind = QueryPlan::Op::Kind;
  ExecState st{db_, role_, cache_bypass_,
               std::min(read_tid, db_->store()->visible_tid()), analyze,
               std::vector<CandidateSet>(plan->aliases.size())};
  std::vector<ScanCacheProbe> probes(plan->aliases.size());
  std::vector<QueryPlan::Op>& ops = plan->ops;

  // ---- Candidate sets: the ops are stored top-down, so pattern order is
  // reverse op order. Every scan, then the semi-joins' forward pass in
  // pattern order and their backward pass in reverse ----
  if (std::any_of(ops.begin(), ops.end(),
                  [](const QueryPlan::Op& op) { return op.kind == Kind::kScan; })) {
    Timer cand_timer;
    for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
      if (op->kind != Kind::kScan) continue;
      auto base =
          BaseSet(plan->aliases[op->alias], st.read_tid, params, &probes[op->alias]);
      if (!base.ok()) return base.status();
      st.cand[op->alias] = std::move(base).value();
    }
    for (auto op = ops.rbegin(); op != ops.rend(); ++op) {
      if (op->kind == Kind::kSemiJoin) {
        TV_RETURN_NOT_OK(RunSemiJoin(*plan, &*op, /*forward=*/true, &st));
      }
    }
    for (QueryPlan::Op& op : ops) {
      if (op.kind == Kind::kSemiJoin) {
        TV_RETURN_NOT_OK(RunSemiJoin(*plan, &op, /*forward=*/false, &st));
      }
    }
    obs::RecordSpanMicros("query.candidates", cand_timer.ElapsedMicros());
    for (QueryPlan::Op& op : ops) {
      if (analyze && op.kind == Kind::kScan) {
        const ScanCacheProbe& probe = probes[op.alias];
        AddActual(&op, "rows", std::to_string(st.cand[op.alias].Count()));
        AddActual(&op, "cache", ScanCacheLabel(probe.hits, probe.misses, probe.bypasses));
      } else if (analyze && op.kind == Kind::kSemiJoin) {
        AddActual(&op, "rows_out", std::to_string(st.cand[op.alias + 1].Count()));
      }
    }
  } else if (!plan->aliases.empty()) {
    // A scan-free plan's first vector op searches the type unscanned, so
    // the scan's read check runs before it.
    TV_RETURN_NOT_OK(CheckCanRead(db_, role_, plan->aliases[0].type_id));
  }

  // ---- Vector ops: range filters in statement order, then the top-k ----
  SelectResult result;
  for (QueryPlan::Op& op : ops) {
    if (op.kind == Kind::kRange) TV_RETURN_NOT_OK(RunRange(&op, params, &st, &result));
  }
  for (QueryPlan::Op& op : ops) {
    if (op.kind == Kind::kTopK) {
      TV_RETURN_NOT_OK(RunTopK(&op, params, &st, &result));
    }
    if (op.kind == Kind::kSimilarityJoin) {
      TV_RETURN_NOT_OK(RunSimilarityJoin(*plan, &op, params, &st, &result));
    }
  }
  if (plan->output < 0) return result;

  // ---- Plain graph query: the selected alias's candidates, truncated by
  // vid ----
  result.vertices = CandidatesToVertexSet(st.cand[plan->output], plan->limit);
  for (QueryPlan::Op& op : ops) {
    if (analyze && op.kind == Kind::kScan && op.alias == plan->output) {
      AddActual(&op, "rows_returned", std::to_string(result.vertices.size()));
    }
  }
  return result;
}

}  // namespace tigervector
