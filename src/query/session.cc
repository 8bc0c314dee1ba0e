#include "query/session.h"

#include <algorithm>
#include <cctype>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace tigervector {

namespace {

// Session-level statement prefixes (not part of the GSQL grammar):
//   PROFILE <script>          -- EXPLAIN ANALYZE, cache bypassed, plus the
//                                stage breakdown
//   EXPLAIN <script>          -- plan only, nothing executes
//   EXPLAIN ANALYZE <script>  -- execute, annotate plan nodes with actuals
enum class QueryPrefix { kNone, kProfile, kExplain, kExplainAnalyze };

// Case-insensitive comparison of script[start, end) against a keyword.
bool WordIs(const std::string& script, size_t start, size_t end, const char* keyword) {
  const size_t len = std::char_traits<char>::length(keyword);
  if (end - start != len) return false;
  for (size_t i = 0; i < len; ++i) {
    if (std::toupper(static_cast<unsigned char>(script[start + i])) != keyword[i]) {
      return false;
    }
  }
  return true;
}

QueryPrefix StripQueryPrefix(const std::string& script, std::string* body) {
  *body = script;
  const size_t start = script.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) return QueryPrefix::kNone;
  size_t end = start;
  while (end < script.size() &&
         std::isalpha(static_cast<unsigned char>(script[end]))) {
    ++end;
  }
  if (WordIs(script, start, end, "PROFILE")) {
    *body = script.substr(end);
    return QueryPrefix::kProfile;
  }
  if (WordIs(script, start, end, "EXPLAIN")) {
    const size_t start2 = script.find_first_not_of(" \t\r\n", end);
    if (start2 != std::string::npos) {
      size_t end2 = start2;
      while (end2 < script.size() &&
             std::isalpha(static_cast<unsigned char>(script[end2]))) {
        ++end2;
      }
      if (WordIs(script, start2, end2, "ANALYZE")) {
        *body = script.substr(end2);
        return QueryPrefix::kExplainAnalyze;
      }
    }
    *body = script.substr(end);
    return QueryPrefix::kExplain;
  }
  return QueryPrefix::kNone;
}

// Classifies a failed run for the tv.query.errors_total{kind} counter.
const char* ErrorKind(const Status& status) {
  if (status.code() == StatusCode::kParseError) return "parse";
  if (status.code() == StatusCode::kDeadlineExceeded) return "deadline";
  if (status.code() == StatusCode::kUnavailable) return "cancelled";
  // A dimension mismatch is its own class: the most common client bug
  // (wrong embedding model) and worth tracking separately.
  if (status.message().find("dimension") != std::string::npos) return "dimension";
  if (status.code() == StatusCode::kSemanticError) return "semantic";
  // Distributed-search failures: a logical server failed mid-query or a
  // segment lost every replica.
  if (status.message().find("injected fault: server") != std::string::npos ||
      status.message().find("no live replica") != std::string::npos) {
    return "mpp_partial";
  }
  return "execution";
}

}  // namespace

Result<SelectResult> GsqlSession::RunPlan(Result<QueryPlan> plan,
                                          const QueryParams& params, bool execute,
                                          ScriptResult* result) {
  if (!plan.ok()) return plan.status();
  SelectResult out;
  if (execute) {
    auto r = executor_.Execute(&*plan, params, /*analyze=*/result->explained);
    if (!r.ok()) return r.status();
    out = std::move(r).value();
  }
  if (result->explained) {
    if (!result->explain.empty()) result->explain += "\n";
    result->explain += plan->Render(/*analyzed=*/execute);
  }
  return out;
}

Status GsqlSession::ExecuteStatements(const std::vector<Statement>& statements,
                                      const QueryParams& params, bool execute,
                                      ScriptResult* result) {
  for (const Statement& statement : statements) {
    // Deadline gate between statements: a multi-statement script stops at
    // the first statement boundary after the request's token fires.
    TV_RETURN_NOT_OK(CancelCheckStatus());
    if (const auto* s = std::get_if<CreateVertexStmt>(&statement)) {
      if (!execute) continue;
      auto r = db_->schema()->CreateVertexType(s->name, s->attrs);
      if (!r.ok()) return r.status();
    } else if (const auto* s = std::get_if<CreateEdgeStmt>(&statement)) {
      if (!execute) continue;
      auto r = db_->schema()->CreateEdgeType(s->name, s->from, s->to, s->directed);
      if (!r.ok()) return r.status();
    } else if (const auto* s = std::get_if<CreateEmbeddingSpaceStmt>(&statement)) {
      if (!execute) continue;
      TV_RETURN_NOT_OK(db_->schema()->CreateEmbeddingSpace(s->name, s->info));
    } else if (const auto* s = std::get_if<AlterAddEmbeddingStmt>(&statement)) {
      if (!execute) continue;
      if (s->in_space) {
        TV_RETURN_NOT_OK(
            db_->schema()->AddEmbeddingAttrInSpace(s->vertex_type, s->attr, s->space));
      } else {
        TV_RETURN_NOT_OK(db_->schema()->AddEmbeddingAttr(s->vertex_type, s->attr,
                                                         s->info));
      }
    } else if (const auto* s = std::get_if<SelectStmt>(&statement)) {
      auto r = RunPlan(executor_.PlanSelect(*s, vars_), params, execute, result);
      if (!r.ok()) return r.status();
      if (!execute) continue;
      if (r->is_join) {
        result->last_join_pairs = r->pairs;
        // A join's pair list is not a vertex set; store the union of the
        // endpoints if an output variable was requested.
        if (!s->out_var.empty()) {
          VertexSet endpoints;
          for (const auto& p : r->pairs) {
            endpoints.insert(p.source);
            endpoints.insert(p.target);
          }
          vars_[s->out_var] = std::move(endpoints);
        }
      } else if (!s->out_var.empty()) {
        vars_[s->out_var] = r->vertices;
      }
      if (!s->out_var.empty()) {
        // @@<var>_dist always describes the latest assignment: a vector
        // SELECT replaces it (even with no hits), any other SELECT drops it.
        const std::string dist_name = "@@" + s->out_var + "_dist";
        if (r->distances) {
          dist_maps_[dist_name] = std::move(*r->distances);
        } else {
          dist_maps_.erase(dist_name);
        }
      }
    } else if (const auto* s = std::get_if<VectorSearchStmt>(&statement)) {
      auto r = RunPlan(executor_.PlanVectorSearch(*s, vars_), params, execute, result);
      if (!r.ok()) return r.status();
      if (!execute) continue;
      if (!s->out_var.empty()) vars_[s->out_var] = std::move(r->vertices);
      // A top-k always fills its distance map.
      if (!s->distance_map.empty()) {
        dist_maps_[s->distance_map] = std::move(*r->distances);
      }
    } else if (const auto* s = std::get_if<LoadingJobStmt>(&statement)) {
      if (!execute) continue;
      // Loading jobs run eagerly on creation in this reproduction.
      LoadingJob job(s->name, s->graph);
      for (const LoadStep& step : s->steps) job.AddStep(step);
      auto report = job.Run(db_);
      if (!report.ok()) return report.status();
      result->last_load_report = std::move(report).value();
    } else if (const auto* s = std::get_if<SetOpStmt>(&statement)) {
      if (!execute) continue;
      auto lhs = vars_.find(s->lhs);
      auto rhs = vars_.find(s->rhs);
      if (lhs == vars_.end() || rhs == vars_.end()) {
        return Status::SemanticError("set operation on unknown variable");
      }
      VertexSet out;
      switch (s->op) {
        case SetOpStmt::Op::kUnion:
          out = lhs->second;
          out.insert(rhs->second.begin(), rhs->second.end());
          break;
        case SetOpStmt::Op::kIntersect:
          for (VertexId v : lhs->second) {
            if (rhs->second.count(v) > 0) out.insert(v);
          }
          break;
        case SetOpStmt::Op::kMinus:
          for (VertexId v : lhs->second) {
            if (rhs->second.count(v) == 0) out.insert(v);
          }
          break;
      }
      vars_[s->out_var] = std::move(out);
    } else if (const auto* s = std::get_if<PrintStmt>(&statement)) {
      if (!execute) continue;
      ScriptResult::Printed printed;
      printed.name = s->name;
      auto var_it = vars_.find(s->name);
      if (var_it != vars_.end()) {
        printed.vertices.assign(var_it->second.begin(), var_it->second.end());
        std::sort(printed.vertices.begin(), printed.vertices.end());
      } else {
        auto map_it = dist_maps_.find(s->name);
        if (map_it == dist_maps_.end()) {
          return Status::SemanticError("PRINT: unknown name '" + s->name + "'");
        }
        printed.is_distance_map = true;
        printed.distances = map_it->second;
      }
      result->prints.push_back(std::move(printed));
    }
  }
  return Status::OK();
}

Result<ScriptResult> GsqlSession::Run(const std::string& script,
                                      const QueryParams& params) {
  // A session's variable map and executor are stateful and unsynchronized:
  // one script at a time. Concurrent callers (a misbehaving server client,
  // a test) are rejected with a typed error instead of racing.
  std::unique_lock<std::mutex> run_lock(run_mu_, std::try_to_lock);
  if (!run_lock.owns_lock()) {
    return Status::Aborted(
        "session busy: GsqlSession::Run is not reentrant and another "
        "statement is still executing on this session");
  }
  std::string body;
  const QueryPrefix prefix = StripQueryPrefix(script, &body);
  const bool profiled = prefix == QueryPrefix::kProfile;
  const bool execute = prefix != QueryPrefix::kExplain;

  // The trace is always on: every TV_SPAN hit during the run (on this
  // thread and, via fan-out propagation, on pool workers) lands here, and
  // the completed trace is filed with the flight recorder whether the run
  // succeeded or failed.
  Timer total_timer;
  obs::QueryTrace trace;
  obs::ScopedTraceActivation activation(&trace);

  // EXPLAIN renders each statement's plan; EXPLAIN ANALYZE and PROFILE
  // render it executed, with actuals.
  ScriptResult result;
  result.explained = prefix != QueryPrefix::kNone;
  result.analyzed = result.explained && execute;

  Timer parse_timer;
  auto statements = ParseScript(body);
  obs::RecordSpanMicros("query.parse", parse_timer.ElapsedMicros());
  // PROFILE measures the work a query actually does; serving it from the
  // query cache would profile a lookup instead of the search. Force a
  // bypass for the profiled run and restore the session setting after.
  const bool saved_bypass = executor_.cache_bypass();
  if (profiled) executor_.set_cache_bypass(true);
  Status status = statements.ok()
                      ? ExecuteStatements(*statements, params, execute, &result)
                      : statements.status();
  if (profiled) executor_.set_cache_bypass(saved_bypass);

#if !defined(TIGERVECTOR_NO_METRICS)
  if (!status.ok()) {
    obs::MetricsRegistry::Global()
        .GetCounter(std::string("tv.query.errors_total{kind=") + ErrorKind(status) +
                    "}")
        ->Increment();
  }
  {
    obs::QueryRecord record;
    record.query = script;
    record.ok = status.ok();
    record.status = status.ok() ? "OK" : status.ToString();
    record.total_micros = total_timer.ElapsedMicros();
    record.spans = trace.Spans();
    record.counters = trace.Counters();
    result.flight_id = obs::FlightRecorder::Global().Record(std::move(record));
  }
#endif  // TIGERVECTOR_NO_METRICS

  if (!status.ok()) return status;
  // PROFILE appends the run's stage table to the analyzed plans.
  if (profiled) {
    if (!result.explain.empty()) result.explain += "\n";
    result.explain += trace.Render();
  }
  return result;
}

}  // namespace tigervector
