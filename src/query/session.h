#ifndef TIGERVECTOR_QUERY_SESSION_H_
#define TIGERVECTOR_QUERY_SESSION_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/executor.h"

namespace tigervector {

// Output of one script run: everything PRINTed, plus the final variable
// bindings for programmatic inspection.
struct ScriptResult {
  struct Printed {
    std::string name;
    std::vector<VertexId> vertices;  // sorted; empty for pure distance maps
    std::unordered_map<VertexId, float> distances;
    bool is_distance_map = false;
  };
  std::vector<Printed> prints;
  // Pairs of the last similarity join.
  std::vector<SelectResult::Pair> last_join_pairs;
  // Report of the last CREATE LOADING JOB executed.
  LoadReport last_load_report;
  // Filled when the script was prefixed with EXPLAIN (plans only, nothing
  // executed), EXPLAIN ANALYZE (executed; plan nodes annotated with actuals)
  // or PROFILE (as EXPLAIN ANALYZE with the query cache bypassed, followed by
  // the run's stage table).
  bool explained = false;
  bool analyzed = false;
  std::string explain;
  // Flight-recorder id assigned to this run (0 when recording is compiled
  // out with TIGERVECTOR_NO_METRICS).
  uint64_t flight_id = 0;
};

// A GSQL session: executes scripts statement by statement, maintaining
// vertex-set variables and distance-map accumulators across statements
// (and across Run calls), which is the query-composition mechanism of the
// paper's Sec. 5.5 (Q2/Q3-style procedures).
class GsqlSession {
 public:
  explicit GsqlSession(Database* db) : db_(db), executor_(db) {}

  // Parses and executes a script with the given $parameter bindings.
  Result<ScriptResult> Run(const std::string& script,
                           const QueryParams& params = QueryParams());

  // Role all subsequent statements run under (empty = superuser).
  void SetRole(std::string role) { executor_.SetRole(std::move(role)); }

  // Skips both query-cache tiers (lookups and inserts) for this session's
  // statements without touching the database-wide toggle. Differential
  // tests run the same script through a cached and a bypassing session and
  // compare results bit-for-bit.
  void SetCacheBypass(bool bypass) { executor_.set_cache_bypass(bypass); }

  // Injects a vertex set variable from C++ (e.g. produced by a graph
  // algorithm such as Louvain) for use in subsequent scripts.
  void SetVariable(const std::string& name, VertexSet value) {
    vars_[name] = std::move(value);
  }
  const VertexSet* GetVariable(const std::string& name) const {
    auto it = vars_.find(name);
    return it == vars_.end() ? nullptr : &it->second;
  }

 private:
  // Executes parsed statements; with execute = false (EXPLAIN) only plans
  // SELECT / VectorSearch statements and skips everything else.
  Status ExecuteStatements(const std::vector<Statement>& statements,
                           const QueryParams& params, bool execute,
                           ScriptResult* result);
  // Executes one planned statement unless `execute` is false, and appends
  // its rendering to result->explain when the script is explained.
  Result<SelectResult> RunPlan(Result<QueryPlan> plan, const QueryParams& params,
                               bool execute, ScriptResult* result);

  Database* db_;
  QueryExecutor executor_;
  // Serializes Run: a second concurrent Run on the same session is rejected
  // with kAborted ("session busy") instead of racing on vars_/executor_.
  std::mutex run_mu_;
  VarMap vars_;
  std::unordered_map<std::string, std::unordered_map<VertexId, float>> dist_maps_;
};

}  // namespace tigervector

#endif  // TIGERVECTOR_QUERY_SESSION_H_
