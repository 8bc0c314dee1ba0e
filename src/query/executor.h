#ifndef TIGERVECTOR_QUERY_EXECUTOR_H_
#define TIGERVECTOR_QUERY_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/database.h"
#include "query/ast.h"
#include "util/result.h"

namespace tigervector {

// Runtime query parameter ($name bindings): scalar or query vector.
using QueryParam = std::variant<int64_t, double, std::string, std::vector<float>>;
using QueryParams = std::unordered_map<std::string, QueryParam>;

// Vertex-set variables from prior query blocks (GSQL query composition).
using VarMap = std::unordered_map<std::string, VertexSet>;

// One operator of a plan as EXPLAIN prints it: the label mirrors the
// bottom-up plan text; `details` carry the static decisions (brute-force vs
// HNSW tier threshold math, pre-/post-filter strategy, fan-out degree);
// `actuals` are filled only under EXPLAIN ANALYZE and PROFILE (rows in/out,
// candidates scanned, distance evals, per-server timings).
struct PlanNode {
  std::string label;
  std::vector<std::string> details;
  std::vector<std::pair<std::string, std::string>> actuals;
};

// A planned SELECT block or VectorSearch() call: the bottom-up
// VertexAction / EdgeAction / EmbeddingAction operators of paper Sec.
// 5.1-5.5. Planning fixes every op's kind, bound inputs, label and static
// details from the statement, the schema and the session's vertex-set
// variables; QueryExecutor::Execute runs the ops, and each op writes its
// actuals into its own node. EXPLAIN renders the plan unexecuted; EXPLAIN
// ANALYZE and PROFILE render it executed, with actuals.
struct QueryPlan {
  // One pattern node: a type scan or a vertex-set variable, with the WHERE
  // conjuncts on its alias.
  struct Alias {
    std::string name;
    int type_id = -1;                // -1 when bound to a variable
    const VertexSet* var = nullptr;  // non-null when bound to a variable
    std::vector<const Expr*> predicates;
  };
  struct Edge {
    EdgeTypeId type = 0;
    Direction dir = Direction::kOut;
  };
  struct Op {
    enum class Kind {
      kScan,            // VertexAction: type or variable scan of `alias`
      kSemiJoin,        // EdgeAction: edge `alias`, joining aliases alias, alias+1
      kRange,           // EmbeddingAction[Range]: keeps `alias` within a radius
      kTopK,            // EmbeddingAction[Top k] and [VectorSearch]
      kSimilarityJoin,  // EmbeddingAction[Top k] over the endpoint pairs
    };
    Kind kind = Kind::kScan;
    // Pattern node the op reads; -1 for VectorSearch(), which has none.
    int alias = -1;
    // Vector ops: the searched (vertex type, attribute) pairs (source then
    // target for the join), the embedding type, and the $query parameter.
    std::vector<std::pair<std::string, std::string>> attrs;
    EmbeddingTypeInfo info;
    std::string query_param;
    // kTopK / kSimilarityJoin: a literal k, or the $parameter holding it.
    size_t k = 10;
    std::string k_param;
    size_t ef = 64;  // kTopK
    // kRange: a literal radius, or the $parameter holding it.
    double threshold = 0;
    std::string threshold_param;
    // kTopK / kRange: search without a candidate bitmap. Otherwise the
    // candidates are those of `alias`, or VectorSearch()'s `filter`.
    bool pure = true;
    const VertexSet* filter = nullptr;
    PlanNode node;
  };

  std::vector<Alias> aliases;
  std::vector<Edge> edges;  // edges[i] joins aliases[i] and aliases[i + 1]
  std::vector<Op> ops;      // top-down, in the order EXPLAIN prints them
  // A plain graph query (no vector op) returns this alias's candidates,
  // truncated by vid to `limit`.
  int output = -1;
  size_t limit = SIZE_MAX;

  // Renders the ops top-down; `analyzed` adds each node's actuals.
  std::string Render(bool analyzed) const;
};

// Result of one executed plan.
struct SelectResult {
  // Single-alias selects fill `vertices`; a plan that ran a vector search
  // (top-k or range) also sets `distances`, even when it found nothing.
  VertexSet vertices;
  std::optional<std::unordered_map<VertexId, float>> distances;
  // Similarity joins fill `pairs` sorted by ascending distance.
  struct Pair {
    VertexId source;
    VertexId target;
    float distance;
  };
  std::vector<Pair> pairs;
  bool is_join = false;
};

// Plans and executes SELECT blocks and VectorSearch() calls against a
// Database. Pattern evaluation follows the pre-filter design of the paper:
// graph predicates and pattern connectivity produce a candidate bitmap
// first, then a single EmbeddingAction consumes it (Sec. 5.2-5.3).
class QueryExecutor {
 public:
  explicit QueryExecutor(Database* db) : db_(db) {}

  // Role all subsequent queries run under (empty = superuser). Scans of or
  // searches over vertex types the role cannot read are rejected/filtered.
  void SetRole(std::string role) { role_ = std::move(role); }
  const std::string& role() const { return role_; }

  // When set, this executor skips both tiers of the query cache (lookups
  // and inserts) without touching the database-wide toggle. Differential
  // tests run the same query through a cached and a bypassing executor and
  // compare bit-for-bit.
  void set_cache_bypass(bool bypass) { cache_bypass_ = bypass; }
  bool cache_bypass() const { return cache_bypass_; }

  // Plans a SELECT block or a VectorSearch() call. Every check that needs
  // only the statement, the schema and `vars` fails here, so EXPLAIN rejects
  // what EXPLAIN ANALYZE would; checks of $parameter bindings run in Execute.
  Result<QueryPlan> PlanSelect(const SelectStmt& stmt, const VarMap& vars) const;
  Result<QueryPlan> PlanVectorSearch(const VectorSearchStmt& stmt,
                                     const VarMap& vars) const;

  // Runs a plan at one MVCC horizon: `read_tid`, capped at the store's
  // visible tid, so the default answers at the latest commit. With `analyze`
  // each op records its actuals in its plan node.
  Result<SelectResult> Execute(QueryPlan* plan, const QueryParams& params,
                               bool analyze, Tid read_tid = kMaxTid);

 private:
  Result<std::vector<QueryPlan::Alias>> ResolveNodes(const SelectStmt& stmt,
                                                     const VarMap& vars) const;

  // One vertex as a predicate reads it: its type and its attributes, read
  // under the segment lock its scan holds.
  struct Row {
    const VertexTypeDef* type;
    const GraphSegment::Attrs* attrs;
  };

  // Evaluates a scalar predicate for one vertex.
  Result<bool> EvalPredicate(const Expr& expr, const Row& row,
                             const QueryParams& params) const;
  // A scalar's value, read in place: the literal, the vertex's attribute,
  // or a $parameter converted into `scratch`.
  Result<const Value*> EvalValue(const Expr& expr, const Row& row,
                                 const QueryParams& params, Value* scratch) const;

  // Per-BaseSet tally of predicate-bitmap cache outcomes, summarized as
  // the `cache:` actual of the VertexAction plan node.
  struct ScanCacheProbe {
    size_t hits = 0;
    size_t misses = 0;
    size_t bypasses = 0;
  };

  // Base candidate set of a node (type scan or variable), with predicates.
  // Type scans consult the per-segment predicate bitmap cache; `probe`
  // receives the per-segment outcome tally.
  Result<CandidateSet> BaseSet(const QueryPlan::Alias& node, Tid read_tid,
                               const QueryParams& params, ScanCacheProbe* probe) const;

  Database* db_;
  std::string role_;
  bool cache_bypass_ = false;
};

// Renders an expression back to text (used in plan output and errors).
std::string ExprToString(const Expr& expr);

}  // namespace tigervector

#endif  // TIGERVECTOR_QUERY_EXECUTOR_H_
