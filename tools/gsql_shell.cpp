// Interactive GSQL shell over an in-process TigerVector database.
//
//   $ gsql_shell
//   gsql> CREATE VERTEX Doc (title STRING);
//   gsql> ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 4,
//         MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);
//   gsql> \set qv 1,0,0,0
//   gsql> R = SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5;
//   gsql> PRINT R;
//
// Shell commands: \set NAME v1,v2,...   bind a vector parameter $NAME
//                 \seti NAME 42         bind an integer parameter
//                 \sets NAME text       bind a string parameter
//                 \role NAME            run as role NAME ("" = superuser)
//                 \vacuum               run both vacuum stages
//                 \metrics              dump the metrics registry (Prometheus text)
//                 \flightrec            list the flight recorder's retained queries
//                 \flightrec ID         full span/counter detail of one record
//                 \flightrec ID FILE    dump record as Chrome trace JSON
//                                       (load FILE in chrome://tracing)
//                 \slowlog FILE         append slow queries to FILE as JSONL
//                 \cache                query-cache stats (both tiers)
//                 \cache on|off         enable/disable at runtime (TV_CACHE=off
//                                       disables at startup)
//                 \cache clear          drop all cached entries
//                 \quit
//
// Prefixing a statement with PROFILE prints a per-stage timing breakdown
// (parse/plan/execute, hnsw.search, distance evals) after the result.
// Prefixing with EXPLAIN prints the chosen plan without executing;
// EXPLAIN ANALYZE executes and annotates each plan node with actuals.
//
// Remote mode: `gsql_shell --connect host:port` speaks to a running
// tv_server instead of an in-process database. The statement surface is
// identical (including EXPLAIN / PROFILE); \metrics and \flightrec fetch
// the server's registry and flight recorder over the wire, and
// \deadline MS ships a per-request deadline with every statement.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "net/client.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "query/session.h"
#include "util/slowlog.h"

using namespace tigervector;

namespace {

// Parameter-binding commands shared by the local and remote shells.
// Returns true when `cmd` was one of them.
bool HandleParamCommand(const std::string& cmd, std::istringstream& in,
                        QueryParams* params) {
  if (cmd == "\\set") {
    std::string name, values;
    in >> name >> values;
    std::vector<float> vec;
    std::istringstream vs(values);
    std::string tok;
    while (std::getline(vs, tok, ',')) vec.push_back(std::strtof(tok.c_str(), nullptr));
    (*params)[name] = std::move(vec);
    std::printf("$%s = vector of %zu floats\n", name.c_str(),
                std::get<std::vector<float>>((*params)[name]).size());
    return true;
  }
  if (cmd == "\\seti") {
    std::string name;
    long long v;
    in >> name >> v;
    (*params)[name] = static_cast<int64_t>(v);
    std::printf("$%s = %lld\n", name.c_str(), v);
    return true;
  }
  if (cmd == "\\sets") {
    std::string name, v;
    in >> name;
    std::getline(in, v);
    if (!v.empty() && v[0] == ' ') v.erase(0, 1);
    (*params)[name] = v;
    std::printf("$%s = \"%s\"\n", name.c_str(), v.c_str());
    return true;
  }
  return false;
}

bool HandleShellCommand(const std::string& line, Database* db, GsqlSession* session,
                        QueryParams* params) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "\\quit" || cmd == "\\q") {
    std::exit(0);
  }
  if (HandleParamCommand(cmd, in, params)) return true;
  if (cmd == "\\role") {
    std::string role;
    in >> role;
    session->SetRole(role);
    std::printf("role = '%s'\n", role.c_str());
    return true;
  }
  if (cmd == "\\metrics") {
    std::fputs(obs::MetricsRegistry::Global().RenderText().c_str(), stdout);
    return true;
  }
  if (cmd == "\\flightrec") {
    std::string id_str, file;
    in >> id_str >> file;
    if (id_str.empty()) {
      std::fputs(obs::FlightRecorder::Global().RenderList().c_str(), stdout);
      return true;
    }
    const uint64_t id = std::strtoull(id_str.c_str(), nullptr, 10);
    obs::QueryRecord record;
    if (!obs::FlightRecorder::Global().Find(id, &record)) {
      std::printf("flight record %llu not found (evicted or never recorded)\n",
                  static_cast<unsigned long long>(id));
      return true;
    }
    if (file.empty()) {
      std::fputs(obs::FlightRecorder::RenderDetail(record).c_str(), stdout);
      return true;
    }
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot open %s\n", file.c_str());
      return true;
    }
    const std::string json = obs::FlightRecorder::ChromeTraceJson(record);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %zu bytes to %s (open chrome://tracing and load it)\n",
                json.size(), file.c_str());
    return true;
  }
  if (cmd == "\\slowlog") {
    std::string file;
    in >> file;
    if (file.empty()) {
      CloseSlowLog();
      std::printf("slow-query log closed\n");
      return true;
    }
    Status st = InstallSlowLogFile(file);
    if (st.ok()) {
      std::printf("slow queries (>%.0f ms) appended to %s\n",
                  obs::FlightRecorder::Global().options().slow_threshold_micros / 1e3,
                  file.c_str());
    } else {
      std::printf("slowlog failed: %s\n", st.ToString().c_str());
    }
    return true;
  }
  if (cmd == "\\cache") {
    std::string arg;
    in >> arg;
    if (arg.empty()) {
      std::fputs(db->cache()->RenderStats().c_str(), stdout);
    } else if (arg == "on") {
      db->cache()->set_enabled(true);
      std::printf("query cache enabled\n");
    } else if (arg == "off") {
      db->cache()->set_enabled(false);
      std::printf("query cache disabled (entries retained)\n");
    } else if (arg == "clear") {
      db->cache()->Clear();
      std::printf("query cache cleared\n");
    } else {
      std::printf("usage: \\cache [on|off|clear]\n");
    }
    return true;
  }
  if (cmd == "\\vacuum") {
    auto merged = db->Vacuum();
    if (merged.ok()) {
      std::printf("vacuum folded %zu delta records\n", *merged);
    } else {
      std::printf("vacuum failed: %s\n", merged.status().ToString().c_str());
    }
    return true;
  }
  std::printf("unknown shell command %s\n", cmd.c_str());
  return true;
}

void PrintResult(const ScriptResult& result) {
  for (const auto& printed : result.prints) {
    if (printed.is_distance_map) {
      std::printf("%s: {", printed.name.c_str());
      size_t shown = 0;
      for (const auto& [vid, d] : printed.distances) {
        if (shown++ > 0) std::printf(", ");
        if (shown > 10) {
          std::printf("...");
          break;
        }
        std::printf("%llu: %.4f", static_cast<unsigned long long>(vid), d);
      }
      std::printf("}\n");
    } else {
      std::printf("%s (%zu vertices):", printed.name.c_str(),
                  printed.vertices.size());
      size_t shown = 0;
      for (VertexId vid : printed.vertices) {
        if (shown++ >= 20) {
          std::printf(" ...");
          break;
        }
        std::printf(" %llu", static_cast<unsigned long long>(vid));
      }
      std::printf("\n");
    }
  }
  for (const auto& pair : result.last_join_pairs) {
    std::printf("pair (%llu, %llu) distance %.4f\n",
                static_cast<unsigned long long>(pair.source),
                static_cast<unsigned long long>(pair.target), pair.distance);
  }
  if (result.last_load_report.vertices_loaded > 0 ||
      result.last_load_report.embeddings_loaded > 0) {
    std::printf("loaded %zu vertices, %zu embeddings (%zu rows skipped)\n",
                result.last_load_report.vertices_loaded,
                result.last_load_report.embeddings_loaded,
                result.last_load_report.rows_skipped);
  }
  if (result.explained) {
    std::printf("--- plan%s ---\n%s", result.analyzed ? " (analyzed)" : "",
                result.explain.c_str());
  }
}

// Remote shell loop: statements and observability commands travel over the
// wire to a tv_server; parameter bindings stay client-side and are shipped
// with each query.
int RunRemote(const std::string& host, uint16_t port) {
  net::ClientOptions copts;
  copts.host = host;
  copts.port = port;
  net::TvClient client(copts);
  Status up = client.Ping();
  if (!up.ok()) {
    std::printf("cannot reach %s:%u: %s\n", host.c_str(), port,
                up.ToString().c_str());
    return 1;
  }
  QueryParams params;
  net::RunOptions run;
  std::printf("TigerVector GSQL shell, connected to %s:%u. \\quit to exit, "
              "\\deadline MS for per-request deadlines.\n", host.c_str(), port);
  std::string buffer;
  std::string line;
  for (;;) {
    std::printf(buffer.empty() ? "gsql> " : "  ... ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!line.empty() && line[0] == '\\') {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      if (cmd == "\\quit" || cmd == "\\q") return 0;
      if (HandleParamCommand(cmd, in, &params)) continue;
      if (cmd == "\\deadline") {
        long long ms = 0;
        in >> ms;
        run.deadline_micros = ms <= 0 ? 0 : static_cast<uint64_t>(ms) * 1000;
        std::printf("deadline = %lld ms%s\n", ms, ms <= 0 ? " (disabled)" : "");
        continue;
      }
      if (cmd == "\\metrics") {
        auto text = client.Metrics();
        if (text.ok()) {
          std::fputs(text->c_str(), stdout);
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
        continue;
      }
      if (cmd == "\\flightrec") {
        std::string id_str;
        in >> id_str;
        const uint64_t id =
            id_str.empty() ? 0 : std::strtoull(id_str.c_str(), nullptr, 10);
        auto text = client.FlightRec(id);
        if (text.ok()) {
          std::fputs(text->c_str(), stdout);
        } else {
          std::printf("error: %s\n", text.status().ToString().c_str());
        }
        continue;
      }
      std::printf("unknown or local-only shell command %s\n", cmd.c_str());
      continue;
    }
    buffer += line + "\n";
    std::string trimmed = buffer;
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(
                                   trimmed.back()))) {
      trimmed.pop_back();
    }
    if (trimmed.empty()) {
      buffer.clear();
      continue;
    }
    if (trimmed.back() != ';' && trimmed.back() != '}') continue;
    auto result = client.Run(buffer, params, run);
    buffer.clear();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(*result);
    if (result->flight_id != 0) {
      std::printf("(flight record %llu; \\flightrec %llu for spans)\n",
                  static_cast<unsigned long long>(result->flight_id),
                  static_cast<unsigned long long>(result->flight_id));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string target;
    if (arg == "--connect" && i + 1 < argc) {
      target = argv[i + 1];
    } else if (arg.rfind("--connect=", 0) == 0) {
      target = arg.substr(10);
    } else {
      std::fprintf(stderr, "usage: %s [--connect host:port]\n", argv[0]);
      return 2;
    }
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect wants host:port, got '%s'\n",
                   target.c_str());
      return 2;
    }
    return RunRemote(target.substr(0, colon),
                     static_cast<uint16_t>(
                         std::strtoul(target.c_str() + colon + 1, nullptr, 10)));
  }
  Database db;
  GsqlSession session(&db);
  QueryParams params;
  std::printf("TigerVector GSQL shell. \\quit to exit, \\set NAME v1,v2,... for "
              "vector parameters.\n");
  std::string buffer;
  std::string line;
  for (;;) {
    std::printf(buffer.empty() ? "gsql> " : "  ... ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (!line.empty() && line[0] == '\\') {
      HandleShellCommand(line, &db, &session, &params);
      continue;
    }
    buffer += line + "\n";
    // Execute once the statement buffer ends with ';' (or '}' for jobs).
    std::string trimmed = buffer;
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(
                                   trimmed.back()))) {
      trimmed.pop_back();
    }
    if (trimmed.empty()) {
      buffer.clear();
      continue;
    }
    if (trimmed.back() != ';' && trimmed.back() != '}') continue;
    auto result = session.Run(buffer, params);
    buffer.clear();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(*result);
  }
  return 0;
}
