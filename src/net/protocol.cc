#include "net/protocol.h"

namespace tigervector::net {

namespace {

// Tags for the QueryParam variant on the wire.
constexpr uint8_t kParamInt = 0;
constexpr uint8_t kParamDouble = 1;
constexpr uint8_t kParamString = 2;
constexpr uint8_t kParamFloatVec = 3;

}  // namespace

// Stable wire ids, decoupled from the in-memory enum order so inserting a
// StatusCode never reinterprets old peers' errors.
uint32_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kNotFound:
      return 2;
    case StatusCode::kAlreadyExists:
      return 3;
    case StatusCode::kOutOfRange:
      return 4;
    case StatusCode::kUnimplemented:
      return 5;
    case StatusCode::kInternal:
      return 6;
    case StatusCode::kAborted:
      return 7;
    case StatusCode::kIncompatible:
      return 8;
    case StatusCode::kIOError:
      return 9;
    case StatusCode::kParseError:
      return 10;
    case StatusCode::kSemanticError:
      return 11;
    case StatusCode::kDeadlineExceeded:
      return 12;
    case StatusCode::kUnavailable:
      return 13;
  }
  return 6;  // kInternal
}

StatusCode StatusCodeFromWire(uint32_t wire) {
  switch (wire) {
    case 0:
      return StatusCode::kOk;
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kNotFound;
    case 3:
      return StatusCode::kAlreadyExists;
    case 4:
      return StatusCode::kOutOfRange;
    case 5:
      return StatusCode::kUnimplemented;
    case 6:
      return StatusCode::kInternal;
    case 7:
      return StatusCode::kAborted;
    case 8:
      return StatusCode::kIncompatible;
    case 9:
      return StatusCode::kIOError;
    case 10:
      return StatusCode::kParseError;
    case 11:
      return StatusCode::kSemanticError;
    case 12:
      return StatusCode::kDeadlineExceeded;
    case 13:
      return StatusCode::kUnavailable;
    default:
      return StatusCode::kInternal;
  }
}

std::string EncodeStatus(const Status& status) {
  WireWriter w;
  w.PutU32(StatusCodeToWire(status.code()));
  w.PutString(status.message());
  return w.Take();
}

Status DecodeStatus(const std::string& payload, Status* out) {
  WireReader r(payload);
  uint32_t code;
  std::string message;
  TV_RETURN_NOT_OK(r.GetU32(&code));
  TV_RETURN_NOT_OK(r.GetString(&message));
  *out = Status(StatusCodeFromWire(code), std::move(message));
  return Status::OK();
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  WireWriter w;
  w.PutString(request.script);
  w.PutU32(static_cast<uint32_t>(request.params.size()));
  for (const auto& [name, value] : request.params) {
    w.PutString(name);
    if (const auto* i = std::get_if<int64_t>(&value)) {
      w.PutU8(kParamInt);
      w.PutI64(*i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      w.PutU8(kParamDouble);
      w.PutF64(*d);
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      w.PutU8(kParamString);
      w.PutString(*s);
    } else {
      w.PutU8(kParamFloatVec);
      w.PutFloatVec(std::get<std::vector<float>>(value));
    }
  }
  return w.Take();
}

Status DecodeQueryRequest(const std::string& payload, QueryRequest* out) {
  WireReader r(payload);
  TV_RETURN_NOT_OK(r.GetString(&out->script));
  uint32_t n_params;
  TV_RETURN_NOT_OK(r.GetU32(&n_params));
  out->params.clear();
  for (uint32_t i = 0; i < n_params; ++i) {
    std::string name;
    uint8_t tag;
    TV_RETURN_NOT_OK(r.GetString(&name));
    TV_RETURN_NOT_OK(r.GetU8(&tag));
    switch (tag) {
      case kParamInt: {
        int64_t v;
        TV_RETURN_NOT_OK(r.GetI64(&v));
        out->params[name] = v;
        break;
      }
      case kParamDouble: {
        double v;
        TV_RETURN_NOT_OK(r.GetF64(&v));
        out->params[name] = v;
        break;
      }
      case kParamString: {
        std::string v;
        TV_RETURN_NOT_OK(r.GetString(&v));
        out->params[name] = std::move(v);
        break;
      }
      case kParamFloatVec: {
        std::vector<float> v;
        TV_RETURN_NOT_OK(r.GetFloatVec(&v));
        out->params[name] = std::move(v);
        break;
      }
      default:
        return Status::IOError("unknown query parameter tag " +
                               std::to_string(tag));
    }
  }
  return Status::OK();
}

std::string EncodeScriptResult(const ScriptResult& result) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(result.prints.size()));
  for (const auto& printed : result.prints) {
    w.PutString(printed.name);
    w.PutU8(printed.is_distance_map ? 1 : 0);
    w.PutU32(static_cast<uint32_t>(printed.vertices.size()));
    for (VertexId vid : printed.vertices) w.PutU64(vid);
    w.PutU32(static_cast<uint32_t>(printed.distances.size()));
    for (const auto& [vid, dist] : printed.distances) {
      w.PutU64(vid);
      w.PutF32(dist);
    }
  }
  w.PutU32(static_cast<uint32_t>(result.last_join_pairs.size()));
  for (const auto& pair : result.last_join_pairs) {
    w.PutU64(pair.source);
    w.PutU64(pair.target);
    w.PutF32(pair.distance);
  }
  w.PutU64(result.last_load_report.vertices_loaded);
  w.PutU64(result.last_load_report.embeddings_loaded);
  w.PutU64(result.last_load_report.rows_skipped);
  w.PutU32(static_cast<uint32_t>(result.last_load_report.warnings.size()));
  for (const auto& warning : result.last_load_report.warnings) {
    w.PutString(warning);
  }
  w.PutU8(result.explained ? 1 : 0);
  w.PutU8(result.analyzed ? 1 : 0);
  w.PutString(result.explain);
  w.PutU64(result.flight_id);
  return w.Take();
}

Status DecodeScriptResult(const std::string& payload, ScriptResult* out) {
  WireReader r(payload);
  *out = ScriptResult();
  uint32_t n_prints;
  TV_RETURN_NOT_OK(r.GetU32(&n_prints));
  out->prints.resize(n_prints);
  for (auto& printed : out->prints) {
    TV_RETURN_NOT_OK(r.GetString(&printed.name));
    uint8_t is_map;
    TV_RETURN_NOT_OK(r.GetU8(&is_map));
    printed.is_distance_map = is_map != 0;
    uint32_t n_vertices;
    TV_RETURN_NOT_OK(r.GetU32(&n_vertices));
    printed.vertices.resize(n_vertices);
    for (auto& vid : printed.vertices) TV_RETURN_NOT_OK(r.GetU64(&vid));
    uint32_t n_distances;
    TV_RETURN_NOT_OK(r.GetU32(&n_distances));
    printed.distances.reserve(n_distances);
    for (uint32_t i = 0; i < n_distances; ++i) {
      uint64_t vid;
      float dist;
      TV_RETURN_NOT_OK(r.GetU64(&vid));
      TV_RETURN_NOT_OK(r.GetF32(&dist));
      printed.distances[vid] = dist;
    }
  }
  uint32_t n_pairs;
  TV_RETURN_NOT_OK(r.GetU32(&n_pairs));
  out->last_join_pairs.resize(n_pairs);
  for (auto& pair : out->last_join_pairs) {
    TV_RETURN_NOT_OK(r.GetU64(&pair.source));
    TV_RETURN_NOT_OK(r.GetU64(&pair.target));
    TV_RETURN_NOT_OK(r.GetF32(&pair.distance));
  }
  uint64_t loaded, embedded, skipped;
  TV_RETURN_NOT_OK(r.GetU64(&loaded));
  TV_RETURN_NOT_OK(r.GetU64(&embedded));
  TV_RETURN_NOT_OK(r.GetU64(&skipped));
  out->last_load_report.vertices_loaded = static_cast<size_t>(loaded);
  out->last_load_report.embeddings_loaded = static_cast<size_t>(embedded);
  out->last_load_report.rows_skipped = static_cast<size_t>(skipped);
  uint32_t n_warnings;
  TV_RETURN_NOT_OK(r.GetU32(&n_warnings));
  out->last_load_report.warnings.resize(n_warnings);
  for (auto& warning : out->last_load_report.warnings) {
    TV_RETURN_NOT_OK(r.GetString(&warning));
  }
  uint8_t flag;
  TV_RETURN_NOT_OK(r.GetU8(&flag));
  out->explained = flag != 0;
  TV_RETURN_NOT_OK(r.GetU8(&flag));
  out->analyzed = flag != 0;
  TV_RETURN_NOT_OK(r.GetString(&out->explain));
  TV_RETURN_NOT_OK(r.GetU64(&out->flight_id));
  if (!r.AtEnd()) {
    return Status::IOError("trailing bytes after ScriptResult payload");
  }
  return Status::OK();
}

}  // namespace tigervector::net
