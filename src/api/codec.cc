#include "api/codec.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "core/os_export.h"

namespace osum::api {
namespace {

// ---------------------------------------------------------------------------
// Binary primitives. Explicit byte shifts, not memcpy of host integers, so
// the format is identical on any endianness.
// ---------------------------------------------------------------------------

constexpr char kMagic[4] = {'O', 'S', 'U', 'M'};
constexpr uint8_t kKindRequest = 1;
constexpr uint8_t kKindResponse = 2;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little-endian reader. The first failure latches: every
/// subsequent read returns zero values, and the caller checks ok() once at
/// the end (or wherever a count needs validating before use).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  void Fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
      error_ += " (offset " + std::to_string(pos_) + ")";
    }
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint16_t U16() { return ReadLe<uint16_t>(2); }
  uint32_t U32() { return ReadLe<uint32_t>(4); }
  uint64_t U64() { return ReadLe<uint64_t>(8); }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    uint32_t len = U32();
    if (!Need(len)) return {};
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// Validates an element count against the bytes actually left: a count
  /// that could not possibly be backed by `min_bytes_each` payload is
  /// corrupt, and rejecting it here keeps hostile lengths from turning
  /// into huge allocations.
  bool CheckCount(uint64_t count, size_t min_bytes_each, const char* what) {
    if (!ok()) return false;
    if (count > remaining() / min_bytes_each) {
      Fail(std::string(what) + " count " + std::to_string(count) +
           " exceeds remaining payload");
      return false;
    }
    return true;
  }

 private:
  bool Need(size_t n) {
    if (!ok()) return false;
    if (remaining() < n) {
      Fail("truncated input: need " + std::to_string(n) + " more byte(s)");
      return false;
    }
    return true;
  }

  template <typename T>
  T ReadLe(size_t n) {
    if (!Need(n)) return 0;
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return static_cast<T>(v);
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  std::string error_;
};

void PutHeader(std::string* out, uint8_t kind, uint16_t version) {
  out->append(kMagic, sizeof(kMagic));
  PutU16(out, version);
  PutU8(out, kind);
}

/// Checks magic/version/kind; on success the reader sits at the payload
/// and *version holds the decoded version. `max_version` is the newest
/// revision the caller can interpret (responses stay v1; requests accept
/// v1 and v2).
Status ReadHeader(Reader* r, uint8_t want_kind, uint16_t max_version,
                  uint16_t* version_out) {
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r->U8());
  if (!r->ok()) return Status::CodecError(r->error());
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::CodecError("bad magic: not an OSUM wire document");
  }
  uint16_t version = r->U16();
  if (r->ok() && (version < kWireVersion || version > max_version)) {
    return Status::CodecError("unsupported wire version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kWireVersion) +
                              (max_version > kWireVersion
                                   ? ".." + std::to_string(max_version)
                                   : "") +
                              ")");
  }
  uint8_t kind = r->U8();
  if (!r->ok()) return Status::CodecError(r->error());
  if (kind != want_kind) {
    return Status::CodecError(
        "wrong document kind " + std::to_string(kind) + " (expected " +
        std::to_string(want_kind) + ")");
  }
  *version_out = version;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Enum range checks (wire values are attacker-controlled).
// ---------------------------------------------------------------------------

StatusOr<core::SizeLAlgorithm> AlgorithmFromWire(uint64_t v) {
  if (v > static_cast<uint64_t>(core::SizeLAlgorithm::kBruteForce)) {
    return Status::CodecError("unknown algorithm id " + std::to_string(v));
  }
  return static_cast<core::SizeLAlgorithm>(v);
}

StatusOr<ResultRanking> RankingFromWire(uint64_t v) {
  if (v > static_cast<uint64_t>(ResultRanking::kSummaryImportance)) {
    return Status::CodecError("unknown ranking id " + std::to_string(v));
  }
  return static_cast<ResultRanking>(v);
}

StatusOr<StatusCode> StatusCodeFromWire(uint64_t v) {
  if (v > static_cast<uint64_t>(StatusCode::kDeadlineExceeded)) {
    return Status::CodecError("unknown status code " + std::to_string(v));
  }
  return static_cast<StatusCode>(v);
}

// ---------------------------------------------------------------------------
// Result payloads (shared between binary encode/decode).
// ---------------------------------------------------------------------------

void EncodeResult(std::string* out, const QueryResult& r) {
  PutU32(out, r.subject.relation);
  PutU64(out, r.subject.tuple);
  PutF64(out, r.subject_importance);
  PutU32(out, static_cast<uint32_t>(r.os.size()));
  for (size_t i = 0; i < r.os.size(); ++i) {
    const core::OsNode& n = r.os.node(static_cast<core::OsNodeId>(i));
    PutI32(out, n.parent);
    PutI32(out, n.gds_node);
    PutU32(out, n.relation);
    PutU64(out, n.tuple);
    PutI32(out, n.depth);
    PutF64(out, n.local_importance);
  }
  PutF64(out, r.selection.importance);
  PutU32(out, static_cast<uint32_t>(r.selection.nodes.size()));
  for (core::OsNodeId id : r.selection.nodes) PutI32(out, id);
}

// Per-element minimum encoded sizes, for Reader::CheckCount.
constexpr size_t kMinResultBytes = 4 + 8 + 8 + 4 + 8 + 4;  // empty os/sel
constexpr size_t kMinNodeBytes = 4 + 4 + 4 + 8 + 4 + 8;

bool DecodeResult(Reader* r, QueryResult* out) {
  out->subject.relation = r->U32();
  uint64_t subject_tuple = r->U64();
  if (r->ok() && subject_tuple > 0xFFFFFFFFull) {
    r->Fail("subject tuple id out of range");
    return false;
  }
  out->subject.tuple = static_cast<rel::TupleId>(subject_tuple);
  out->subject_importance = r->F64();
  uint32_t num_nodes = r->U32();
  if (!r->CheckCount(num_nodes, kMinNodeBytes, "os node")) return false;
  for (uint32_t i = 0; i < num_nodes; ++i) {
    int32_t parent = r->I32();
    int32_t gds_node = r->I32();
    uint32_t relation = r->U32();
    uint64_t tuple = r->U64();
    int32_t depth = r->I32();
    double importance = r->F64();
    if (!r->ok()) return false;
    if (tuple > 0xFFFFFFFFull) {
      r->Fail("os node tuple id out of range");
      return false;
    }
    // Rebuild through AddRoot/AddChild so the children lists and the BFS
    // invariant (parent index < child index) are restored exactly; the
    // encoded parent/depth must describe a well-formed arena.
    if (i == 0) {
      if (parent != core::kNoOsNode || depth != 0) {
        r->Fail("malformed os: node 0 must be the root");
        return false;
      }
      out->os.AddRoot(gds_node, relation, static_cast<rel::TupleId>(tuple),
                      importance);
    } else {
      if (parent < 0 || static_cast<uint32_t>(parent) >= i) {
        r->Fail("malformed os: node " + std::to_string(i) +
                " has parent " + std::to_string(parent));
        return false;
      }
      core::OsNodeId id =
          out->os.AddChild(parent, gds_node, relation,
                           static_cast<rel::TupleId>(tuple), importance);
      if (out->os.node(id).depth != depth) {
        r->Fail("malformed os: node " + std::to_string(i) +
                " encodes depth " + std::to_string(depth) +
                " but its parent implies " +
                std::to_string(out->os.node(id).depth));
        return false;
      }
    }
  }
  out->selection.importance = r->F64();
  uint32_t num_selected = r->U32();
  if (!r->CheckCount(num_selected, 4, "selection node")) return false;
  out->selection.nodes.reserve(num_selected);
  for (uint32_t i = 0; i < num_selected; ++i) {
    int32_t id = r->I32();
    if (!r->ok()) return false;
    if (id < 0 || static_cast<uint32_t>(id) >= num_nodes) {
      r->Fail("malformed selection: node id " + std::to_string(id) +
              " outside the os arena");
      return false;
    }
    out->selection.nodes.push_back(id);
  }
  return r->ok();
}

// ---------------------------------------------------------------------------
// JSON emission. One canonical, single-line form: fixed field order, %.17g
// doubles (enough digits to identify the double; non-finite doubles are
// emitted as null — binary is the canonical format).
// ---------------------------------------------------------------------------

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  return "\"" + core::JsonEscape(s) + "\"";
}

void AppendResultJson(std::string* out, const QueryResult& r) {
  *out += "{\"subject\":{\"relation\":" + std::to_string(r.subject.relation) +
          ",\"tuple\":" + std::to_string(r.subject.tuple) + "}";
  *out += ",\"importance\":" + JsonDouble(r.subject_importance);
  *out += ",\"os\":[";
  for (size_t i = 0; i < r.os.size(); ++i) {
    const core::OsNode& n = r.os.node(static_cast<core::OsNodeId>(i));
    if (i > 0) *out += ",";
    *out += "[" + std::to_string(n.parent) + "," +
            std::to_string(n.gds_node) + "," + std::to_string(n.relation) +
            "," + std::to_string(n.tuple) + "," + std::to_string(n.depth) +
            "," + JsonDouble(n.local_importance) + "]";
  }
  *out += "],\"selection\":{\"importance\":" +
          JsonDouble(r.selection.importance) + ",\"nodes\":[";
  for (size_t i = 0; i < r.selection.nodes.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(r.selection.nodes[i]);
  }
  *out += "]}}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Binary entry points
// ---------------------------------------------------------------------------

std::string EncodeRequest(const QueryRequest& request) {
  // Version <-> deadline is strict both ways so every request value has
  // exactly one encoding (the canonical-decode invariant the hostile
  // sweeps rely on): v1 iff no deadline, v2 iff one.
  const uint16_t version = request.deadline_micros() == 0
                               ? kWireVersion
                               : kWireVersionDeadline;
  std::string out;
  PutHeader(&out, kKindRequest, version);
  PutStr(&out, request.keywords());
  const QueryOptions& o = request.options();
  PutU64(&out, o.l);
  PutU64(&out, o.max_results);
  PutU8(&out, static_cast<uint8_t>(o.algorithm));
  PutU8(&out, o.use_prelim ? 1 : 0);
  PutU8(&out, static_cast<uint8_t>(o.ranking));
  if (version == kWireVersionDeadline) {
    PutU64(&out, request.deadline_micros());
  }
  return out;
}

StatusOr<QueryRequest> DecodeRequest(std::string_view bytes) {
  Reader r(bytes);
  uint16_t version = 0;
  Status header = ReadHeader(&r, kKindRequest, kWireVersionDeadline, &version);
  if (!header.ok()) return header;
  std::string keywords = r.Str();
  QueryOptions o;
  o.l = r.U64();
  o.max_results = r.U64();
  uint8_t algorithm = r.U8();
  uint8_t use_prelim = r.U8();
  uint8_t ranking = r.U8();
  uint64_t deadline_micros = 0;
  if (version >= kWireVersionDeadline) {
    deadline_micros = r.U64();
    if (r.ok() && deadline_micros == 0) {
      // A v2 document without a deadline has a v1 encoding; accepting it
      // here would give one value two wire forms.
      return Status::CodecError("v2 request with zero deadline_micros");
    }
  }
  if (!r.ok()) return Status::CodecError(r.error());
  if (!r.AtEnd()) return Status::CodecError("trailing bytes after request");
  StatusOr<core::SizeLAlgorithm> alg = AlgorithmFromWire(algorithm);
  if (!alg.ok()) return alg.status();
  StatusOr<ResultRanking> rank = RankingFromWire(ranking);
  if (!rank.ok()) return rank.status();
  // Bools are strictly 0/1 on the wire: accepting any nonzero byte would
  // make decoding non-canonical (Encode(Decode(bytes)) != bytes), which
  // the hostile-mutation sweep in api_codec_test checks for.
  if (use_prelim > 1) {
    return Status::CodecError("use_prelim byte is not 0/1");
  }
  o.algorithm = *alg;
  o.use_prelim = use_prelim != 0;
  o.ranking = *rank;
  return QueryRequest(std::move(keywords), o)
      .WithDeadlineMicros(deadline_micros);
}

std::string EncodeResponse(const QueryResponse& response) {
  std::string out;
  PutHeader(&out, kKindResponse, kWireVersion);
  PutU8(&out, static_cast<uint8_t>(response.status.code()));
  PutStr(&out, response.status.message());
  PutU8(&out, response.stats.cache_hit ? 1 : 0);
  PutF64(&out, response.stats.compute_micros);
  PutU64(&out, response.stats.epoch);
  const ResultList& results = response.result_list();
  PutU32(&out, static_cast<uint32_t>(results.size()));
  for (const QueryResult& r : results) EncodeResult(&out, r);
  return out;
}

StatusOr<QueryResponse> DecodeResponse(std::string_view bytes) {
  Reader r(bytes);
  uint16_t version = 0;
  Status header = ReadHeader(&r, kKindResponse, kWireVersion, &version);
  if (!header.ok()) return header;
  uint8_t code = r.U8();
  std::string message = r.Str();
  QueryResponse out;
  uint8_t cache_hit = r.U8();
  if (r.ok() && cache_hit > 1) {
    // Strict 0/1 like the request's use_prelim: keeps decoding canonical.
    return Status::CodecError("cache_hit byte is not 0/1");
  }
  out.stats.cache_hit = cache_hit != 0;
  out.stats.compute_micros = r.F64();
  out.stats.epoch = r.U64();
  uint32_t num_results = r.U32();
  if (!r.CheckCount(num_results, kMinResultBytes, "result")) {
    return Status::CodecError(r.error());
  }
  auto results = std::make_shared<ResultList>();
  results->reserve(num_results);
  for (uint32_t i = 0; i < num_results; ++i) {
    QueryResult result;
    if (!DecodeResult(&r, &result)) return Status::CodecError(r.error());
    results->push_back(std::move(result));
  }
  if (!r.ok()) return Status::CodecError(r.error());
  if (!r.AtEnd()) return Status::CodecError("trailing bytes after response");
  StatusOr<StatusCode> status_code = StatusCodeFromWire(code);
  if (!status_code.ok()) return status_code.status();
  out.status = Status(*status_code, std::move(message));
  if (!out.status.ok() && !results->empty()) {
    // QueryResponse documents "results are empty whenever !ok()"; bytes
    // that claim both a failure and results violate the invariant and
    // must not be re-materialized as a value that no encoder produces.
    return Status::CodecError("non-OK status with non-empty results");
  }
  out.results = std::move(results);
  return out;
}

// ---------------------------------------------------------------------------
// JSON entry points
// ---------------------------------------------------------------------------

std::string RequestToJson(const QueryRequest& request) {
  const QueryOptions& o = request.options();
  // Same versioning rule as the binary form: v1 iff no deadline, so
  // pre-deadline documents stay byte-identical.
  uint16_t version = request.deadline_micros() == 0 ? kWireVersion
                                                    : kWireVersionDeadline;
  std::string out = "{\"v\":" + std::to_string(version) +
                    ",\"kind\":\"query_request\"";
  out += ",\"keywords\":" + JsonString(request.keywords());
  out += ",\"l\":" + std::to_string(o.l);
  out += ",\"max_results\":" + std::to_string(o.max_results);
  out += ",\"algorithm\":" + std::to_string(static_cast<int>(o.algorithm));
  out += std::string(",\"use_prelim\":") + (o.use_prelim ? "true" : "false");
  out += ",\"ranking\":" + std::to_string(static_cast<int>(o.ranking));
  if (version == kWireVersionDeadline) {
    out += ",\"deadline_micros\":" + std::to_string(request.deadline_micros());
  }
  out += "}";
  return out;
}

std::string ResponseToJson(const QueryResponse& response) {
  std::string out = "{\"v\":" + std::to_string(kWireVersion) +
                    ",\"kind\":\"query_response\"";
  out += ",\"status\":{\"code\":" +
         std::to_string(static_cast<int>(response.status.code())) +
         ",\"message\":" + JsonString(response.status.message()) + "}";
  out += ",\"stats\":{\"cache_hit\":";
  out += response.stats.cache_hit ? "true" : "false";
  out += ",\"compute_us\":" + JsonDouble(response.stats.compute_micros);
  out += ",\"epoch\":" + std::to_string(response.stats.epoch) + "}";
  out += ",\"results\":[";
  const ResultList& results = response.result_list();
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",";
    AppendResultJson(&out, results[i]);
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Deterministic text + hex
// ---------------------------------------------------------------------------

std::string DeterministicResultText(const ResultList& results) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const QueryResult& r : results) {
    out << "subject " << r.subject.relation << ':' << r.subject.tuple << '@'
        << r.subject_importance << '\n';
    out << "os";
    for (size_t i = 0; i < r.os.size(); ++i) {
      const core::OsNode& n = r.os.node(static_cast<core::OsNodeId>(i));
      out << ' ' << n.parent << '/' << n.gds_node << '/' << n.relation << '/'
          << n.tuple << '/' << n.depth << '/' << n.local_importance;
    }
    out << "\nselection " << r.selection.importance;
    for (core::OsNodeId id : r.selection.nodes) out << ' ' << id;
    out << '\n';
  }
  return out.str();
}

std::string DeterministicResponseText(const QueryResponse& response) {
  std::string out = "status ";
  out += std::to_string(static_cast<int>(response.status.code()));
  if (!response.status.message().empty()) {
    out += ' ';
    out += response.status.message();
  }
  out += '\n';
  out += DeterministicResultText(response.result_list());
  return out;
}

std::string ToHex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

StatusOr<std::string> FromHex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) {
    return Status::CodecError("hex input has odd length");
  }
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::CodecError("non-hex character at offset " +
                                std::to_string(i));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace osum::api
