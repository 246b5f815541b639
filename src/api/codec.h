// Wire codec for QueryRequest and QueryResponse: a versioned,
// endianness-stable binary format (the canonical cross-process form), an
// emit-only JSON form (for CLIs, logs and non-C++ consumers), and the
// deterministic text fingerprint the equivalence tests compare.
//
// Binary format v1 — all integers little-endian regardless of host,
// doubles as their IEEE-754 bit pattern in a little-endian u64, strings as
// u32 length + raw bytes:
//
//   header   magic "OSUM" | u16 version (1 or 2) | u8 kind (1=request,
//            2=response)
//   request  str keywords | u64 l | u64 max_results | u8 algorithm |
//            u8 use_prelim | u8 ranking
//            v2 appends: u64 deadline_micros (the relative time budget;
//            MUST be nonzero — a request without a deadline encodes as v1,
//            so every value has exactly one encoding)
//   response u8 status_code | str status_message |
//            u8 cache_hit | f64 compute_micros | u64 epoch |
//            u32 num_results | num_results * result
//   result   u32 relation | u64 tuple | f64 subject_importance |
//            u32 num_nodes | num_nodes * node |
//            f64 selection_importance | u32 num_selected |
//            num_selected * i32 node_id
//   node     i32 parent (-1 for the root) | i32 gds_node | u32 relation |
//            u64 tuple | i32 depth | f64 local_importance
//
// Nodes appear in the OsTree's BFS arena order (parent index < child
// index); children lists are reconstructed from the parent pointers, and
// each node's depth is verified against its parent's on decode.
//
// Guarantees (pinned by tests/api_codec_test.cc and the checked-in golden
// blob):
//   - Round-trip identity: Encode(Decode(bytes)) == bytes for any bytes
//     Encode produced, and Decode(Encode(x)) compares byte-identical to x
//     under DeterministicResponseText.
//   - Decode never crashes on hostile input: truncation, bad magic /
//     version / kind / enum values, and malformed trees all come back as
//     Status kCodecError.
//
// JSON is emit-only: one canonical, single-line document per value for
// CLIs, logs and non-C++ consumers, mirroring the binary fields and its
// versioning rule ({"v":1,...}, or {"v":2,...,"deadline_micros":N} for
// deadline-carrying requests). Doubles are printed with %.17g. Nothing in
// the system reads JSON back — binary is the canonical format, and the
// encoders' exact output is pinned by golden strings in
// tests/api_codec_test.cc.
#ifndef OSUM_API_CODEC_H_
#define OSUM_API_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/query.h"
#include "api/status.h"

namespace osum::api {

/// Baseline version of the wire format; responses are always emitted at
/// v1 (the status-code byte is append-only, so new codes ride on v1).
/// Decoders reject versions they do not know.
inline constexpr uint16_t kWireVersion = 1;

/// Request revision carrying `deadline_micros`. Encoders pick the lowest
/// version expressing the request (v1 iff no deadline), so v1 consumers
/// keep working until a deadline actually appears on the wire.
inline constexpr uint16_t kWireVersionDeadline = 2;

// -- Binary (canonical) ----------------------------------------------------

/// Encodes at the lowest version that can express the request: v1 when
/// deadline_micros == 0 (byte-identical to the pre-deadline format), v2
/// otherwise — so each value has exactly one canonical encoding.
std::string EncodeRequest(const QueryRequest& request);

StatusOr<QueryRequest> DecodeRequest(std::string_view bytes);

std::string EncodeResponse(const QueryResponse& response);
StatusOr<QueryResponse> DecodeResponse(std::string_view bytes);

// -- JSON ------------------------------------------------------------------

/// One-line canonical JSON document (fixed field order, %.17g doubles).
std::string RequestToJson(const QueryRequest& request);
std::string ResponseToJson(const QueryResponse& response);

// -- Deterministic text ----------------------------------------------------

/// Exact fingerprint of a result list: every field of every node and
/// selection, doubles in hexfloat. Two lists fingerprint identically iff
/// they are byte-identical — the headline equivalence invariant of the
/// concurrency and serving test suites (promoted from the former
/// tests-only result serializer).
std::string DeterministicResultText(const ResultList& results);

/// Status line + result fingerprint. Deliberately excludes QueryStats
/// (timings and cache outcomes vary run to run); use it to compare what a
/// caller would observe, not how it was produced.
std::string DeterministicResponseText(const QueryResponse& response);

/// Lowercase hex of `bytes` (and back), for embedding binary wire blobs in
/// text: golden files, the CLI's `query --wire binary` output.
std::string ToHex(std::string_view bytes);
StatusOr<std::string> FromHex(std::string_view hex);

}  // namespace osum::api

#endif  // OSUM_API_CODEC_H_
