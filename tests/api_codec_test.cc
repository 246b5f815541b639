// Wire codec guarantees: binary round trips are byte-identical
// (property-tested over real query results from both join back ends, plus
// empty and error responses), the v1 binary layout is pinned by a
// checked-in golden blob, the emit-only JSON form is pinned by golden
// strings, hostile bytes decode to typed kCodecError statuses (never
// crashes), and the request/response API path produces responses
// byte-identical to the SearchContext::Query primitive on DBLP and TPC-H.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/codec.h"
#include "api/query.h"
#include "core/os_backend.h"
#include "db_fixtures.h"
#include "search/search_context.h"
#include "util/rng.h"

namespace osum::api {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

search::SearchContext BuildDblpContext(const datasets::Dblp& d,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return search::SearchContext::Build(d.db, backend, std::move(subjects));
}

search::SearchContext BuildTpchContext(const datasets::Tpch& t,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
  subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  return search::SearchContext::Build(t.db, backend, std::move(subjects));
}

/// The round-trip property for one response: Decode(Encode(r)) re-encodes
/// to the same bytes and fingerprints identically.
void ExpectRoundTrips(const QueryResponse& response) {
  std::string bytes = EncodeResponse(response);
  StatusOr<QueryResponse> decoded = DecodeResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeResponse(*decoded), bytes);
  EXPECT_EQ(DeterministicResponseText(*decoded),
            DeterministicResponseText(response));
  EXPECT_EQ(decoded->status, response.status);
  EXPECT_EQ(decoded->stats.cache_hit, response.stats.cache_hit);
  EXPECT_EQ(decoded->stats.epoch, response.stats.epoch);
  EXPECT_DOUBLE_EQ(decoded->stats.compute_micros,
                   response.stats.compute_micros);
}

void ExpectRequestRoundTrips(const QueryRequest& request) {
  std::string bytes = EncodeRequest(request);
  StatusOr<QueryRequest> decoded = DecodeRequest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeRequest(*decoded), bytes);
  EXPECT_EQ(decoded->keywords(), request.keywords());
  EXPECT_EQ(decoded->options().CacheKeyFragment(),
            request.options().CacheKeyFragment());
  EXPECT_EQ(decoded->deadline_micros(), request.deadline_micros());
}

TEST(RequestCodec, RoundTripsEveryKnobCombination) {
  const core::SizeLAlgorithm algorithms[] = {
      core::SizeLAlgorithm::kDp,          core::SizeLAlgorithm::kDpEnumerate,
      core::SizeLAlgorithm::kBottomUp,    core::SizeLAlgorithm::kTopPath,
      core::SizeLAlgorithm::kTopPathMemo, core::SizeLAlgorithm::kBruteForce};
  const ResultRanking rankings[] = {ResultRanking::kSubjectImportance,
                                    ResultRanking::kSummaryImportance};
  size_t l = 0;
  for (core::SizeLAlgorithm algorithm : algorithms) {
    for (ResultRanking ranking : rankings) {
      for (bool prelim : {false, true}) {
        ++l;
        ExpectRequestRoundTrips(QueryRequest("christos faloutsos")
                                    .WithL(l)
                                    .WithMaxResults(l * 3 + 1)
                                    .WithAlgorithm(algorithm)
                                    .WithPrelim(prelim)
                                    .WithRanking(ranking));
      }
    }
  }
  // Keywords with quotes, backslashes and control characters survive.
  ExpectRequestRoundTrips(QueryRequest("with \"quotes\" and \\slashes\\ \n"));
  ExpectRequestRoundTrips(QueryRequest(""));
}

// -- Cross-version: the deadline revision (wire v2) ------------------------

/// v1 blobs stay byte-identical to the pre-deadline format; a deadline
/// flips the encoder to v2, which is exactly the v1 layout plus one
/// trailing u64. Pinning the layout here keeps "v1 consumers keep working"
/// an observable property rather than a comment.
TEST(RequestCodecV2, DeadlineSelectsTheWireVersion) {
  std::string v1 = EncodeRequest(QueryRequest("faloutsos").WithL(6));
  ASSERT_GE(v1.size(), 7u);
  EXPECT_EQ(static_cast<uint8_t>(v1[4]), kWireVersion);
  EXPECT_EQ(static_cast<uint8_t>(v1[5]), 0);  // u16 version, little-endian

  std::string v2 = EncodeRequest(
      QueryRequest("faloutsos").WithL(6).WithDeadlineMicros(2'500));
  EXPECT_EQ(static_cast<uint8_t>(v2[4]), kWireVersionDeadline);
  EXPECT_EQ(static_cast<uint8_t>(v2[5]), 0);
  ASSERT_EQ(v2.size(), v1.size() + 8);
  EXPECT_EQ(v2.substr(0, 4), v1.substr(0, 4));  // magic
  // Everything after the version — kind byte through ranking byte — is
  // unchanged; only the deadline is appended.
  EXPECT_EQ(v2.substr(6, v1.size() - 6), v1.substr(6));
}

TEST(RequestCodecV2, DeadlineRequestsRoundTripInBothForms) {
  ExpectRequestRoundTrips(
      QueryRequest("christos faloutsos").WithL(9).WithDeadlineMicros(1));
  ExpectRequestRoundTrips(QueryRequest("databases")
                              .WithL(4)
                              .WithMaxResults(7)
                              .WithAlgorithm(core::SizeLAlgorithm::kTopPathMemo)
                              .WithPrelim(true)
                              .WithRanking(ResultRanking::kSummaryImportance)
                              .WithDeadlineMicros(2'500'000));
  ExpectRequestRoundTrips(QueryRequest("mining").WithDeadlineMicros(
      (uint64_t{1} << 53) - 1));

  // The binary form carries the full u64 range.
  QueryRequest max_deadline =
      QueryRequest("x").WithDeadlineMicros(UINT64_MAX);
  StatusOr<QueryRequest> decoded =
      DecodeRequest(EncodeRequest(max_deadline));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->deadline_micros(), UINT64_MAX);
}

TEST(RequestCodecV2, ZeroDeadlineOnTheV2WireIsRejected) {
  std::string v2 =
      EncodeRequest(QueryRequest("faloutsos").WithL(6).WithDeadlineMicros(1));
  // Zero the trailing u64: a v2 blob claiming "no deadline". That value
  // already has a v1 encoding, so accepting this would give it two wire
  // forms and break the canonical-decode invariant the sweeps enforce.
  for (size_t i = v2.size() - 8; i < v2.size(); ++i) v2[i] = '\0';
  EXPECT_EQ(DecodeRequest(v2).status().code(), StatusCode::kCodecError);
}

/// Every strict prefix of a v2 blob is a typed error. The interesting
/// length is size-8: a v2 header over an exactly-v1-shaped body, i.e. the
/// truncation that silently drops the deadline — the decoder must notice
/// the version promised eight more bytes.
TEST(RequestCodecV2, EveryTruncationOfADeadlineBlobIsACodecError) {
  std::string bytes = EncodeRequest(
      QueryRequest("christos faloutsos").WithL(9).WithDeadlineMicros(77));
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<QueryRequest> decoded = DecodeRequest(bytes.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCodecError) << len;
  }
}

TEST(ResponseCodec, RoundTripsRealResultsFromTheDataGraphBackend) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  for (const char* keywords :
       {"faloutsos", "databases", "christos faloutsos", "mining"}) {
    QueryResponse response =
        ctx.Execute(QueryRequest(keywords).WithL(8).WithMaxResults(4));
    ASSERT_TRUE(response.ok());
    ExpectRoundTrips(response);
  }
  // The complete-OS path (l = 0) and summary ranking, for shape variety.
  ExpectRoundTrips(ctx.Execute(QueryRequest("faloutsos").WithL(0)));
  ExpectRoundTrips(ctx.Execute(
      QueryRequest("databases").WithL(6).WithRanking(
          ResultRanking::kSummaryImportance)));
}

TEST(ResponseCodec, RoundTripsRealResultsFromTheDatabaseBackend) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend backend(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  search::SearchContext ctx = BuildTpchContext(f.t, &backend);
  const rel::Relation& customers = f.t.db.relation(f.t.customer);
  for (rel::TupleId t = 0; t < 3 && t < customers.num_tuples(); ++t) {
    QueryResponse response = ctx.Execute(
        QueryRequest(customers.StringValue(t, 0)).WithL(10).WithMaxResults(3));
    ASSERT_TRUE(response.ok());
    ExpectRoundTrips(response);
  }
}

TEST(ResponseCodec, RoundTripsEmptyAndErrorResponses) {
  // A genuine negative answer: OK status, zero results.
  QueryResponse empty = QueryResponse::Success(
      std::make_shared<ResultList>(),
      QueryStats{/*cache_hit=*/false, /*negative=*/true,
                 /*compute_micros=*/7.25, /*epoch=*/2});
  ExpectRoundTrips(empty);

  // Failures (results null) encode as zero results and stay failures.
  QueryStats stats;
  stats.compute_micros = 0.5;
  ExpectRoundTrips(QueryResponse::Failure(
      Status::BackendError("join failed: simulated outage"), stats));
  ExpectRoundTrips(QueryResponse::Failure(
      Status::InvalidArgument("empty keyword set"), QueryStats{}));
  ExpectRoundTrips(QueryResponse::Failure(Status::Internal("bug"),
                                          QueryStats{}));
}

/// The handcrafted response the golden blob pins. Never change this
/// function together with golden/query_response_v1.hex in one commit
/// unless you are deliberately revving the wire format.
QueryResponse GoldenResponse() {
  QueryResult first;
  first.subject = Hit{2, 7};
  first.subject_importance = 1.5;
  first.os.AddRoot(0, 2, 7, 1.5);
  first.os.AddChild(0, 1, 3, 11, 0.75);
  first.os.AddChild(0, 2, 4, 12, 0.5);
  first.os.AddChild(1, 3, 3, 13, 0.25);
  first.selection.nodes = {0, 1, 3};
  first.selection.importance = 2.5;

  QueryResult second;
  second.subject = Hit{4, 1};
  second.subject_importance = 0.125;
  second.os.AddRoot(0, 4, 1, 0.125);
  second.selection.nodes = {0};
  second.selection.importance = 0.125;

  auto results = std::make_shared<ResultList>();
  results->push_back(std::move(first));
  results->push_back(std::move(second));
  QueryStats stats;
  stats.cache_hit = true;
  stats.compute_micros = 123.5;
  stats.epoch = 4;
  return QueryResponse::Success(std::move(results), stats);
}

std::string ReadGoldenHex() {
  std::ifstream in(std::string(OSUM_GOLDEN_DIR) + "/query_response_v1.hex");
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string hex = buf.str();
  // Strip whitespace/newlines so the file can be line-wrapped.
  std::string out;
  for (char c : hex) {
    if (c != '\n' && c != '\r' && c != ' ' && c != '\t') out.push_back(c);
  }
  return out;
}

TEST(ResponseCodec, GoldenBlobPinsTheV1Format) {
  QueryResponse golden = GoldenResponse();
  std::string expected_hex = ReadGoldenHex();
  ASSERT_FALSE(expected_hex.empty())
      << "missing golden file " << OSUM_GOLDEN_DIR
      << "/query_response_v1.hex";
  // Encoding today must reproduce the blob encoded when v1 was frozen...
  EXPECT_EQ(ToHex(EncodeResponse(golden)), expected_hex)
      << "the v1 wire format changed; if intentional, bump kWireVersion";
  // ...and decoding the checked-in bytes must reproduce the value.
  StatusOr<std::string> bytes = FromHex(expected_hex);
  ASSERT_TRUE(bytes.ok());
  StatusOr<QueryResponse> decoded = DecodeResponse(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(DeterministicResponseText(*decoded),
            DeterministicResponseText(golden));
  EXPECT_TRUE(decoded->stats.cache_hit);
  EXPECT_EQ(decoded->stats.epoch, 4u);
}

TEST(ResponseCodec, EveryTruncationDecodesToCodecErrorNotACrash) {
  std::string bytes = EncodeResponse(GoldenResponse());
  for (size_t len = 0; len < bytes.size(); ++len) {
    StatusOr<QueryResponse> decoded =
        DecodeResponse(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCodecError);
  }
  // Same property for requests.
  std::string request_bytes = EncodeRequest(QueryRequest("faloutsos"));
  for (size_t len = 0; len < request_bytes.size(); ++len) {
    EXPECT_FALSE(
        DecodeRequest(std::string_view(request_bytes).substr(0, len)).ok());
  }
}

TEST(ResponseCodec, RejectsCorruptHeadersAndMalformedPayloads) {
  std::string good = EncodeResponse(GoldenResponse());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeResponse(bad_magic).status().code(),
            StatusCode::kCodecError);

  std::string bad_version = good;
  bad_version[4] = 9;  // version u16 lives at offsets 4..5
  EXPECT_EQ(DecodeResponse(bad_version).status().code(),
            StatusCode::kCodecError);

  std::string bad_kind = good;
  bad_kind[6] = 7;
  EXPECT_EQ(DecodeResponse(bad_kind).status().code(),
            StatusCode::kCodecError);

  // A request parsed as a response (and vice versa) is a kind mismatch.
  EXPECT_FALSE(DecodeResponse(EncodeRequest(QueryRequest("x"))).ok());
  EXPECT_FALSE(DecodeRequest(good).ok());

  std::string trailing = good + "junk";
  EXPECT_EQ(DecodeResponse(trailing).status().code(),
            StatusCode::kCodecError);

  // Unknown status code byte (first payload byte after the 7-byte header).
  std::string bad_status = good;
  bad_status[7] = 99;
  EXPECT_EQ(DecodeResponse(bad_status).status().code(),
            StatusCode::kCodecError);

  // A *valid* non-OK status combined with results violates the
  // QueryResponse invariant ("results are empty whenever !ok()") — no
  // encoder produces such bytes and the decoder must not materialize them.
  std::string failure_with_results = good;
  failure_with_results[7] =
      static_cast<char>(StatusCode::kBackendError);
  EXPECT_EQ(DecodeResponse(failure_with_results).status().code(),
            StatusCode::kCodecError);

  // Unknown enum ids in requests.
  std::string request = EncodeRequest(QueryRequest("x"));
  std::string bad_algorithm = request;
  bad_algorithm[request.size() - 3] = 42;
  EXPECT_EQ(DecodeRequest(bad_algorithm).status().code(),
            StatusCode::kCodecError);
  std::string bad_ranking = request;
  bad_ranking[request.size() - 1] = 2;
  EXPECT_EQ(DecodeRequest(bad_ranking).status().code(),
            StatusCode::kCodecError);
}

/// The systematic upgrade of the hand-picked corruption cases above: a
/// seeded sweep of single-byte XOR flips, truncations, and combinations
/// over valid binary-v1 blobs. The hard property — enforced byte-by-byte
/// under the ASan lane — is that hostile bytes NEVER crash the decoder:
/// every mutation either fails with a typed kCodecError, or (a flip that
/// landed inside a value byte, e.g. a keyword character or a double) it
/// decodes — in which case the canonical codec must re-encode it to
/// exactly the mutated bytes, proving the decoder read precisely what was
/// on the wire and invented nothing.
template <typename T, typename DecodeFn, typename EncodeFn>
void SweepHostileMutations(const std::string& bytes, DecodeFn decode,
                           EncodeFn encode, uint64_t seed, int iterations) {
  util::Rng rng(seed);
  int rejected = 0;
  auto check = [&](const std::string& mutated, const char* what, int i) {
    StatusOr<T> decoded = decode(mutated);  // must not crash
    if (!decoded.ok()) {
      ++rejected;
      ASSERT_EQ(decoded.status().code(), StatusCode::kCodecError)
          << what << " iteration " << i;
    } else {
      ASSERT_EQ(encode(*decoded), mutated)
          << what << " iteration " << i
          << ": decoder accepted bytes it cannot reproduce";
    }
  };
  for (int i = 0; i < iterations; ++i) {
    // Single-byte flip (never a no-op: delta is nonzero).
    std::string flipped = bytes;
    size_t pos = static_cast<size_t>(rng.NextU64(flipped.size()));
    flipped[pos] = static_cast<char>(
        static_cast<uint8_t>(flipped[pos]) ^
        static_cast<uint8_t>(1 + rng.NextU64(255)));
    ASSERT_NO_FATAL_FAILURE(check(flipped, "flip", i));

    // Random truncation of the valid blob: always a decode error (the
    // exhaustive-prefix test already pins this for every length; here it
    // composes with the flip coverage below).
    std::string truncated =
        bytes.substr(0, static_cast<size_t>(rng.NextU64(bytes.size())));
    StatusOr<T> decoded_truncated = decode(truncated);
    ASSERT_FALSE(decoded_truncated.ok()) << "truncation iteration " << i;
    ASSERT_EQ(decoded_truncated.status().code(), StatusCode::kCodecError);

    // Flip + truncate: a flipped length field plus a matching truncation
    // is the classic heap-overread recipe — the reader must bounds-check.
    std::string both = flipped.substr(
        0, static_cast<size_t>(1 + rng.NextU64(flipped.size())));
    ASSERT_NO_FATAL_FAILURE(check(both, "flip+truncate", i));

    // Flip + garbage tail: trailing bytes must stay fatal even when the
    // payload itself was perturbed.
    std::string extended = flipped;
    extended.push_back(static_cast<char>(rng.NextU64(256)));
    ASSERT_NO_FATAL_FAILURE(check(extended, "flip+extend", i));
  }
  // The sweep must really be exercising the error paths, not vacuously
  // decoding everything.
  EXPECT_GT(rejected, iterations / 2);
}

TEST(ResponseCodec, HostileMutationSweepOverGoldenResponse) {
  SweepHostileMutations<QueryResponse>(
      EncodeResponse(GoldenResponse()),
      [](const std::string& b) { return DecodeResponse(b); },
      [](const QueryResponse& r) { return EncodeResponse(r); },
      /*seed=*/0xC0DEC0DE, /*iterations=*/1500);
}

TEST(ResponseCodec, HostileMutationSweepOverEmptyAndErrorResponses) {
  QueryResponse empty = QueryResponse::Success(
      std::make_shared<ResultList>(), QueryStats{});
  SweepHostileMutations<QueryResponse>(
      EncodeResponse(empty),
      [](const std::string& b) { return DecodeResponse(b); },
      [](const QueryResponse& r) { return EncodeResponse(r); },
      /*seed=*/0xBEEF, /*iterations=*/800);
  QueryResponse failure = QueryResponse::Failure(
      Status::BackendError("simulated outage"), QueryStats{});
  SweepHostileMutations<QueryResponse>(
      EncodeResponse(failure),
      [](const std::string& b) { return DecodeResponse(b); },
      [](const QueryResponse& r) { return EncodeResponse(r); },
      /*seed=*/0xFEED, /*iterations=*/800);
}

TEST(RequestCodec, HostileMutationSweepOverRequests) {
  SweepHostileMutations<QueryRequest>(
      EncodeRequest(QueryRequest("christos faloutsos").WithL(9)),
      [](const std::string& b) { return DecodeRequest(b); },
      [](const QueryRequest& r) { return EncodeRequest(r); },
      /*seed=*/0x5EED, /*iterations=*/1500);
}

/// Trailing bytes after a complete document are ALWAYS fatal — no
/// flip-dependent escape hatch like the sweep's flip+extend case. This is
/// the property the TCP front end leans on: framing delivers exact payload
/// boundaries, so any decoder that silently ignored a tail would mask
/// framing bugs (concatenated or mis-split documents) as valid traffic.
template <typename DecodeFn>
void SweepAppendedBytes(const std::string& bytes, DecodeFn decode,
                        uint64_t seed) {
  util::Rng rng(seed);
  for (int k = 1; k <= 64; ++k) {
    std::string extended = bytes;
    for (int j = 0; j < k; ++j) {
      extended.push_back(static_cast<char>(rng.NextU64(256)));
    }
    auto decoded = decode(extended);
    ASSERT_FALSE(decoded.ok()) << k << " appended bytes decoded";
    ASSERT_EQ(decoded.status().code(), StatusCode::kCodecError) << k;
  }
  // Two complete documents back to back — the classic deframing bug —
  // must not decode as the first document.
  auto doubled = decode(bytes + bytes);
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kCodecError);
  // A single appended NUL (easy to produce with a sloppy buffer resize).
  EXPECT_EQ(decode(bytes + std::string(1, '\0')).status().code(),
            StatusCode::kCodecError);
}

TEST(ResponseCodec, AppendedBytesAreAlwaysFatal) {
  auto decode = [](const std::string& b) { return DecodeResponse(b); };
  SweepAppendedBytes(EncodeResponse(GoldenResponse()), decode,
                     /*seed=*/0x7A11);
  SweepAppendedBytes(
      EncodeResponse(QueryResponse::Success(std::make_shared<ResultList>(),
                                            QueryStats{})),
      decode, /*seed=*/0x7A12);
  SweepAppendedBytes(
      EncodeResponse(QueryResponse::Failure(
          Status::BackendError("simulated outage"), QueryStats{})),
      decode, /*seed=*/0x7A13);
}

TEST(RequestCodec, AppendedBytesAreAlwaysFatal) {
  auto decode = [](const std::string& b) { return DecodeRequest(b); };
  SweepAppendedBytes(EncodeRequest(QueryRequest("christos faloutsos")),
                     decode, /*seed=*/0x7A14);
  SweepAppendedBytes(
      EncodeRequest(QueryRequest("databases").WithL(40).WithMaxResults(8)),
      decode, /*seed=*/0x7A15);
}

/// The seeded sweep over deadline-carrying (v2) blobs. Flips over the
/// trailing u64 either land on another valid deadline (which must
/// re-encode byte-identically) or — when they zero it or clip the version
/// byte — must come back as typed kCodecError; truncations that shave the
/// deadline off a v2 header must never decode as a v1 request.
TEST(RequestCodecV2, HostileMutationSweepOverDeadlineRequests) {
  SweepHostileMutations<QueryRequest>(
      EncodeRequest(QueryRequest("christos faloutsos")
                        .WithL(9)
                        .WithDeadlineMicros(2'500'000)),
      [](const std::string& b) { return DecodeRequest(b); },
      [](const QueryRequest& r) { return EncodeRequest(r); },
      /*seed=*/0x5EED2, /*iterations=*/1500);
  // A single-byte deadline (1 µs) keeps seven of the trailing eight bytes
  // zero, so flips there concentrate on the valid/invalid boundary.
  SweepHostileMutations<QueryRequest>(
      EncodeRequest(QueryRequest("databases").WithL(4).WithDeadlineMicros(1)),
      [](const std::string& b) { return DecodeRequest(b); },
      [](const QueryRequest& r) { return EncodeRequest(r); },
      /*seed=*/0x5EED3, /*iterations=*/800);
}

TEST(RequestCodecV2, AppendedBytesAreAlwaysFatal) {
  auto decode = [](const std::string& b) { return DecodeRequest(b); };
  SweepAppendedBytes(EncodeRequest(QueryRequest("christos faloutsos")
                                       .WithL(9)
                                       .WithDeadlineMicros(2'500'000)),
                     decode, /*seed=*/0x7A16);
}

// -- JSON (emit-only) -------------------------------------------------------

// The JSON encoders' exact output, pinned: fixed field order, the binary
// versioning rule (v2 iff a deadline), %.17g doubles and escaped strings.
// Nothing parses JSON back, so these strings are the whole contract.
TEST(JsonCodec, GoldenV1Request) {
  EXPECT_EQ(RequestToJson(QueryRequest("christos \"faloutsos\"")
                              .WithL(12)
                              .WithMaxResults(4)
                              .WithAlgorithm(core::SizeLAlgorithm::kDp)
                              .WithPrelim(false)
                              .WithRanking(ResultRanking::kSummaryImportance)),
            R"({"v":1,"kind":"query_request",)"
            R"("keywords":"christos \"faloutsos\"","l":12,"max_results":4,)"
            R"("algorithm":0,"use_prelim":false,"ranking":1})");
}

TEST(JsonCodec, GoldenV2RequestCarriesTheDeadline) {
  EXPECT_EQ(RequestToJson(QueryRequest("mining graphs").WithDeadlineMicros(
                2'500)),
            R"({"v":2,"kind":"query_request","keywords":"mining graphs",)"
            R"("l":15,"max_results":10,"algorithm":3,"use_prelim":true,)"
            R"("ranking":0,"deadline_micros":2500})");
}

TEST(JsonCodec, GoldenErrorResponse) {
  QueryStats stats;
  stats.compute_micros = 0.5;
  stats.epoch = 3;
  EXPECT_EQ(ResponseToJson(QueryResponse::Failure(
                Status::BackendError("join failed:\n\"outage\""), stats)),
            R"({"v":1,"kind":"query_response",)"
            R"("status":{"code":2,"message":"join failed:\n\"outage\""},)"
            R"("stats":{"cache_hit":false,"compute_us":0.5,"epoch":3},)"
            R"("results":[]})");
}

TEST(JsonCodec, GoldenBlobResponse) {
  StatusOr<std::string> bytes = FromHex(ReadGoldenHex());
  ASSERT_TRUE(bytes.ok());
  StatusOr<QueryResponse> decoded = DecodeResponse(*bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(ResponseToJson(*decoded),
            R"({"v":1,"kind":"query_response",)"
            R"("status":{"code":0,"message":""},)"
            R"("stats":{"cache_hit":true,"compute_us":123.5,"epoch":4},)"
            R"("results":[{"subject":{"relation":2,"tuple":7},)"
            R"("importance":1.5,"os":[[-1,0,2,7,0,1.5],[0,1,3,11,1,0.75],)"
            R"([0,2,4,12,1,0.5],[1,3,3,13,2,0.25]],)"
            R"("selection":{"importance":2.5,"nodes":[0,1,3]}},)"
            R"({"subject":{"relation":4,"tuple":1},"importance":0.125,)"
            R"("os":[[-1,0,4,1,0,0.125]],)"
            R"("selection":{"importance":0.125,"nodes":[0]}}]})");
}

TEST(Hex, RoundTripsAndRejectsGarbage) {
  std::string bytes("\x00\x7f\xff\x10 binary", 9);
  StatusOr<std::string> back = FromHex(ToHex(bytes));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bytes);
  EXPECT_FALSE(FromHex("abc").ok());   // odd length
  EXPECT_FALSE(FromHex("zz").ok());    // non-hex
  EXPECT_TRUE(FromHex("AbCd").ok());   // case-insensitive
}

// The headline invariant: a response produced via the request/response
// API is byte-identical to the SearchContext::Query primitive's output —
// on both back ends, on both datasets.
TEST(ApiEquivalence, ExecuteMatchesLegacyQueryOnDblpBothBackends) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend db_backend(f.d.db, f.d.links,
                                   /*per_select_micros=*/0.0);
  search::SearchContext graph_ctx = BuildDblpContext(f.d, &f.backend);
  search::SearchContext db_ctx = BuildDblpContext(f.d, &db_backend);
  QueryOptions options;
  options.l = 9;
  options.max_results = 4;
  for (const search::SearchContext* ctx : {&graph_ctx, &db_ctx}) {
    for (const char* keywords : {"faloutsos", "databases", "nosuchkeyword"}) {
      QueryResponse response =
          ctx->Execute(QueryRequest(keywords).WithOptions(options));
      ASSERT_TRUE(response.ok());
      EXPECT_FALSE(response.stats.cache_hit);
      EXPECT_EQ(DeterministicResultText(response.result_list()),
                DeterministicResultText(ctx->Query(keywords, options)))
          << keywords;
    }
  }
}

TEST(ApiEquivalence, ExecuteMatchesLegacyQueryOnTpch) {
  ScoredTpch f(SmallTpchConfig());
  search::SearchContext ctx = BuildTpchContext(f.t, &f.backend);
  const rel::Relation& customers = f.t.db.relation(f.t.customer);
  for (rel::TupleId t = 0; t < 3 && t < customers.num_tuples(); ++t) {
    std::string keywords = customers.StringValue(t, 0);
    QueryResponse response =
        ctx.Execute(QueryRequest(keywords).WithL(10));
    ASSERT_TRUE(response.ok());
    QueryOptions options;
    options.l = 10;
    EXPECT_EQ(DeterministicResultText(response.result_list()),
              DeterministicResultText(ctx.Query(keywords, options)))
        << keywords;
  }
}

TEST(ApiEquivalence, ExecuteTurnsFailuresIntoStatuses) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  // Invalid request: typed error, not an exception or empty answer.
  QueryResponse invalid = ctx.Execute(QueryRequest(""));
  EXPECT_EQ(invalid.status.code(), StatusCode::kInvalidArgument);
  // A no-hit query is an OK empty answer — now distinguishable.
  QueryResponse miss = ctx.Execute(QueryRequest("zzzznosuchtoken"));
  EXPECT_TRUE(miss.ok());
  EXPECT_TRUE(miss.result_list().empty());
}

}  // namespace
}  // namespace osum::api
