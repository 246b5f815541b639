// perfbench_serve — the serving benchmark.
//
// Builds one synthetic database in-process, stands up the whole serving
// stack on it (SearchContext -> serve::QueryService -> net::Server on a
// loopback port) and drives keyword queries through real TCP sockets with
// the blocking net::Client. No workload is served from a cache: the request
// population is a seeded permutation of thousands of distinct (keyword set,
// l) pairs walked cyclically, far more than the result cache holds, so every
// request is answered by OS generation plus a size-l pass. OSs come from the
// database back end, whose simulated per-SELECT round trip (a busy-wait on
// the steady clock) is most of each request's time; the rest is CPU work
// (lookup, OS assembly, size-l, codec, transport).
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (end to end): `kClients` closed-loop connections for <s>
//   seconds against a `kWorkers`-thread service. The run is cut into
//   `kWindows` equal windows; latency p50, p90 and throughput are each the
//   median of their per-window values, so a burst of interference from
//   the rest of the machine moves a few windows, not the result. setup_s
//   is the median of `kSetupReps` full set-ups (dataset, scores, index,
//   service, listening server).
// --trace 1 (stage trace, outside in): one closed-loop connection. Before
//   sending each request the bench replays it stage by stage in its own
//   process — index lookup and ranking, OS generation, size-l, response
//   encode and decode — timing each call into the layer and counting its
//   work; then it sends the request and, once answered, sends it again to
//   time a result-cache hit. residual_us is the round trip minus the sum
//   of the replayed stages: transport, framing, event loop, queueing and
//   the miss path's cache and memo bookkeeping. Every replayed result
//   must equal the served one.
//
// Correctness, both modes: every response must be OK with 1..max_results
// results whose selections are root-containing and of size min(l, |OS|),
// ranked by subject importance; a sample of responses (every one in trace
// mode) must be byte-identical to the uncached in-process answer.
//
// The last stdout line is one JSON object:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "api/query.h"
#include "core/os_backend.h"
#include "core/os_generator.h"
#include "core/size_l.h"
#include "datasets/dblp.h"
#include "datasets/tpch.h"
#include "net/client.h"
#include "net/server.h"
#include "search/search_context.h"
#include "serve/query_service.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace {

using namespace osum;
using SteadyClock = std::chrono::steady_clock;

// Two closed-loop connections against one worker keep the worker busy:
// one request is answered while the other's bytes are on the wire, so the
// figures follow the cost of answering and do not depend on the machine's
// core count.
constexpr size_t kClients = 2;  // closed-loop connections (--trace 0)
constexpr size_t kWorkers = 1;  // QueryService pool threads
constexpr int kSetupReps = 21;  // set-ups per run; setup_s is the median
constexpr size_t kSampleEvery = 16;  // reference-check 1 in N responses
constexpr size_t kMaxSamplesPerClient = 64;
constexpr double kWarmupShare = 0.05;  // of --seconds, not recorded
constexpr size_t kWindows = 20;  // end-to-end metrics: median over windows

double Since(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

// ---------------------------------------------------------------- workloads

enum class Dataset { kDblp, kTpch };

/// Where a workload's keyword sets come from. Each is derived from tuples
/// of the data, so every keyword set matches at least one data subject.
enum class Keywords {
  /// A DBLP author's full name (1-3 authors match).
  kAuthorNames,
  /// Two distinct title words of one DBLP paper (tens of papers match;
  /// sets share papers, so queries overlap in the subjects they rank).
  kTitleWordPairs,
  /// A TPC-H customer or supplier name (exactly one tuple matches).
  kCustomerSupplierNames,
};

struct Workload {
  const char* name;
  Dataset dataset;
  Keywords keywords;
  bool use_prelim;
  core::SizeLAlgorithm algorithm;
  size_t max_results;
};

// The three workloads, all on the database back end (a simulated 8 us per
// SELECT, the paper's Figure 10(f) setting); each crosses every keyword set
// with the paper's l sweep (5..50, Figures 9 and 10):
//   dblp_authors_db — author queries (1-3 hits), prelim-l OSs (Algorithm 4)
//                     and the Top-Path greedy: the least CPU per request.
//   dblp_titles_db  — fan-out: ten papers per query whose sets overlap, so
//                     the per-(subject, l) partials memo can serve subjects;
//                     prelim-l OSs and Top-Path.
//   tpch_dp_db      — selection bound: complete OSs (Algorithm 5) of TPC-H
//                     customers and suppliers and the exact size-l DP,
//                     with the largest OSs and responses.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"dblp_authors_db", Dataset::kDblp, Keywords::kAuthorNames, true,
       core::SizeLAlgorithm::kTopPath, 3},
      {"dblp_titles_db", Dataset::kDblp, Keywords::kTitleWordPairs, true,
       core::SizeLAlgorithm::kTopPath, 10},
      {"tpch_dp_db", Dataset::kTpch, Keywords::kCustomerSupplierNames, false,
       core::SizeLAlgorithm::kDp, 3},
  };
  return kAll;
}

const std::vector<size_t> kLSweep = {5, 10, 15, 20, 25, 30, 35, 40, 45, 50};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Seeded, platform-independent permutation (splitmix64 + Fisher-Yates), so
// one seed gives one request order on every standard library.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  uint64_t state = seed;
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(SplitMix64(&state) % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

// ------------------------------------------------------------------ fixture

/// One complete serving stack. Members are declared in dependency order so
/// destruction drains the server before the service, the service before
/// the context, and the context before the data it borrows.
struct Fixture {
  std::unique_ptr<datasets::Dblp> dblp;
  std::unique_ptr<datasets::Tpch> tpch;
  const rel::Database* db = nullptr;
  const graph::LinkSchema* links = nullptr;
  std::unique_ptr<core::OsBackend> backend;
  std::optional<search::SearchContext> ctx;
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<net::Server> server;

  ~Fixture() {
    if (server) server->Shutdown();
  }
};

/// The database back end at its default simulated per-SELECT latency.
std::unique_ptr<core::OsBackend> MakeBackend(const Fixture& f) {
  return std::make_unique<core::DatabaseBackend>(*f.db, *f.links);
}

/// Builds the dataset, scores it, and starts the serving stack. Returns
/// nullptr (after printing why) when the server cannot start.
std::unique_ptr<Fixture> SetUp(const Workload& w) {
  auto f = std::make_unique<Fixture>();
  std::vector<search::SearchContext::Subject> subjects;
  if (w.dataset == Dataset::kDblp) {
    f->dblp = std::make_unique<datasets::Dblp>(datasets::BuildDblp());
    datasets::Dblp& d = *f->dblp;
    datasets::ApplyDblpScores(&d, 1, 0.85);
    f->db = &d.db;
    f->links = &d.links;
    subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
    subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  } else {
    f->tpch = std::make_unique<datasets::Tpch>(datasets::BuildTpch());
    datasets::Tpch& t = *f->tpch;
    datasets::ApplyTpchScores(&t, 1, 0.85);
    f->db = &t.db;
    f->links = &t.links;
    subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
    subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  }
  f->backend = MakeBackend(*f);
  f->ctx.emplace(search::SearchContext::Build(*f->db, f->backend.get(),
                                              std::move(subjects)));
  serve::ServiceOptions options;
  options.num_threads = kWorkers;
  f->service = std::make_unique<serve::QueryService>(*f->ctx, options);
  f->server = std::make_unique<net::Server>(f->service.get());
  if (api::Status status = f->server->Start(); !status.ok()) {
    std::fprintf(stderr, "server start: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return f;
}

/// Column 0 (name / title) of every tuple of `relation`.
std::vector<std::string> Names(const rel::Database& db,
                               rel::RelationId relation) {
  const rel::Relation& r = db.relation(relation);
  std::vector<std::string> out;
  out.reserve(r.num_tuples());
  for (rel::TupleId t = 0; t < r.num_tuples(); ++t) {
    out.push_back(r.StringValue(t, 0));
  }
  return out;
}

/// The workload's distinct keyword sets, in a fixed order.
std::vector<std::string> KeywordSets(const Workload& w, const Fixture& f) {
  std::vector<std::string> sets;
  switch (w.keywords) {
    case Keywords::kAuthorNames:
      sets = Names(*f.db, f.dblp->author);
      break;
    case Keywords::kTitleWordPairs:
      for (const std::string& title : Names(*f.db, f.dblp->paper)) {
        // Words of four or more letters: skips "in", "the", "on" and the
        // numeric paper ids, which would narrow a set to one paper.
        std::vector<std::string> words;
        for (std::string& token : util::TokenizeWords(title)) {
          if (token.size() >= 4 && !std::isdigit(static_cast<unsigned char>(
                                       token.front()))) {
            words.push_back(std::move(token));
          }
        }
        std::sort(words.begin(), words.end());
        words.erase(std::unique(words.begin(), words.end()), words.end());
        for (size_t i = 0; i < words.size(); ++i) {
          for (size_t j = i + 1; j < words.size(); ++j) {
            sets.push_back(words[i] + " " + words[j]);
          }
        }
      }
      break;
    case Keywords::kCustomerSupplierNames:
      sets = Names(*f.db, f.tpch->customer);
      for (std::string& name : Names(*f.db, f.tpch->supplier)) {
        sets.push_back(std::move(name));
      }
      break;
  }
  // Duplicate names would repeat a cache key within one pass.
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  return sets;
}

/// The seeded request population: every (keyword set, l) pair, permuted.
/// It holds thousands of distinct cache keys, so walking it cyclically
/// thrashes the result cache's LRU and every request is computed.
std::vector<api::QueryRequest> MakeRequests(const Workload& w,
                                            const Fixture& f, uint64_t seed) {
  std::vector<std::string> sets = KeywordSets(w, f);
  std::vector<api::QueryRequest> requests;
  requests.reserve(sets.size() * kLSweep.size());
  for (const std::string& keywords : sets) {
    for (size_t l : kLSweep) {
      requests.push_back(api::QueryRequest(keywords)
                             .WithL(l)
                             .WithMaxResults(w.max_results)
                             .WithPrelim(w.use_prelim)
                             .WithAlgorithm(w.algorithm));
    }
  }
  SeededShuffle(&requests, seed);
  return requests;
}

// ------------------------------------------------------------- correctness

/// The cheap per-response invariants, checked on every response.
bool WellFormed(const api::QueryRequest& request,
                const api::QueryResponse& response) {
  if (!response.ok()) return false;
  const api::ResultList& results = response.result_list();
  if (results.empty() || results.size() > request.options().max_results) {
    return false;
  }
  const size_t l = request.options().l;
  for (size_t i = 0; i < results.size(); ++i) {
    const api::QueryResult& r = results[i];
    if (i > 0 && r.subject_importance > results[i - 1].subject_importance) {
      return false;
    }
    const std::vector<core::OsNodeId>& nodes = r.selection.nodes;
    if (r.os.empty() || nodes.size() != std::min(l, r.os.size()) ||
        nodes.front() != core::kOsRoot) {
      return false;
    }
  }
  return true;
}

bool SameAsReference(const Fixture& f, const api::QueryRequest& request,
                     const api::ResultList& served) {
  api::QueryResponse reference = f.ctx->Execute(request);
  return reference.ok() &&
         api::DeterministicResultText(reference.result_list()) ==
             api::DeterministicResultText(served);
}

// ------------------------------------------------------------ measurement

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintResult(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Per-connection tallies of the end-to-end run.
struct ClientLog {
  /// (completion time in seconds after record_from, latency in ms).
  std::vector<std::pair<double, double>> done_latency;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t cache_hits = 0;
  std::vector<std::pair<size_t, api::SharedResults>> samples;
  bool connected = false;
};

/// One closed-loop connection: take the next request index, send, wait for
/// the answer, check it; stop sending at `stop`. Responses finished before
/// `record_from` are warm-up and not recorded.
void RunClient(uint16_t port, const std::vector<api::QueryRequest>& requests,
               std::atomic<size_t>* next, SteadyClock::time_point record_from,
               SteadyClock::time_point stop, ClientLog* log) {
  api::StatusOr<net::Client> client =
      net::Client::Connect("127.0.0.1", port, /*timeout_ms=*/60'000);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return;
  }
  log->connected = true;
  size_t recorded = 0;
  while (SteadyClock::now() < stop) {
    size_t index = next->fetch_add(1) % requests.size();
    const api::QueryRequest& request = requests[index];
    SteadyClock::time_point sent = SteadyClock::now();
    bool measured = sent >= record_from;
    if (measured) ++log->attempted;
    if (!client->Send(request).ok()) {
      if (measured) ++log->failed;
      break;
    }
    api::StatusOr<api::QueryResponse> response = client->Receive();
    SteadyClock::time_point done = SteadyClock::now();
    if (!measured) continue;
    if (!response.ok() || !WellFormed(request, *response)) {
      ++log->failed;
      if (!response.ok()) break;
      continue;
    }
    log->done_latency.emplace_back(
        std::chrono::duration<double>(done - record_from).count(),
        std::chrono::duration<double, std::milli>(done - sent).count());
    if (response->stats.cache_hit) ++log->cache_hits;
    if (recorded++ % kSampleEvery == 0 &&
        log->samples.size() < kMaxSamplesPerClient) {
      log->samples.emplace_back(index, response->results);
    }
  }
  client->Close();
}

Outcome RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  Outcome out;
  util::Summary setup_s;
  std::unique_ptr<Fixture> f;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    f.reset();  // tear the previous stack down outside the timed region
    SteadyClock::time_point t0 = SteadyClock::now();
    f = SetUp(w);
    if (!f) {
      out.correct = false;
      return out;
    }
    setup_s.Add(Since(t0));
  }
  std::vector<api::QueryRequest> requests = MakeRequests(w, *f, seed);

  std::atomic<size_t> next{0};
  std::vector<ClientLog> logs(kClients);
  SteadyClock::time_point start = SteadyClock::now();
  auto record_from = start + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(
                                     seconds * kWarmupShare));
  auto stop = record_from + std::chrono::duration_cast<SteadyClock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, f->server->port(), std::cref(requests),
                         &next, record_from, stop, &logs[c]);
  }
  for (std::thread& t : threads) t.join();

  // Latencies by the window their request completed in; a window's
  // throughput counts its completions.
  std::vector<util::Summary> windows(kWindows);
  const double window_s = seconds / kWindows;
  size_t completed = 0;
  uint64_t cache_hits = 0;
  for (const ClientLog& log : logs) {
    if (!log.connected) out.correct = false;
    out.attempted += log.attempted;
    out.failed += log.failed;
    cache_hits += log.cache_hits;
    for (const auto& [done_s, latency_ms] : log.done_latency) {
      size_t wi = static_cast<size_t>(done_s / window_s);
      if (wi < kWindows) windows[wi].Add(latency_ms);
    }
    completed += log.done_latency.size();
  }
  util::Summary p50, p90, qps;
  for (const util::Summary& window : windows) {
    if (window.count() == 0) continue;
    p50.Add(window.Percentile(50.0));
    p90.Add(window.Percentile(90.0));
    qps.Add(static_cast<double>(window.count()) / window_s);
    std::fprintf(stderr, "  window: %zu requests, p50 %.4f ms, p90 %.4f ms\n",
                 window.count(), window.Percentile(50.0),
                 window.Percentile(90.0));
  }
  size_t checked = 0;
  for (const ClientLog& log : logs) {
    for (const auto& [index, results] : log.samples) {
      ++checked;
      if (!results || !SameAsReference(*f, requests[index], *results)) {
        ++out.failed;
      }
    }
  }
  if (out.failed != 0 || p50.count() == 0 || checked == 0) {
    out.correct = false;
  }
  std::fprintf(stderr,
               "%s: %zu requests in %.2f s over %zu connections, %llu cache "
               "hits, %zu reference-checked, population %zu\n",
               w.name, completed, seconds, kClients,
               static_cast<unsigned long long>(cache_hits), checked,
               requests.size());
  out.metrics = {
      {"latency_p50_ms", p50.Median(), "ms"},
      {"latency_p90_ms", p90.Median(), "ms"},
      {"throughput_qps", qps.Median(), "1/s"},
      {"setup_s", setup_s.Median(), "s"},
  };
  return out;
}

// ---------------------------------------------------------------- tracing

/// Stage timings (microseconds) and work counts of one replayed request.
struct StageSample {
  double rtt_us = 0, hit_rtt_us = -1, lookup_us = 0, osgen_us = 0,
         sizel_us = 0, encode_us = 0, decode_us = 0;
  double hits = 0, os_nodes = 0, selects = 0, tuples_read = 0,
         sizel_ops = 0, ac1_skips = 0, ac2_fetches = 0, response_bytes = 0;
};

double MicrosSince(SteadyClock::time_point t) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t)
      .count();
}

/// Replays `request` layer by layer against the fixture's data with the
/// bench's own back end instance (so its I/O counters see only the
/// replay), mirroring the query path: index lookup, rank by subject
/// importance and truncate, generate each hit's OS, run size-l, encode and
/// decode the response. Returns the replayed results.
api::ResultList Replay(const Fixture& f, core::OsBackend* backend,
                       const api::QueryRequest& request, StageSample* s) {
  const api::QueryOptions& options = request.options();
  const rel::Database& db = *f.db;

  SteadyClock::time_point t = SteadyClock::now();
  std::vector<api::Hit> hits = f.ctx->index().SearchQuery(request.keywords());
  std::sort(hits.begin(), hits.end(), [&](const api::Hit& a, const api::Hit& b) {
    double ia = db.relation(a.relation).importance(a.tuple);
    double ib = db.relation(b.relation).importance(b.tuple);
    if (ia != ib) return ia > ib;
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.tuple < b.tuple;
  });
  if (hits.size() > options.max_results) hits.resize(options.max_results);
  s->lookup_us = MicrosSince(t);
  s->hits = static_cast<double>(hits.size());

  api::ResultList results(hits.size());
  core::OsGenOptions gen;
  gen.max_depth = static_cast<int32_t>(options.l) - 1;
  util::IoStats io_before = backend->stats();
  core::PrelimStats prelim;
  t = SteadyClock::now();
  for (size_t i = 0; i < hits.size(); ++i) {
    const gds::Gds& gds = f.ctx->GdsFor(hits[i].relation);
    results[i].subject = hits[i];
    results[i].subject_importance =
        db.relation(hits[i].relation).importance(hits[i].tuple);
    results[i].os =
        options.use_prelim
            ? core::GeneratePrelimOs(db, gds, backend, hits[i].tuple,
                                     options.l, gen, &prelim)
            : core::GenerateCompleteOs(db, gds, backend, hits[i].tuple, gen);
  }
  s->osgen_us = MicrosSince(t);
  util::IoStats io = backend->stats() - io_before;
  s->selects = static_cast<double>(io.select_calls);
  s->tuples_read = static_cast<double>(io.tuples_read);
  s->ac1_skips = static_cast<double>(prelim.ac1_subtree_skips);
  s->ac2_fetches = static_cast<double>(prelim.ac2_limited_fetches);

  core::DpScratch scratch;
  std::vector<core::SizeLStats> sizel(results.size());  // set per call
  t = SteadyClock::now();
  for (size_t i = 0; i < results.size(); ++i) {
    results[i].selection = core::RunSizeL(options.algorithm, results[i].os,
                                          options.l, &scratch, &sizel[i]);
  }
  s->sizel_us = MicrosSince(t);
  for (const core::SizeLStats& st : sizel) {
    s->sizel_ops += static_cast<double>(st.operations);
  }
  for (const api::QueryResult& r : results) {
    s->os_nodes += static_cast<double>(r.os.size());
  }

  auto shared = std::make_shared<const api::ResultList>(results);
  t = SteadyClock::now();
  std::string bytes =
      api::EncodeResponse(api::QueryResponse::Success(shared, {}));
  s->encode_us = MicrosSince(t);
  s->response_bytes = static_cast<double>(bytes.size());
  t = SteadyClock::now();
  api::StatusOr<api::QueryResponse> decoded = api::DecodeResponse(bytes);
  s->decode_us = MicrosSince(t);
  if (!decoded.ok()) results.clear();
  return results;
}

Outcome RunTrace(const Workload& w, uint64_t seed, double seconds) {
  Outcome out;
  std::unique_ptr<Fixture> f = SetUp(w);
  if (!f) {
    out.correct = false;
    return out;
  }
  std::vector<api::QueryRequest> requests = MakeRequests(w, *f, seed);
  std::unique_ptr<core::OsBackend> replay_backend = MakeBackend(*f);
  api::StatusOr<net::Client> client =
      net::Client::Connect("127.0.0.1", f->server->port(), 60'000);
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    out.correct = false;
    return out;
  }

  std::vector<StageSample> samples;
  uint64_t cache_hits = 0;
  SteadyClock::time_point start = SteadyClock::now();
  for (size_t i = 0; Since(start) < seconds; ++i) {
    const api::QueryRequest& request = requests[i % requests.size()];
    ++out.attempted;
    // Replay first, so the stages meet the data as cold as the server does
    // in the end-to-end run; the server then answers from warm caches,
    // which makes residual_us a lower bound on the serving overhead.
    StageSample s;
    api::ResultList replayed = Replay(*f, replay_backend.get(), request, &s);
    SteadyClock::time_point sent = SteadyClock::now();
    if (!client->Send(request).ok()) {
      ++out.failed;
      break;
    }
    api::StatusOr<api::QueryResponse> response = client->Receive();
    s.rtt_us = MicrosSince(sent);
    if (!response.ok()) {
      ++out.failed;
      break;
    }
    if (!WellFormed(request, *response) ||
        api::DeterministicResultText(replayed) !=
            api::DeterministicResultText(response->result_list())) {
      ++out.failed;
      continue;
    }
    if (response->stats.cache_hit) ++cache_hits;
    // The same request again is answered from the result cache: its round
    // trip is the serving path without compute (transport, framing, event
    // loop, cache lookup, response codec).
    sent = SteadyClock::now();
    if (!client->Send(request).ok()) {
      ++out.failed;
      break;
    }
    api::StatusOr<api::QueryResponse> repeat = client->Receive();
    if (!repeat.ok() || !repeat->ok()) {
      ++out.failed;
      break;
    }
    if (repeat->stats.cache_hit) s.hit_rtt_us = MicrosSince(sent);
    samples.push_back(s);
  }
  client->Close();
  if (out.failed != 0 || samples.empty()) out.correct = false;

  auto column = [&](double StageSample::*field) {
    util::Summary summary;
    for (const StageSample& s : samples) summary.Add(s.*field);
    return summary;
  };
  util::Summary residual, hit_rtt;
  for (const StageSample& s : samples) {
    if (s.hit_rtt_us >= 0) hit_rtt.Add(s.hit_rtt_us);
    residual.Add(s.rtt_us - s.lookup_us - s.osgen_us - s.sizel_us -
                 s.encode_us - s.decode_us);
  }
  std::fprintf(stderr, "%s: traced %zu requests\n", w.name, samples.size());
  util::Summary rtt = column(&StageSample::rtt_us);
  util::Summary osgen = column(&StageSample::osgen_us);
  util::Summary sizel = column(&StageSample::sizel_us);
  out.metrics = {
      {"trace_rtt_us", rtt.Median(), "us"},
      {"trace_rtt_p99_us", rtt.Percentile(99), "us"},
      {"lookup_us", column(&StageSample::lookup_us).Median(), "us"},
      {"osgen_us", osgen.Median(), "us"},
      {"osgen_p99_us", osgen.Percentile(99), "us"},
      {"sizel_us", sizel.Median(), "us"},
      {"sizel_p99_us", sizel.Percentile(99), "us"},
      {"encode_us", column(&StageSample::encode_us).Median(), "us"},
      {"decode_us", column(&StageSample::decode_us).Median(), "us"},
      {"residual_us", residual.Median(), "us"},
      {"residual_p99_us", residual.Percentile(99), "us"},
      {"hit_rtt_us", hit_rtt.Median(), "us"},
      {"hits_per_query", column(&StageSample::hits).Mean(), "count"},
      {"os_nodes_per_query", column(&StageSample::os_nodes).Mean(), "count"},
      {"backend_selects_per_query", column(&StageSample::selects).Mean(),
       "count"},
      {"tuples_read_per_query", column(&StageSample::tuples_read).Mean(),
       "count"},
      {"sizel_ops_per_query", column(&StageSample::sizel_ops).Mean(), "count"},
      {"ac1_skips_per_query", column(&StageSample::ac1_skips).Mean(), "count"},
      {"ac2_fetches_per_query", column(&StageSample::ac2_fetches).Mean(),
       "count"},
      {"response_bytes_per_query", column(&StageSample::response_bytes).Mean(),
       "bytes"},
      {"cache_hits", static_cast<double>(cache_hits), "count"},
      {"traced_requests", static_cast<double>(samples.size()), "count"},
  };
  return out;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args->seconds = 0;
    } else if (flag == "--trace") {
      std::string_view v = value;
      args->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && args->trace >= 0 &&
         FindWorkload(args->workload) != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "<dblp_authors_db|dblp_titles_db|tpch_dp_db> "
                 "--seed <n> --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const Workload& w = *FindWorkload(args.workload);
  Outcome out = args.trace == 1 ? RunTrace(w, args.seed, args.seconds)
                                : RunEndToEnd(w, args.seed, args.seconds);
  if (out.attempted == 0) {
    std::fprintf(stderr, "no request was attempted\n");
    return 1;
  }
  // A wrong answer is reported in the result ("correct": false), not by the
  // exit code, which only says whether a result was produced.
  PrintResult(out);
  return 0;
}
