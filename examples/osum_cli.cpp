// osum_cli — a batch command processor over the library, the closest thing
// to "the product" a data controller would run.
//
// Commands (from argv, ';'-separated, or one per stdin line):
//   build dblp|tpch            build + rank the synthetic database
//   stats                      database and data-graph statistics
//   gds <relation>             print the annotated G_DS of a data subject
//   query <keywords> [l]       ranked size-l OSs (Example 5 format)
//   query --wire json|binary <keywords> [l]
//                              the full api::QueryResponse on the wire:
//                              canonical JSON document, or the v1 binary
//                              format as hex (pipe through `xxd -r -p`
//                              for raw bytes)
//   json <keywords> [l]        same, as JSON (first result only)
//   budget <keywords> <words>  word-budget summary (Section 7 future work)
//   serve <keywords> [l]       query via the serving layer; shows HIT/MISS
//                              (negative answers flagged "neg") and the
//                              observed latency (repeat a query to watch
//                              the result cache kick in)
//   policy [admission=on|off]  show or set the cache policy (admission=on
//                              caches a query only on its second
//                              sighting). Setting it restarts the serving
//                              layer with a fresh cache.
//   metrics                    serving-layer snapshot: hit/miss counters
//                              (negative hits split out), admission
//                              counters, cache occupancy, the
//                              partials memo and join tier counters,
//                              latency percentiles
//   serve-tcp [port|stop]      start the TCP front end on 127.0.0.1 (port
//                              0 = OS-assigned, printed on start) over the
//                              serving layer, or stop it (graceful drain:
//                              in-flight requests are answered first)
//   connect [deadline=<us>] <keywords...> [l]
//                              round-trip one query through the TCP front
//                              end over a real socket (length-prefixed
//                              binary frames) and print the served answer.
//                              deadline= attaches a relative time budget
//                              in microseconds (rides the v2 wire
//                              revision); an expired request is answered
//                              in-band with deadline_exceeded instead of
//                              burning pool time
//   save <dir>                 export the database as CSV + catalog
//   help
//
// Example:
//   ./osum_cli "build dblp; serve faloutsos 10; serve faloutsos 10; metrics"
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/codec.h"
#include "api/query.h"
#include "core/os_backend.h"
#include "core/os_export.h"
#include "core/word_budget.h"
#include "datasets/dblp.h"
#include "datasets/tpch.h"
#include "net/client.h"
#include "net/server.h"
#include "relational/csv_io.h"
#include "search/search_context.h"
#include "serve/query_service.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace osum;

// Holds whichever database is currently loaded plus the derived artifacts.
struct Session {
  std::optional<datasets::Dblp> dblp;
  std::optional<datasets::Tpch> tpch;
  std::unique_ptr<core::DataGraphBackend> backend;
  std::optional<search::SearchContext> ctx;
  // Serving layer, created lazily on the first `serve` command and torn
  // down before the context it borrows whenever a new db is built.
  // The cache policy (`policy` command) survives rebuilds; the cache
  // contents do not.
  std::unique_ptr<serve::QueryService> service;
  serve::ServiceOptions serve_options;
  // TCP front end (`serve-tcp`) over `service`. Declared after it so the
  // server is destroyed first: it must drain its connections before the
  // QueryService it submits to can go away.
  std::unique_ptr<net::Server> tcp_server;

  serve::QueryService& Service() {
    if (!service) {
      service = std::make_unique<serve::QueryService>(*ctx, serve_options);
    }
    return *service;
  }

  const rel::Database* db() const {
    if (dblp.has_value()) return &dblp->db;
    if (tpch.has_value()) return &tpch->db;
    return nullptr;
  }

  bool BuildDblp() {
    tcp_server.reset();  // serves from `service`: drain it first
    service.reset();     // borrows the context: drop it first
    ctx.reset();
    dblp = datasets::BuildDblp();
    tpch.reset();
    datasets::ApplyDblpScores(&*dblp, 1, 0.85);
    backend = std::make_unique<core::DataGraphBackend>(dblp->db, dblp->links,
                                                       dblp->data_graph);
    std::vector<search::SearchContext::Subject> subjects;
    subjects.push_back({dblp->author, datasets::DblpAuthorGds(*dblp)});
    subjects.push_back({dblp->paper, datasets::DblpPaperGds(*dblp)});
    ctx.emplace(search::SearchContext::Build(dblp->db, backend.get(),
                                             std::move(subjects)));
    std::printf("built DBLP: %llu tuples\n",
                static_cast<unsigned long long>(dblp->db.TotalTuples()));
    return true;
  }

  bool BuildTpch() {
    tcp_server.reset();  // serves from `service`: drain it first
    service.reset();     // borrows the context: drop it first
    ctx.reset();
    tpch = datasets::BuildTpch();
    dblp.reset();
    datasets::ApplyTpchScores(&*tpch, 1, 0.85);
    backend = std::make_unique<core::DataGraphBackend>(tpch->db, tpch->links,
                                                       tpch->data_graph);
    std::vector<search::SearchContext::Subject> subjects;
    subjects.push_back({tpch->customer, datasets::TpchCustomerGds(*tpch)});
    subjects.push_back({tpch->supplier, datasets::TpchSupplierGds(*tpch)});
    ctx.emplace(search::SearchContext::Build(tpch->db, backend.get(),
                                             std::move(subjects)));
    std::printf("built TPC-H: %llu tuples\n",
                static_cast<unsigned long long>(tpch->db.TotalTuples()));
    return true;
  }
};

void PrintHelp() {
  std::puts(
      "commands:\n"
      "  build dblp|tpch            build + rank a synthetic database\n"
      "  stats                      database statistics\n"
      "  gds <relation>             print an annotated G_DS\n"
      "  query <keywords...> [l]    ranked size-l OSs\n"
      "  query --wire json|binary <keywords...> [l]\n"
      "                             full QueryResponse as a wire document\n"
      "  json <keywords...> [l]     first result as JSON\n"
      "  budget <keywords...> <w>   word-budget summary (~w words)\n"
      "  serve <keywords...> [l]    query via the serving layer (HIT/MISS +\n"
      "                             latency; repeat to watch the cache)\n"
      "  policy [admission=on|off]  show or set the cache policy (restarts\n"
      "                             the serving layer when set)\n"
      "  metrics                    serving-layer counters + latencies\n"
      "  serve-tcp [port|stop]      start/stop the TCP front end (graceful\n"
      "                             drain on stop)\n"
      "  connect [deadline=<us>] <keywords...> [l]\n"
      "                             round-trip a query over the TCP front\n"
      "                             end's socket; deadline= attaches a\n"
      "                             relative budget in microseconds (expired\n"
      "                             work is shed as deadline_exceeded)\n"
      "  save <dir>                 export database as CSV\n"
      "  help");
}

bool RequireDb(const Session& s) {
  if (s.db() == nullptr) {
    std::puts("error: no database loaded; run 'build dblp' first");
    return false;
  }
  return true;
}

bool IsDigits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

// Parses an all-digit string; nullopt when it is not one or does not fit
// in 64 bits (never throws, unlike std::stoull).
std::optional<uint64_t> ParseUnsigned(const std::string& s) {
  if (!IsDigits(s)) return std::nullopt;
  uint64_t value = 0;
  if (std::from_chars(s.data(), s.data() + s.size(), value).ec !=
      std::errc()) {
    return std::nullopt;
  }
  return value;
}

// Splits trailing integer off a keyword list ("faloutsos 10" -> l=10). A
// trailing number too large to parse yields empty keywords, so the caller
// prints its usage line.
std::pair<std::string, std::optional<size_t>> SplitTrailingNumber(
    const std::vector<std::string>& args, size_t from) {
  std::vector<std::string> words(args.begin() + from, args.end());
  std::optional<size_t> number;
  if (!words.empty() && IsDigits(words.back())) {
    std::optional<uint64_t> parsed = ParseUnsigned(words.back());
    if (!parsed) return {"", std::nullopt};
    number = static_cast<size_t>(*parsed);
    words.pop_back();
  }
  return {util::Join(words, " "), number};
}

void RunCommand(Session& session, const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> args;
  std::string token;
  while (ss >> token) args.push_back(token);
  if (args.empty()) return;
  const std::string& cmd = args[0];

  if (cmd == "help") {
    PrintHelp();
    return;
  }
  if (cmd == "build") {
    if (args.size() < 2 || (args[1] != "dblp" && args[1] != "tpch")) {
      std::puts("usage: build dblp|tpch");
      return;
    }
    if (args[1] == "dblp") session.BuildDblp();
    else session.BuildTpch();
    return;
  }
  // Every other command needs a database. A branch claims its words with
  // `claim`, which reports a missing database itself; a word no branch
  // claims is unknown, so a typo before 'build' is not reported as a
  // missing database.
  const rel::Database* db = session.db();
  bool claimed = false;
  auto claim = [&](std::initializer_list<std::string_view> words) {
    if (std::find(words.begin(), words.end(), cmd) == words.end()) {
      return false;
    }
    claimed = true;
    return RequireDb(session);
  };

  if (claim({"stats"})) {
    std::printf("relations: %zu, foreign keys: %zu, tuples: %llu\n",
                db->num_relations(), db->num_foreign_keys(),
                static_cast<unsigned long long>(db->TotalTuples()));
    for (rel::RelationId r = 0; r < db->num_relations(); ++r) {
      const rel::Relation& rel = db->relation(r);
      std::printf("  %-12s %8zu tuples%s\n", rel.name().c_str(),
                  rel.num_tuples(), rel.is_junction() ? "  (junction)" : "");
    }
    return;
  }
  if (claim({"gds"})) {
    if (args.size() < 2) {
      std::puts("usage: gds <relation>");
      return;
    }
    rel::RelationId r = db->GetRelationId(args[1]);
    std::cout << session.ctx->GdsFor(r).ToString(*db);
    return;
  }
  if (claim({"serve"})) {
    auto [keywords, number] = SplitTrailingNumber(args, 1);
    if (keywords.empty()) {
      std::puts("usage: serve <keywords...> [l]");
      return;
    }
    // The typed surface reports the cache outcome itself — no more
    // diffing miss counters around the call.
    api::QueryResponse response = session.Service().Execute(
        api::QueryRequest(keywords).WithL(number.value_or(15)));
    if (!response.ok()) {
      std::printf("error: %s\n", response.status.ToString().c_str());
      return;
    }
    std::printf("[%s%s, %.1f us] %zu result(s)\n",
                response.stats.cache_hit ? "HIT" : "MISS",
                response.stats.negative ? " neg" : "",
                response.stats.compute_micros, response.result_list().size());
    for (const auto& r : response.result_list()) {
      std::printf("  importance %.2f, |OS|=%zu, selection %zu node(s)\n",
                  r.subject_importance, r.os.size(), r.selection.nodes.size());
    }
    return;
  }
  if (claim({"metrics"})) {
    if (session.service == nullptr) {
      std::puts("serving layer idle; run 'serve <keywords>' first");
      return;
    }
    // The report shape is pinned by MetricsReport.* in serve_service_test
    // — the CLI prints exactly what the library formats.
    std::fputs(serve::FormatMetricsReport(session.service->metrics()).c_str(),
               stdout);
    return;
  }
  if (claim({"policy"})) {
    // Validate every argument before applying any: a rejected command must
    // not leave a half-applied policy latent in the session.
    std::optional<bool> admission;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i] != "admission=on" && args[i] != "admission=off") {
        std::puts("usage: policy [admission=on|off]");
        return;
      }
      admission = args[i] == "admission=on";
    }
    bool& enabled = session.serve_options.cache.admission_enabled;
    if (admission) {
      enabled = *admission;
      session.tcp_server.reset();  // serves from the service being replaced
      session.service.reset();     // next `serve` gets the policy
    }
    std::printf("policy: admission=%s%s\n", enabled ? "on" : "off",
                admission ? " (serving layer restarted)" : "");
    return;
  }
  if (claim({"query", "json", "budget"})) {
    size_t from = 1;
    std::string wire;
    if (cmd == "query" && args.size() > 1 && args[1] == "--wire") {
      if (args.size() < 3 || (args[2] != "json" && args[2] != "binary")) {
        std::puts("usage: query --wire json|binary <keywords...> [l]");
        return;
      }
      wire = args[2];
      from = 3;
    }
    auto [keywords, number] = SplitTrailingNumber(args, from);
    if (keywords.empty()) {
      std::printf("usage: %s <keywords...> [number]\n", cmd.c_str());
      return;
    }
    api::QueryRequest request(keywords);
    // budget needs the complete OS; l selects the synopsis otherwise.
    request.WithL(cmd == "budget" ? 0 : number.value_or(15));
    api::QueryResponse response = session.ctx->Execute(request);
    if (!wire.empty()) {
      // The wire forms carry failures and empty answers as data.
      if (wire == "json") {
        std::cout << api::ResponseToJson(response) << "\n";
      } else {
        std::cout << api::ToHex(api::EncodeResponse(response)) << "\n";
      }
      return;
    }
    if (!response.ok()) {
      std::printf("error: %s\n", response.status.ToString().c_str());
      return;
    }
    const api::ResultList& results = response.result_list();
    if (results.empty()) {
      std::puts("no results");
      return;
    }
    if (cmd == "query") {
      for (const auto& r : results) {
        std::printf("[importance %.2f, |OS|=%zu]\n", r.subject_importance,
                    r.os.size());
        std::cout << session.ctx->Render(r);
      }
    } else if (cmd == "json") {
      const auto& r = results[0];
      const gds::Gds& gds = session.ctx->GdsFor(r.subject.relation);
      std::cout << core::RenderOsJson(*db, gds, r.os, &r.selection.nodes);
    } else {  // budget
      uint64_t words = number.value_or(50);
      const auto& r = results[0];
      auto budgeted =
          core::SizeLByBudget(*db, r.os, words, core::BudgetUnit::kWords,
                              core::SizeLAlgorithm::kTopPathMemo);
      std::printf("budget %llu words -> l=%zu (%llu words)\n",
                  static_cast<unsigned long long>(words), budgeted.l,
                  static_cast<unsigned long long>(budgeted.cost));
      const gds::Gds& gds = session.ctx->GdsFor(r.subject.relation);
      std::cout << r.os.Render(*db, gds, &budgeted.selection.nodes);
    }
    return;
  }
  if (claim({"serve-tcp"})) {
    if (args.size() > 1 && args[1] == "stop") {
      if (session.tcp_server == nullptr) {
        std::puts("tcp server not running");
        return;
      }
      bool drained = session.tcp_server->Shutdown();
      net::ServerStats stats = session.tcp_server->stats();
      std::printf("tcp server stopped (%s): %llu frames in, %llu responses "
                  "out, %llu malformed, %llu dropped, %llu deadline "
                  "exceeded\n",
                  drained ? "drained" : "drain timed out",
                  static_cast<unsigned long long>(stats.frames_in),
                  static_cast<unsigned long long>(stats.responses_out),
                  static_cast<unsigned long long>(stats.malformed_frames),
                  static_cast<unsigned long long>(stats.dropped_responses),
                  static_cast<unsigned long long>(
                      stats.responses_deadline_exceeded));
      session.tcp_server.reset();
      return;
    }
    if (session.tcp_server != nullptr) {
      std::printf("tcp server already listening on 127.0.0.1:%u\n",
                  session.tcp_server->port());
      return;
    }
    net::ServerOptions options;
    if (args.size() > 1) {
      std::optional<uint64_t> port = ParseUnsigned(args[1]);
      if (!port || *port > 65535) {
        std::puts("usage: serve-tcp [port|stop]");
        return;
      }
      options.port = static_cast<uint16_t>(*port);
    }
    auto server =
        std::make_unique<net::Server>(&session.Service(), options);
    if (api::Status status = server->Start(); !status.ok()) {
      std::printf("error: %s\n", status.ToString().c_str());
      return;
    }
    session.tcp_server = std::move(server);
    std::printf("tcp server listening on 127.0.0.1:%u\n",
                session.tcp_server->port());
    return;
  }
  if (claim({"connect"})) {
    if (session.tcp_server == nullptr) {
      std::puts("tcp server not running; run 'serve-tcp' first");
      return;
    }
    // Optional deadline=<micros> knob, position-independent among the
    // keywords; the rest of the line parses as before.
    uint64_t deadline_micros = 0;
    std::vector<std::string> rest = {args[0]};
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("deadline=", 0) == 0) {
        std::optional<uint64_t> value = ParseUnsigned(args[i].substr(9));
        if (!value) {
          std::puts("usage: connect [deadline=<us>] <keywords...> [l]");
          return;
        }
        deadline_micros = *value;
        continue;
      }
      rest.push_back(args[i]);
    }
    auto [keywords, number] = SplitTrailingNumber(rest, 1);
    if (keywords.empty()) {
      std::puts("usage: connect [deadline=<us>] <keywords...> [l]");
      return;
    }
    api::StatusOr<net::Client> client =
        net::Client::Connect("127.0.0.1", session.tcp_server->port());
    if (!client.ok()) {
      std::printf("error: %s\n", client.status().ToString().c_str());
      return;
    }
    util::WallTimer timer;
    if (api::Status sent = client->Send(api::QueryRequest(keywords)
                                            .WithL(number.value_or(15))
                                            .WithDeadlineMicros(
                                                deadline_micros));
        !sent.ok()) {
      std::printf("error: %s\n", sent.ToString().c_str());
      return;
    }
    api::StatusOr<api::QueryResponse> received = client->Receive();
    if (!received.ok()) {
      std::printf("error: %s\n", received.status().ToString().c_str());
      return;
    }
    double rtt_us = timer.ElapsedMicros();
    const api::QueryResponse& response = *received;
    if (!response.ok()) {
      std::printf("error (served in-band): %s\n",
                  response.status.ToString().c_str());
      return;
    }
    std::printf("[%s%s, rtt %.1f us over tcp] %zu result(s)\n",
                response.stats.cache_hit ? "HIT" : "MISS",
                response.stats.negative ? " neg" : "", rtt_us,
                response.result_list().size());
    for (const auto& r : response.result_list()) {
      std::printf("  importance %.2f, |OS|=%zu, selection %zu node(s)\n",
                  r.subject_importance, r.os.size(), r.selection.nodes.size());
    }
    return;
  }
  if (claim({"save"})) {
    if (args.size() < 2) {
      std::puts("usage: save <dir>");
      return;
    }
    if (rel::SaveDatabaseCsv(*db, args[1])) {
      std::printf("saved to %s\n", args[1].c_str());
    } else {
      std::printf("error: could not write %s\n", args[1].c_str());
    }
    return;
  }
  if (!claimed) {
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Session session;
  if (argc > 1) {
    // Commands come ';'-separated from argv.
    std::string joined;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) joined += " ";
      joined += argv[i];
    }
    std::istringstream ss(joined);
    std::string command;
    while (std::getline(ss, command, ';')) RunCommand(session, command);
    return 0;
  }
  // Demo script when run without arguments.
  for (const char* cmd :
       {"build dblp", "stats", "gds Author", "query faloutsos 8",
        "budget faloutsos 40", "serve faloutsos 8", "serve faloutsos 8",
        "query --wire json faloutsos 5", "policy admission=on",
        "serve nosuchkeyword 8", "serve nosuchkeyword 8",
        "serve nosuchkeyword 8", "serve-tcp 0",
        "connect faloutsos 8", "connect deadline=60000000 faloutsos 8",
        "serve-tcp stop",
        "metrics"}) {
    std::printf("\n$ %s\n", cmd);
    RunCommand(session, cmd);
  }
  return 0;
}
