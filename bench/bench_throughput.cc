// Concurrent query throughput over a shared immutable SearchContext.
//
// The scaling claim behind SearchContext::ExecuteBatch: size-l keyword
// queries are per-query parallel (each walks its own t_DS hits and OS
// trees against read-only structures), so batching them over a thread pool
// should scale with cores. This driver speaks the api layer's
// QueryRequest/QueryResponse contract end to end; it builds one context
// per dataset and sweeps the worker count over a fixed keyword mix:
//   - DBLP mix: author surnames + paper-title terms (hits with large OSs,
//     CPU-bound on OS generation + size-l).
//   - TPC-H mix: customer/supplier names against the simulated-latency
//     DatabaseBackend (8us per SELECT), the paper's "direct from the DBMS"
//     path — latency hiding, not just CPU scaling.
// Each sweep prints wall time, queries/s and speedup vs the 1-thread run,
// and cross-checks that the batched results match serial execution. True
// speedup requires physical cores; on a 1-CPU host the table degenerates
// to ~1.0x.
//
// Flags: --json <path> (machine-readable rows, see bench::JsonReport),
// --tiny (shrunken datasets for the CI smoke).
#include <iostream>
#include <string>
#include <vector>

#include "api/query.h"
#include "bench_common.h"
#include "search/search_context.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace osum {
namespace {

const std::vector<size_t> kThreadSweep = {1, 2, 4, 8};
constexpr int kReps = 3;

/// Repeats the base mix until the batch is large enough to amortize pool
/// startup and give every worker several queries.
std::vector<std::string> RepeatMix(std::vector<std::string> base,
                                   size_t target) {
  std::vector<std::string> mix;
  mix.reserve(target);
  while (mix.size() < target) {
    for (const std::string& q : base) {
      if (mix.size() >= target) break;
      mix.push_back(q);
    }
  }
  return mix;
}

/// The string mix as api requests — what the sweep actually executes.
std::vector<api::QueryRequest> ToRequests(
    const std::vector<std::string>& queries,
    const api::QueryOptions& options) {
  std::vector<api::QueryRequest> requests;
  requests.reserve(queries.size());
  for (const std::string& q : queries) {
    requests.push_back(api::QueryRequest(q).WithOptions(options));
  }
  return requests;
}

/// Fingerprint of a response batch: selection importances and OS sizes are
/// enough to detect any cross-thread divergence. A non-OK response (there
/// should be none in this mix) poisons the sum.
double Checksum(const std::vector<api::QueryResponse>& batch) {
  double sum = 0.0;
  for (const api::QueryResponse& response : batch) {
    if (!response.ok()) return -1.0;
    for (const api::QueryResult& r : response.result_list()) {
      sum += r.selection.importance + static_cast<double>(r.os.size()) +
             static_cast<double>(r.subject.tuple);
    }
  }
  return sum;
}

void RunSweep(const std::string& title, const search::SearchContext& ctx,
              const std::vector<std::string>& queries,
              const api::QueryOptions& options, bench::JsonReport* json) {
  util::PrintHeading(std::cout, title + " (" + std::to_string(queries.size()) +
                                    " queries, l=" +
                                    std::to_string(options.l) + ", backend=" +
                                    ctx.backend()->name() + ")");
  std::vector<api::QueryRequest> requests = ToRequests(queries, options);

  // Serial reference: the plain Execute loop ExecuteBatch must reproduce.
  double serial_s = bench::MedianSeconds(
      [&] {
        for (const api::QueryRequest& r : requests) ctx.Execute(r);
      },
      kReps);
  std::vector<api::QueryResponse> serial;
  serial.reserve(requests.size());
  for (const api::QueryRequest& r : requests) serial.push_back(ctx.Execute(r));
  double reference = Checksum(serial);

  util::TablePrinter table(
      {"threads", "wall ms", "queries/s", "speedup vs 1T", "matches serial"});
  double base_s = 0.0;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    double secs = bench::MedianSeconds(
        [&] { ctx.ExecuteBatch(requests, pool); }, kReps);
    if (threads == kThreadSweep.front()) base_s = secs;
    bool matches =
        Checksum(ctx.ExecuteBatch(requests, pool)) == reference;
    table.AddRow({std::to_string(threads), util::FormatDouble(secs * 1e3, 1),
                  util::FormatDouble(static_cast<double>(queries.size()) / secs, 0),
                  util::FormatDouble(base_s / secs, 2),
                  matches ? "yes" : "NO"});
    std::string label = std::to_string(threads) + "T";
    json->Add(title, label, "wall_ms", secs * 1e3);
    json->Add(title, label, "qps",
              static_cast<double>(queries.size()) / secs);
    json->Add(title, label, "speedup_vs_1t", base_s / secs);
  }
  json->Add(title, "serial", "wall_ms", serial_s * 1e3);
  table.AddRow({"serial", util::FormatDouble(serial_s * 1e3, 1),
                util::FormatDouble(static_cast<double>(queries.size()) / serial_s, 0),
                util::FormatDouble(base_s / serial_s, 2), "-"});
  table.Print(std::cout);
  std::cout << "\n";
}

void BenchDblp(bool tiny, bench::JsonReport* json) {
  datasets::DblpConfig config;
  config.num_authors = tiny ? 120 : 800;
  config.num_papers = tiny ? 480 : 3200;
  config.num_conferences = tiny ? 8 : 20;
  datasets::Dblp d = datasets::BuildDblp(config);
  datasets::ApplyDblpScores(&d, 1, 0.85);
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);

  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  search::SearchContext ctx =
      search::SearchContext::Build(d.db, &backend, std::move(subjects));

  // Surnames of the most prolific authors (largest OSs) + common title
  // terms: the worst-case mix the paper's Section 6 timings are about.
  std::vector<std::string> base;
  for (rel::TupleId t = 0; t < (tiny ? 8u : 24u); ++t) {
    std::string name = d.db.relation(d.author).StringValue(t, 0);
    base.push_back(name.substr(name.rfind(' ') + 1));
  }
  base.insert(base.end(), {"databases", "mining", "graphs", "clustering",
                           "indexing", "streams", "power law", "queries"});

  api::QueryOptions options;
  options.l = 15;
  options.max_results = 5;
  RunSweep("DBLP mix, data-graph back end", ctx,
           RepeatMix(base, tiny ? 16 : 96), options, json);
}

void BenchTpch(bool tiny, bench::JsonReport* json) {
  datasets::TpchConfig config;
  config.num_customers = tiny ? 80 : 600;
  config.num_suppliers = tiny ? 10 : 40;
  config.num_parts = tiny ? 120 : 800;
  datasets::Tpch t = datasets::BuildTpch(config);
  datasets::ApplyTpchScores(&t, 1, 0.85);
  core::DatabaseBackend backend(t.db, t.links, /*per_select_micros=*/8.0);

  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
  subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
  search::SearchContext ctx =
      search::SearchContext::Build(t.db, &backend, std::move(subjects));

  std::vector<std::string> base;
  for (rel::TupleId c = 0; c < (tiny ? 8u : 24u); ++c) {
    base.push_back(t.db.relation(t.customer).StringValue(c, 0));
  }
  for (rel::TupleId s = 0; s < (tiny ? 2u : 8u); ++s) {
    base.push_back(t.db.relation(t.supplier).StringValue(s, 0));
  }

  api::QueryOptions options;
  options.l = 10;
  options.max_results = 3;
  RunSweep("TPC-H mix, simulated-latency database back end", ctx,
           RepeatMix(base, tiny ? 12 : 64), options, json);
}

}  // namespace
}  // namespace osum

int main(int argc, char** argv) {
  osum::bench::JsonReport json =
      osum::bench::JsonReport::FromArgs(argc, argv, "bench_throughput");
  bool tiny = osum::bench::TinyFromArgs(argc, argv);
  std::cout << "hardware threads: " << osum::util::ThreadPool::HardwareThreads()
            << "\n\n";
  osum::BenchDblp(tiny, &json);
  osum::BenchTpch(tiny, &json);
  return json.Write() ? 0 : 1;
}
