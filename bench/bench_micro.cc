// google-benchmark microbenchmarks of the algorithm kernels on synthetic
// OS trees: scaling of the size-l algorithms with n and l, OS generation,
// prelim-l generation and ObjectRank iterations.
//
// With `--json <path>` the driver instead runs the deterministic DP
// hot-path workload (ISSUE 10) and emits machine-independent
// bench::JsonReport rows the perf lane gates near-exactly:
//   - dp_queries / dp_allocations / dp_bytes_reserved — a batch of size-l
//     DP runs through one shared DpScratch must cost O(1) arena blocks
//     total, not O(nodes) allocations per tree;
//   - partials_reused / partials_misses / partials_inserts /
//     partials_entries — the per-subject memo of complete OSs must get
//     nonzero reuse on an overlapping-keyword workload;
//   - partials_sweep_reused / partials_sweep_misses — the paper's l sweep
//     (5..50) over fixed TPC-H subjects with complete OSs and the DP: one
//     tree per subject serves every l past the G_DS depth.
// All three sections carry internal correctness guards (shared-scratch vs
// fresh selections; memo-on vs memo-off DeterministicResultText) and exit
// nonzero on any mismatch, so the perf lane cannot green-light a fast but
// wrong hot path.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/codec.h"
#include "bench_common.h"
#include "core/os_backend.h"
#include "core/os_generator.h"
#include "core/size_l.h"
#include "datasets/dblp.h"
#include "datasets/tpch.h"
#include "search/search_context.h"
#include "util/rng.h"

namespace {

using namespace osum;

core::OsTree RandomTree(uint64_t seed, size_t n) {
  util::Rng rng(seed);
  core::OsTree os;
  os.AddRoot(0, 0, 0, rng.NextDouble() * 100);
  for (size_t i = 1; i < n; ++i) {
    size_t parent = rng.NextBernoulli(0.7) ? i - 1 - rng.NextU64(std::max<size_t>(1, i / 3))
                                           : rng.NextU64(i);
    os.AddChild(static_cast<core::OsNodeId>(parent), 0, 0,
                static_cast<rel::TupleId>(i), rng.NextDouble() * 100);
  }
  return os;
}

void BM_SizeLDp(benchmark::State& state) {
  core::OsTree os = RandomTree(1, static_cast<size_t>(state.range(0)));
  size_t l = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SizeLDp(os, l));
  }
}
BENCHMARK(BM_SizeLDp)
    ->Args({100, 10})
    ->Args({1000, 10})
    ->Args({1000, 50})
    ->Args({10000, 10})
    ->Args({10000, 50});

// The arena-backed variant: same DP, table storage reused across
// iterations through one DpScratch (the per-worker steady state).
void BM_SizeLDpScratch(benchmark::State& state) {
  core::OsTree os = RandomTree(1, static_cast<size_t>(state.range(0)));
  size_t l = static_cast<size_t>(state.range(1));
  core::DpScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SizeLDp(os, l, &scratch));
  }
}
BENCHMARK(BM_SizeLDpScratch)
    ->Args({100, 10})
    ->Args({1000, 10})
    ->Args({1000, 50})
    ->Args({10000, 10})
    ->Args({10000, 50});

void BM_SizeLBottomUp(benchmark::State& state) {
  core::OsTree os = RandomTree(2, static_cast<size_t>(state.range(0)));
  size_t l = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SizeLBottomUp(os, l));
  }
}
BENCHMARK(BM_SizeLBottomUp)
    ->Args({1000, 10})
    ->Args({10000, 10})
    ->Args({10000, 50})
    ->Args({100000, 50});

void BM_SizeLTopPath(benchmark::State& state) {
  core::OsTree os = RandomTree(3, static_cast<size_t>(state.range(0)));
  size_t l = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SizeLTopPath(os, l));
  }
}
BENCHMARK(BM_SizeLTopPath)->Args({1000, 10})->Args({10000, 10})->Args({10000, 50});

void BM_SizeLTopPathMemo(benchmark::State& state) {
  core::OsTree os = RandomTree(3, static_cast<size_t>(state.range(0)));
  size_t l = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SizeLTopPathMemo(os, l));
  }
}
BENCHMARK(BM_SizeLTopPathMemo)
    ->Args({1000, 10})
    ->Args({10000, 10})
    ->Args({10000, 50})
    ->Args({100000, 50});

// Shared fixture for database-dependent benchmarks.
struct DblpFixture {
  datasets::Dblp d;
  gds::Gds gds;
  std::unique_ptr<core::DataGraphBackend> backend;

  DblpFixture() : d(datasets::BuildDblp()) {
    datasets::ApplyDblpScores(&d, 1, 0.85);
    gds = datasets::DblpAuthorGds(d);
    backend =
        std::make_unique<core::DataGraphBackend>(d.db, d.links, d.data_graph);
  }

  static DblpFixture& Get() {
    static DblpFixture fixture;
    return fixture;
  }
};

void BM_GenerateCompleteOs(benchmark::State& state) {
  DblpFixture& f = DblpFixture::Get();
  rel::TupleId tds = static_cast<rel::TupleId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GenerateCompleteOs(f.d.db, f.gds, f.backend.get(), tds));
  }
}
BENCHMARK(BM_GenerateCompleteOs)->Arg(0)->Arg(50)->Arg(500);

void BM_GeneratePrelimOs(benchmark::State& state) {
  DblpFixture& f = DblpFixture::Get();
  rel::TupleId tds = static_cast<rel::TupleId>(state.range(0));
  size_t l = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GeneratePrelimOs(f.d.db, f.gds, f.backend.get(), tds, l));
  }
}
BENCHMARK(BM_GeneratePrelimOs)->Args({0, 10})->Args({0, 50})->Args({50, 10});

void BM_ObjectRank(benchmark::State& state) {
  DblpFixture& f = DblpFixture::Get();
  importance::AuthorityGraph ga = datasets::DblpGa1(f.d);
  importance::ObjectRankOptions options;
  options.max_iterations = static_cast<int>(state.range(0));
  options.epsilon = 0.0;  // force exactly max_iterations
  for (auto _ : state) {
    benchmark::DoNotOptimize(importance::ComputeObjectRank(
        f.d.db, f.d.links, f.d.data_graph, ga, options));
  }
}
BENCHMARK(BM_ObjectRank)->Arg(1)->Arg(10);

void BM_DataGraphBuild(benchmark::State& state) {
  DblpFixture& f = DblpFixture::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::DataGraph::Build(f.d.db, f.d.links));
  }
}
BENCHMARK(BM_DataGraphBuild);

// ---------------------------------------------------------------------------
// Deterministic --json mode (the perf-lane gate rows).

// A batch of size-l DP runs through ONE shared DpScratch. The gate rows
// pin the arena claim: block_allocations stays a small constant (the
// geometric block list warms once) no matter how many trees run through.
int ReportDpBatch(bench::JsonReport& report, bool tiny) {
  const size_t trees = tiny ? 8 : 48;
  const size_t n = tiny ? 200 : 4000;
  const size_t l = 25;
  core::DpScratch scratch;
  uint64_t operations = 0;
  for (size_t i = 0; i < trees; ++i) {
    core::OsTree os = RandomTree(100 + i, n);
    core::SizeLStats stats;
    core::Selection shared = core::SizeLDp(os, l, &scratch, &stats);
    core::Selection fresh = core::SizeLDp(os, l);
    if (shared.nodes != fresh.nodes ||
        shared.importance != fresh.importance) {
      std::fprintf(stderr,
                   "FAIL: shared-scratch DP diverged from fresh DP "
                   "(tree %zu)\n",
                   i);
      return 1;
    }
    operations += stats.operations;
  }
  report.Add("dp", "batch", "dp_queries", static_cast<double>(trees));
  report.Add("dp", "batch", "dp_operations", static_cast<double>(operations));
  report.Add("dp", "batch", "dp_allocations",
             static_cast<double>(scratch.arena.block_allocations()));
  report.Add("dp", "batch", "dp_bytes_reserved",
             static_cast<double>(scratch.arena.bytes_reserved()));
  std::printf("dp: %zu trees (n=%zu, l=%zu), %llu ops, %llu arena blocks, "
              "%llu bytes reserved\n",
              trees, n, l, static_cast<unsigned long long>(operations),
              static_cast<unsigned long long>(
                  scratch.arena.block_allocations()),
              static_cast<unsigned long long>(
                  scratch.arena.bytes_reserved()));
  return 0;
}

// An overlapping-keyword workload of complete OSs (the only trees the
// memo keeps; prelim-l OSs bypass it) through SearchContext, memo-on vs
// memo-off. The reuse counters are single-threaded and deterministic; the
// byte-equivalence guard makes "fast but wrong" impossible to gate green.
int ReportPartialsWorkload(bench::JsonReport& report, bool tiny) {
  datasets::Dblp d = datasets::BuildDblp();
  datasets::ApplyDblpScores(&d, 1, 0.85);
  core::DataGraphBackend backend(d.db, d.links, d.data_graph);

  auto build = [&] {
    std::vector<search::SearchContext::Subject> subjects;
    subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
    subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
    return search::SearchContext::Build(d.db, &backend, std::move(subjects));
  };
  search::SearchContext with_memo = build();
  search::SearchContext without_memo = build();
  without_memo.partials_memo().SetEnabled(false);

  // Every keyword set overlaps the others on the Faloutsos/databases
  // subjects, so passes 2+ reuse the memoized per-subject trees.
  std::vector<std::string> queries = {"databases", "faloutsos",
                                      "christos faloutsos", "databases"};
  api::QueryOptions options;
  options.l = tiny ? 5 : 15;
  options.use_prelim = false;
  const int passes = tiny ? 2 : 4;
  for (int pass = 0; pass < passes; ++pass) {
    for (const std::string& q : queries) {
      std::string on =
          api::DeterministicResultText(with_memo.Query(q, options));
      std::string plain =
          api::DeterministicResultText(without_memo.Query(q, options));
      if (on != plain) {
        std::fprintf(stderr,
                     "FAIL: memo-on query diverged from memo-off "
                     "(pass %d, query \"%s\")\n",
                     pass, q.c_str());
        return 1;
      }
    }
  }

  core::PartialsMemoMetrics m = with_memo.partials_memo().metrics();
  report.Add("partials", "overlap", "partials_reused",
             static_cast<double>(m.hits));
  report.Add("partials", "overlap", "partials_misses",
             static_cast<double>(m.misses));
  report.Add("partials", "overlap", "partials_inserts",
             static_cast<double>(m.inserts));
  report.Add("partials", "overlap", "partials_entries",
             static_cast<double>(m.entries));
  std::printf("partials: %llu reused, %llu misses, %llu inserts, "
              "%llu entries\n",
              static_cast<unsigned long long>(m.hits),
              static_cast<unsigned long long>(m.misses),
              static_cast<unsigned long long>(m.inserts),
              static_cast<unsigned long long>(m.entries));
  if (m.hits == 0) {
    std::fprintf(stderr,
                 "FAIL: overlapping workload produced zero partials "
                 "reuse\n");
    return 1;
  }
  return 0;
}

// The l sweep a reader makes over one subject (a short synopsis first,
// then longer ones): complete OSs and the exact DP at l = 5..50 over a
// fixed list of TPC-H customers and suppliers, memo-on vs memo-off. A
// complete OS depends on l only through its depth cap, so past the G_DS
// depth every l reuses the subject's one memoized tree.
int ReportLSweep(bench::JsonReport& report, bool tiny) {
  datasets::TpchConfig config;
  if (tiny) config.scale = 0.25;
  datasets::Tpch t = datasets::BuildTpch(config);
  datasets::ApplyTpchScores(&t, 1, 0.85);
  core::DataGraphBackend backend(t.db, t.links, t.data_graph);

  auto build = [&] {
    std::vector<search::SearchContext::Subject> subjects;
    subjects.push_back({t.customer, datasets::TpchCustomerGds(t)});
    subjects.push_back({t.supplier, datasets::TpchSupplierGds(t)});
    return search::SearchContext::Build(t.db, &backend, std::move(subjects));
  };
  search::SearchContext with_memo = build();
  search::SearchContext without_memo = build();
  without_memo.partials_memo().SetEnabled(false);

  // The first few customer and supplier names; each matches one subject.
  const rel::TupleId per_relation = tiny ? 2 : 8;
  std::vector<std::string> names;
  for (rel::RelationId relation : {t.customer, t.supplier}) {
    for (rel::TupleId tuple = 0; tuple < per_relation; ++tuple) {
      names.push_back(t.db.relation(relation).StringValue(tuple, 0));
    }
  }

  api::QueryOptions options;
  options.use_prelim = false;
  options.algorithm = core::SizeLAlgorithm::kDp;
  for (const std::string& name : names) {
    for (size_t l = 5; l <= 50; l += 5) {
      options.l = l;
      std::string on =
          api::DeterministicResultText(with_memo.Query(name, options));
      std::string plain =
          api::DeterministicResultText(without_memo.Query(name, options));
      if (on != plain) {
        std::fprintf(stderr,
                     "FAIL: memo-on l sweep diverged from memo-off "
                     "(subject \"%s\", l=%zu)\n",
                     name.c_str(), l);
        return 1;
      }
    }
  }

  core::PartialsMemoMetrics m = with_memo.partials_memo().metrics();
  report.Add("l_sweep", "tpch_dp", "partials_sweep_reused",
             static_cast<double>(m.hits));
  report.Add("l_sweep", "tpch_dp", "partials_sweep_misses",
             static_cast<double>(m.misses));
  std::printf("l_sweep: %zu subjects x l=5..50, %llu reused, %llu misses\n",
              names.size(), static_cast<unsigned long long>(m.hits),
              static_cast<unsigned long long>(m.misses));
  if (m.hits == 0) {
    std::fprintf(stderr, "FAIL: l sweep produced zero partials reuse\n");
    return 1;
  }
  return 0;
}

int RunDeterministicReport(bench::JsonReport& report, bool tiny) {
  int rc = ReportDpBatch(report, tiny);
  if (rc != 0) return rc;
  rc = ReportPartialsWorkload(report, tiny);
  if (rc != 0) return rc;
  rc = ReportLSweep(report, tiny);
  if (rc != 0) return rc;
  return report.Write() ? 0 : 1;
}

}  // namespace

// Custom main: `--json <path>` selects the deterministic gate-row report
// above (bench::JsonReport format, same bench/baselines/ workflow as the
// table drivers); without it the google-benchmark timing tables run.
// `--tiny` shrinks the deterministic workload, or maps onto a short
// --benchmark_min_time in timing mode.
int main(int argc, char** argv) {
  osum::bench::JsonReport report =
      osum::bench::JsonReport::FromArgs(argc, argv, "bench_micro");
  bool tiny = osum::bench::TinyFromArgs(argc, argv);
  if (report.active()) {
    return RunDeterministicReport(report, tiny);
  }

  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> translated;
  translated.reserve(args.size() + 1);
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tiny") {
      // Smoke mode: one fast iteration per benchmark.
      translated.push_back("--benchmark_min_time=0.01");
    } else {
      translated.push_back(args[i]);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(translated.size());
  for (std::string& a : translated) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
