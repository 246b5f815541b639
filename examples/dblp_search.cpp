// Interactive-style keyword search over the synthetic DBLP database.
//
// Usage:
//   ./dblp_search                      # demo queries
//   ./dblp_search "power law" 10       # your own keywords and l
//   ./dblp_search faloutsos 20 dp      # choose the size-l algorithm
//
// Demonstrates the full public API surface: multiple data-subject
// relations (Author and Paper), prelim-l generation, algorithm choice and
// the Example-5 rendering.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/os_backend.h"
#include "datasets/dblp.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace {

osum::core::SizeLAlgorithm ParseAlgorithm(const char* name) {
  using osum::core::SizeLAlgorithm;
  if (std::strcmp(name, "dp") == 0) return SizeLAlgorithm::kDp;
  if (std::strcmp(name, "bottomup") == 0) return SizeLAlgorithm::kBottomUp;
  if (std::strcmp(name, "toppath") == 0) return SizeLAlgorithm::kTopPath;
  if (std::strcmp(name, "toppathmemo") == 0) {
    return SizeLAlgorithm::kTopPathMemo;
  }
  std::fprintf(stderr, "unknown algorithm '%s', using toppath\n", name);
  return SizeLAlgorithm::kTopPath;
}

/// Runs one query; false when it failed (the status is printed).
bool RunQuery(const osum::search::SearchContext& ctx,
              const std::string& keywords,
              const osum::api::QueryOptions& options) {
  osum::util::WallTimer timer;
  osum::api::QueryResponse response =
      ctx.Execute(osum::api::QueryRequest(keywords).WithOptions(options));
  double ms = timer.ElapsedMillis();
  if (!response.ok()) {
    std::printf("\n>>> query \"%s\" failed: %s\n", keywords.c_str(),
                response.status.ToString().c_str());
    return false;
  }
  const osum::api::ResultList& results = response.result_list();
  std::printf("\n>>> query \"%s\" (l=%zu, %s): %zu results in %.1f ms\n",
              keywords.c_str(), options.l,
              osum::core::AlgorithmName(options.algorithm), results.size(),
              ms);
  size_t rank = 1;
  for (const auto& r : results) {
    std::printf("\n#%zu  [importance %.2f, |OS|=%zu]\n", rank++,
                r.subject_importance, r.os.size());
    std::cout << ctx.Render(r);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace osum;

  datasets::Dblp dblp = datasets::BuildDblp();
  datasets::ApplyDblpScores(&dblp, 1, 0.85);
  core::DataGraphBackend backend(dblp.db, dblp.links, dblp.data_graph);
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({dblp.author, datasets::DblpAuthorGds(dblp)});
  subjects.push_back({dblp.paper, datasets::DblpPaperGds(dblp)});
  search::SearchContext ctx =
      search::SearchContext::Build(dblp.db, &backend, std::move(subjects));

  api::QueryOptions options;
  options.l = 15;
  options.max_results = 3;

  if (argc > 1) {
    if (argc > 2) options.l = static_cast<size_t>(std::atoi(argv[2]));
    if (argc > 3) options.algorithm = ParseAlgorithm(argv[3]);
    return RunQuery(ctx, argv[1], options) ? 0 : 1;
  }

  // Demo: an author query (Q1 of the paper), a paper-subject query and a
  // multi-keyword query.
  bool ok = RunQuery(ctx, "Faloutsos", options);
  options.l = 10;
  ok = RunQuery(ctx, "power law", options) && ok;
  options.l = 8;
  options.algorithm = core::SizeLAlgorithm::kDp;
  ok = RunQuery(ctx, "christos faloutsos", options) && ok;
  return ok ? 0 : 1;
}
