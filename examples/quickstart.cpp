// Quickstart: the paper's running example end to end.
//
// Builds the synthetic DBLP database, ranks it with global ObjectRank
// (G_A1, d = 0.85), and answers the paper's Q1 ("Faloutsos") as a size-15
// OS query — reproducing Example 5: one concise, stand-alone synopsis per
// Faloutsos brother instead of Example 4's 1,000+-tuple full OS.
//
// Run:  ./quickstart
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "api/query.h"
#include "core/os_backend.h"
#include "datasets/dblp.h"
#include "search/search_context.h"
#include "util/timer.h"

int main() {
  using namespace osum;

  std::cout << "== osum quickstart: size-l Object Summaries ==\n\n";

  // 1. Build the DBLP-shaped database (Figure 1 schema) and its data graph.
  util::WallTimer timer;
  datasets::Dblp dblp = datasets::BuildDblp();
  std::printf("built DBLP: %llu tuples, data graph %zu nodes / %zu edges "
              "(%.2fs)\n",
              static_cast<unsigned long long>(dblp.db.TotalTuples()),
              dblp.data_graph.num_nodes(), dblp.data_graph.num_edges(),
              timer.ElapsedSeconds());

  // 2. Global importance: ObjectRank with the paper's default setting.
  timer.Reset();
  auto rank = datasets::ApplyDblpScores(&dblp, /*ga=*/1, /*damping=*/0.85);
  std::printf("global ObjectRank: %d iterations (%.2fs)\n\n", rank.iterations,
              timer.ElapsedSeconds());

  // 3. Register data subjects with their G_DS (Figure 2) and index them.
  core::DataGraphBackend backend(dblp.db, dblp.links, dblp.data_graph);
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({dblp.author, datasets::DblpAuthorGds(dblp)});
  subjects.push_back({dblp.paper, datasets::DblpPaperGds(dblp)});
  search::SearchContext ctx =
      search::SearchContext::Build(dblp.db, &backend, std::move(subjects));

  std::cout << "Author G_DS (affinity, max, mmax annotations):\n"
            << ctx.GdsFor(dblp.author).ToString(dblp.db) << "\n";

  // 4. Q1 = "Faloutsos" with l = 15 (the paper's Example 5), through the
  // public request/response contract: a fluent request in, a status-typed
  // response (ranked size-l OSs + compute metadata) out.
  api::QueryRequest q1 = api::QueryRequest("Faloutsos")
                             .WithL(15)
                             .WithAlgorithm(core::SizeLAlgorithm::kTopPath);
  api::QueryResponse response = ctx.Execute(q1);
  if (!response.ok()) {
    std::printf("query failed: %s\n", response.status.ToString().c_str());
    return 1;
  }

  std::printf("Q1 \"Faloutsos\", l=%zu -> %zu size-l OSs (%.1f ms):\n\n",
              q1.options().l, response.result_list().size(),
              response.stats.compute_micros / 1e3);
  for (const auto& r : response.result_list()) {
    std::printf("--- |OS|=%zu tuples, size-%zu importance %.2f ---\n",
                r.os.size(), q1.options().l, r.selection.importance);
    std::cout << ctx.Render(r) << "\n";
  }

  // 5. Contrast with the complete OS (Example 4): just report its size.
  api::QueryResponse complete =
      ctx.Execute(api::QueryRequest("christos faloutsos").WithL(0));
  if (complete.ok() && !complete.result_list().empty()) {
    std::printf("(the complete OS for Christos has %zu tuples -- "
                "the size-15 OS above is the synopsis)\n",
                complete.result_list()[0].os.size());
  }
  return 0;
}
