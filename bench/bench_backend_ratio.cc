// DatabaseBackend vs DataGraphBackend OS-generation cost across OS sizes.
//
// Figure 10(f) claims data-graph generation is ~65x faster than generating
// the OS "direct from the DBMS"; end-to-end throughput only implies it.
// This driver measures the ratio itself: for DBLP-author subjects of
// graded complete-OS size, time GenerateCompleteOs (and prelim-10) on
//   - DataGraphBackend (adjacency lists in memory),
//   - DatabaseBackend with 0us simulated latency (pure access-path cost),
//   - DatabaseBackend with the paper-flavored 8us per SELECT,
// and report db/graph ratios per size. The Figure 10(f) shape is asserted,
// not just printed: every 8us ratio must exceed 1x (the database path is
// never cheaper) and must exceed 10x on the largest OS — exit 1 otherwise,
// so CI catches a regression that erases the gap. The 0us column is
// informational only: at microsecond scale its ratio is timer-noise-bound.
//
// Flags: --json <path> (bench::JsonReport rows), --tiny (CI smoke sizes).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/os_backend.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace osum {
namespace {

struct SizePoint {
  size_t os_size;       // actual complete-OS size of the picked subject
  rel::TupleId subject;
};

}  // namespace
}  // namespace osum

int main(int argc, char** argv) {
  using namespace osum;
  bench::JsonReport json =
      bench::JsonReport::FromArgs(argc, argv, "bench_backend_ratio");
  bool tiny = bench::TinyFromArgs(argc, argv);

  datasets::DblpConfig config;
  if (tiny) {
    config.num_authors = 120;
    config.num_papers = 480;
    config.num_conferences = 8;
  }
  datasets::Dblp d = datasets::BuildDblp(config);
  datasets::ApplyDblpScores(&d, 1, 0.85);
  gds::Gds author_gds = datasets::DblpAuthorGds(d);

  core::DataGraphBackend graph_backend(d.db, d.links, d.data_graph);
  core::DatabaseBackend db0_backend(d.db, d.links, /*per_select_micros=*/0.0);
  core::DatabaseBackend db8_backend(d.db, d.links, /*per_select_micros=*/8.0);

  std::vector<size_t> targets =
      tiny ? std::vector<size_t>{30, 120}
           : std::vector<size_t>{67, 202, 606, 1309, 2500};
  std::vector<SizePoint> points;
  for (size_t target : targets) {
    rel::TupleId tds = bench::PickSubjectByOsSize(
        d.db, author_gds, &graph_backend, tiny ? 120 : 1500, target);
    size_t size =
        core::GenerateCompleteOs(d.db, author_gds, &graph_backend, tds)
            .size();
    points.push_back({size, tds});
  }

  util::PrintHeading(
      std::cout,
      "complete-OS generation cost by back end (DBLP authors, times in ms)");
  util::TablePrinter table({"|OS|", "data-graph", "database 0us",
                            "database 8us", "ratio 0us", "ratio 8us"});
  bool all_above_one = true;
  double largest_ratio8 = 0.0;
  for (const SizePoint& p : points) {
    auto gen = [&](core::OsBackend* backend) {
      return bench::MedianSeconds([&] {
        core::GenerateCompleteOs(d.db, author_gds, backend, p.subject);
      }, 3);
    };
    double t_graph = gen(&graph_backend);
    double t_db0 = gen(&db0_backend);
    double t_db8 = gen(&db8_backend);
    double ratio0 = t_db0 / std::max(t_graph, 1e-9);
    double ratio8 = t_db8 / std::max(t_graph, 1e-9);
    all_above_one = all_above_one && ratio8 > 1.0;
    largest_ratio8 = ratio8;  // points are size-sorted; keep the last
    table.AddRow({std::to_string(p.os_size),
                  util::FormatDouble(t_graph * 1e3, 3),
                  util::FormatDouble(t_db0 * 1e3, 3),
                  util::FormatDouble(t_db8 * 1e3, 3),
                  util::FormatDouble(ratio0, 1) + "x",
                  util::FormatDouble(ratio8, 1) + "x"});
    std::string label = "|OS|=" + std::to_string(p.os_size);
    json.Add("complete_os", label, "graph_ms", t_graph * 1e3);
    json.Add("complete_os", label, "db0_ms", t_db0 * 1e3);
    json.Add("complete_os", label, "db8_ms", t_db8 * 1e3);
    json.Add("complete_os", label, "ratio_db0_over_graph", ratio0);
    json.Add("complete_os", label, "ratio_db8_over_graph", ratio8);
  }
  table.Print(std::cout);

  // Prelim-10 generation at the largest size: the cheaper generation the
  // paper recommends still pays the same per-SELECT amplification.
  {
    const SizePoint& p = points.back();
    auto gen_prelim = [&](core::OsBackend* backend) {
      return bench::MedianSeconds([&] {
        core::GeneratePrelimOs(d.db, author_gds, backend, p.subject, 10);
      }, 3);
    };
    double t_graph = gen_prelim(&graph_backend);
    double t_db8 = gen_prelim(&db8_backend);
    double ratio = t_db8 / std::max(t_graph, 1e-9);
    std::printf("\nprelim-10 at |OS|=%zu: data-graph %.3f ms, database(8us) "
                "%.3f ms, ratio %.1fx\n",
                p.os_size, t_graph * 1e3, t_db8 * 1e3, ratio);
    json.Add("prelim_10", "|OS|=" + std::to_string(p.os_size),
             "ratio_db8_over_graph", ratio);
  }

  std::printf("\npaper shape check (Figure 10(f)): database generation "
              "costlier at every size; the gap widens with |OS| and "
              "simulated latency.\n");
  if (!json.Write()) return 1;
  if (!all_above_one || largest_ratio8 < 10.0) {
    std::printf("FAIL: ratio trend violated (all>1x: %s, largest 8us ratio "
                "%.1fx, need >=10x)\n",
                all_above_one ? "yes" : "no", largest_ratio8);
    return 1;
  }
  std::printf("PASS: every ratio >1x; largest-OS 8us ratio %.1fx (>=10x)\n",
              largest_ratio8);
  return 0;
}
