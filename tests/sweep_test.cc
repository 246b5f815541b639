// End-to-end parameterized sweep: every (score setting x algorithm x l)
// combination on a shared DBLP instance must produce valid, optimal-bounded
// size-l OSs through the public search API. Guards the whole pipeline
// against configuration-dependent regressions.
#include <array>
#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "datasets/dblp.h"
#include "datasets/settings.h"
#include "search/search_context.h"

namespace osum {
namespace {

struct SweepCase {
  int setting_index;  // into datasets::kScoreSettings
  core::SizeLAlgorithm algorithm;
  size_t l;
};

// Shared, lazily-built DBLP instances per setting (building per test-case
// would dominate runtime).
class PipelineSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  struct Instance {
    datasets::Dblp d;
    std::unique_ptr<core::DataGraphBackend> backend;
    std::optional<search::SearchContext> ctx;
  };

  static Instance* GetInstance(int setting_index) {
    static std::array<std::unique_ptr<Instance>, 4> cache;
    auto& slot = cache[setting_index];
    if (!slot) {
      slot = std::make_unique<Instance>();
      datasets::DblpConfig config;
      config.num_authors = 150;
      config.num_papers = 500;
      config.num_conferences = 8;
      slot->d = datasets::BuildDblp(config);
      const datasets::ScoreSetting& s =
          datasets::kScoreSettings[setting_index];
      datasets::ApplyDblpScores(&slot->d, s.ga, s.damping);
      slot->backend = std::make_unique<core::DataGraphBackend>(
          slot->d.db, slot->d.links, slot->d.data_graph);
      std::vector<search::SearchContext::Subject> subjects;
      subjects.push_back({slot->d.author, datasets::DblpAuthorGds(slot->d)});
      subjects.push_back({slot->d.paper, datasets::DblpPaperGds(slot->d)});
      slot->ctx.emplace(search::SearchContext::Build(
          slot->d.db, slot->backend.get(), std::move(subjects)));
    }
    return slot.get();
  }
};

TEST_P(PipelineSweepTest, QueryYieldsValidNearOptimalSelections) {
  const SweepCase c = GetParam();
  Instance* inst = GetInstance(c.setting_index);

  api::QueryOptions options;
  options.l = c.l;
  options.algorithm = c.algorithm;
  api::QueryResponse response =
      inst->ctx->Execute(api::QueryRequest("faloutsos", options));
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  const api::ResultList& results = response.result_list();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    ASSERT_TRUE(core::IsValidSelection(r.os, r.selection, c.l));
    // Sandwich: greedy <= optimal on the same (prelim) OS, and positive.
    core::Selection opt = core::SizeLDp(r.os, c.l);
    EXPECT_LE(r.selection.importance, opt.importance + 1e-9);
    EXPECT_GT(r.selection.importance, 0.0);
    // Greedy quality never catastrophically bad on this data.
    EXPECT_GT(r.selection.importance, 0.5 * opt.importance);
  }
}

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  for (int s = 0; s < 4; ++s) {
    for (auto algo :
         {core::SizeLAlgorithm::kDp, core::SizeLAlgorithm::kBottomUp,
          core::SizeLAlgorithm::kTopPath,
          core::SizeLAlgorithm::kTopPathMemo}) {
      for (size_t l : {5u, 15u, 30u}) {
        cases.push_back(SweepCase{s, algo, l});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, PipelineSweepTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = datasets::kScoreSettings[info.param.setting_index]
                             .name;
      name += "_";
      name += core::AlgorithmName(info.param.algorithm);
      name += "_l" + std::to_string(info.param.l);
      // gtest parameterized names must be alphanumeric/underscore only.
      std::string sanitized;
      for (char ch : name) {
        sanitized += std::isalnum(static_cast<unsigned char>(ch))
                         ? ch
                         : '_';
      }
      return sanitized;
    });

}  // namespace
}  // namespace osum
