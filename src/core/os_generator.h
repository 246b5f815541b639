// OS generation: Algorithm 5 (complete OS) and Algorithm 4 (prelim-l OS
// with the two avoidance conditions of Section 5.3). Both are one
// breadth-first walk of the G_DS from t_DS: Algorithm 4 is Algorithm 5
// plus the top-l cutoff, which prunes with AC1 (skip fruitless sub-trees)
// and AC2 (TOP-l limited fetches). With l = 0 there is no cutoff, so
// GeneratePrelimOs(..., 0) is GenerateCompleteOs node for node.
#ifndef OSUM_CORE_OS_GENERATOR_H_
#define OSUM_CORE_OS_GENERATOR_H_

#include <cstdint>
#include <limits>

#include "core/os_backend.h"
#include "core/os_tree.h"
#include "gds/gds.h"

namespace osum::core {

/// Generation knobs shared by both algorithms.
struct OsGenOptions {
  /// Depth cap. For size-l workloads pass `l - 1`: tuples at distance >= l
  /// from t_DS can never be part of a connected size-l OS (the paper's
  /// footnote 1). Default: unbounded (full OS).
  int32_t max_depth = std::numeric_limits<int32_t>::max();
  /// Safety valve against runaway GDSs: generation stops expanding once
  /// the tree reaches this many nodes.
  size_t max_nodes = 10'000'000;
  /// Ablation switches for Algorithm 4 (ignored by GenerateCompleteOs):
  /// disable Avoidance Condition 1 (fruitless sub-tree skipping) and/or 2
  /// (TOP-l limited fetches) to measure what each contributes.
  bool prelim_use_ac1 = true;
  bool prelim_use_ac2 = true;
};

/// Statistics of a prelim-l generation run (avoidance-condition hits).
struct PrelimStats {
  uint64_t ac1_subtree_skips = 0;   // fruitless G_DS sub-trees avoided
  uint64_t ac2_limited_fetches = 0; // fruitful-l joins served via TOP-l
  uint64_t full_fetches = 0;        // unrestricted joins
};

/// Algorithm 5: breadth-first traversal of the G_DS from t_DS, materializing
/// every joining tuple. The local importance of each node is
/// Im(t) * Af(R_i) (Equation 3).
OsTree GenerateCompleteOs(const rel::Database& db, const gds::Gds& gds,
                          OsBackend* backend, rel::TupleId tds,
                          const OsGenOptions& options = {});

/// Algorithm 4: generates a prelim-l OS — a partial OS guaranteed to
/// contain the l tuples of the complete OS with the largest local
/// importance (Definition 2) — using Avoidance Conditions 1 and 2.
/// For l > 0, requires Gds::AnnotateStatistics (max/mmax) and
/// importance-sorted access paths in the back end; throws std::logic_error
/// when either is missing. l = 0 means no cutoff: the complete OS, with
/// neither requirement (every join counts as a full fetch in `stats`).
OsTree GeneratePrelimOs(const rel::Database& db, const gds::Gds& gds,
                        OsBackend* backend, rel::TupleId tds, size_t l,
                        const OsGenOptions& options = {},
                        PrelimStats* stats = nullptr);

}  // namespace osum::core

#endif  // OSUM_CORE_OS_GENERATOR_H_
