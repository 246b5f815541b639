#include "core/os_generator.h"

#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace osum::core {

namespace {

// BFS state: fields of the current OS node needed while appending
// children (the arena may reallocate during insertion).
struct Frame {
  OsNodeId os_node;
  gds::GdsNodeId gds_node;
  rel::TupleId tuple;
  rel::TupleId grandparent_tuple;  // kInvalidTuple when absent
  int32_t depth;
};

Frame MakeFrame(const OsTree& os, OsNodeId id) {
  const OsNode& n = os.node(id);
  rel::TupleId grand = rel::kInvalidTuple;
  if (n.parent != kNoOsNode) grand = os.node(n.parent).tuple;
  return Frame{id, n.gds_node, n.tuple, grand, n.depth};
}

// The one BFS of both algorithms: Algorithm 5 when l == 0, Algorithm 4
// (top-l cutoff plus Avoidance Conditions 1 and 2) when l > 0.
OsTree GenerateOs(const rel::Database& db, const gds::Gds& gds,
                  OsBackend* backend, rel::TupleId tds, size_t l,
                  const OsGenOptions& options, PrelimStats* stats) {
  OsTree os;
  const gds::GdsNode& root_spec = gds.root();
  const rel::Relation& root_rel = db.relation(root_spec.relation);
  double root_li = root_rel.importance(tds) * root_spec.affinity;
  os.AddRoot(gds::kGdsRoot, root_spec.relation, tds, root_li);

  // top-l PQ: min-heap over the l largest local importances seen so far.
  // largest-l is its minimum once full, else 0 (Algorithm 4 lines 20-23).
  // With no cutoff (l == 0) it stays empty and neither condition applies.
  const bool pruning = l > 0;
  std::priority_queue<double, std::vector<double>, std::greater<>> top_l;
  auto observe = [&](double li) {
    if (!pruning) return;
    if (top_l.size() < l || li > top_l.top()) {
      top_l.push(li);
      if (top_l.size() > l) top_l.pop();
    }
  };
  auto largest_l = [&]() {
    return pruning && top_l.size() == l ? top_l.top() : 0.0;
  };
  observe(root_li);

  std::deque<OsNodeId> queue{kOsRoot};
  std::vector<rel::TupleId> fetched;
  while (!queue.empty()) {
    Frame cur = MakeFrame(os, queue.front());
    queue.pop_front();
    if (cur.depth >= options.max_depth) continue;
    if (os.size() >= options.max_nodes) break;

    for (gds::GdsNodeId child_spec_id : gds.node(cur.gds_node).children) {
      const gds::GdsNode& spec = gds.node(child_spec_id);
      const double cutoff = largest_l();

      // Avoidance Condition 1: the sub-tree rooted at R_i is fruitless —
      // neither R_i's tuples nor any descendant's can beat largest-l.
      // Requires no I/O at all (max/mmax live on the annotated G_DS).
      if (pruning && options.prelim_use_ac1 && cutoff >= spec.max_ri &&
          cutoff >= spec.mmax_ri) {
        if (stats != nullptr) ++stats->ac1_subtree_skips;
        continue;
      }

      const rel::Relation& child_rel = db.relation(spec.relation);
      if (pruning && options.prelim_use_ac2 && cutoff >= spec.mmax_ri) {
        // Avoidance Condition 2: R_i is fruitful-l — descendants are dead,
        // so only tuples that can enter the top-l matter: TOP l with
        // li > largest-l, i.e. Im > largest-l / Af(R_i).
        // Request one extra when the origin tuple may need filtering.
        size_t limit = l + (spec.exclude_origin ? 1 : 0);
        backend->FetchTop(spec.via_link, spec.via_dir, cur.tuple, limit,
                          cutoff / spec.affinity, &fetched);
        if (stats != nullptr) ++stats->ac2_limited_fetches;
      } else {
        backend->Fetch(spec.via_link, spec.via_dir, cur.tuple, &fetched);
        if (stats != nullptr) ++stats->full_fetches;
      }

      for (rel::TupleId t : fetched) {
        if (spec.exclude_origin && t == cur.grandparent_tuple) continue;
        double li = child_rel.importance(t) * spec.affinity;
        OsNodeId id =
            os.AddChild(cur.os_node, child_spec_id, spec.relation, t, li);
        queue.push_back(id);
        observe(li);
      }
    }
  }
  return os;
}

}  // namespace

OsTree GenerateCompleteOs(const rel::Database& db, const gds::Gds& gds,
                          OsBackend* backend, rel::TupleId tds,
                          const OsGenOptions& options) {
  return GenerateOs(db, gds, backend, tds, /*l=*/0, options, nullptr);
}

OsTree GeneratePrelimOs(const rel::Database& db, const gds::Gds& gds,
                        OsBackend* backend, rel::TupleId tds, size_t l,
                        const OsGenOptions& options, PrelimStats* stats) {
  // Checked in every build type: an unannotated G_DS has max = mmax = 0,
  // so AC1 would skip every child and return a root-only OS.
  if (l > 0 && !gds.annotated()) {
    throw std::logic_error(
        "GeneratePrelimOs requires Gds::AnnotateStatistics");
  }
  return GenerateOs(db, gds, backend, tds, l, options, stats);
}

}  // namespace osum::core
