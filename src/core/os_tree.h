// The Object Summary (OS) tree — the query result unit of the OS keyword
// search paradigm (Section 2.1).
//
// An OS is a tree of tuples: the data-subject tuple t_DS is the root and
// tuples joining to it through the G_DS edges are descendants. Nodes carry
// the *local importance* Im(OS, t_i) = Im(t_i) * Af(t_i) (Equation 3) that
// all size-l algorithms maximize over.
//
// Representation: an index-based arena in BFS order. The BFS-order
// invariant (parent index < child index) is load-bearing — the DP and the
// statistics pass iterate the vector backwards to visit children before
// parents without recursion.
#ifndef OSUM_CORE_OS_TREE_H_
#define OSUM_CORE_OS_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gds/gds.h"
#include "relational/database.h"

namespace osum::core {

/// Index of a node within an OsTree.
using OsNodeId = int32_t;

inline constexpr OsNodeId kOsRoot = 0;
inline constexpr OsNodeId kNoOsNode = -1;

/// One tuple occurrence in an OS. The same database tuple may appear in
/// several OS nodes (a co-author on many papers), by design: the tree
/// replicates context.
struct OsNode {
  OsNodeId parent = kNoOsNode;
  /// The G_DS node that produced this OS node (root node for t_DS).
  gds::GdsNodeId gds_node = gds::kGdsRoot;
  rel::RelationId relation = 0;
  rel::TupleId tuple = 0;
  /// Im(OS, t_i) = Im(t_i) * Af(R_i).
  double local_importance = 0.0;
  int32_t depth = 0;
  std::vector<OsNodeId> children;
};

/// The OS tree arena.
class OsTree {
 public:
  OsTree() = default;

  /// Creates the root node (t_DS). Must be the first insertion.
  OsNodeId AddRoot(gds::GdsNodeId gds_node, rel::RelationId relation,
                   rel::TupleId tuple, double local_importance);

  /// Appends a child; parent must already exist (BFS discipline).
  OsNodeId AddChild(OsNodeId parent, gds::GdsNodeId gds_node,
                    rel::RelationId relation, rel::TupleId tuple,
                    double local_importance);

  bool empty() const { return nodes_.empty(); }
  size_t size() const { return nodes_.size(); }
  const OsNode& node(OsNodeId id) const { return nodes_[id]; }
  const std::vector<OsNode>& nodes() const { return nodes_; }

  /// Sum of local importance over all nodes.
  double TotalImportance() const;

  /// Maximum node depth.
  int32_t MaxDepth() const;

  /// Number of leaf nodes.
  size_t CountLeaves() const;

  /// Approximate heap footprint (node array plus children lists): what
  /// the result cache and the partials memo charge against their byte
  /// budgets for this tree.
  size_t ApproxHeapBytes() const;

  /// True when every node's local importance is <= its parent's — the
  /// monotonicity precondition of Lemma 2 / Lemma 3.
  bool IsMonotone() const;

  /// Renders the OS in the paper's Example 4/5 style: one line per tuple,
  /// depth shown as leading dots, "Label: attribute values".
  /// If `selection` is non-null, only listed nodes are rendered (they must
  /// form a connected root-containing subtree).
  std::string Render(const rel::Database& db, const gds::Gds& gds,
                     const std::vector<OsNodeId>* selection = nullptr) const;

 private:
  std::vector<OsNode> nodes_;
};

/// A candidate size-l OS: node ids selected from an OsTree (Definition 1).
struct Selection {
  std::vector<OsNodeId> nodes;  // ascending order
  double importance = 0.0;      // Im(S) = sum of local importances (Eq. 2)
};

/// Validates Definition 1: `sel` contains the root, node ids are unique and
/// in range, and every selected node's parent is selected (connectivity).
bool IsValidSelection(const OsTree& os, const Selection& sel, size_t l);

/// Recomputes Im(S) from the tree (Equation 2).
double SelectionImportance(const OsTree& os, const std::vector<OsNodeId>& nodes);

/// Extracts the selected subtree as a standalone OsTree (BFS order).
OsTree MaterializeSelection(const OsTree& os, const Selection& sel);

}  // namespace osum::core

#endif  // OSUM_CORE_OS_TREE_H_
