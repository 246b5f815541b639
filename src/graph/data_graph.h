// The tuple-level data graph: one node per entity tuple, one edge per
// foreign-key pair / junction tuple.
//
// This is the in-memory index of the paper's Section 6.3: "our data-graph
// nodes correspond to the database tuples and edges to tuple relationships
// (through their primary and foreign keys). The data-graph is only an index
// and does not contain actual data as nodes capture only keys and global
// importance." It serves two masters:
//   * ObjectRank / ValueRank power iteration (src/importance), and
//   * the fast OS-generation back end (src/core), which the paper showed is
//     ~65x faster than issuing SQL per join (0.2s vs 12.9s for Supplier).
#ifndef OSUM_GRAPH_DATA_GRAPH_H_
#define OSUM_GRAPH_DATA_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/link_types.h"
#include "relational/database.h"

namespace osum::graph {

/// Global node id across all entity relations.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Compressed adjacency of the whole database, grouped by (link type,
/// direction). Junction relations are collapsed into edges.
class DataGraph {
 public:
  /// Builds the graph by scanning every FK column once. O(total tuples).
  static DataGraph Build(const rel::Database& db, const LinkSchema& links);

  size_t num_nodes() const { return static_cast<size_t>(num_nodes_); }
  size_t num_edges() const { return num_edges_; }

  /// Node numbering. Only entity (non-junction) relations have nodes.
  NodeId node(rel::RelationId r, rel::TupleId t) const {
    return rel_offset_[r] + t;
  }
  rel::RelationId RelationOf(NodeId n) const { return rel_of_node_[n]; }
  rel::TupleId TupleOf(NodeId n) const {
    return n - rel_offset_[rel_of_node_[n]];
  }

  /// Neighbors of `n` along link `lt` in direction `dir`. `n` must belong
  /// to the source relation of that (lt, dir) pair (link.a for kForward,
  /// link.b for kBackward); returns an empty span otherwise.
  std::span<const NodeId> Neighbors(NodeId n, LinkTypeId lt,
                                    rel::FkDirection dir) const;

  /// Out-degree of `n` along (lt, dir); 0 if n is not on the source side.
  size_t Degree(NodeId n, LinkTypeId lt, rel::FkDirection dir) const {
    return Neighbors(n, lt, dir).size();
  }

  /// Re-orders every adjacency list into rel::ImportanceOrder (descending
  /// neighbor importance, ties by tuple id). Needed by the data-graph back
  /// end of Avoidance Condition 2; call after importance annotation.
  void SortNeighborsByImportance(const rel::Database& db);
  bool neighbors_sorted() const { return sorted_; }

  /// Approximate resident size, for the Section 6.3 data-graph size report.
  uint64_t ApproxMemoryBytes() const;

 private:
  // One CSR per (link, direction). Source tuples are rows of the source
  // relation; targets are global NodeIds.
  struct Csr {
    rel::RelationId source_rel = 0;
    std::vector<uint32_t> offsets;  // size = source tuples + 1
    std::vector<NodeId> targets;
  };

  const Csr& csr(LinkTypeId lt, rel::FkDirection dir) const {
    return dir == rel::FkDirection::kForward ? forward_[lt] : backward_[lt];
  }

  NodeId num_nodes_ = 0;
  size_t num_edges_ = 0;
  bool sorted_ = false;
  std::vector<NodeId> rel_offset_;          // per relation (junction: unused)
  std::vector<rel::RelationId> rel_of_node_;
  std::vector<Csr> forward_;
  std::vector<Csr> backward_;
};

}  // namespace osum::graph

#endif  // OSUM_GRAPH_DATA_GRAPH_H_
