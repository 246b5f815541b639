#include "core/os_tree.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_set>

namespace osum::core {

OsNodeId OsTree::AddRoot(gds::GdsNodeId gds_node, rel::RelationId relation,
                         rel::TupleId tuple, double local_importance) {
  assert(nodes_.empty());
  OsNode n;
  n.parent = kNoOsNode;
  n.gds_node = gds_node;
  n.relation = relation;
  n.tuple = tuple;
  n.local_importance = local_importance;
  n.depth = 0;
  nodes_.push_back(std::move(n));
  return kOsRoot;
}

OsNodeId OsTree::AddChild(OsNodeId parent, gds::GdsNodeId gds_node,
                          rel::RelationId relation, rel::TupleId tuple,
                          double local_importance) {
  assert(parent >= 0 && static_cast<size_t>(parent) < nodes_.size());
  OsNodeId id = static_cast<OsNodeId>(nodes_.size());
  OsNode n;
  n.parent = parent;
  n.gds_node = gds_node;
  n.relation = relation;
  n.tuple = tuple;
  n.local_importance = local_importance;
  n.depth = nodes_[parent].depth + 1;
  nodes_[parent].children.push_back(id);
  nodes_.push_back(std::move(n));
  return id;
}

double OsTree::TotalImportance() const {
  double sum = 0.0;
  for (const OsNode& n : nodes_) sum += n.local_importance;
  return sum;
}

int32_t OsTree::MaxDepth() const {
  int32_t d = 0;
  for (const OsNode& n : nodes_) d = std::max(d, n.depth);
  return d;
}

size_t OsTree::CountLeaves() const {
  size_t leaves = 0;
  for (const OsNode& n : nodes_) {
    if (n.children.empty()) ++leaves;
  }
  return leaves;
}

size_t OsTree::ApproxHeapBytes() const {
  size_t bytes = nodes_.size() * sizeof(OsNode);
  for (const OsNode& n : nodes_) bytes += n.children.size() * sizeof(OsNodeId);
  return bytes;
}

bool OsTree::IsMonotone() const {
  for (const OsNode& n : nodes_) {
    if (n.parent == kNoOsNode) continue;
    if (n.local_importance > nodes_[n.parent].local_importance) return false;
  }
  return true;
}

std::string OsTree::Render(const rel::Database& db, const gds::Gds& gds,
                           const std::vector<OsNodeId>* selection) const {
  std::unordered_set<OsNodeId> keep;
  if (selection != nullptr) keep.insert(selection->begin(), selection->end());
  auto selected = [&](OsNodeId id) {
    return selection == nullptr || keep.count(id) > 0;
  };

  std::string out;
  // DFS in child order so a node's subtree renders beneath it.
  std::vector<OsNodeId> stack;
  if (!nodes_.empty() && selected(kOsRoot)) stack.push_back(kOsRoot);
  while (!stack.empty()) {
    OsNodeId id = stack.back();
    stack.pop_back();
    const OsNode& n = nodes_[id];
    out += std::string(static_cast<size_t>(n.depth) * 2, '.');
    out += gds.node(n.gds_node).label;
    out += ": ";
    out += db.relation(n.relation).RenderValues(n.tuple);
    out += "\n";
    // Push children reversed to render them in insertion order.
    for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
      if (selected(*it)) stack.push_back(*it);
    }
  }
  return out;
}

bool IsValidSelection(const OsTree& os, const Selection& sel, size_t l) {
  if (sel.nodes.size() != std::min(l, os.size())) return false;
  std::unordered_set<OsNodeId> in(sel.nodes.begin(), sel.nodes.end());
  if (in.size() != sel.nodes.size()) return false;  // duplicates
  if (in.count(kOsRoot) == 0) return false;         // must contain t_DS
  for (OsNodeId id : sel.nodes) {
    if (id < 0 || static_cast<size_t>(id) >= os.size()) return false;
    OsNodeId p = os.node(id).parent;
    if (p != kNoOsNode && in.count(p) == 0) return false;  // connectivity
  }
  return true;
}

double SelectionImportance(const OsTree& os,
                           const std::vector<OsNodeId>& nodes) {
  double sum = 0.0;
  for (OsNodeId id : nodes) sum += os.node(id).local_importance;
  return sum;
}

OsTree MaterializeSelection(const OsTree& os, const Selection& sel) {
  std::unordered_set<OsNodeId> keep(sel.nodes.begin(), sel.nodes.end());
  OsTree out;
  if (os.empty() || keep.count(kOsRoot) == 0) return out;

  std::vector<OsNodeId> remap(os.size(), kNoOsNode);
  const OsNode& root = os.node(kOsRoot);
  remap[kOsRoot] =
      out.AddRoot(root.gds_node, root.relation, root.tuple,
                  root.local_importance);
  // BFS so parents are materialized before children.
  std::deque<OsNodeId> queue{kOsRoot};
  while (!queue.empty()) {
    OsNodeId id = queue.front();
    queue.pop_front();
    for (OsNodeId c : os.node(id).children) {
      if (keep.count(c) == 0) continue;
      const OsNode& n = os.node(c);
      remap[c] = out.AddChild(remap[id], n.gds_node, n.relation, n.tuple,
                              n.local_importance);
      queue.push_back(c);
    }
  }
  return out;
}

}  // namespace osum::core
