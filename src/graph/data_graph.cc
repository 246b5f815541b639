#include "graph/data_graph.h"

#include <algorithm>
#include <cassert>

namespace osum::graph {

namespace {

// Builds a CSR from (source tuple, target node) pairs via counting sort.
void BuildCsr(size_t source_tuples,
              const std::vector<std::pair<rel::TupleId, NodeId>>& edges,
              std::vector<uint32_t>* offsets, std::vector<NodeId>* targets) {
  offsets->assign(source_tuples + 1, 0);
  for (const auto& [s, t] : edges) (*offsets)[s + 1]++;
  for (size_t i = 1; i <= source_tuples; ++i) (*offsets)[i] += (*offsets)[i - 1];
  targets->resize(edges.size());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (const auto& [s, t] : edges) (*targets)[cursor[s]++] = t;
}

}  // namespace

DataGraph DataGraph::Build(const rel::Database& db, const LinkSchema& links) {
  DataGraph g;
  g.rel_offset_.assign(db.num_relations(), 0);

  NodeId next = 0;
  for (rel::RelationId r = 0; r < db.num_relations(); ++r) {
    const rel::Relation& rel = db.relation(r);
    if (rel.is_junction()) {
      g.rel_offset_[r] = kInvalidNode;
      continue;
    }
    g.rel_offset_[r] = next;
    next += static_cast<NodeId>(rel.num_tuples());
  }
  g.num_nodes_ = next;
  g.rel_of_node_.resize(next);
  for (rel::RelationId r = 0; r < db.num_relations(); ++r) {
    const rel::Relation& rel = db.relation(r);
    if (rel.is_junction()) continue;
    for (rel::TupleId t = 0; t < rel.num_tuples(); ++t) {
      g.rel_of_node_[g.rel_offset_[r] + t] = r;
    }
  }

  g.forward_.resize(links.num_links());
  g.backward_.resize(links.num_links());

  for (const LinkType& lt : links.links()) {
    std::vector<std::pair<rel::TupleId, NodeId>> fwd_edges;  // a-tuple -> b-node
    std::vector<std::pair<rel::TupleId, NodeId>> bwd_edges;  // b-tuple -> a-node

    if (!lt.via_junction) {
      const rel::ForeignKey& fk = db.foreign_key(lt.fk_a);
      const rel::Relation& child = db.relation(fk.child);  // = lt.b
      for (rel::TupleId c = 0; c < child.num_tuples(); ++c) {
        const rel::Value& v = child.value(c, fk.child_col);
        if (rel::TypeOf(v) == rel::ValueType::kNull) continue;
        rel::TupleId p = static_cast<rel::TupleId>(std::get<int64_t>(v));
        fwd_edges.emplace_back(p, g.node(lt.b, c));
        bwd_edges.emplace_back(c, g.node(lt.a, p));
      }
    } else {
      const rel::ForeignKey& fa = db.foreign_key(lt.fk_a);
      const rel::ForeignKey& fb = db.foreign_key(lt.fk_b);
      const rel::Relation& junction = db.relation(lt.junction);
      for (rel::TupleId j = 0; j < junction.num_tuples(); ++j) {
        const rel::Value& va = junction.value(j, fa.child_col);
        const rel::Value& vb = junction.value(j, fb.child_col);
        if (rel::TypeOf(va) == rel::ValueType::kNull ||
            rel::TypeOf(vb) == rel::ValueType::kNull) {
          continue;
        }
        rel::TupleId ta = static_cast<rel::TupleId>(std::get<int64_t>(va));
        rel::TupleId tb = static_cast<rel::TupleId>(std::get<int64_t>(vb));
        fwd_edges.emplace_back(ta, g.node(lt.b, tb));
        bwd_edges.emplace_back(tb, g.node(lt.a, ta));
      }
    }

    Csr& fwd = g.forward_[lt.id];
    fwd.source_rel = lt.a;
    BuildCsr(db.relation(lt.a).num_tuples(), fwd_edges, &fwd.offsets,
             &fwd.targets);
    Csr& bwd = g.backward_[lt.id];
    bwd.source_rel = lt.b;
    BuildCsr(db.relation(lt.b).num_tuples(), bwd_edges, &bwd.offsets,
             &bwd.targets);
    g.num_edges_ += fwd_edges.size();
  }
  return g;
}

std::span<const NodeId> DataGraph::Neighbors(NodeId n, LinkTypeId lt,
                                             rel::FkDirection dir) const {
  const Csr& c = csr(lt, dir);
  if (rel_of_node_[n] != c.source_rel) return {};
  rel::TupleId t = TupleOf(n);
  uint32_t begin = c.offsets[t];
  uint32_t end = c.offsets[t + 1];
  return {c.targets.data() + begin, end - begin};
}

void DataGraph::SortNeighborsByImportance(const rel::Database& db) {
  auto sort_csr = [&](Csr& c) {
    size_t rows = c.offsets.size() - 1;
    for (size_t row = 0; row < rows; ++row) {
      auto begin = c.targets.begin() + c.offsets[row];
      auto end = c.targets.begin() + c.offsets[row + 1];
      if (begin == end) continue;
      // One link direction reaches one relation, so the row sorts in the
      // back ends' shared tuple order.
      rel::ImportanceOrder order{db.relation(RelationOf(*begin))};
      std::sort(begin, end, [&](NodeId x, NodeId y) {
        return order(TupleOf(x), TupleOf(y));
      });
    }
  };
  for (auto& c : forward_) sort_csr(c);
  for (auto& c : backward_) sort_csr(c);
  sorted_ = true;
}

uint64_t DataGraph::ApproxMemoryBytes() const {
  uint64_t bytes = rel_of_node_.size() * sizeof(rel::RelationId) +
                   rel_offset_.size() * sizeof(NodeId);
  for (const auto& c : forward_) {
    bytes += c.offsets.size() * sizeof(uint32_t) +
             c.targets.size() * sizeof(NodeId);
  }
  for (const auto& c : backward_) {
    bytes += c.offsets.size() * sizeof(uint32_t) +
             c.targets.size() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace osum::graph
