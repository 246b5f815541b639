#include "core/os_backend.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace osum::core {

namespace {

rel::RelationId SourceRelation(const graph::LinkType& lt,
                               rel::FkDirection dir) {
  return dir == rel::FkDirection::kForward ? lt.a : lt.b;
}

}  // namespace

// ---------------------------------------------------------------- DataGraph

DataGraphBackend::DataGraphBackend(const rel::Database& db,
                                   const graph::LinkSchema& links,
                                   const graph::DataGraph& graph)
    : db_(db), links_(links), graph_(graph) {}

void DataGraphBackend::Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                             rel::TupleId parent_tuple,
                             std::vector<rel::TupleId>* out) {
  out->clear();
  const graph::LinkType& lt = links_.link(link);
  graph::NodeId n = graph_.node(SourceRelation(lt, dir), parent_tuple);
  auto targets = graph_.Neighbors(n, link, dir);
  out->reserve(targets.size());
  for (graph::NodeId t : targets) out->push_back(graph_.TupleOf(t));
  stats_.CountSelect(targets.size(), 1);
}

void DataGraphBackend::FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                                rel::TupleId parent_tuple, size_t limit,
                                double min_importance,
                                std::vector<rel::TupleId>* out) {
  // Checked in every build type: the early exits below assume descending
  // importance, so unsorted adjacency would return a wrong TOP-l.
  if (!graph_.neighbors_sorted()) {
    throw std::logic_error(
        "FetchTop requires DataGraph::SortNeighborsByImportance");
  }
  out->clear();
  const graph::LinkType& lt = links_.link(link);
  rel::RelationId target_rel = dir == rel::FkDirection::kForward ? lt.b : lt.a;
  const rel::Relation& target = db_.relation(target_rel);
  graph::NodeId n = graph_.node(SourceRelation(lt, dir), parent_tuple);
  auto targets = graph_.Neighbors(n, link, dir);
  for (graph::NodeId t : targets) {
    if (out->size() >= limit) break;
    rel::TupleId tuple = graph_.TupleOf(t);
    if (target.importance(tuple) <= min_importance) break;  // sorted desc
    out->push_back(tuple);
  }
  stats_.CountSelect(out->size(), 1);
}

// ----------------------------------------------------------------- Database

DatabaseBackend::DatabaseBackend(const rel::Database& db,
                                 const graph::LinkSchema& links,
                                 double per_select_micros)
    : db_(db), links_(links), per_select_micros_(per_select_micros) {}

void DatabaseBackend::SimulateLatency() {
  if (per_select_micros_ <= 0.0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::duration<double, std::micro>(
                       per_select_micros_));
  while (std::chrono::steady_clock::now() < until) {
    // busy-wait: a sleep would be descheduled for far longer than a few
    // tens of microseconds and distort the simulated round-trip.
  }
}

void DatabaseBackend::Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                            rel::TupleId parent_tuple,
                            std::vector<rel::TupleId>* out) {
  out->clear();
  const graph::LinkType& lt = links_.link(link);
  SimulateLatency();
  if (!lt.via_junction) {
    if (dir == rel::FkDirection::kForward) {
      // SELECT * FROM child WHERE child.fk = parent_tuple
      auto children = db_.Children(lt.fk_a, parent_tuple);
      out->assign(children.begin(), children.end());
    } else {
      auto parent = db_.Parent(lt.fk_a, parent_tuple);
      if (parent.has_value()) out->push_back(*parent);
    }
  } else {
    // SELECT target.* FROM junction JOIN target ... — one statement; the
    // junction hop is part of the same join.
    rel::ForeignKeyId src_fk =
        dir == rel::FkDirection::kForward ? lt.fk_a : lt.fk_b;
    rel::ForeignKeyId dst_fk =
        dir == rel::FkDirection::kForward ? lt.fk_b : lt.fk_a;
    const rel::ForeignKey& dst = db_.foreign_key(dst_fk);
    const rel::Relation& junction = db_.relation(lt.junction);
    auto junction_tuples = db_.Children(src_fk, parent_tuple);
    out->reserve(junction_tuples.size());
    for (rel::TupleId j : junction_tuples) {
      const rel::Value& v = junction.value(j, dst.child_col);
      if (rel::TypeOf(v) == rel::ValueType::kNull) continue;
      out->push_back(static_cast<rel::TupleId>(std::get<int64_t>(v)));
    }
    // Return targets in descending importance order (matching the
    // importance-sorted data-graph adjacency) so OS generation is
    // deterministic and backend-independent.
    rel::RelationId target_rel =
        dir == rel::FkDirection::kForward ? lt.b : lt.a;
    const rel::Relation& target = db_.relation(target_rel);
    if (target.has_importance()) {
      std::sort(out->begin(), out->end(),
                [&target](rel::TupleId a, rel::TupleId b) {
                  double ia = target.importance(a);
                  double ib = target.importance(b);
                  if (ia != ib) return ia > ib;
                  return a < b;
                });
    }
  }
  stats_.CountSelect(out->size(), 0);
}

void DatabaseBackend::FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                               rel::TupleId parent_tuple, size_t limit,
                               double min_importance,
                               std::vector<rel::TupleId>* out) {
  out->clear();
  const graph::LinkType& lt = links_.link(link);
  SimulateLatency();
  rel::RelationId target_rel = dir == rel::FkDirection::kForward ? lt.b : lt.a;
  const rel::Relation& target = db_.relation(target_rel);
  if (!lt.via_junction && dir == rel::FkDirection::kForward) {
    // SELECT * TOP limit ... AND importance > min ORDER BY importance DESC.
    // Only the SELECT is counted here: the delegated access path already
    // books the tuples in db_.io_stats(), and the backend-level
    // tuples_read has never included this path (kept for baseline
    // comparability of the I/O metrics).
    *out = db_.ChildrenTopImportance(lt.fk_a, parent_tuple, limit,
                                     min_importance);
    stats_.CountSelect(0, 0);
    return;
  }
  if (!lt.via_junction) {
    auto parent = db_.Parent(lt.fk_a, parent_tuple);
    if (parent.has_value() && limit > 0 &&
        target.importance(*parent) > min_importance) {
      out->push_back(*parent);
    }
    // Avoidance Condition 2 pays the SELECT even for 0 rows.
    stats_.CountSelect(out->size(), 0);
    return;
  }
  // Junction: the DBMS would evaluate the ordered, limited join in one
  // statement; we materialize the join then apply ORDER BY / TOP.
  rel::ForeignKeyId src_fk =
      dir == rel::FkDirection::kForward ? lt.fk_a : lt.fk_b;
  rel::ForeignKeyId dst_fk =
      dir == rel::FkDirection::kForward ? lt.fk_b : lt.fk_a;
  const rel::ForeignKey& dst = db_.foreign_key(dst_fk);
  const rel::Relation& junction = db_.relation(lt.junction);
  auto junction_tuples = db_.Children(src_fk, parent_tuple);
  std::vector<rel::TupleId> candidates;
  candidates.reserve(junction_tuples.size());
  for (rel::TupleId j : junction_tuples) {
    const rel::Value& v = junction.value(j, dst.child_col);
    if (rel::TypeOf(v) == rel::ValueType::kNull) continue;
    rel::TupleId t = static_cast<rel::TupleId>(std::get<int64_t>(v));
    if (target.importance(t) > min_importance) candidates.push_back(t);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&target](rel::TupleId a, rel::TupleId b) {
              double ia = target.importance(a);
              double ib = target.importance(b);
              if (ia != ib) return ia > ib;
              return a < b;
            });
  if (candidates.size() > limit) candidates.resize(limit);
  stats_.CountSelect(candidates.size(), 0);
  *out = std::move(candidates);
}

}  // namespace osum::core
