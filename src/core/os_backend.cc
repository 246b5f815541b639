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

const rel::Relation& OsBackend::Target(graph::LinkTypeId link,
                                       rel::FkDirection dir) const {
  const graph::LinkType& lt = links_.link(link);
  return db_.relation(dir == rel::FkDirection::kForward ? lt.b : lt.a);
}

// ---------------------------------------------------------------- DataGraph

DataGraphBackend::DataGraphBackend(const rel::Database& db,
                                   const graph::LinkSchema& links,
                                   const graph::DataGraph& graph)
    : OsBackend(db, links), graph_(graph) {}

void DataGraphBackend::Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                             rel::TupleId parent_tuple,
                             std::vector<rel::TupleId>* out) {
  out->clear();
  const graph::LinkType& lt = links().link(link);
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
  // Checked in every build type: the prefix step assumes descending
  // importance, so unsorted adjacency would return a wrong TOP-l.
  if (!graph_.neighbors_sorted()) {
    throw std::logic_error(
        "FetchTop requires DataGraph::SortNeighborsByImportance");
  }
  out->clear();
  const graph::LinkType& lt = links().link(link);
  graph::NodeId n = graph_.node(SourceRelation(lt, dir), parent_tuple);
  auto targets = graph_.Neighbors(n, link, dir);
  size_t top = rel::TopImportancePrefix(
      Target(link, dir), targets, limit, min_importance,
      [this](graph::NodeId t) { return graph_.TupleOf(t); });
  out->reserve(top);
  for (size_t i = 0; i < top; ++i) out->push_back(graph_.TupleOf(targets[i]));
  stats_.CountSelect(out->size(), 1);
}

// ----------------------------------------------------------------- Database

DatabaseBackend::DatabaseBackend(const rel::Database& db,
                                 const graph::LinkSchema& links,
                                 double per_select_micros)
    : OsBackend(db, links), per_select_micros_(per_select_micros) {}

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

void DatabaseBackend::Join(graph::LinkTypeId link, rel::FkDirection dir,
                           rel::TupleId parent_tuple,
                           std::vector<rel::TupleId>* out) const {
  const rel::Database& db = this->db();
  const graph::LinkType& lt = links().link(link);
  out->clear();
  if (!lt.via_junction) {
    if (dir == rel::FkDirection::kForward) {
      // SELECT * FROM child WHERE child.fk = parent_tuple
      auto children = db.Children(lt.fk_a, parent_tuple);
      out->assign(children.begin(), children.end());
    } else {
      auto parent = db.Parent(lt.fk_a, parent_tuple);
      if (parent.has_value()) out->push_back(*parent);
    }
    return;
  }
  // SELECT target.* FROM junction JOIN target ... — one statement; the
  // junction hop is part of the same join.
  rel::ForeignKeyId src_fk =
      dir == rel::FkDirection::kForward ? lt.fk_a : lt.fk_b;
  rel::ForeignKeyId dst_fk =
      dir == rel::FkDirection::kForward ? lt.fk_b : lt.fk_a;
  const rel::ForeignKey& dst = db.foreign_key(dst_fk);
  const rel::Relation& junction = db.relation(lt.junction);
  auto junction_tuples = db.Children(src_fk, parent_tuple);
  out->reserve(junction_tuples.size());
  for (rel::TupleId j : junction_tuples) {
    const rel::Value& v = junction.value(j, dst.child_col);
    if (rel::TypeOf(v) == rel::ValueType::kNull) continue;
    out->push_back(static_cast<rel::TupleId>(std::get<int64_t>(v)));
  }
  // ORDER BY importance DESC, matching the importance-sorted data-graph
  // adjacency, so OS generation is deterministic and backend-independent.
  const rel::Relation& target = Target(link, dir);
  if (target.has_importance()) {
    std::sort(out->begin(), out->end(), rel::ImportanceOrder{target});
  }
}

void DatabaseBackend::Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                            rel::TupleId parent_tuple,
                            std::vector<rel::TupleId>* out) {
  SimulateLatency();
  Join(link, dir, parent_tuple, out);
  stats_.CountSelect(out->size(), 0);
}

void DatabaseBackend::FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                               rel::TupleId parent_tuple, size_t limit,
                               double min_importance,
                               std::vector<rel::TupleId>* out) {
  const graph::LinkType& lt = links().link(link);
  SimulateLatency();
  if (!lt.via_junction && dir == rel::FkDirection::kForward) {
    // SELECT * TOP limit ... AND importance > min ORDER BY importance DESC
    // through the importance-sorted FK index. Only the SELECT is counted
    // here: the delegated access path already books the tuples in
    // db().io_stats(), and the backend-level tuples_read has never included
    // this path (kept for baseline comparability of the I/O metrics).
    *out = db().ChildrenTopImportance(lt.fk_a, parent_tuple, limit,
                                      min_importance);
    stats_.CountSelect(0, 0);
    return;
  }
  // The DBMS would evaluate the ordered, limited join in one statement:
  // the TOP-l is the prefix of the importance-ordered join. Avoidance
  // Condition 2 pays the SELECT even for 0 rows.
  Join(link, dir, parent_tuple, out);
  out->resize(rel::TopImportancePrefix(Target(link, dir), *out, limit,
                                       min_importance));
  stats_.CountSelect(out->size(), 0);
}

}  // namespace osum::core
