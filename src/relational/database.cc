#include "relational/database.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace osum::rel {

RelationId Database::AddRelation(std::string name, Schema schema,
                                 bool is_junction) {
  assert(!indexes_built_);
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_by_name_.emplace(name, id);
  relations_.push_back(std::make_unique<Relation>(id, std::move(name),
                                                  std::move(schema),
                                                  is_junction));
  fks_of_child_.emplace_back();
  fks_of_parent_.emplace_back();
  return id;
}

ForeignKeyId Database::AddForeignKey(std::string name, RelationId child,
                                     ColumnId child_col, RelationId parent) {
  assert(!indexes_built_);
  assert(child < relations_.size());
  assert(parent < relations_.size());
  assert(child_col < relations_[child]->schema().num_columns());
  ForeignKeyId id = static_cast<ForeignKeyId>(fks_.size());
  fks_.push_back(ForeignKey{id, std::move(name), child, child_col, parent});
  fks_of_child_[child].push_back(id);
  fks_of_parent_[parent].push_back(id);
  return id;
}

RelationId Database::GetRelationId(const std::string& name) const {
  auto it = relations_by_name_.find(name);
  if (it == relations_by_name_.end()) {
    std::fprintf(stderr, "Database: no relation named '%s'\n", name.c_str());
    std::abort();
  }
  return it->second;
}

Relation& Database::GetRelation(const std::string& name) {
  return *relations_[GetRelationId(name)];
}

const Relation& Database::GetRelation(const std::string& name) const {
  return *relations_[GetRelationId(name)];
}

uint64_t Database::TotalTuples() const {
  uint64_t total = 0;
  for (const auto& r : relations_) total += r->num_tuples();
  return total;
}

void Database::BuildIndexes() {
  assert(!indexes_built_);
  indexes_.resize(fks_.size());
  for (const ForeignKey& fk : fks_) {
    JoinIndex& idx = indexes_[fk.id];
    const Relation& child = *relations_[fk.child];
    const Relation& parent = *relations_[fk.parent];
    idx.postings.assign(parent.num_tuples(), {});
    for (TupleId t = 0; t < child.num_tuples(); ++t) {
      const Value& v = child.value(t, fk.child_col);
      if (TypeOf(v) == ValueType::kNull) continue;
      int64_t p = std::get<int64_t>(v);
      assert(p >= 0 && static_cast<uint64_t>(p) < parent.num_tuples());
      idx.postings[static_cast<size_t>(p)].push_back(t);
    }
  }
  indexes_built_ = true;
}

void Database::SortIndexesByImportance() {
  assert(indexes_built_);
  for (const ForeignKey& fk : fks_) {
    const Relation& child = *relations_[fk.child];
    assert(child.has_importance());
    for (auto& posting : indexes_[fk.id].postings) {
      std::sort(posting.begin(), posting.end(),
                [&child](TupleId a, TupleId b) {
                  double ia = child.importance(a);
                  double ib = child.importance(b);
                  if (ia != ib) return ia > ib;
                  return a < b;  // deterministic tie-break
                });
    }
  }
  indexes_sorted_ = true;
}

FkStats Database::GetFkStats(ForeignKeyId fk) const {
  assert(indexes_built_);
  const JoinIndex& idx = indexes_[fk];
  FkStats stats;
  uint64_t parents_with_children = 0;
  for (const auto& posting : idx.postings) {
    stats.child_count += posting.size();
    stats.max_fanout = std::max<uint64_t>(stats.max_fanout, posting.size());
    if (!posting.empty()) ++parents_with_children;
  }
  stats.avg_fanout =
      parents_with_children == 0
          ? 0.0
          : static_cast<double>(stats.child_count) /
                static_cast<double>(parents_with_children);
  return stats;
}

std::span<const TupleId> Database::Children(ForeignKeyId fk,
                                            TupleId parent_tuple) const {
  assert(indexes_built_);
  const auto& posting = indexes_[fk].postings[parent_tuple];
  io_stats_.CountSelect(posting.size(), 1);
  return {posting.data(), posting.size()};
}

std::vector<TupleId> Database::ChildrenTopImportance(
    ForeignKeyId fk, TupleId parent_tuple, size_t limit,
    double min_importance) const {
  assert(indexes_built_);
  // Checked in every build type: the early exits below assume descending
  // importance, so unsorted postings would return a wrong TOP-l.
  if (!indexes_sorted_) {
    throw std::logic_error(
        "ChildrenTopImportance requires SortIndexesByImportance()");
  }
  const Relation& child = *relations_[fks_[fk].child];
  const auto& posting = indexes_[fk].postings[parent_tuple];
  std::vector<TupleId> out;
  for (TupleId t : posting) {
    if (out.size() >= limit) break;
    if (child.importance(t) <= min_importance) break;  // sorted descending
    out.push_back(t);
  }
  // Costs a SELECT even when the result is empty (Section 5.3 caveat).
  io_stats_.CountSelect(out.size(), 1);
  return out;
}

std::optional<TupleId> Database::Parent(ForeignKeyId fk,
                                        TupleId child_tuple) const {
  assert(indexes_built_);
  const ForeignKey& f = fks_[fk];
  const Value& v = relations_[f.child]->value(child_tuple, f.child_col);
  if (TypeOf(v) == ValueType::kNull) {
    io_stats_.CountSelect(0, 1);
    return std::nullopt;
  }
  io_stats_.CountSelect(1, 1);
  return static_cast<TupleId>(std::get<int64_t>(v));
}

}  // namespace osum::rel
