// A relation (table): schema + row-major tuple storage + per-tuple global
// importance annotation.
#ifndef OSUM_RELATIONAL_RELATION_H_
#define OSUM_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace osum::rel {

/// Index of a relation within its database.
using RelationId = uint32_t;

/// Tuple identifier — the implicit primary key. Tuples are append-only and
/// identified by their row index; foreign-key columns store the referenced
/// tuple's TupleId as an int64 value.
using TupleId = uint32_t;

inline constexpr TupleId kInvalidTuple = static_cast<TupleId>(-1);

/// A table. Storage is a flat row-major Value vector (rows * columns),
/// giving O(1) attribute access with one indirection and keeping related
/// attributes adjacent in memory.
class Relation {
 public:
  Relation(RelationId id, std::string name, Schema schema, bool is_junction);

  RelationId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Junction relations exist purely to encode M:N relationships (e.g. the
  /// DBLP Writes and Cites tables). The G_DS treealization collapses them:
  /// they never appear as OS nodes, matching the paper's DBLP G_DS where
  /// "Co-Author" is a direct child of Paper.
  bool is_junction() const { return is_junction_; }

  size_t num_tuples() const { return num_tuples_; }

  /// Appends a tuple; `values` must match the schema arity. Returns its id.
  TupleId Append(std::vector<Value> values);

  /// Attribute access.
  const Value& value(TupleId t, ColumnId c) const {
    return cells_[static_cast<size_t>(t) * schema_.num_columns() + c];
  }

  /// In-place attribute update (used by loaders that backfill aggregates,
  /// e.g. Orders.totalprice from its Lineitems). Must not change FK columns
  /// after BuildIndexes().
  void SetValue(TupleId t, ColumnId c, Value v) {
    cells_[static_cast<size_t>(t) * schema_.num_columns() + c] = std::move(v);
  }

  /// Convenience typed accessors (caller must know the type).
  int64_t IntValue(TupleId t, ColumnId c) const;
  double NumericValue(TupleId t, ColumnId c) const;
  const std::string& StringValue(TupleId t, ColumnId c) const;

  /// Global importance Im(t) of each tuple (ObjectRank / ValueRank score).
  /// Zero until annotated via SetImportance().
  double importance(TupleId t) const {
    return importance_.empty() ? 0.0 : importance_[t];
  }
  void SetImportance(std::vector<double> importance);
  bool has_importance() const { return !importance_.empty(); }

  /// Maximum Im(t) over the relation — the global statistic behind the
  /// paper's max(R_i) annotation (Section 5.3).
  double max_importance() const { return max_importance_; }

  /// Renders tuple `t` as "Relation: v1, v2, ..." over display columns.
  std::string RenderTuple(TupleId t) const;

  /// Renders only the display attribute values, comma-separated.
  std::string RenderValues(TupleId t) const;

 private:
  RelationId id_;
  std::string name_;
  Schema schema_;
  bool is_junction_;
  size_t num_tuples_ = 0;
  std::vector<Value> cells_;
  std::vector<double> importance_;
  double max_importance_ = 0.0;
};

/// The one importance order of every sorted access path (FK index
/// postings, data-graph adjacency, junction joins): descending Im(t), ties
/// broken by ascending tuple id so the order is deterministic.
struct ImportanceOrder {
  const Relation& rel;
  bool operator()(TupleId a, TupleId b) const {
    double ia = rel.importance(a);
    double ib = rel.importance(b);
    if (ia != ib) return ia > ib;
    return a < b;
  }
};

/// The TOP-l step of Algorithm 4 line 10 over a join result already in
/// ImportanceOrder: the length of its longest prefix of at most `limit`
/// tuples whose Im(t) exceeds `min_importance`. `tuple_of` maps a list
/// element to its tuple id (data-graph adjacency holds node ids).
template <typename List, typename TupleOf = std::identity>
size_t TopImportancePrefix(const Relation& rel, const List& ordered,
                           size_t limit, double min_importance,
                           TupleOf tuple_of = {}) {
  size_t n = 0;
  for (const auto& x : ordered) {
    if (n >= limit || rel.importance(tuple_of(x)) <= min_importance) break;
    ++n;
  }
  return n;
}

}  // namespace osum::rel

#endif  // OSUM_RELATIONAL_RELATION_H_
