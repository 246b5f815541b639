// The embedded relational database: catalog, foreign keys, hash-free
// FK join indexes and the SQL-shaped access paths that Algorithms 4/5 of the
// paper issue ("SELECT * FROM Ri WHERE tj.ID=Ri.ID", "SELECT * TOP l ...").
//
// This substrate replaces the MySQL instance the paper ran against; see
// DESIGN.md ("Substitutions"). Every access path bumps util::IoStats so the
// cost model of Section 5.3 is measurable.
#ifndef OSUM_RELATIONAL_DATABASE_H_
#define OSUM_RELATIONAL_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/foreign_key.h"
#include "relational/relation.h"
#include "util/stats.h"

namespace osum::rel {

/// Per-foreign-key cardinality statistics, used by the affinity metrics
/// (Eq. 1's connectivity/cardinality terms).
struct FkStats {
  double avg_fanout = 0.0;  // average children per referenced parent tuple
  uint64_t max_fanout = 0;
  uint64_t child_count = 0;  // non-NULL references
};

/// A database: a catalog of relations plus declared foreign keys and their
/// join indexes.
///
/// Lifecycle: AddRelation/AddForeignKey + Relation::Append, then
/// BuildIndexes() once loading is complete. After global importance scores
/// are annotated (Relation::SetImportance), call SortIndexesByImportance()
/// so the TOP-l access path (Avoidance Condition 2) can stream children in
/// descending importance order, as a DBMS would via an index on the
/// importance attribute.
class Database {
 public:
  Database() = default;

  // Not copyable (owns large storage); movable.
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Registers a relation; returns its id.
  RelationId AddRelation(std::string name, Schema schema,
                         bool is_junction = false);

  /// Declares that `child.child_col` references `parent`'s primary key.
  ForeignKeyId AddForeignKey(std::string name, RelationId child,
                             ColumnId child_col, RelationId parent);

  size_t num_relations() const { return relations_.size(); }
  size_t num_foreign_keys() const { return fks_.size(); }

  Relation& relation(RelationId id) { return *relations_[id]; }
  const Relation& relation(RelationId id) const { return *relations_[id]; }

  /// By-name lookup; aborts if missing (loader bugs fail fast).
  RelationId GetRelationId(const std::string& name) const;
  Relation& GetRelation(const std::string& name);
  const Relation& GetRelation(const std::string& name) const;

  const ForeignKey& foreign_key(ForeignKeyId id) const { return fks_[id]; }
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }

  /// Foreign keys incident to a relation (as child or as parent).
  const std::vector<ForeignKeyId>& FksOfChild(RelationId r) const {
    return fks_of_child_[r];
  }
  const std::vector<ForeignKeyId>& FksOfParent(RelationId r) const {
    return fks_of_parent_[r];
  }

  /// Total number of tuples across all relations.
  uint64_t TotalTuples() const;

  /// Builds the FK join indexes. Must be called after loading and before
  /// any access-path call.
  void BuildIndexes();
  bool indexes_built() const { return indexes_built_; }

  /// Re-orders each forward index's posting lists by descending tuple
  /// importance. Requires importance annotations on all child relations.
  void SortIndexesByImportance();

  /// Cardinality statistics for a foreign key (after BuildIndexes).
  FkStats GetFkStats(ForeignKeyId fk) const;

  // --- Access paths (the engine's "SQL"). Each call counts as one logical
  // --- SELECT statement in IoStats, mirroring one JDBC round-trip.

  /// SELECT * FROM child WHERE child.fk = parent_tuple
  /// (forward 1:M join; Algorithm 5 line 6 / Algorithm 4 line 12).
  std::span<const TupleId> Children(ForeignKeyId fk, TupleId parent_tuple) const;

  /// SELECT * TOP `limit` FROM child WHERE child.fk = parent_tuple
  ///   AND importance > min_importance ORDER BY importance DESC
  /// (Algorithm 4 line 10, Avoidance Condition 2). Throws
  /// std::logic_error unless SortIndexesByImportance() ran. Note: this
  /// still costs one SELECT even when it returns nothing — the Section 5.3
  /// cost caveat.
  std::vector<TupleId> ChildrenTopImportance(ForeignKeyId fk,
                                             TupleId parent_tuple,
                                             size_t limit,
                                             double min_importance) const;

  /// SELECT parent FROM child WHERE child.id = t (M:1 navigation).
  /// Returns nullopt for NULL references.
  std::optional<TupleId> Parent(ForeignKeyId fk, TupleId child_tuple) const;

  /// Mutable I/O accounting (reset before a measured region; read after).
  /// Atomic so concurrent queries over a shared database may race only on
  /// accounting, never on data: all access paths are const and read-only
  /// once BuildIndexes()/SortIndexesByImportance() have run.
  util::AtomicIoStats& io_stats() const { return io_stats_; }

 private:
  struct JoinIndex {
    // postings[p] = children tuple ids whose FK references parent tuple p.
    std::vector<std::vector<TupleId>> postings;
  };

  std::vector<std::unique_ptr<Relation>> relations_;
  std::unordered_map<std::string, RelationId> relations_by_name_;
  std::vector<ForeignKey> fks_;
  std::vector<std::vector<ForeignKeyId>> fks_of_child_;
  std::vector<std::vector<ForeignKeyId>> fks_of_parent_;
  std::vector<JoinIndex> indexes_;
  bool indexes_built_ = false;
  bool indexes_sorted_ = false;
  mutable util::AtomicIoStats io_stats_;
};

}  // namespace osum::rel

#endif  // OSUM_RELATIONAL_DATABASE_H_
