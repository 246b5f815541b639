// Join back ends for OS generation.
//
// The paper evaluates two ways of materializing an OS (Section 6.3): via a
// precomputed in-memory data graph (fast; 0.2s for a Supplier OS) or
// directly from the database with one SQL statement per join (12.9s). Both
// are modeled here behind a common interface so Algorithms 4 and 5 are
// written once. Each back end reports its logical I/O through util::IoStats.
//
// The two ends differ in what a join costs. The data graph is the
// precomputed adjacency: a Fetch is a few-ns read. The database back end
// pays one statement per call, so it says per_statement(), and
// search::SearchContext puts a core::JoinCache (join_cache.h) in front of
// it: a decorator that is itself an OsBackend, keeps a (link, direction,
// parent tuple) join's list once the join is seen a second time, answers
// later calls from it, and leaves the inner back end's counters to count
// only the statements actually issued. The data graph gets no tier; caching its
// adjacency again would only add a lock and a hash probe to each read.
#ifndef OSUM_CORE_OS_BACKEND_H_
#define OSUM_CORE_OS_BACKEND_H_

#include <vector>

#include "graph/data_graph.h"
#include "graph/link_types.h"
#include "relational/database.h"
#include "util/stats.h"

namespace osum::core {

/// Abstract join provider: fetch the tuples joining to `parent_tuple`
/// through a logical link in a given direction.
///
/// Thread-safety contract: both concrete back ends are immutable after
/// construction apart from the I/O counters, which are atomic. Fetch and
/// FetchTop only read the database / data graph (themselves read-only once
/// built), so one back end instance may serve concurrent queries — the
/// contract search::SearchContext relies on. Implementations adding real
/// mutable state (caches, connections) must synchronize it themselves, as
/// core::JoinCache does.
class OsBackend {
 public:
  /// `db` and `links` must outlive the back end.
  OsBackend(const rel::Database& db, const graph::LinkSchema& links)
      : db_(db), links_(links) {}
  virtual ~OsBackend() = default;

  virtual const char* name() const = 0;

  /// True when every Fetch/FetchTop costs a statement against the
  /// database, so repeating a join repeats its cost. SearchContext fronts
  /// exactly these back ends with a core::JoinCache.
  virtual bool per_statement() const { return false; }

  const rel::Database& db() const { return db_; }
  const graph::LinkSchema& links() const { return links_; }

  /// Full join: all neighbor tuples (Algorithm 5 line 6), in
  /// rel::ImportanceOrder once importance is annotated and the access
  /// paths sorted.
  virtual void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                     rel::TupleId parent_tuple,
                     std::vector<rel::TupleId>* out) = 0;

  /// Bounded join for Avoidance Condition 2 (Algorithm 4 line 10): the
  /// prefix of Fetch's importance-ordered list (rel::ImportanceOrder)
  /// filtered to global importance strictly greater than `min_importance`
  /// and cut to `limit` tuples. Counts one logical SELECT even when it
  /// returns nothing.
  virtual void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                        rel::TupleId parent_tuple, size_t limit,
                        double min_importance,
                        std::vector<rel::TupleId>* out) = 0;

  /// Snapshot of the logical I/O issued by this back end since the last
  /// Reset (aggregated across all threads when queries run concurrently).
  util::IoStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

 protected:
  /// The relation a join through `link` in direction `dir` lands in.
  const rel::Relation& Target(graph::LinkTypeId link,
                              rel::FkDirection dir) const;

  util::AtomicIoStats stats_;

 private:
  const rel::Database& db_;
  const graph::LinkSchema& links_;
};

/// In-memory data-graph back end (the paper's fast path). FetchTop throws
/// std::logic_error unless DataGraph::SortNeighborsByImportance ran.
class DataGraphBackend : public OsBackend {
 public:
  DataGraphBackend(const rel::Database& db, const graph::LinkSchema& links,
                   const graph::DataGraph& graph);

  const char* name() const override { return "data-graph"; }
  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override;
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override;

 private:
  const graph::DataGraph& graph_;
};

/// Database back end: issues one logical SQL statement per join against the
/// relational engine, including a simulated per-statement latency so the
/// data-graph vs database cost ratio of Figure 10(f) is reproducible on an
/// in-process engine (a JDBC/MySQL round-trip is not free even when the
/// buffer pool is warm). The default of 8us/statement lands near the
/// paper's ~65x data-graph advantage. Set `per_select_micros` to 0 to
/// disable.
class DatabaseBackend : public OsBackend {
 public:
  DatabaseBackend(const rel::Database& db, const graph::LinkSchema& links,
                  double per_select_micros = 8.0);

  const char* name() const override { return "database"; }
  bool per_statement() const override { return true; }
  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override;
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override;

 private:
  void SimulateLatency();
  /// The join itself, shared by Fetch and FetchTop: forward FK through the
  /// FK index, backward FK through the parent lookup, junction links as one
  /// junction-target join sorted into rel::ImportanceOrder once the target
  /// is annotated. Books only the database's own access-path I/O.
  void Join(graph::LinkTypeId link, rel::FkDirection dir,
            rel::TupleId parent_tuple, std::vector<rel::TupleId>* out) const;

  double per_select_micros_;
};

}  // namespace osum::core

#endif  // OSUM_CORE_OS_BACKEND_H_
