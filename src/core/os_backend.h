// Join back ends for OS generation.
//
// The paper evaluates two ways of materializing an OS (Section 6.3): via a
// precomputed in-memory data graph (fast; 0.2s for a Supplier OS) or
// directly from the database with one SQL statement per join (12.9s). Both
// are modeled here behind a common interface so Algorithms 4 and 5 are
// written once. Each back end reports its logical I/O through util::IoStats.
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
/// mutable state (caches, connections) must synchronize it themselves.
class OsBackend {
 public:
  virtual ~OsBackend() = default;

  virtual const char* name() const = 0;

  /// Full join: all neighbor tuples (Algorithm 5 line 6).
  virtual void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                     rel::TupleId parent_tuple,
                     std::vector<rel::TupleId>* out) = 0;

  /// Bounded join for Avoidance Condition 2 (Algorithm 4 line 10):
  /// up to `limit` neighbor tuples with global importance strictly greater
  /// than `min_importance`, in descending importance order. Counts one
  /// logical SELECT even when it returns nothing.
  virtual void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                        rel::TupleId parent_tuple, size_t limit,
                        double min_importance,
                        std::vector<rel::TupleId>* out) = 0;

  /// Snapshot of the logical I/O issued by this back end since the last
  /// Reset (aggregated across all threads when queries run concurrently).
  util::IoStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

 protected:
  util::AtomicIoStats stats_;
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
  const rel::Database& db_;
  const graph::LinkSchema& links_;
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
  void Fetch(graph::LinkTypeId link, rel::FkDirection dir,
             rel::TupleId parent_tuple,
             std::vector<rel::TupleId>* out) override;
  void FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                rel::TupleId parent_tuple, size_t limit,
                double min_importance,
                std::vector<rel::TupleId>* out) override;

 private:
  void SimulateLatency();

  const rel::Database& db_;
  const graph::LinkSchema& links_;
  double per_select_micros_;
};

}  // namespace osum::core

#endif  // OSUM_CORE_OS_BACKEND_H_
