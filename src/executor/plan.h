// Plan: the one decision of how a query is answered. PlanQuery validates a
// query once and builds the plan's layout-independent part from the
// schemas alone: the per-table predicate terms, with same-column terms
// merged into one range, the access path (a primary-key point or not) and
// the columns a scan must find in one fragment. ResolvePaths adds the
// physical part under the statement's epoch pin and reader lock: the path
// of every row group and whether the batch executor may share the scan.
//
// Everything that needs to know how a query runs reads the plan instead of
// re-deriving it: the Executor dispatches on it, the BatchExecutor
// delegates every member whose plan is not shareable, `explain` renders
// it, and the WorkloadCostEstimator and WorkloadRecorder read the
// layout-independent part (the estimator costs hypothetical layouts, so
// the live fragments mean nothing to it).
#ifndef HSDB_EXECUTOR_PLAN_H_
#define HSDB_EXECUTOR_PLAN_H_

#include <span>
#include <vector>

#include "catalog/catalog.h"
#include "executor/query.h"

namespace hsdb {

class ThreadPool;
namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry

/// Shared-state handles for the morsel-parallel scan path. All members are
/// optional: a null pool keeps every query on the serial path; null
/// telemetry handles skip instrumentation.
struct ParallelContext {
  ThreadPool* pool = nullptr;
  telemetry::Counter* morsels_total = nullptr;
  telemetry::Gauge* queue_depth = nullptr;
};

/// How the query as a whole is answered.
enum class AccessPath : uint8_t {
  /// Equality on a single-column primary key: a hash lookup, no scan.
  kPkPoint = 0,
  /// Single-table select or aggregation over the table's row groups.
  kScan,
  /// Dimension hash builds, then a serial probe scan of the fact table.
  kStarJoin,
  /// Single-row append.
  kInsert,
  /// Update/delete: locate the matching keys, then write by key.
  kDmlLocate,
};

/// How one row group of a scan (or of a star join's fact side) is read.
enum class GroupPath : uint8_t {
  /// One pass over the fragment covering the needed columns.
  kSerialScan = 0,
  /// Morsel-parallel pass over the covering fragment.
  kParallelScan,
  /// A row-store sorted index on a predicate column seeds the selection.
  kIndexSeeded,
  /// Vertical split: no fragment covers the needed columns, so rows are
  /// stitched by primary key.
  kStitch,
};

struct GroupPlan {
  GroupPath path = GroupPath::kSerialScan;
  /// The covering fragment; null exactly for kStitch.
  const Fragment* cover = nullptr;
};

struct Plan {
  // Layout-independent part -------------------------------------------------
  QueryKind kind = QueryKind::kSelect;
  AccessPath path = AccessPath::kScan;
  /// The table read or written (a join's fact table). Valid under the epoch
  /// pin the plan was built under.
  LogicalTable* table = nullptr;
  /// Validated predicate terms with same-column terms merged into one
  /// range, ordered by table index.
  Predicate terms;
  /// Columns of `table` one fragment must hold for the cover path, sorted
  /// and deduplicated. Empty for point lookups, inserts and DML.
  std::vector<ColumnId> needed;

  // Physical part (ResolvePaths) --------------------------------------------
  /// One entry per row group of `table`, for kScan and kStarJoin.
  std::vector<GroupPlan> groups;
  /// True when the BatchExecutor may answer the query from a shared scan:
  /// a kScan plan whose every group is a serial or parallel cover scan.
  bool shareable = false;

  /// The merged terms on the query's table `table_index`.
  std::span<const PredicateTerm> TermsOf(int table_index) const;
  /// The looked-up key of a kPkPoint plan.
  const Value& point_key() const { return *terms.front().range.lo; }
};

/// Validates `query` against the catalog's schemas and builds the plan's
/// layout-independent part. The caller keeps the named tables alive (an
/// epoch pin); no table lock is needed, schemas never change.
Result<Plan> PlanQuery(const Catalog& catalog, const Query& query);

/// Resolves the physical part of `plan` against the live version of
/// plan->table. The caller holds the epoch pin and the table's reader lock
/// (or writer latch) for as long as it reads the plan. A point lookup
/// resolves nothing.
void ResolvePaths(const ParallelContext& parallel, Plan* plan);

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_PLAN_H_
