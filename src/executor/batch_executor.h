// BatchExecutor: shared-scan execution of a queue of queries (paper §6's
// serving-side complement: many concurrent analytic clients hit the same
// hot tables, so co-running their scans amortizes the decode cost).
//
// ExecuteBatch takes a batch of queries and returns results identical to
// executing them through Database::Execute one at a time in order. Every
// query is planned first (executor/plan.h). Runs of consecutive scan-path
// reads on the same table — non-point SELECTs and single-table
// aggregations — execute as one shared group under a single epoch pin and
// reader lock: every query's selection bitmap is produced by one
// MultiFilterRangeSlice pass per predicate column (one decode of the
// encoded segment fans out to all bitmaps, morsel-parallel when the plan
// says so), then each query materializes through the same read-path code
// the serial executor uses. A member is delegated to Database::Execute
// when its plan, resolved under the group's lock, is not shareable;
// everything that does not plan a scan (points, joins, DML, invalid
// queries) runs per statement without opening a group. So the batch path
// never changes semantics, only cost.
//
// Equivalence guarantee (tests/executor/batch_equivalence_test.cc): per
// query the result is bit-identical to serial execution at every thread
// count. The shared pass computes the same selection bitmaps (conjunction
// is order-independent and MultiFilterRangeSlice is bit-identical to the
// per-term filters), and materialization reuses the serial code paths with
// the same morsel structure and partial-merge order.
//
// Concurrency: a shared group holds the table's reader lock exactly like a
// serial read statement (docs/CONCURRENCY.md); delegated queries run after
// the group's lock is released, never under it — re-entering Execute while
// holding the shared lock could deadlock behind a queued writer.
//
// Reported elapsed_ms of a shared query is its amortized share (group wall
// time / group width): that is the cost a co-running client actually pays,
// and it is what the workload recorder should feed the advisor's batch-
// aware cost model. Queries executed on the shared path do not feed the
// per-statement cost-residual stream (no per-query prediction exists for a
// shared scan).
#ifndef HSDB_EXECUTOR_BATCH_EXECUTOR_H_
#define HSDB_EXECUTOR_BATCH_EXECUTOR_H_

#include <string>
#include <vector>

#include "executor/database.h"

namespace hsdb {

class BatchExecutor {
 public:
  /// The database must outlive the batch executor. Install observers and
  /// cost predictors on the database before batch traffic starts.
  explicit BatchExecutor(Database* db);
  HSDB_DISALLOW_COPY_AND_ASSIGN(BatchExecutor);

  /// Executes `queries` in order; result i corresponds to queries[i].
  /// Thread-compatible: concurrent ExecuteBatch calls are safe (the shared
  /// state is the Database, which synchronizes per table), but one batch is
  /// executed by the calling thread.
  ///
  /// `queue_waits_ms` (optional, parallel to `queries`) is each query's
  /// admission-queue wait; it is attributed to slow-query-log records and
  /// the thread-local queue-wait context of delegated executions.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<Query>& queries,
      const std::vector<double>* queue_waits_ms = nullptr);

  /// Table name of a query that may join a shared group — a SELECT or a
  /// single-table aggregation — or nullptr. A syntactic pre-filter only:
  /// whether the query is shared is its plan's `shareable` decision.
  static const std::string* ShareableTable(const Query& query);

 private:
  struct SharedRead;

  /// Executes one same-table group of scan-path reads under a single epoch
  /// pin + reader lock. Members whose plan is shareable have their results
  /// filled (done = true); the rest are left for delegation.
  void ExecuteSharedGroup(const std::string& table_name,
                          std::vector<SharedRead>* members);

  /// Materializes one member's result from its shared-pass bitmaps through
  /// the serial read-path code.
  void MaterializeMember(SharedRead* m) const;

  bool TelemetryOn() const;

  Database* db_;
  telemetry::Counter* batch_groups_total_ = nullptr;
  telemetry::Counter* batch_shared_queries_total_ = nullptr;
  telemetry::LogHistogram* batch_width_ = nullptr;
};

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_BATCH_EXECUTOR_H_
