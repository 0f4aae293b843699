// Executor: runs structured queries against the catalog's logical tables,
// transparently handling partitioned layouts — horizontal pieces are
// processed per group and union-combined, vertical pieces are served from a
// covering fragment when possible and PK-joined otherwise (the query
// rewriting of paper §4, at the descriptor level). Every query is planned
// first (executor/plan.h); execution only dispatches on the plan.
#ifndef HSDB_EXECUTOR_EXECUTOR_H_
#define HSDB_EXECUTOR_EXECUTOR_H_

#include <functional>

#include "catalog/catalog.h"
#include "executor/plan.h"
#include "executor/query.h"
#include "executor/result.h"

namespace hsdb {

class Executor {
 public:
  explicit Executor(Catalog* catalog) : catalog_(catalog) {}

  /// Executes one query. DML maintenance (delta merges) is NOT triggered
  /// here; the Database facade calls AfterStatement at statement boundaries.
  Result<QueryResult> Execute(const Query& query);

  /// Installs the morsel-parallel scan context (Database wires this up when
  /// configured with more than one thread). Thread-compatible: set once
  /// before queries run.
  void set_parallel(const ParallelContext& ctx) { parallel_ = ctx; }

 private:
  Result<QueryResult> ExecuteSelect(const SelectQuery& q, const Plan& plan);
  /// Update/delete: `write` applies the statement to one located key.
  Result<QueryResult> ExecuteWrite(
      const Plan& plan, const std::function<Status(const PrimaryKey&)>& write);
  Result<QueryResult> SingleTableAggregation(const AggregationQuery& q,
                                             const Plan& plan);
  Result<QueryResult> StarJoinAggregation(const AggregationQuery& q,
                                          const Plan& plan);

  Catalog* catalog_;
  ParallelContext parallel_;
};

}  // namespace hsdb

#endif  // HSDB_EXECUTOR_EXECUTOR_H_
