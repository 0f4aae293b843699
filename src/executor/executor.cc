#include "executor/executor.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

#include "executor/aggregate.h"
#include "executor/read_path.h"
#include "storage/scan_dispatch.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

namespace {

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace

Result<QueryResult> Executor::Execute(const Query& query) {
  HSDB_ASSIGN_OR_RETURN(Plan plan, PlanQuery(*catalog_, query));
  ResolvePaths(parallel_, &plan);
  switch (plan.kind) {
    case QueryKind::kAggregation: {
      const auto& q = std::get<AggregationQuery>(query);
      return plan.path == AccessPath::kStarJoin
                 ? StarJoinAggregation(q, plan)
                 : SingleTableAggregation(q, plan);
    }
    case QueryKind::kSelect:
      return ExecuteSelect(std::get<SelectQuery>(query), plan);
    case QueryKind::kInsert: {
      telemetry::ScopedSpan write_span("write");
      HSDB_RETURN_IF_ERROR(plan.table->Insert(std::get<InsertQuery>(query).row));
      QueryResult result;
      result.affected_rows = 1;
      return result;
    }
    case QueryKind::kUpdate: {
      const auto& q = std::get<UpdateQuery>(query);
      return ExecuteWrite(plan, [&](const PrimaryKey& pk) {
        return plan.table->UpdateByPk(pk, q.set_columns, q.set_values);
      });
    }
    case QueryKind::kDelete:
      return ExecuteWrite(plan, [&](const PrimaryKey& pk) {
        return plan.table->DeleteByPk(pk);
      });
  }
  return Status::Internal("unreachable query kind");
}

Result<QueryResult> Executor::ExecuteSelect(const SelectQuery& q,
                                            const Plan& plan) {
  QueryResult result;
  const size_t limit =
      q.limit.value_or(std::numeric_limits<size_t>::max());

  if (plan.path == AccessPath::kPkPoint) {
    telemetry::ScopedSpan lookup_span("pk_lookup");
    Result<Row> row = plan.table->GetByPk(PrimaryKey::Of(plan.point_key()));
    if (row.ok() && limit > 0) {
      result.rows.push_back(ProjectRow(*row, q.select_columns));
    }
    return result;
  }

  const std::span<const PredicateTerm> terms = plan.TermsOf(0);
  telemetry::ScopedSpan scan_span("scan");
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    if (result.rows.size() >= limit) break;
    const Fragment* cover = plan.groups[g].cover;
    switch (plan.groups[g].path) {
      case GroupPath::kParallelScan:
        rp::ParallelSelectCover(parallel_, *cover, terms, q.select_columns,
                                limit, /*prefiltered=*/nullptr, &result);
        break;
      case GroupPath::kSerialScan:
      case GroupPath::kIndexSeeded: {
        Bitmap bm = rp::EvaluateOnFragment(*cover, terms);
        rp::SelectFromBitmap(*cover, bm, q.select_columns, limit, &result);
        break;
      }
      case GroupPath::kStitch: {
        // Resolve keys, then stitch projections.
        telemetry::ScopedSpan stitch_span("stitch");
        HSDB_ASSIGN_OR_RETURN(
            std::vector<PrimaryKey> pks,
            rp::MatchingPksInGroup(plan.table->groups()[g], terms));
        for (const PrimaryKey& pk : pks) {
          if (result.rows.size() >= limit) break;
          HSDB_ASSIGN_OR_RETURN(Row row, plan.table->GetByPk(pk));
          result.rows.push_back(ProjectRow(row, q.select_columns));
        }
        break;
      }
    }
  }
  return result;
}

Result<QueryResult> Executor::ExecuteWrite(
    const Plan& plan, const std::function<Status(const PrimaryKey&)>& write) {
  QueryResult result;
  if (plan.path == AccessPath::kPkPoint) {
    Status s = write(PrimaryKey::Of(plan.point_key()));
    if (s.ok()) {
      result.affected_rows = 1;
    } else if (s.code() != StatusCode::kNotFound) {
      return s;
    }
    return result;
  }
  std::vector<PrimaryKey> all_pks;
  {
    telemetry::ScopedSpan scan_span("scan");
    for (const RowGroup& group : plan.table->groups()) {
      HSDB_ASSIGN_OR_RETURN(std::vector<PrimaryKey> pks,
                            rp::MatchingPksInGroup(group, plan.TermsOf(0)));
      for (PrimaryKey& pk : pks) all_pks.push_back(std::move(pk));
    }
  }
  telemetry::ScopedSpan write_span("write");
  for (const PrimaryKey& pk : all_pks) {
    HSDB_RETURN_IF_ERROR(write(pk));
    ++result.affected_rows;
  }
  return result;
}

Result<QueryResult> Executor::SingleTableAggregation(const AggregationQuery& q,
                                                     const Plan& plan) {
  const std::span<const PredicateTerm> terms = plan.TermsOf(0);
  const bool grouped = !q.group_by.empty();

  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;

  telemetry::ScopedSpan scan_span("scan");
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    const Fragment* cover = plan.groups[g].cover;
    switch (plan.groups[g].path) {
      case GroupPath::kParallelScan:
        rp::ParallelAggregateCover(parallel_, *cover, terms, q, grouped,
                                   /*prefiltered=*/nullptr, &totals,
                                   &group_map);
        break;
      case GroupPath::kSerialScan:
      case GroupPath::kIndexSeeded: {
        Bitmap bm = rp::EvaluateOnFragment(*cover, terms);
        rp::AggregateFromBitmap(*cover, bm, q, grouped, &totals, &group_map);
        break;
      }
      case GroupPath::kStitch: {
        // Stitch full logical rows (vertical-partition join).
        telemetry::ScopedSpan stitch_span("stitch");
        plan.table->ForEachRowInGroup(g, [&](const Row& row) {
          for (const PredicateTerm& term : terms) {
            if (!term.range.Contains(row[term.column.column])) return;
          }
          rp::FoldRow(
              q, grouped,
              [&](ColumnId col) -> const Value& { return row[col]; },
              &totals, &group_map);
        });
        break;
      }
    }
  }

  return rp::FinalizeAggregation(q, grouped, totals, group_map);
}

Result<QueryResult> Executor::StarJoinAggregation(const AggregationQuery& q,
                                                  const Plan& plan) {
  struct DimSide {
    int table_index;
    ColumnId fact_join_col;
    ColumnId dim_join_col;
    std::vector<ColumnId> needed;                       // dim logical columns
    std::unordered_map<ColumnId, size_t> needed_pos;    // -> index in needed
    std::unordered_map<Value, Row, ValueHasher> rows;   // join key -> values
  };
  std::vector<DimSide> dims;
  dims.reserve(q.joins.size());
  std::vector<int> dim_of_table(q.tables.size(), -1);

  for (const JoinEdge& e : q.joins) {
    DimSide dim;
    dim.table_index = e.right_table;
    dim.fact_join_col = e.left_column;
    dim.dim_join_col = e.right_column;
    dim_of_table[e.right_table] = static_cast<int>(dims.size());
    dims.push_back(std::move(dim));
  }
  auto need_dim_col = [&](const ColumnRef& ref) {
    if (ref.table_index == 0) return;
    DimSide& dim = dims[dim_of_table[ref.table_index]];
    if (dim.needed_pos.emplace(ref.column, dim.needed.size()).second) {
      dim.needed.push_back(ref.column);
    }
  };
  for (const ColumnRef& ref : q.group_by) need_dim_col(ref);
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount) need_dim_col(agg.column);
  }

  // Build dimension hash tables (predicates on the dimension applied here).
  {
    telemetry::ScopedSpan build_span("join_build");
    for (DimSide& dim : dims) {
      HSDB_ASSIGN_OR_RETURN(LogicalTable * dt,
                            catalog_->Find(q.tables[dim.table_index]));
      const std::span<const PredicateTerm> dim_terms =
          plan.TermsOf(dim.table_index);
      dt->ForEachRow([&](const Row& row) {
        for (const PredicateTerm& term : dim_terms) {
          if (!term.range.Contains(row[term.column.column])) return;
        }
        dim.rows.emplace(row[dim.dim_join_col], ProjectRow(row, dim.needed));
      });
    }
  }

  const std::span<const PredicateTerm> fact_terms = plan.TermsOf(0);

  const bool grouped = !q.group_by.empty();
  std::vector<AggState> totals(q.aggregates.size());
  GroupMap group_map;
  std::vector<const Row*> dim_rows(dims.size());

  // Shared probe logic; `get` materializes a fact column value.
  auto probe_row = [&](auto&& get) {
    for (size_t d = 0; d < dims.size(); ++d) {
      auto it = dims[d].rows.find(get(dims[d].fact_join_col));
      if (it == dims[d].rows.end()) return;  // join miss
      dim_rows[d] = &it->second;
    }
    std::vector<AggState>* states = &totals;
    if (grouped) {
      GroupKey key;
      key.values.reserve(q.group_by.size());
      for (const ColumnRef& ref : q.group_by) {
        if (ref.table_index == 0) {
          key.values.push_back(get(ref.column));
        } else {
          const DimSide& dim = dims[dim_of_table[ref.table_index]];
          key.values.push_back(
              (*dim_rows[dim_of_table[ref.table_index]])[dim.needed_pos.at(
                  ref.column)]);
        }
      }
      states =
          &group_map
               .try_emplace(std::move(key),
                            std::vector<AggState>(q.aggregates.size()))
               .first->second;
    }
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*states)[i].AddCount(1.0);
        continue;
      }
      double v;
      if (agg.column.table_index == 0) {
        v = get(agg.column.column).AsNumeric();
      } else {
        const DimSide& dim = dims[dim_of_table[agg.column.table_index]];
        v = (*dim_rows[dim_of_table[agg.column.table_index]])[dim.needed_pos
                .at(agg.column.column)]
                .AsNumeric();
      }
      (*states)[i].Add(v);
    }
  };

  telemetry::ScopedSpan probe_span("probe");
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    if (const Fragment* cover = plan.groups[g].cover) {
      Bitmap bm = rp::EvaluateOnFragment(*cover, fact_terms);
      bm.ForEachSet([&](size_t rid) {
        probe_row([&](ColumnId col) {
          return cover->table->GetValue(rid, cover->FragColumn(col));
        });
      });
    } else {
      telemetry::ScopedSpan stitch_span("stitch");
      plan.table->ForEachRowInGroup(g, [&](const Row& row) {
        for (const PredicateTerm& term : fact_terms) {
          if (!term.range.Contains(row[term.column.column])) return;
        }
        probe_row([&](ColumnId col) { return row[col]; });
      });
    }
  }

  return rp::FinalizeAggregation(q, grouped, totals, group_map);
}

}  // namespace hsdb
