#include "executor/plan.h"

#include <algorithm>

#include "executor/read_path.h"

namespace hsdb {

namespace rp = readpath;

namespace {

/// Validates every term of `predicate` against its table's schema
/// (`schema_of(table_index)`) and appends it to `out`, intersecting it into
/// an earlier term on the same column when there is one. The result is
/// ordered by table index, first-occurrence order within a table.
template <typename SchemaOf>
Status MergeTerms(const Predicate& predicate, const SchemaOf& schema_of,
                  Predicate* out) {
  out->reserve(predicate.size());
  for (const PredicateTerm& term : predicate) {
    const Schema& schema = schema_of(term.column.table_index);
    if (term.column.column >= schema.num_columns()) {
      return Status::InvalidArgument("predicate column out of range");
    }
    const ValueRange& range = term.range;
    if (!range.lo.has_value() && !range.hi.has_value()) {
      return Status::InvalidArgument("unbounded predicate term");
    }
    const bool is_string =
        schema.column(term.column.column).type == DataType::kVarchar;
    for (const std::optional<Value>* bound : {&range.lo, &range.hi}) {
      if (bound->has_value() &&
          ((*bound)->type() == DataType::kVarchar) != is_string) {
        return Status::InvalidArgument("predicate value type mismatch");
      }
    }
    auto same = std::find_if(out->begin(), out->end(),
                             [&](const PredicateTerm& t) {
                               return t.column == term.column;
                             });
    if (same != out->end()) {
      same->range.IntersectWith(range);
    } else {
      out->push_back(term);
    }
  }
  std::stable_sort(out->begin(), out->end(),
                   [](const PredicateTerm& a, const PredicateTerm& b) {
                     return a.column.table_index < b.column.table_index;
                   });
  return Status::OK();
}

/// Shared tail of the single-table kinds: validates and merges the terms of
/// `predicate` (all on table 0), then takes the point path when what is
/// left is one equality on a single-column primary key.
Status PlanSingleTable(const Predicate& predicate, const char* what,
                       Plan* plan) {
  const Schema& schema = plan->table->schema();
  for (const PredicateTerm& term : predicate) {
    if (term.column.table_index != 0) {
      return Status::InvalidArgument(std::string(what) +
                                     " predicate references other tables");
    }
  }
  HSDB_RETURN_IF_ERROR(MergeTerms(
      predicate, [&](int) -> const Schema& { return schema; },
      &plan->terms));
  if (schema.primary_key().size() == 1 && plan->terms.size() == 1 &&
      plan->terms[0].column.column == schema.primary_key()[0] &&
      plan->terms[0].range.IsPoint()) {
    plan->path = AccessPath::kPkPoint;
  }
  return Status::OK();
}

Status PlanAggregation(const Catalog& catalog, const AggregationQuery& q,
                       Plan* plan) {
  if (q.tables.empty()) {
    return Status::InvalidArgument("aggregation requires a table");
  }
  if (q.aggregates.empty()) {
    return Status::InvalidArgument("aggregation requires an aggregate");
  }
  const int num_tables = static_cast<int>(q.tables.size());
  // One catalog lookup per table; a missing one fails when referenced.
  std::vector<LogicalTable*> tables(q.tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    tables[t] = catalog.GetTable(q.tables[t]);
  }
  auto check_ref = [&](const ColumnRef& ref) -> Status {
    if (ref.table_index < 0 || ref.table_index >= num_tables) {
      return Status::InvalidArgument("column ref table index out of range");
    }
    if (tables[ref.table_index] == nullptr) {
      return Status::NotFound("table " + q.tables[ref.table_index] +
                              " does not exist");
    }
    if (ref.column >= tables[ref.table_index]->schema().num_columns()) {
      return Status::InvalidArgument("column ref out of range");
    }
    return Status::OK();
  };
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount) {
      HSDB_RETURN_IF_ERROR(check_ref(agg.column));
      const LogicalTable* t = tables[agg.column.table_index];
      if (!IsNumeric(t->schema().column(agg.column.column).type)) {
        return Status::InvalidArgument("aggregate over non-numeric column");
      }
    }
  }
  for (const ColumnRef& ref : q.group_by) HSDB_RETURN_IF_ERROR(check_ref(ref));
  for (const PredicateTerm& term : q.predicate) {
    HSDB_RETURN_IF_ERROR(check_ref(term.column));
  }
  if (q.tables.size() == 1) {
    if (!q.joins.empty()) {
      return Status::InvalidArgument("joins require multiple tables");
    }
  } else {
    // Star-join validation: exactly one edge from the fact to each dim.
    if (q.joins.size() != q.tables.size() - 1) {
      return Status::InvalidArgument("star join requires one edge per dim");
    }
    std::vector<bool> joined(q.tables.size(), false);
    for (const JoinEdge& e : q.joins) {
      if (e.left_table != 0) {
        return Status::NotSupported("only star joins on the first table");
      }
      if (e.right_table <= 0 || e.right_table >= num_tables ||
          joined[e.right_table]) {
        return Status::InvalidArgument("invalid join edge");
      }
      joined[e.right_table] = true;
      HSDB_RETURN_IF_ERROR(check_ref({e.left_column, 0}));
      HSDB_RETURN_IF_ERROR(check_ref({e.right_column, e.right_table}));
    }
    plan->path = AccessPath::kStarJoin;
  }
  if (tables[0] == nullptr) {
    return Status::NotFound("table " + q.tables[0] + " does not exist");
  }
  plan->table = tables[0];
  // check_ref resolved every table a term names.
  HSDB_RETURN_IF_ERROR(MergeTerms(
      q.predicate, [&](int t) -> const Schema& { return tables[t]->schema(); },
      &plan->terms));

  // Fact-side columns one fragment must hold: aggregate inputs (COUNT reads
  // none), group keys, predicate columns and, for a join, the join keys.
  std::vector<ColumnId>& needed = plan->needed;
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount && agg.column.table_index == 0) {
      needed.push_back(agg.column.column);
    }
  }
  for (const ColumnRef& ref : q.group_by) {
    if (ref.table_index == 0) needed.push_back(ref.column);
  }
  for (const JoinEdge& e : q.joins) needed.push_back(e.left_column);
  for (const PredicateTerm& term : plan->TermsOf(0)) {
    needed.push_back(term.column.column);
  }
  needed = rp::UniqueColumns(std::move(needed));
  return Status::OK();
}

}  // namespace

std::span<const PredicateTerm> Plan::TermsOf(int table_index) const {
  auto first = std::find_if(terms.begin(), terms.end(),
                            [&](const PredicateTerm& t) {
                              return t.column.table_index == table_index;
                            });
  auto last = std::find_if(first, terms.end(), [&](const PredicateTerm& t) {
    return t.column.table_index != table_index;
  });
  return {first, last};
}

Result<Plan> PlanQuery(const Catalog& catalog, const Query& query) {
  Plan plan;
  plan.kind = KindOf(query);
  switch (plan.kind) {
    case QueryKind::kAggregation:
      HSDB_RETURN_IF_ERROR(
          PlanAggregation(catalog, std::get<AggregationQuery>(query), &plan));
      return plan;
    case QueryKind::kSelect: {
      const auto& q = std::get<SelectQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      for (ColumnId col : q.select_columns) {
        if (col >= plan.table->schema().num_columns()) {
          return Status::InvalidArgument("select column out of range");
        }
      }
      HSDB_RETURN_IF_ERROR(PlanSingleTable(q.predicate, "select", &plan));
      if (plan.path == AccessPath::kScan) {
        plan.needed = q.select_columns;
        for (const PredicateTerm& term : plan.terms) {
          plan.needed.push_back(term.column.column);
        }
        plan.needed = rp::UniqueColumns(std::move(plan.needed));
      }
      return plan;
    }
    case QueryKind::kInsert: {
      plan.path = AccessPath::kInsert;
      HSDB_ASSIGN_OR_RETURN(
          plan.table, catalog.Find(std::get<InsertQuery>(query).table));
      return plan;
    }
    case QueryKind::kUpdate: {
      const auto& q = std::get<UpdateQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      if (q.set_columns.size() != q.set_values.size()) {
        return Status::InvalidArgument("set columns/values arity mismatch");
      }
      plan.path = AccessPath::kDmlLocate;
      HSDB_RETURN_IF_ERROR(PlanSingleTable(q.predicate, "update", &plan));
      return plan;
    }
    case QueryKind::kDelete: {
      const auto& q = std::get<DeleteQuery>(query);
      HSDB_ASSIGN_OR_RETURN(plan.table, catalog.Find(q.table));
      plan.path = AccessPath::kDmlLocate;
      HSDB_RETURN_IF_ERROR(PlanSingleTable(q.predicate, "delete", &plan));
      return plan;
    }
  }
  return Status::Internal("unreachable query kind");
}

void ResolvePaths(const ParallelContext& parallel, Plan* plan) {
  if (plan->path != AccessPath::kScan && plan->path != AccessPath::kStarJoin) {
    return;
  }
  const std::span<const PredicateTerm> terms = plan->TermsOf(0);
  const std::vector<RowGroup>& groups = plan->table->groups();
  plan->groups.reserve(groups.size());
  plan->shareable = plan->path == AccessPath::kScan;
  for (const RowGroup& group : groups) {
    GroupPlan g;
    g.cover = rp::CoveringFragment(group, plan->needed);
    if (g.cover == nullptr) {
      g.path = GroupPath::kStitch;
    } else if (rp::HasIndexSeed(*g.cover, terms)) {
      // The index path is already sub-linear: morselizing or sharing a
      // full scan with it would only cost more.
      g.path = GroupPath::kIndexSeeded;
    } else if (plan->path == AccessPath::kScan && parallel.pool != nullptr &&
               g.cover->table->slot_count() > rp::kMorselRows) {
      g.path = GroupPath::kParallelScan;
    }
    if (g.path == GroupPath::kStitch || g.path == GroupPath::kIndexSeeded) {
      plan->shareable = false;
    }
    plan->groups.push_back(g);
  }
}

}  // namespace hsdb
