#include "core/workload_cost.h"

#include <algorithm>

#include "storage/row_table.h"

namespace hsdb {

std::vector<WeightedQuery> ToWeighted(const std::vector<Query>& queries) {
  std::vector<WeightedQuery> out;
  out.reserve(queries.size());
  for (const Query& q : queries) out.push_back(WeightedQuery{q, 1.0});
  return out;
}

namespace {

/// Column sets of the two pieces of a vertical split.
struct VerticalPieces {
  std::vector<bool> in_rs;  // per logical column: stored in the RS piece
  std::vector<bool> in_cs;  // stored in the CS/base piece
};

VerticalPieces SplitColumns(const Schema& schema, const VerticalSpec& spec) {
  VerticalPieces p;
  p.in_rs.assign(schema.num_columns(), false);
  p.in_cs.assign(schema.num_columns(), false);
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    bool is_rs = std::find(spec.row_store_columns.begin(),
                           spec.row_store_columns.end(),
                           c) != spec.row_store_columns.end();
    if (schema.IsPrimaryKeyColumn(c)) {
      p.in_rs[c] = true;
      p.in_cs[c] = true;
    } else if (is_rs) {
      p.in_rs[c] = true;
    } else {
      p.in_cs[c] = true;
    }
  }
  return p;
}

bool Covered(const std::vector<bool>& piece,
             const std::vector<ColumnId>& cols) {
  for (ColumnId c : cols) {
    if (c >= piece.size() || !piece[c]) return false;
  }
  return true;
}

}  // namespace

double EncodedRowFraction(const LayoutContext& ctx, const Schema& schema,
                          ColumnId col) {
  const TableLayout& layout = ctx.layout;
  const double hot = layout.horizontal.has_value()
                         ? std::clamp(ctx.hot_row_fraction, 0.0, 1.0)
                         : 0.0;
  double fraction = 0.0;
  // Cold/base piece: the column is encoded there when the base piece is
  // column-resident and a vertical split does not send it to the row store
  // (the replicated primary key stays encoded in the base piece).
  bool in_base_cs = layout.base_store == StoreType::kColumn;
  if (in_base_cs && layout.vertical.has_value() &&
      !schema.IsPrimaryKeyColumn(col)) {
    const std::vector<ColumnId>& rs = layout.vertical->row_store_columns;
    in_base_cs = std::find(rs.begin(), rs.end(), col) == rs.end();
  }
  if (in_base_cs) fraction += 1.0 - hot;
  // Hot piece: whole rows, so every column is encoded when it is a
  // column-store partition.
  if (layout.horizontal.has_value() &&
      layout.horizontal->hot_store == StoreType::kColumn) {
    fraction += hot;
  }
  return fraction;
}

WorkloadCostEstimator::TableFacts WorkloadCostEstimator::FactsOf(
    const std::string& name) const {
  TableFacts facts;
  facts.table = catalog_->GetTable(name);
  facts.stats = catalog_->GetStatistics(name);
  if (facts.stats != nullptr) {
    facts.rows = static_cast<double>(facts.stats->row_count);
    facts.compression = facts.stats->table_compression_rate;
    if (!facts.stats->columns.empty()) {
      double total = 0.0;
      for (const ColumnStatistics& cs : facts.stats->columns) {
        total += model_->EncodingScanMultiplier(StoreType::kColumn,
                                                cs.encoding);
      }
      facts.encoding_scan =
          total / static_cast<double>(facts.stats->columns.size());
    }
  } else if (facts.table != nullptr) {
    facts.rows = static_cast<double>(facts.table->row_count());
  }
  return facts;
}

double WorkloadCostEstimator::ScanEncodingMultiplier(
    const TableFacts& facts, const LayoutContext& ctx,
    const std::vector<ColumnId>& needed) const {
  // Per-column codecs come from the layout's candidate assignment (the
  // encoding search) first, the statistics' picker choices second. With
  // neither there is nothing finer than the table-wide mean.
  const bool has_stats =
      facts.stats != nullptr && !facts.stats->columns.empty();
  if (ctx.encodings.empty() && !has_stats) return facts.encoding_scan;
  // Only columns resident in a column-store piece have an encoded segment
  // to decode; a vertical split's row-store columns contribute nothing.
  auto encoding_of = [&](ColumnId c) -> std::optional<Encoding> {
    if (facts.table != nullptr &&
        !ColumnInColumnStorePiece(ctx.layout, facts.table->schema(), c)) {
      return std::nullopt;
    }
    if (c < ctx.encodings.size()) return ctx.encodings[c];
    if (has_stats && c < facts.stats->columns.size()) {
      return facts.stats->columns[c].encoding;
    }
    return std::nullopt;
  };
  double total = 0.0;
  size_t count = 0;
  if (!needed.empty()) {
    // Mean over the distinct columns the query touches: the scan decodes
    // exactly these segments.
    std::vector<ColumnId> cols = needed;
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    for (ColumnId c : cols) {
      if (std::optional<Encoding> e = encoding_of(c)) {
        total += model_->EncodingScanMultiplier(StoreType::kColumn, *e);
        ++count;
      }
    }
  }
  if (count == 0) {
    // Column-blind queries (COUNT(*)-style) decode whatever they touch;
    // charge the table-wide mean.
    const size_t n =
        std::max(ctx.encodings.size(),
                 has_stats ? facts.stats->columns.size() : size_t{0});
    for (ColumnId c = 0; c < n; ++c) {
      if (std::optional<Encoding> e = encoding_of(c)) {
        total += model_->EncodingScanMultiplier(StoreType::kColumn, *e);
        ++count;
      }
    }
  }
  return count == 0 ? facts.encoding_scan
                    : total / static_cast<double>(count);
}

double WorkloadCostEstimator::InsertReencodeMultiplier(
    const TableFacts& facts, const LayoutContext& ctx) const {
  // A merge re-encodes every column of the column-store piece — and only
  // those: the non-key columns a vertical split sends to the row store
  // carry no re-encode work.
  auto encoded_in_cs_piece = [&](ColumnId c) {
    if (facts.table == nullptr) return true;
    return ColumnInColumnStorePiece(ctx.layout, facts.table->schema(), c);
  };
  double total = 0.0;
  size_t count = 0;
  if (!ctx.encodings.empty()) {
    for (ColumnId c = 0; c < ctx.encodings.size(); ++c) {
      if (!encoded_in_cs_piece(c)) continue;
      total += model_->EncodingReencodeMultiplier(StoreType::kColumn,
                                                  ctx.encodings[c]);
      ++count;
    }
  } else if (facts.stats != nullptr) {
    for (ColumnId c = 0; c < facts.stats->columns.size(); ++c) {
      if (!encoded_in_cs_piece(c)) continue;
      total += model_->EncodingReencodeMultiplier(
          StoreType::kColumn, facts.stats->columns[c].encoding);
      ++count;
    }
  }
  return count == 0 ? 1.0 : total / static_cast<double>(count);
}

double WorkloadCostEstimator::PredicateSelectivity(
    const TableFacts& facts, std::span<const PredicateTerm> terms) const {
  if (terms.empty()) return 1.0;
  double selectivity = 1.0;
  for (const PredicateTerm& term : terms) {
    if (facts.stats != nullptr &&
        term.column.column < facts.stats->columns.size()) {
      selectivity *=
          facts.stats->EstimateSelectivity(term.column.column, term.range);
    } else {
      selectivity *= term.range.IsPoint() ? 0.001 : 0.1;
    }
  }
  return std::clamp(selectivity, 0.0, 1.0);
}

bool WorkloadCostEstimator::HasRowStoreIndex(
    const TableFacts& facts, std::span<const PredicateTerm> terms) const {
  if (facts.table == nullptr) return false;
  const Schema& schema = facts.table->schema();
  for (const PredicateTerm& term : terms) {
    // Primary-key point access uses the hash index.
    if (schema.primary_key().size() == 1 &&
        term.column.column == schema.primary_key()[0] &&
        term.range.IsPoint()) {
      return true;
    }
    // A sorted secondary index on any predicate column of a row-store piece.
    for (const RowGroup& group : facts.table->groups()) {
      for (const Fragment& frag : group.fragments) {
        if (!frag.Contains(term.column.column)) continue;
        if (const auto* rs = dynamic_cast<const RowTable*>(frag.table.get())) {
          if (rs->HasSortedIndex(frag.FragColumn(term.column.column))) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

double WorkloadCostEstimator::QueryCost(const Query& query,
                                        const LayoutProvider& layout_of)
    const {
  Result<Plan> plan = PlanQuery(*catalog_, query);
  return plan.ok() ? QueryCost(query, *plan, layout_of) : 0.0;
}

double WorkloadCostEstimator::QueryCost(const Query& query, const Plan& plan,
                                        const LayoutProvider& layout_of)
    const {
  switch (plan.kind) {
    case QueryKind::kAggregation:
      return AggregationQueryCost(std::get<AggregationQuery>(query), plan,
                                  layout_of);
    case QueryKind::kSelect:
      return SelectQueryCost(std::get<SelectQuery>(query), plan, layout_of);
    case QueryKind::kInsert:
      return InsertQueryCost(std::get<InsertQuery>(query), layout_of);
    case QueryKind::kUpdate:
      return UpdateQueryCost(std::get<UpdateQuery>(query), plan, layout_of);
    case QueryKind::kDelete:
      return DeleteQueryCost(std::get<DeleteQuery>(query), plan, layout_of);
  }
  return 0.0;
}

double WorkloadCostEstimator::AggregationQueryCost(
    const AggregationQuery& q, const Plan& plan,
    const LayoutProvider& layout_of) const {
  TableFacts fact = FactsOf(q.tables[0]);
  if (fact.table == nullptr) return 0.0;
  const Schema& schema = fact.table->schema();

  std::vector<AggSpec> aggs;
  for (const AggregateExpr& agg : q.aggregates) {
    DataType type = DataType::kInt64;
    if (agg.fn != AggFn::kCount && agg.column.table_index == 0) {
      type = schema.column(agg.column.column).type;
    }
    aggs.push_back(AggSpec{agg.fn, type});
  }
  const bool grouped = !q.group_by.empty();
  const bool filtered = !q.predicate.empty();
  // Fact-side predicate selectivity scales the aggregation/probe work.
  const std::span<const PredicateTerm> fact_terms = plan.TermsOf(0);
  double selectivity = PredicateSelectivity(fact, fact_terms);
  LayoutContext ctx = layout_of(q.tables[0]);

  // Fact-side columns the query touches: they decide which vertical piece
  // serves it and which encoded segments a column-store scan decodes.
  std::vector<ColumnId> needed;
  for (const AggregateExpr& agg : q.aggregates) {
    if (agg.fn != AggFn::kCount && agg.column.table_index == 0) {
      needed.push_back(agg.column.column);
    }
  }
  for (const ColumnRef& ref : q.group_by) {
    if (ref.table_index == 0) needed.push_back(ref.column);
  }
  for (const PredicateTerm& term : fact_terms) {
    needed.push_back(term.column.column);
  }
  const double enc_scan = ScanEncodingMultiplier(fact, ctx, needed);

  // Join queries: cost per store combination of the involved tables.
  if (q.tables.size() > 1) {
    std::vector<CostModel::JoinSide> dims;
    for (size_t t = 1; t < q.tables.size(); ++t) {
      TableFacts dim = FactsOf(q.tables[t]);
      LayoutContext dim_ctx = layout_of(q.tables[t]);
      dims.push_back(CostModel::JoinSide{dim_ctx.layout.base_store, dim.rows,
                                         dim.compression});
    }
    double cost = 0.0;
    double cold_rows = fact.rows;
    if (ctx.layout.horizontal.has_value()) {
      double hot_rows = fact.rows * ctx.hot_row_fraction;
      cold_rows = fact.rows - hot_rows;
      cost += model_->JoinAggregationCost(
          ctx.layout.horizontal->hot_store, aggs, grouped, filtered,
          hot_rows, 1.0, dims, selectivity);
      cost += model_->UnionOverhead();
    }
    cost += model_->JoinAggregationCost(ctx.layout.base_store, aggs, grouped,
                                        filtered, cold_rows,
                                        fact.compression, dims, selectivity,
                                        enc_scan);
    return cost;
  }

  double cost = 0.0;
  double cold_rows = fact.rows;
  if (ctx.layout.horizontal.has_value()) {
    double hot_rows = fact.rows * ctx.hot_row_fraction;
    cold_rows = fact.rows - hot_rows;
    cost += model_->AggregationCost(ctx.layout.horizontal->hot_store, aggs,
                                    grouped, filtered, hot_rows, 1.0,
                                    selectivity);
    cost += model_->UnionOverhead();
  }
  if (ctx.layout.vertical.has_value()) {
    VerticalPieces pieces = SplitColumns(schema, *ctx.layout.vertical);
    if (Covered(pieces.in_cs, needed)) {
      cost += model_->AggregationCost(ctx.layout.base_store, aggs, grouped,
                                      filtered, cold_rows, fact.compression,
                                      selectivity, enc_scan);
    } else if (Covered(pieces.in_rs, needed)) {
      cost += model_->AggregationCost(StoreType::kRow, aggs, grouped,
                                      filtered, cold_rows, 1.0, selectivity);
    } else {
      // Spanning: CS piece scan plus the PK-stitch penalty.
      cost += model_->AggregationCost(ctx.layout.base_store, aggs, grouped,
                                      filtered, cold_rows, fact.compression,
                                      selectivity, enc_scan);
      cost += model_->StitchCost(cold_rows);
    }
  } else {
    cost += model_->AggregationCost(ctx.layout.base_store, aggs, grouped,
                                    filtered, cold_rows, fact.compression,
                                    selectivity, enc_scan);
  }
  return cost;
}

double WorkloadCostEstimator::SelectQueryCost(
    const SelectQuery& q, const Plan& plan,
    const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  const Schema& schema = facts.table->schema();
  const std::span<const PredicateTerm> terms = plan.TermsOf(0);
  double selectivity = PredicateSelectivity(facts, terms);
  bool rs_indexed = HasRowStoreIndex(facts, terms);
  LayoutContext ctx = layout_of(q.table);
  size_t k = q.select_columns.size();

  // Primary-key point lookups take the hash-index fast path in both stores;
  // their cost is reconstruction width, not scanning.
  if (plan.path == AccessPath::kPkPoint) {
    auto point_in = [&](StoreType store) {
      return model_->PointSelectCost(store, k);
    };
    double cold;
    if (ctx.layout.vertical.has_value()) {
      VerticalPieces pieces = SplitColumns(schema, *ctx.layout.vertical);
      std::vector<ColumnId> needed_cols = q.select_columns;
      if (Covered(pieces.in_rs, needed_cols)) {
        cold = point_in(StoreType::kRow);
      } else if (Covered(pieces.in_cs, needed_cols)) {
        cold = point_in(ctx.layout.base_store);
      } else {
        cold = point_in(StoreType::kRow) + point_in(ctx.layout.base_store);
      }
    } else {
      cold = point_in(ctx.layout.base_store);
    }
    if (!ctx.layout.horizontal.has_value()) return cold;
    double h = ctx.hot_access_fraction;
    return h * point_in(ctx.layout.horizontal->hot_store) + (1.0 - h) * cold;
  }

  const std::vector<ColumnId>& needed = plan.needed;
  const double enc_scan = ScanEncodingMultiplier(facts, ctx, needed);

  // Which piece(s) serve the select?
  auto piece_cost = [&](StoreType store, double rows, bool spanning) {
    double c = model_->SelectCost(store, k, selectivity,
                                  store == StoreType::kRow ? rs_indexed
                                                           : true,
                                  rows, enc_scan);
    if (spanning) c += model_->StitchCost(selectivity * rows + 1.0);
    return c;
  };

  auto cold_cost = [&](double rows) {
    if (!ctx.layout.vertical.has_value()) {
      return piece_cost(ctx.layout.base_store, rows, false);
    }
    VerticalPieces pieces = SplitColumns(schema, *ctx.layout.vertical);
    if (Covered(pieces.in_rs, needed)) {
      return piece_cost(StoreType::kRow, rows, false);
    }
    if (Covered(pieces.in_cs, needed)) {
      return piece_cost(ctx.layout.base_store, rows, false);
    }
    return piece_cost(ctx.layout.base_store, rows, true) +
           model_->SelectCost(StoreType::kRow, k, selectivity, rs_indexed,
                              rows);
  };

  if (!ctx.layout.horizontal.has_value()) return cold_cost(facts.rows);
  double hot_rows = facts.rows * ctx.hot_row_fraction;
  double cold_rows = facts.rows - hot_rows;
  // Range scans over the whole table touch both pieces.
  return piece_cost(ctx.layout.horizontal->hot_store, hot_rows, false) +
         cold_cost(cold_rows) + model_->UnionOverhead();
}

double WorkloadCostEstimator::InsertQueryCost(
    const InsertQuery& q, const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  LayoutContext ctx = layout_of(q.table);
  // A column-store piece amortizes delta-merge re-encoding of every column
  // into its insert cost; the multiplier is 1 for row-store pieces.
  const double reencode = InsertReencodeMultiplier(facts, ctx);

  auto cold_cost = [&](double rows) {
    if (!ctx.layout.vertical.has_value()) {
      return model_->InsertCost(ctx.layout.base_store, rows, reencode);
    }
    // Vertical split: the tuple is written into both pieces.
    return model_->InsertCost(StoreType::kRow, rows) +
           model_->InsertCost(ctx.layout.base_store, rows, reencode);
  };

  if (!ctx.layout.horizontal.has_value()) return cold_cost(facts.rows);
  double hot_rows = facts.rows * ctx.hot_row_fraction;
  double h = ctx.hot_insert_fraction;
  return h * model_->InsertCost(ctx.layout.horizontal->hot_store, hot_rows,
                                reencode) +
         (1.0 - h) * cold_cost(facts.rows - hot_rows);
}

double WorkloadCostEstimator::UpdateQueryCost(
    const UpdateQuery& q, const Plan& plan,
    const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  const Schema& schema = facts.table->schema();
  const std::span<const PredicateTerm> terms = plan.TermsOf(0);
  double selectivity = PredicateSelectivity(facts, terms);
  double affected = std::max(1.0, selectivity * facts.rows);
  LayoutContext ctx = layout_of(q.table);

  // Updates that do not hit the primary key point-wise must first locate the
  // affected rows — a select-shaped cost the store pays before writing. This
  // is what makes e.g. "update all lines of one order" expensive on a
  // column-store piece without the hash-index fast path.
  const bool pk_point = plan.path == AccessPath::kPkPoint;
  const bool rs_indexed = HasRowStoreIndex(facts, terms);

  // Predicate columns decide which vertical piece performs the locate (and
  // which encoded segments a column-store locate scans).
  std::vector<ColumnId> pred_cols;
  for (const PredicateTerm& term : terms) {
    pred_cols.push_back(term.column.column);
  }
  const double enc_scan = ScanEncodingMultiplier(facts, ctx, pred_cols);

  auto locate_in = [&](StoreType store, double rows) {
    if (pk_point || rows <= 0.0) return 0.0;
    return model_->SelectCost(
        store, 1, selectivity,
        store == StoreType::kRow ? rs_indexed : true, rows, enc_scan);
  };

  auto cold_cost = [&](double rows) {
    if (!ctx.layout.vertical.has_value()) {
      return locate_in(ctx.layout.base_store, rows) +
             model_->UpdateCost(ctx.layout.base_store, q.set_columns.size(),
                                affected, rows);
    }
    VerticalPieces pieces = SplitColumns(schema, *ctx.layout.vertical);
    StoreType locate_store = Covered(pieces.in_rs, pred_cols)
                                 ? StoreType::kRow
                                 : ctx.layout.base_store;
    size_t rs_cols = 0;
    size_t cs_cols = 0;
    for (ColumnId c : q.set_columns) {
      if (c < pieces.in_rs.size() && pieces.in_rs[c] &&
          !schema.IsPrimaryKeyColumn(c)) {
        ++rs_cols;
      } else {
        ++cs_cols;
      }
    }
    double cost = locate_in(locate_store, rows);
    if (rs_cols > 0) {
      cost += model_->UpdateCost(StoreType::kRow, rs_cols, affected, rows);
    }
    if (cs_cols > 0) {
      cost += model_->UpdateCost(ctx.layout.base_store, cs_cols, affected,
                                 rows);
    }
    return cost;
  };

  if (!ctx.layout.horizontal.has_value()) return cold_cost(facts.rows);
  double hot_rows = facts.rows * ctx.hot_row_fraction;
  double h = ctx.hot_access_fraction;
  StoreType hot_store = ctx.layout.horizontal->hot_store;
  return h * (locate_in(hot_store, hot_rows) +
              model_->UpdateCost(hot_store, q.set_columns.size(), affected,
                                 hot_rows)) +
         (1.0 - h) * cold_cost(facts.rows - hot_rows);
}

double WorkloadCostEstimator::DeleteQueryCost(
    const DeleteQuery& q, const Plan& plan,
    const LayoutProvider& layout_of) const {
  TableFacts facts = FactsOf(q.table);
  if (facts.table == nullptr) return 0.0;
  const std::span<const PredicateTerm> terms = plan.TermsOf(0);
  double selectivity = PredicateSelectivity(facts, terms);
  double affected = std::max(1.0, selectivity * facts.rows);
  LayoutContext ctx = layout_of(q.table);
  StoreType store = ctx.layout.base_store;
  if (ctx.layout.horizontal.has_value() && ctx.hot_access_fraction > 0.5) {
    store = ctx.layout.horizontal->hot_store;
  }
  double locate = 0.0;
  if (plan.path != AccessPath::kPkPoint) {
    locate = model_->SelectCost(
        store, 1, selectivity,
        store == StoreType::kRow ? HasRowStoreIndex(facts, terms) : true,
        facts.rows);
  }
  return locate + model_->DeleteCost(store, affected, facts.rows);
}

double WorkloadCostEstimator::WorkloadCost(
    const std::vector<WeightedQuery>& workload,
    const LayoutProvider& layout_of) const {
  double total = 0.0;
  for (const WeightedQuery& wq : workload) {
    total += wq.weight * QueryCost(wq.query, layout_of);
  }
  return total;
}

double WorkloadCostEstimator::WorkloadCostSingleStore(
    const std::vector<WeightedQuery>& workload, StoreType store) const {
  return WorkloadCost(workload, [store](const std::string&) {
    return LayoutContext::SingleStore(store);
  });
}

double WorkloadCostEstimator::WorkloadCostAssignment(
    const std::vector<WeightedQuery>& workload,
    const std::map<std::string, StoreType>& assignment,
    StoreType fallback) const {
  return WorkloadCost(workload, [&](const std::string& name) {
    auto it = assignment.find(name);
    return LayoutContext::SingleStore(it == assignment.end() ? fallback
                                                             : it->second);
  });
}

LayoutContext CurrentLayoutContext(const LogicalTable& table,
                                   const TableStatistics* stats) {
  LayoutContext ctx;
  ctx.layout = table.layout();
  if (ctx.layout.horizontal.has_value() && stats != nullptr) {
    const ColumnId pk = ctx.layout.horizontal->column;
    if (pk < stats->columns.size() && stats->column(pk).min.has_value() &&
        stats->column(pk).max.has_value()) {
      const double domain =
          std::max(1.0, *stats->column(pk).max - *stats->column(pk).min);
      ctx.hot_row_fraction = std::clamp(
          (*stats->column(pk).max - ctx.layout.horizontal->boundary) /
              domain,
          0.0, 1.0);
      // A boundary above the data domain is the fresh-data partition: the
      // hot piece is (still) empty and point access targets existing cold
      // rows — the same locality PartitionAdvisor attached when it created
      // the split. Populated hot ranges keep the optimistic default (the
      // range was chosen because accesses concentrate there).
      if (ctx.hot_row_fraction == 0.0) ctx.hot_access_fraction = 0.0;
    }
  }
  return ctx;
}

bool EncodingsDiffer(const Schema& schema, const LayoutContext& ctx,
                     const TableStatistics* stats) {
  if (ctx.encodings.size() != schema.num_columns() || stats == nullptr ||
      stats->columns.size() != schema.num_columns()) {
    return false;
  }
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (ColumnInColumnStorePiece(ctx.layout, schema, c) &&
        ctx.encodings[c] != stats->column(c).encoding) {
      return true;
    }
  }
  return false;
}

}  // namespace hsdb
