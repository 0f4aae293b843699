#include "executor/read_path.h"

#include <algorithm>
#include <unordered_set>

#include "common/thread_pool.h"
#include "storage/scan_dispatch.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hsdb {
namespace readpath {

bool HasIndexSeed(const Fragment& frag, std::span<const PredicateTerm> terms) {
  if (frag.table->store() != StoreType::kRow) return false;
  const auto& rs = static_cast<const RowTable&>(*frag.table);
  for (const PredicateTerm& term : terms) {
    if (rs.HasSortedIndex(frag.FragColumn(term.column.column))) return true;
  }
  return false;
}

Bitmap EvaluateOnFragment(const Fragment& frag,
                          std::span<const PredicateTerm> terms) {
  telemetry::ScopedSpan span("predicate");
  const PhysicalTable& table = *frag.table;
  if (table.store() == StoreType::kRow) {
    const auto& rs = static_cast<const RowTable&>(table);
    for (size_t i = 0; i < terms.size(); ++i) {
      ColumnId fc = frag.FragColumn(terms[i].column.column);
      if (!rs.HasSortedIndex(fc)) continue;
      Result<Bitmap> seeded = rs.IndexFilter(fc, terms[i].range);
      if (!seeded.ok()) continue;
      Bitmap bm = std::move(seeded).value();
      for (size_t j = 0; j < terms.size(); ++j) {
        if (j == i) continue;
        table.FilterRange(frag.FragColumn(terms[j].column.column),
                          terms[j].range, &bm);
      }
      return bm;
    }
  }
  Bitmap bm = table.live_bitmap();
  for (const PredicateTerm& term : terms) {
    table.FilterRange(frag.FragColumn(term.column.column), term.range, &bm);
  }
  return bm;
}

void NoteMorsels(const ParallelContext& ctx, size_t morsels) {
  if (ctx.morsels_total != nullptr) ctx.morsels_total->Increment(morsels);
  if (ctx.queue_depth != nullptr) {
    ctx.queue_depth->Set(
        static_cast<double>(ctx.pool->queue_depth() + morsels));
  }
}

void FilterMorsel(const Fragment& frag, std::span<const PredicateTerm> terms,
                  size_t begin, size_t end, Bitmap* bm) {
  for (const PredicateTerm& term : terms) {
    frag.table->FilterRangeSlice(frag.FragColumn(term.column.column),
                                 term.range, begin, end, bm);
  }
}

namespace {

/// The `select_columns` of fragment row `rid`.
Row ProjectFragmentRow(const Fragment& cover, size_t rid,
                       const std::vector<ColumnId>& select_columns) {
  Row row;
  row.reserve(select_columns.size());
  for (ColumnId col : select_columns) {
    row.push_back(cover.table->GetValue(rid, cover.FragColumn(col)));
  }
  return row;
}

}  // namespace

void SelectFromBitmap(const Fragment& cover, const Bitmap& bm,
                      const std::vector<ColumnId>& select_columns,
                      size_t limit, QueryResult* result) {
  bm.ForEachSet([&](size_t rid) {
    if (result->rows.size() >= limit) return;
    result->rows.push_back(ProjectFragmentRow(cover, rid, select_columns));
  });
}

void ParallelSelectCover(const ParallelContext& ctx, const Fragment& cover,
                         std::span<const PredicateTerm> terms,
                         const std::vector<ColumnId>& select_columns,
                         size_t limit, const Bitmap* prefiltered,
                         QueryResult* result) {
  telemetry::ScopedSpan par_span("scan_parallel");
  const size_t n = cover.table->slot_count();
  Bitmap local;
  const Bitmap* bm = prefiltered;
  if (bm == nullptr) {
    local = cover.table->live_bitmap();
    bm = &local;
  }
  std::vector<std::vector<Row>> batches(MorselCount(n));
  ParallelMorsels(ctx, n, [&](size_t m, size_t begin, size_t end) {
    if (prefiltered == nullptr) FilterMorsel(cover, terms, begin, end, &local);
    std::vector<Row>& rows = batches[m];
    bm->ForEachSetInRange(begin, end, [&](size_t rid) {
      if (rows.size() >= limit) return;  // no morsel needs more than `limit`
      rows.push_back(ProjectFragmentRow(cover, rid, select_columns));
    });
  });
  for (std::vector<Row>& rows : batches) {
    for (Row& row : rows) {
      if (result->rows.size() >= limit) return;
      result->rows.push_back(std::move(row));
    }
  }
}

void AggregateFromBitmap(const Fragment& cover, const Bitmap& bm,
                         const AggregationQuery& q, bool grouped,
                         std::vector<AggState>* totals, GroupMap* group_map) {
  telemetry::ScopedSpan decode_span("decode");
  if (!grouped) {
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      const AggregateExpr& agg = q.aggregates[i];
      if (agg.fn == AggFn::kCount) {
        (*totals)[i].AddCount(static_cast<double>(bm.Count()));
      } else {
        ForEachNumericIn(*cover.table, cover.FragColumn(agg.column.column),
                         &bm, [&](RowId, double v) { (*totals)[i].Add(v); });
      }
    }
    return;
  }
  bm.ForEachSet([&](size_t rid) {
    FoldRow(
        q, grouped,
        [&](ColumnId col) {
          return cover.table->GetValue(rid, cover.FragColumn(col));
        },
        totals, group_map);
  });
}

namespace {

/// Per-morsel partial aggregates, merged by the coordinator in morsel order.
struct MorselAgg {
  std::vector<AggState> totals;
  GroupMap groups;
};

}  // namespace

void ParallelAggregateCover(const ParallelContext& ctx, const Fragment& cover,
                            std::span<const PredicateTerm> terms,
                            const AggregationQuery& q, bool grouped,
                            const Bitmap* prefiltered,
                            std::vector<AggState>* totals,
                            GroupMap* group_map) {
  telemetry::ScopedSpan par_span("scan_parallel");
  const size_t n = cover.table->slot_count();
  Bitmap local;
  const Bitmap* bm = prefiltered;
  if (bm == nullptr) {
    local = cover.table->live_bitmap();
    bm = &local;
  }
  std::vector<MorselAgg> partials(MorselCount(n));
  ParallelMorsels(ctx, n, [&](size_t m, size_t begin, size_t end) {
    if (prefiltered == nullptr) FilterMorsel(cover, terms, begin, end, &local);
    MorselAgg& partial = partials[m];
    if (!grouped) {
      partial.totals.assign(q.aggregates.size(), AggState{});
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        const AggregateExpr& agg = q.aggregates[i];
        if (agg.fn == AggFn::kCount) {
          partial.totals[i].AddCount(
              static_cast<double>(bm->CountInRange(begin, end)));
        } else {
          ForEachNumericInRange(
              *cover.table, cover.FragColumn(agg.column.column), *bm, begin,
              end, [&](RowId, double v) { partial.totals[i].Add(v); });
        }
      }
      return;
    }
    bm->ForEachSetInRange(begin, end, [&](size_t rid) {
      FoldRow(
          q, grouped,
          [&](ColumnId col) {
            return cover.table->GetValue(rid, cover.FragColumn(col));
          },
          &partial.totals, &partial.groups);
    });
  });
  for (MorselAgg& partial : partials) {
    if (!grouped) {
      for (size_t i = 0; i < partial.totals.size(); ++i) {
        (*totals)[i].Merge(partial.totals[i]);
      }
      continue;
    }
    for (auto& [key, states] : partial.groups) {
      auto& dst =
          group_map
              ->try_emplace(key, std::vector<AggState>(q.aggregates.size()))
              .first->second;
      for (size_t i = 0; i < states.size(); ++i) dst[i].Merge(states[i]);
    }
  }
}

QueryResult FinalizeAggregation(const AggregationQuery& q, bool grouped,
                                const std::vector<AggState>& totals,
                                const GroupMap& group_map) {
  QueryResult result;
  if (!grouped) {
    result.aggregates.reserve(q.aggregates.size());
    for (size_t i = 0; i < q.aggregates.size(); ++i) {
      result.aggregates.push_back(totals[i].Finalize(q.aggregates[i].fn));
    }
  } else {
    result.rows.reserve(group_map.size());
    for (const auto& [key, states] : group_map) {
      Row row = key.values;
      for (size_t i = 0; i < q.aggregates.size(); ++i) {
        row.push_back(Value(states[i].Finalize(q.aggregates[i].fn)));
      }
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

const Fragment* CoveringFragment(const RowGroup& group,
                                 const std::vector<ColumnId>& columns) {
  for (const Fragment& frag : group.fragments) {
    if (frag.Covers(columns)) return &frag;
  }
  return nullptr;
}

namespace {

PrimaryKey PkOfFragmentRow(const Fragment& frag, RowId rid) {
  const Schema& fs = frag.table->schema();
  PrimaryKey pk;
  pk.values.reserve(fs.primary_key().size());
  for (ColumnId c : fs.primary_key()) {
    pk.values.push_back(frag.table->GetValue(rid, c));
  }
  return pk;
}

}  // namespace

Result<std::vector<PrimaryKey>> MatchingPksInGroup(
    const RowGroup& group, std::span<const PredicateTerm> terms) {
  std::vector<PrimaryKey> out;
  if (terms.empty()) {
    const Fragment& lead = group.fragments.front();
    lead.table->live_bitmap().ForEachSet(
        [&](size_t rid) { out.push_back(PkOfFragmentRow(lead, rid)); });
    return out;
  }
  std::vector<ColumnId> cols;
  cols.reserve(terms.size());
  for (const PredicateTerm& term : terms) cols.push_back(term.column.column);
  if (const Fragment* cover = CoveringFragment(group, cols)) {
    Bitmap bm = EvaluateOnFragment(*cover, terms);
    bm.ForEachSet(
        [&](size_t rid) { out.push_back(PkOfFragmentRow(*cover, rid)); });
    return out;
  }
  // Spanning path: assign every term to the first fragment holding its
  // column, evaluate per fragment, intersect the key sets.
  Predicate remaining(terms.begin(), terms.end());
  std::vector<std::unordered_set<PrimaryKey, PrimaryKeyHash>> sets;
  for (const Fragment& frag : group.fragments) {
    Predicate mine;
    Predicate rest;
    for (PredicateTerm& term : remaining) {
      if (frag.Contains(term.column.column)) {
        mine.push_back(std::move(term));
      } else {
        rest.push_back(std::move(term));
      }
    }
    remaining = std::move(rest);
    if (mine.empty()) continue;
    Bitmap bm = EvaluateOnFragment(frag, mine);
    std::unordered_set<PrimaryKey, PrimaryKeyHash> keys;
    bm.ForEachSet(
        [&](size_t rid) { keys.insert(PkOfFragmentRow(frag, rid)); });
    sets.push_back(std::move(keys));
  }
  if (!remaining.empty()) {
    return Status::InvalidArgument("predicate column not stored in any "
                                   "fragment");
  }
  // Intersect, starting from the smallest set.
  std::sort(sets.begin(), sets.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (const PrimaryKey& pk : sets.front()) {
    bool in_all = true;
    for (size_t s = 1; s < sets.size(); ++s) {
      if (sets[s].find(pk) == sets[s].end()) {
        in_all = false;
        break;
      }
    }
    if (in_all) out.push_back(pk);
  }
  return out;
}

std::vector<ColumnId> UniqueColumns(std::vector<ColumnId> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

}  // namespace readpath
}  // namespace hsdb
