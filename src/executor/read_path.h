// Shared read-scan machinery: the morsel planner, predicate evaluation and
// result materialization used by both the per-statement Executor and the
// shared-scan BatchExecutor. Everything here is free-standing and
// stateless — callers pass the fragment, the plan's merged predicate terms
// and (for the parallel paths) the ParallelContext. Which of these paths a
// row group takes is the plan's decision (executor/plan.h), not theirs.
//
// The materialization entry points take an optional `prefiltered` bitmap:
// the batch executor computes one selection bitmap per query in a shared
// predicate pass (MultiFilterRangeSlice — one decode of the encoded segment
// fans out to every query) and then materializes each query through the
// exact same code the serial executor uses. Passing the prefiltered bitmap
// through — instead of re-deriving it — keeps batch results bit-identical
// to one-at-a-time execution for every thread count: the morsel structure,
// partial-merge order and row order are the same in both modes.
#ifndef HSDB_EXECUTOR_READ_PATH_H_
#define HSDB_EXECUTOR_READ_PATH_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/bitmap.h"
#include "common/thread_pool.h"
#include "executor/aggregate.h"
#include "executor/plan.h"
#include "executor/query.h"
#include "executor/result.h"
#include "storage/logical_table.h"

namespace hsdb {
namespace readpath {

/// Rows per morsel of the parallel scan path. A multiple of 64 so that
/// morsel boundaries fall on bitmap word boundaries: each worker then writes
/// a disjoint word range of the shared selection bitmap, and results are
/// bit-identical for every thread count. Fixed (not derived from the thread
/// count) so that per-morsel work — and therefore merged output — is
/// independent of the degree of parallelism.
constexpr size_t kMorselRows = 16384;
static_assert(kMorselRows % 64 == 0, "morsels must be bitmap-word aligned");

inline size_t MorselCount(size_t n) {
  return (n + kMorselRows - 1) / kMorselRows;
}

/// Whether a row-store sorted index on some term's column of `frag` seeds
/// EvaluateOnFragment's bitmap.
bool HasIndexSeed(const Fragment& frag, std::span<const PredicateTerm> terms);

/// Evaluates a conjunction of terms on one fragment. All term columns must
/// be contained in the fragment. Uses a row-store sorted index to seed the
/// bitmap when one is available for a term's column.
Bitmap EvaluateOnFragment(const Fragment& frag,
                          std::span<const PredicateTerm> terms);

/// Telemetry for one parallel dispatch: total morsels produced and the
/// worker-queue depth at dispatch time (pending tasks already queued plus
/// this scan's morsels).
void NoteMorsels(const ParallelContext& ctx, size_t morsels);

/// Dispatches the morsels of an `n`-slot fragment on the pool and records
/// them (NoteMorsels): `fn(m, begin, end)` runs once per morsel m, over
/// slots [begin, end).
template <typename Fn>
void ParallelMorsels(const ParallelContext& ctx, size_t n, const Fn& fn) {
  const size_t morsels = MorselCount(n);
  NoteMorsels(ctx, morsels);
  ctx.pool->ParallelFor(morsels, [&](size_t m) {
    const size_t begin = m * kMorselRows;
    fn(m, begin, std::min(begin + kMorselRows, n));
  });
}

/// Narrows morsel [begin, end) of the shared bitmap by every term. Each
/// morsel touches only its own bitmap words (begin is 64-aligned), so
/// concurrent calls for disjoint morsels are safe.
void FilterMorsel(const Fragment& frag, std::span<const PredicateTerm> terms,
                  size_t begin, size_t end, Bitmap* bm);

/// Materializes select rows from an already-evaluated selection bitmap in
/// ascending row-id order, up to `limit` (the serial SELECT tail).
void SelectFromBitmap(const Fragment& cover, const Bitmap& bm,
                      const std::vector<ColumnId>& select_columns,
                      size_t limit, QueryResult* result);

/// Morsel-parallel SELECT over a covering fragment: workers filter and
/// materialize per-morsel row batches; the coordinator concatenates them in
/// morsel order, which makes the output bit-identical to the serial path
/// for every thread count. When `prefiltered` is non-null the per-morsel
/// filter step is skipped and rows come from that bitmap instead (the batch
/// executor's shared predicate pass already narrowed it).
void ParallelSelectCover(const ParallelContext& ctx, const Fragment& cover,
                         std::span<const PredicateTerm> terms,
                         const std::vector<ColumnId>& select_columns,
                         size_t limit, const Bitmap* prefiltered,
                         QueryResult* result);

/// Folds one selected row into the aggregation state: `totals` when
/// ungrouped, else the row's group in `group_map`. `get(column)` reads one
/// logical column of the row.
template <typename Get>
void FoldRow(const AggregationQuery& q, bool grouped, const Get& get,
             std::vector<AggState>* totals, GroupMap* group_map) {
  std::vector<AggState>* states = totals;
  if (grouped) {
    GroupKey key;
    key.values.reserve(q.group_by.size());
    for (const ColumnRef& ref : q.group_by) {
      key.values.push_back(get(ref.column));
    }
    states = &group_map
                  ->try_emplace(std::move(key),
                                std::vector<AggState>(q.aggregates.size()))
                  .first->second;
  }
  for (size_t i = 0; i < q.aggregates.size(); ++i) {
    const AggregateExpr& agg = q.aggregates[i];
    if (agg.fn == AggFn::kCount) {
      (*states)[i].AddCount(1.0);
    } else {
      (*states)[i].Add(get(agg.column.column).AsNumeric());
    }
  }
}

/// Sequential aggregation fold over an already-evaluated selection bitmap
/// (the serial single-table aggregation tail).
void AggregateFromBitmap(const Fragment& cover, const Bitmap& bm,
                         const AggregationQuery& q, bool grouped,
                         std::vector<AggState>* totals, GroupMap* group_map);

/// Morsel-parallel aggregation over a covering fragment. Ungrouped: each
/// worker folds its morsel into a private AggState vector. Grouped: each
/// worker builds a private GroupMap. The coordinator merges partials in
/// morsel order, so results are deterministic for every thread count
/// (floating-point sums still differ from the serial evaluation order when
/// values are not exactly representable). `prefiltered` as in
/// ParallelSelectCover.
void ParallelAggregateCover(const ParallelContext& ctx, const Fragment& cover,
                            std::span<const PredicateTerm> terms,
                            const AggregationQuery& q, bool grouped,
                            const Bitmap* prefiltered,
                            std::vector<AggState>* totals,
                            GroupMap* group_map);

/// Folds accumulated aggregation state into the result shape: one value per
/// aggregate (ungrouped) or one row per group (grouped).
QueryResult FinalizeAggregation(const AggregationQuery& q, bool grouped,
                                const std::vector<AggState>& totals,
                                const GroupMap& group_map);

/// First fragment of the group containing every column, or nullptr.
const Fragment* CoveringFragment(const RowGroup& group,
                                 const std::vector<ColumnId>& columns);

/// Primary keys of the group's rows matching the predicate. Handles the
/// vertical-split case where no single fragment covers all predicate
/// columns by intersecting per-fragment key sets (the cost of queries that
/// span vertical partitions).
Result<std::vector<PrimaryKey>> MatchingPksInGroup(
    const RowGroup& group, std::span<const PredicateTerm> terms);

/// Sorted, deduplicated column list.
std::vector<ColumnId> UniqueColumns(std::vector<ColumnId> cols);

}  // namespace readpath
}  // namespace hsdb

#endif  // HSDB_EXECUTOR_READ_PATH_H_
