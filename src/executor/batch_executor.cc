#include "executor/batch_executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/epoch.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "executor/read_path.h"
#include "storage/scan_dispatch.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

/// One shareable read of a batch group and everything its shared execution
/// accumulates. `covers` and `bitmaps` are indexed by row group.
struct BatchExecutor::SharedRead {
  const Query* query = nullptr;
  const SelectQuery* select = nullptr;
  const AggregationQuery* agg = nullptr;
  double queue_wait_ms = 0.0;
  bool delegate = false;
  bool done = false;
  std::vector<const PredicateTerm*> terms;
  std::vector<ColumnId> needed;
  size_t limit = std::numeric_limits<size_t>::max();
  bool grouped = false;
  std::vector<const Fragment*> covers;
  std::vector<Bitmap> bitmaps;
  QueryResult result;
};

BatchExecutor::BatchExecutor(Database* db) : db_(db) {
  telemetry::MetricsRegistry& metrics = db_->metrics();
  parallel_.pool = db_->scan_pool();
  if (parallel_.pool != nullptr) {
    parallel_.morsels_total = &metrics.GetCounter(
        "hsdb_scan_morsels_total",
        "Morsels dispatched by the parallel scan path.");
    parallel_.queue_depth = &metrics.GetGauge(
        "hsdb_scan_queue_depth",
        "Worker-queue depth sampled at each parallel scan dispatch (pending "
        "tasks plus the dispatched morsels).");
  }
  for (int i = 0; i < kNumQueryKinds; ++i) {
    queries_total_[i] = &metrics.GetCounter(
        "hsdb_queries_total", "Queries executed, by query kind.",
        {{"kind", std::string(QueryKindName(static_cast<QueryKind>(i)))}});
  }
  query_latency_ms_ = &metrics.GetHistogram(
      "hsdb_query_latency_ms", "End-to-end query latency in milliseconds.");
  batch_groups_total_ = &metrics.GetCounter(
      "hsdb_batch_groups_total",
      "Shared-scan groups executed by the batch executor.");
  batch_shared_queries_total_ = &metrics.GetCounter(
      "hsdb_batch_shared_queries_total",
      "Queries answered from a shared scan (excludes delegated queries).");
  slow_queries_total_ = &metrics.GetCounter(
      "hsdb_slow_queries_total",
      "Queries at or above the slow-query-log threshold.");
  batch_width_ = &metrics.GetHistogram(
      "hsdb_batch_width",
      "Queries per executed shared-scan group (the amortization width).");
}

bool BatchExecutor::TelemetryOn() const {
  return telemetry::kCompiledIn && db_->metrics().enabled();
}

const std::string* BatchExecutor::ShareableTable(const Query& query) {
  switch (KindOf(query)) {
    case QueryKind::kSelect:
      return &std::get<SelectQuery>(query).table;
    case QueryKind::kAggregation: {
      const auto& q = std::get<AggregationQuery>(query);
      if (q.tables.size() == 1 && q.joins.empty()) return &q.tables.front();
      return nullptr;
    }
    default:
      return nullptr;
  }
}

std::vector<Result<QueryResult>> BatchExecutor::ExecuteBatch(
    const std::vector<Query>& queries,
    const std::vector<double>* queue_waits_ms) {
  const auto wait_of = [&](size_t index) {
    return queue_waits_ms != nullptr && index < queue_waits_ms->size()
               ? (*queue_waits_ms)[index]
               : 0.0;
  };
  std::vector<Result<QueryResult>> out;
  out.reserve(queries.size());
  size_t i = 0;
  while (i < queries.size()) {
    const std::string* table = ShareableTable(queries[i]);
    if (table == nullptr) {
      telemetry::ScopedQueueWait wait(wait_of(i));
      out.push_back(db_->Execute(queries[i]));
      ++i;
      continue;
    }
    // Collect the maximal run of shareable reads on the same table. A DML
    // statement (or a read of another table) ends the run: reads grouped
    // across it could otherwise miss its effects.
    size_t end = i;
    while (end < queries.size()) {
      const std::string* t = ShareableTable(queries[end]);
      if (t == nullptr || *t != *table) break;
      ++end;
    }
    if (end - i == 1) {
      // A lone read gains nothing from the shared pass; keep the
      // per-statement path (cost prediction and tracing included).
      telemetry::ScopedQueueWait wait(wait_of(i));
      out.push_back(db_->Execute(queries[i]));
      ++i;
      continue;
    }
    std::vector<SharedRead> members(end - i);
    for (size_t j = i; j < end; ++j) {
      SharedRead& m = members[j - i];
      m.query = &queries[j];
      m.queue_wait_ms = wait_of(j);
      if (KindOf(queries[j]) == QueryKind::kSelect) {
        m.select = &std::get<SelectQuery>(queries[j]);
      } else {
        m.agg = &std::get<AggregationQuery>(queries[j]);
      }
    }
    ExecuteSharedGroup(*table, &members);
    for (SharedRead& m : members) {
      if (m.done) {
        NotifyShared(*m.query, m.result);
        out.push_back(std::move(m.result));
      } else {
        // Delegated outside the group's reader lock (see header).
        telemetry::ScopedQueueWait wait(m.queue_wait_ms);
        out.push_back(db_->Execute(*m.query));
      }
    }
    i = end;
  }
  return out;
}

void BatchExecutor::PrepareMember(const LogicalTable& table,
                                  SharedRead* m) const {
  const Schema& schema = table.schema();
  if (m->select != nullptr) {
    const SelectQuery& q = *m->select;
    for (ColumnId col : q.select_columns) {
      if (col >= schema.num_columns()) {
        m->delegate = true;
        return;
      }
    }
    m->terms = rp::TermsForTable(q.predicate, 0);
    if (m->terms.size() != q.predicate.size() ||
        !rp::ValidateTerms(schema, m->terms).ok()) {
      m->delegate = true;
      return;
    }
    // The point fast path is already sub-linear; sharing a full scan with
    // it would be a regression, and the serial path must stay authoritative.
    if (schema.primary_key().size() == 1 &&
        IsPointPredicateOn(q.predicate, schema.primary_key()[0])) {
      m->delegate = true;
      return;
    }
    m->limit = q.limit.value_or(std::numeric_limits<size_t>::max());
    m->needed = rp::NeededColumns(q, m->terms);
  } else {
    const AggregationQuery& q = *m->agg;
    if (q.aggregates.empty()) {
      m->delegate = true;
      return;
    }
    auto bad_ref = [&](const ColumnRef& ref) {
      return ref.table_index != 0 || ref.column >= schema.num_columns();
    };
    for (const AggregateExpr& agg : q.aggregates) {
      if (agg.fn == AggFn::kCount) continue;
      if (bad_ref(agg.column) ||
          !IsNumeric(schema.column(agg.column.column).type)) {
        m->delegate = true;
        return;
      }
    }
    for (const ColumnRef& ref : q.group_by) {
      if (bad_ref(ref)) {
        m->delegate = true;
        return;
      }
    }
    for (const PredicateTerm& term : q.predicate) {
      if (bad_ref(term.column)) {
        m->delegate = true;
        return;
      }
    }
    m->terms = rp::TermsForTable(q.predicate, 0);
    if (!rp::ValidateTerms(schema, m->terms).ok()) {
      m->delegate = true;
      return;
    }
    m->grouped = !q.group_by.empty();
    m->needed = rp::NeededColumns(q, m->terms);
  }

  const auto& groups = table.groups();
  m->covers.assign(groups.size(), nullptr);
  m->bitmaps.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const Fragment* cover = rp::CoveringFragment(groups[g], m->needed);
    if (cover == nullptr) {
      // Vertical split: the PK-stitch path stays per-statement.
      m->delegate = true;
      return;
    }
    if (cover->table->store() == StoreType::kRow) {
      // A sorted-index seed is sub-linear; a shared full scan would cost
      // more than the one-at-a-time path it replaces.
      const auto& rs = static_cast<const RowTable&>(*cover->table);
      for (const PredicateTerm* term : m->terms) {
        if (rs.HasSortedIndex(cover->FragColumn(term->column.column))) {
          m->delegate = true;
          return;
        }
      }
    }
    m->covers[g] = cover;
  }
}

void BatchExecutor::MaterializeMember(const LogicalTable& table,
                                      SharedRead* m) const {
  const size_t num_groups = table.groups().size();
  if (m->select != nullptr) {
    const SelectQuery& q = *m->select;
    for (size_t g = 0; g < num_groups; ++g) {
      if (m->result.rows.size() >= m->limit) break;
      const Fragment& cover = *m->covers[g];
      if (rp::UseParallelScan(parallel_, cover, m->terms)) {
        rp::ParallelSelectCover(parallel_, cover, m->terms, q.select_columns,
                                m->limit, &m->bitmaps[g], &m->result);
      } else {
        rp::SelectFromBitmap(cover, m->bitmaps[g], q.select_columns, m->limit,
                             &m->result);
      }
    }
  } else {
    const AggregationQuery& q = *m->agg;
    std::vector<AggState> totals(q.aggregates.size());
    GroupMap group_map;
    for (size_t g = 0; g < num_groups; ++g) {
      const Fragment& cover = *m->covers[g];
      if (rp::UseParallelScan(parallel_, cover, m->terms)) {
        rp::ParallelAggregateCover(parallel_, cover, m->terms, q, m->grouped,
                                   &m->bitmaps[g], &totals, &group_map);
      } else {
        rp::AggregateFromBitmap(cover, m->bitmaps[g], q, m->grouped, &totals,
                                &group_map);
      }
    }
    m->result = rp::FinalizeAggregation(q, m->grouped, totals, group_map);
  }
  m->done = true;
}

void BatchExecutor::ExecuteSharedGroup(const std::string& table_name,
                                       std::vector<SharedRead>* members) {
  Stopwatch sw;
  size_t shared = 0;
  // The batch worker thread has no tracer installed, so without this the
  // scan_shared span would vanish. One tracer covers the whole group; every
  // shared member gets the same finished tree (the group IS their
  // execution), which is what `explain analyze` renders for batched reads.
  std::optional<telemetry::Tracer> tracer;
  if (TelemetryOn()) tracer.emplace("batch_group");
  {
    // Same discipline as a serial read statement: pin the reclamation epoch,
    // then take the table's reader lock for the whole group.
    EpochPin pin(&db_->catalog().epochs());
    std::shared_ptr<TableSync> sync = db_->catalog().sync(table_name);
    std::shared_lock<std::shared_mutex> rd(sync->rw);
    const LogicalTable* table = db_->catalog().GetTable(table_name);
    if (table == nullptr) return;  // every member delegates to NotFound

    for (SharedRead& m : *members) PrepareMember(*table, &m);

    // Shared predicate pass, per (row group, covering fragment): one
    // MultiFilterRangeSlice per predicate column narrows every member's
    // bitmap in a single decode of the encoded segment. Morsel-parallel
    // when the pool is installed — disjoint 64-aligned slices of all the
    // bitmaps, exactly like the single-query parallel scan.
    telemetry::ScopedSpan scan_span("scan_shared");
    const auto& groups = table->groups();
    for (size_t g = 0; g < groups.size(); ++g) {
      std::map<const Fragment*, std::vector<SharedRead*>> buckets;
      for (SharedRead& m : *members) {
        if (!m.delegate) buckets[m.covers[g]].push_back(&m);
      }
      for (auto& [frag, ms] : buckets) {
        for (SharedRead* m : ms) m->bitmaps[g] = frag->table->live_bitmap();
        std::map<ColumnId, std::vector<RangeScanTarget>> by_col;
        for (SharedRead* m : ms) {
          for (const PredicateTerm* term : m->terms) {
            by_col[frag->FragColumn(term->column.column)].push_back(
                RangeScanTarget{&term->range, &m->bitmaps[g]});
          }
        }
        if (by_col.empty()) continue;  // unfiltered scans: live bitmap is it
        const size_t n = frag->table->slot_count();
        if (parallel_.pool != nullptr && n > rp::kMorselRows) {
          const size_t morsels = rp::MorselCount(n);
          rp::NoteMorsels(parallel_, morsels);
          parallel_.pool->ParallelFor(morsels, [&](size_t mi) {
            const size_t begin = mi * rp::kMorselRows;
            const size_t slice_end = std::min(begin + rp::kMorselRows, n);
            for (auto& [col, targets] : by_col) {
              frag->table->MultiFilterRangeSlice(col, targets.data(),
                                                 targets.size(), begin,
                                                 slice_end);
            }
          });
        } else {
          for (auto& [col, targets] : by_col) {
            frag->table->MultiFilterRangeSlice(col, targets.data(),
                                               targets.size(), 0, n);
          }
        }
      }
    }

    for (SharedRead& m : *members) {
      if (!m.delegate) {
        MaterializeMember(*table, &m);
        ++shared;
      }
    }
  }
  std::shared_ptr<const telemetry::TraceSpan> tree;
  if (tracer.has_value()) {
    tree = std::make_shared<const telemetry::TraceSpan>(tracer->Finish());
  }
  if (shared == 0) return;
  // Amortized cost share: the latency a co-running client of this group
  // actually observed. This is what the workload recorder feeds the
  // batch-aware cost model.
  const double share_ms = sw.ElapsedMs() / static_cast<double>(shared);
  std::string trace_summary;
  if (tree != nullptr) {
    std::ostringstream phases;
    for (size_t c = 0; c < tree->children.size(); ++c) {
      if (c > 0) phases << ' ';
      phases << tree->children[c].name << '=' << tree->children[c].elapsed_ms;
    }
    trace_summary = phases.str();
  }
  telemetry::Slowlog& slowlog = db_->slowlog();
  // Slow-query accounting mirrors Database::ExecuteTraced: telemetry-gated.
  const double slow_threshold =
      tracer.has_value() ? slowlog.threshold_ms() : 0.0;
  for (SharedRead& m : *members) {
    if (!m.done) continue;
    m.result.elapsed_ms = share_ms;
    m.result.trace = tree;
    if (slow_threshold > 0.0 && share_ms >= slow_threshold) {
      slow_queries_total_->Increment();
      if (slowlog.ShouldRecord(share_ms)) {
        telemetry::SlowlogRecord record;
        record.query = QueryToString(*m.query);
        record.kind = std::string(QueryKindName(KindOf(*m.query)));
        record.elapsed_ms = share_ms;
        record.queue_wait_ms = m.queue_wait_ms;
        record.trace_summary = trace_summary;
        record.shared = true;
        slowlog.Record(std::move(record));
      }
    }
  }
  if (TelemetryOn()) {
    batch_groups_total_->Increment();
    batch_shared_queries_total_->Increment(shared);
    batch_width_->Observe(static_cast<double>(shared));
  }
}

void BatchExecutor::NotifyShared(const Query& query,
                                 const QueryResult& result) {
  if (TelemetryOn()) {
    queries_total_[static_cast<int>(KindOf(query))]->Increment();
    query_latency_ms_->Observe(result.elapsed_ms);
  }
  if (QueryObserver* obs = db_->query_observer()) obs->OnQuery(query, result);
}

}  // namespace hsdb
