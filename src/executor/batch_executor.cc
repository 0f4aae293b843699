#include "executor/batch_executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <utility>

#include "common/epoch.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "executor/plan.h"
#include "executor/read_path.h"
#include "storage/scan_dispatch.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace rp = readpath;

/// One scan-path read of a batch group and everything its shared execution
/// accumulates. `bitmaps` is indexed by row group.
struct BatchExecutor::SharedRead {
  const Query* query = nullptr;
  const SelectQuery* select = nullptr;
  const AggregationQuery* agg = nullptr;
  double queue_wait_ms = 0.0;
  bool delegate = false;
  bool done = false;
  Plan plan;
  std::vector<Bitmap> bitmaps;
  QueryResult result;
};

BatchExecutor::BatchExecutor(Database* db) : db_(db) {
  telemetry::MetricsRegistry& metrics = db_->metrics();
  batch_groups_total_ = &metrics.GetCounter(
      "hsdb_batch_groups_total",
      "Shared-scan groups executed by the batch executor.");
  batch_shared_queries_total_ = &metrics.GetCounter(
      "hsdb_batch_shared_queries_total",
      "Queries answered from a shared scan (excludes delegated queries).");
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
  // The table of each query that plans a scan, or nullptr: points, joins,
  // DML and invalid queries never open a shared group.
  std::vector<const std::string*> scan_table(queries.size(), nullptr);
  {
    EpochPin pin(&db_->catalog().epochs());
    for (size_t j = 0; j < queries.size(); ++j) {
      const std::string* table = ShareableTable(queries[j]);
      if (table == nullptr) continue;
      Result<Plan> plan = PlanQuery(db_->catalog(), queries[j]);
      if (plan.ok() && plan->path == AccessPath::kScan) scan_table[j] = table;
    }
  }
  std::vector<Result<QueryResult>> out;
  out.reserve(queries.size());
  size_t i = 0;
  while (i < queries.size()) {
    const std::string* table = scan_table[i];
    if (table == nullptr) {
      telemetry::ScopedQueueWait wait(wait_of(i));
      out.push_back(db_->Execute(queries[i]));
      ++i;
      continue;
    }
    // Collect the maximal run of scan-path reads on the same table. A DML
    // statement (or a read of another table) ends the run: reads grouped
    // across it could otherwise miss its effects.
    size_t end = i;
    while (end < queries.size() && scan_table[end] != nullptr &&
           *scan_table[end] == *table) {
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
        db_->NoteQuery(*m.query, m.result, m.queue_wait_ms, /*shared=*/true);
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

void BatchExecutor::MaterializeMember(SharedRead* m) const {
  const ParallelContext& parallel = db_->parallel();
  const std::span<const PredicateTerm> terms = m->plan.TermsOf(0);
  const std::vector<GroupPlan>& groups = m->plan.groups;
  if (m->select != nullptr) {
    const SelectQuery& q = *m->select;
    const size_t limit = q.limit.value_or(std::numeric_limits<size_t>::max());
    for (size_t g = 0; g < groups.size(); ++g) {
      if (m->result.rows.size() >= limit) break;
      const Fragment& cover = *groups[g].cover;
      if (groups[g].path == GroupPath::kParallelScan) {
        rp::ParallelSelectCover(parallel, cover, terms, q.select_columns,
                                limit, &m->bitmaps[g], &m->result);
      } else {
        rp::SelectFromBitmap(cover, m->bitmaps[g], q.select_columns, limit,
                             &m->result);
      }
    }
  } else {
    const AggregationQuery& q = *m->agg;
    const bool grouped = !q.group_by.empty();
    std::vector<AggState> totals(q.aggregates.size());
    GroupMap group_map;
    for (size_t g = 0; g < groups.size(); ++g) {
      const Fragment& cover = *groups[g].cover;
      if (groups[g].path == GroupPath::kParallelScan) {
        rp::ParallelAggregateCover(parallel, cover, terms, q, grouped,
                                   &m->bitmaps[g], &totals, &group_map);
      } else {
        rp::AggregateFromBitmap(cover, m->bitmaps[g], q, grouped, &totals,
                                &group_map);
      }
    }
    m->result = rp::FinalizeAggregation(q, grouped, totals, group_map);
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

    // Planned again under the lock: the table may have been replaced since
    // the batch was formed.
    for (SharedRead& m : *members) {
      Result<Plan> plan = PlanQuery(db_->catalog(), *m.query);
      if (!plan.ok()) {
        m.delegate = true;
        continue;
      }
      m.plan = std::move(plan).value();
      ResolvePaths(db_->parallel(), &m.plan);
      m.delegate = !m.plan.shareable;
      m.bitmaps.resize(m.plan.groups.size());
    }

    // Shared predicate pass, per (row group, covering fragment): one
    // MultiFilterRangeSlice per predicate column narrows every member's
    // bitmap in a single decode of the encoded segment. Morsel-parallel
    // when the plans say so — disjoint 64-aligned slices of all the
    // bitmaps, exactly like the single-query parallel scan.
    telemetry::ScopedSpan scan_span("scan_shared");
    const auto& groups = table->groups();
    for (size_t g = 0; g < groups.size(); ++g) {
      std::map<const Fragment*, std::vector<SharedRead*>> buckets;
      for (SharedRead& m : *members) {
        if (!m.delegate) buckets[m.plan.groups[g].cover].push_back(&m);
      }
      for (auto& [frag, ms] : buckets) {
        for (SharedRead* m : ms) m->bitmaps[g] = frag->table->live_bitmap();
        std::map<ColumnId, std::vector<RangeScanTarget>> by_col;
        for (SharedRead* m : ms) {
          for (const PredicateTerm& term : m->plan.terms) {
            by_col[frag->FragColumn(term.column.column)].push_back(
                RangeScanTarget{&term.range, &m->bitmaps[g]});
          }
        }
        if (by_col.empty()) continue;  // unfiltered scans: live bitmap is it
        auto filter = [&](size_t, size_t begin, size_t end) {
          for (auto& [col, targets] : by_col) {
            frag->table->MultiFilterRangeSlice(col, targets.data(),
                                               targets.size(), begin, end);
          }
        };
        const size_t n = frag->table->slot_count();
        // Every member of the bucket planned the same path for this group.
        if (ms.front()->plan.groups[g].path == GroupPath::kParallelScan) {
          rp::ParallelMorsels(db_->parallel(), n, filter);
        } else {
          filter(0, 0, n);
        }
      }
    }

    for (SharedRead& m : *members) {
      if (!m.delegate) {
        MaterializeMember(&m);
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
  for (SharedRead& m : *members) {
    if (!m.done) continue;
    m.result.elapsed_ms = share_ms;
    m.result.trace = tree;
  }
  if (TelemetryOn()) {
    batch_groups_total_->Increment();
    batch_shared_queries_total_->Increment(shared);
    batch_width_->Observe(static_cast<double>(shared));
  }
}

}  // namespace hsdb
