#include "executor/database.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "storage/conversion.h"
#include "storage/shadow_rebuild.h"
#include "telemetry/trace.h"

namespace hsdb {

namespace {

/// Resolves Options::num_threads: an explicit value wins, 0 consults the
/// HSDB_THREADS environment variable, anything unusable degrades to serial.
int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HSDB_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 1;
}

bool IsDml(QueryKind kind) {
  return kind == QueryKind::kInsert || kind == QueryKind::kUpdate ||
         kind == QueryKind::kDelete;
}

/// The locks one statement holds for its whole execution (including
/// statement-boundary maintenance and observer notification). Readers take
/// the touched tables' rw locks shared; DML takes writer latch + exclusive
/// rw, in the global order writer_latch -> rw, names sorted (DML is
/// single-table today, the sort future-proofs multi-table writes).
struct StatementLocks {
  std::vector<std::shared_ptr<TableSync>> syncs;
  std::vector<WriterLatchGuard> latches;
  std::vector<std::shared_lock<std::shared_mutex>> shared;
  std::vector<std::unique_lock<std::shared_mutex>> exclusive;

  void Acquire(Catalog& catalog, const Query& query, bool dml) {
    std::vector<std::string> tables = TablesOf(query);
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
    syncs.reserve(tables.size());
    for (const std::string& name : tables) {
      syncs.push_back(catalog.sync(name));
    }
    if (dml) {
      for (auto& sync : syncs) {
        latches.emplace_back(sync.get());
        exclusive.emplace_back(sync->rw);
      }
    } else {
      for (auto& sync : syncs) {
        shared.emplace_back(sync->rw);
      }
    }
  }
};

}  // namespace

Database::Database(Options options)
    : executor_(&catalog_),
      num_threads_(ResolveNumThreads(options.num_threads)),
      migration_chunk_rows_(
          options.migration_chunk_rows > 0 ? options.migration_chunk_rows
                                           : 16384),
      migration_replay_rounds_(std::max(0, options.migration_replay_rounds)),
      metrics_(options.metrics != nullptr
                   ? options.metrics
                   : &telemetry::MetricsRegistry::Global()),
      slowlog_(telemetry::Slowlog::Options{options.slowlog_threshold_ms,
                                           options.slowlog_capacity,
                                           options.slowlog_sample_every}) {
  // Before any table exists, so every TableSync is born instrumented.
  catalog_.set_metrics(metrics_);
  if (num_threads_ > 1) {
    // d-way parallelism = the query thread + d-1 pool workers.
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads_) - 1);
    parallel_.pool = pool_.get();
    parallel_.morsels_total = &metrics_->GetCounter(
        "hsdb_scan_morsels_total",
        "Morsels dispatched by the parallel scan path.");
    parallel_.queue_depth = &metrics_->GetGauge(
        "hsdb_scan_queue_depth",
        "Worker-queue depth sampled at each parallel scan dispatch (pending "
        "tasks plus the dispatched morsels).");
    executor_.set_parallel(parallel_);
  }
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::string kind(QueryKindName(static_cast<QueryKind>(i)));
    queries_total_[i] = &metrics_->GetCounter(
        "hsdb_queries_total", "Queries executed, by query kind.",
        {{"kind", kind}});
    query_errors_total_[i] = &metrics_->GetCounter(
        "hsdb_query_errors_total", "Queries that failed, by query kind.",
        {{"kind", kind}});
  }
  slow_queries_total_ = &metrics_->GetCounter(
      "hsdb_slow_queries_total",
      "Queries at or above the slow-query-log threshold.");
  rematerializations_total_ = &metrics_->GetCounter(
      "hsdb_rematerializations_total",
      "Physical table reorganizations (layout/encoding rebuilds).");
  migration_replay_rows_total_ = &metrics_->GetCounter(
      "hsdb_migration_replay_rows_total",
      "Write ops replayed onto shadow copies during non-blocking "
      "migrations (background rounds + cut-over tails).");
  query_latency_ms_ = &metrics_->GetHistogram(
      "hsdb_query_latency_ms", "End-to-end query latency in milliseconds.");
  cost_abs_rel_error_ = &metrics_->GetHistogram(
      "hsdb_cost_abs_rel_error",
      "Absolute relative error |observed-predicted|/observed of the cost "
      "model, per query.",
      {}, /*min_bound=*/1e-4);
  migration_swap_ms_ = &metrics_->GetHistogram(
      "hsdb_migration_swap_ms",
      "Writer-latch hold time of a migration cut-over (tail replay + "
      "pointer swap), per MigrateShadow call.",
      {}, /*min_bound=*/1e-4);
  cost_predicted_total_ms_ = &metrics_->GetGauge(
      "hsdb_cost_predicted_total_ms",
      "Sum of predicted query costs (ms) over all costed queries.");
  cost_observed_total_ms_ = &metrics_->GetGauge(
      "hsdb_cost_observed_total_ms",
      "Sum of observed query times (ms) over all costed queries.");
  epoch_pinned_readers_ = &metrics_->GetGauge(
      "hsdb_epoch_pinned_readers",
      "In-flight statements holding an epoch pin, sampled at each "
      "migration cut-over (readers the retired version must outlive).");
}

Database::~Database() = default;

Result<QueryResult> Database::Execute(const Query& query) {
  // Pin the reclamation epoch for the whole statement — every catalog
  // pointer this statement resolves (cost prediction included) stays alive
  // past any concurrent swap — then take the touched tables' locks.
  EpochPin pin(&catalog_.epochs());
  const QueryKind kind = KindOf(query);
  StatementLocks locks;
  locks.Acquire(catalog_, query, IsDml(kind));

  if (TelemetryOn()) return ExecuteTraced(query);
  // Fast path: no tracer installed, no metric updates — behaviorally
  // identical to the pre-telemetry executor (plus the error hook).
  Stopwatch sw;
  Result<QueryResult> executed = executor_.Execute(query);
  if (!executed.ok()) {
    if (QueryObserver* obs = observer()) {
      obs->OnQueryError(query, executed.status());
    }
    return executed.status();
  }
  QueryResult result = std::move(executed).value();
  AfterStatementMaintenance(query);
  result.elapsed_ms = sw.ElapsedMs();
  if (QueryObserver* obs = observer()) obs->OnQuery(query, result);
  return result;
}

Result<QueryResult> Database::ExecuteTraced(const Query& query) {
  const QueryKind kind = KindOf(query);
  // Predict before executing: the prediction must see the pre-statement
  // catalog state (an INSERT changes delta sizes the estimator reads).
  double predicted_ms = -1.0;
  if (cost_predictor_) predicted_ms = cost_predictor_(query);

  telemetry::Tracer tracer("query");
  Stopwatch sw;
  Result<QueryResult> executed = [&] {
    telemetry::ScopedSpan span("execute");
    return executor_.Execute(query);
  }();
  if (!executed.ok()) {
    query_errors_total_[static_cast<int>(kind)]->Increment();
    if (QueryObserver* obs = observer()) {
      obs->OnQueryError(query, executed.status());
    }
    return executed.status();
  }
  QueryResult result = std::move(executed).value();
  {
    telemetry::ScopedSpan span("delta_merge");
    AfterStatementMaintenance(query);
  }
  result.elapsed_ms = sw.ElapsedMs();
  result.trace = std::make_shared<const telemetry::TraceSpan>(tracer.Finish());

  if (predicted_ms >= 0.0) {
    result.predicted_cost_ms = predicted_ms;
    const std::vector<std::string> tables = TablesOf(query);
    cost_feedback_.Record(tables.empty() ? std::string() : tables.front(),
                          predicted_ms, result.elapsed_ms);
    if (result.elapsed_ms > 0.0) {
      cost_abs_rel_error_->Observe(
          std::abs(result.elapsed_ms - predicted_ms) / result.elapsed_ms);
      cost_predicted_total_ms_->Add(predicted_ms);
      cost_observed_total_ms_->Add(result.elapsed_ms);
    }
  }
  NoteQuery(query, result, telemetry::CurrentQueueWaitMs(), /*shared=*/false);
  return result;
}

void Database::NoteQuery(const Query& query, const QueryResult& result,
                         double queue_wait_ms, bool shared) {
  if (TelemetryOn()) {
    const QueryKind kind = KindOf(query);
    queries_total_[static_cast<int>(kind)]->Increment();
    query_latency_ms_->Observe(result.elapsed_ms);
    const double slow_threshold = slowlog_.threshold_ms();
    if (slow_threshold > 0.0 && result.elapsed_ms >= slow_threshold) {
      slow_queries_total_->Increment();
      if (slowlog_.ShouldRecord(result.elapsed_ms)) {
        // Only now pay for rendering the query and trace summary.
        telemetry::SlowlogRecord record;
        record.query = QueryToString(query);
        record.kind = std::string(QueryKindName(kind));
        record.elapsed_ms = result.elapsed_ms;
        record.queue_wait_ms = queue_wait_ms;
        record.predicted_cost_ms = result.predicted_cost_ms;
        if (result.trace != nullptr) {
          std::ostringstream phases;
          for (size_t i = 0; i < result.trace->children.size(); ++i) {
            if (i > 0) phases << ' ';
            phases << result.trace->children[i].name << '='
                   << result.trace->children[i].elapsed_ms;
          }
          record.trace_summary = phases.str();
        }
        record.shared = shared;
        slowlog_.Record(std::move(record));
      }
    }
  }
  if (QueryObserver* obs = observer()) obs->OnQuery(query, result);
}

void Database::AfterStatementMaintenance(const Query& query) {
  // Statement-boundary maintenance on the tables the query touched. DML
  // only: reads never grow a delta, and the caller holds the exclusive
  // table lock only for DML — a merge moves row ids, which must never
  // happen under concurrent readers.
  if (!IsDml(KindOf(query))) return;
  for (const std::string& name : TablesOf(query)) {
    if (LogicalTable* table = catalog_.GetTable(name)) {
      table->AfterStatement();
    }
  }
}

TelemetryReport Database::TelemetrySnapshot() const {
  TelemetryReport report;
  report.enabled = TelemetryOn();
  report.layout_epochs = layout_epoch();
  if (!report.enabled) return report;
  for (int i = 0; i < kNumQueryKinds; ++i) {
    report.queries += queries_total_[i]->value();
    report.errors += query_errors_total_[i]->value();
  }
  report.p50_latency_ms = query_latency_ms_->Quantile(0.5);
  report.p95_latency_ms = query_latency_ms_->Quantile(0.95);
  report.p99_latency_ms = query_latency_ms_->Quantile(0.99);
  report.cost = cost_feedback_.snapshot();
  return report;
}

std::string TelemetryReport::ToString() const {
  std::ostringstream os;
  if (!enabled) {
    os << "telemetry disabled (" << layout_epochs << " layout epoch(s))\n";
    return os.str();
  }
  os << "queries " << queries << " (errors " << errors << "), latency p50 "
     << p50_latency_ms << " ms p95 " << p95_latency_ms << " ms p99 "
     << p99_latency_ms << " ms, layout epochs " << layout_epochs << "\n"
     << cost.ToString();
  return os.str();
}

Status Database::MoveTable(const std::string& name, StoreType store) {
  return ApplyLayout(name, TableLayout::SingleStore(store));
}

Database::LayoutChange Database::ResolveLayoutChange(
    const LogicalTable& table, const TableLayout& layout,
    const std::vector<Encoding>& encodings) {
  LayoutChange change;
  change.options = table.physical_options();
  if (!encodings.empty()) {
    change.options.column.column_encodings.assign(encodings.begin(),
                                                  encodings.end());
  }
  // A layout without a column-store piece has no encoded segments: drop any
  // codec pins instead of carrying them along, so a later move back to the
  // column store re-enters the adaptive picker rather than resurrecting
  // codecs that were solved for an old layout or budget.
  if (!HasColumnStorePiece(layout)) {
    change.options.column.column_encodings.clear();
  }
  // No-op only when both the layout and the pinned codecs already match;
  // an encoding-only change still rematerializes (the re-encode happens at
  // the bulk-load merge).
  change.noop =
      table.layout() == layout &&
      change.options.column.column_encodings ==
          table.physical_options().column.column_encodings;
  return change;
}

Status Database::ApplyLayout(const std::string& name,
                             const TableLayout& layout,
                             const std::vector<Encoding>& encodings) {
  EpochPin pin(&catalog_.epochs());
  std::shared_ptr<TableSync> sync = catalog_.sync(name);
  // Writers are excluded for the whole rebuild (readers never: they finish
  // against the retired version). The resolve happens under the latch so
  // no writer sneaks a row in between the copy and the swap.
  WriterLatchGuard latch(sync.get());
  HSDB_ASSIGN_OR_RETURN(LogicalTable * table, catalog_.Find(name));
  const LayoutChange change = ResolveLayoutChange(*table, layout, encodings);
  if (change.noop) return Status::OK();
  HSDB_ASSIGN_OR_RETURN(std::unique_ptr<LogicalTable> rebuilt,
                        Rematerialize(*table, layout, change.options));
  HSDB_RETURN_IF_ERROR(catalog_.ReplaceTable(name, std::move(rebuilt)));
  layout_epoch_.fetch_add(1, std::memory_order_acq_rel);
  catalog_.epochs().Advance();
  if (TelemetryOn()) rematerializations_total_->Increment();
  return catalog_.UpdateStatistics(name);
}

Result<ShadowMigrationStats> Database::MigrateShadow(
    const std::string& name, const TableLayout& layout,
    const std::vector<Encoding>& encodings) {
  ShadowMigrationStats stats;
  EpochPin pin(&catalog_.epochs());
  HSDB_ASSIGN_OR_RETURN(LogicalTable * table, catalog_.Find(name));
  if (table->schema().primary_key().empty()) {
    // Replay identifies rows by primary key; without one the delta cannot
    // be applied onto the shadow. Degrade to the writer-blocking rebuild.
    pin.Release();
    HSDB_RETURN_IF_ERROR(ApplyLayout(name, layout, encodings));
    stats.rematerialized = true;
    stats.fallback_blocking = true;
    return stats;
  }
  const LayoutChange change = ResolveLayoutChange(*table, layout, encodings);
  if (change.noop) return stats;

  std::shared_ptr<TableSync> sync = catalog_.sync(name);
  TableOpLog log;
  {
    // Attach under the writer latch: every statement is entirely before
    // (its rows are seen by the chunked copy) or entirely after (its ops
    // land in the log) this point. Attaching also suppresses delta merges,
    // keeping the copy's row-id cursor sound.
    WriterLatchGuard latch(sync.get());
    HSDB_ASSIGN_OR_RETURN(table, catalog_.Find(name));
    table->AttachOpLog(&log);
  }
  // From here on every early return must detach the log again.
  auto detach = [&] {
    WriterLatchGuard latch(sync.get());
    table->DetachOpLog();
  };

  Stopwatch build_sw;
  Result<std::unique_ptr<LogicalTable>> shadow_or = [&] {
    telemetry::ScopedSpan span("migration_build");
    Result<std::unique_ptr<LogicalTable>> made =
        MakeEmptyLike(*table, layout, change.options);
    if (!made.ok()) return made;
    std::unique_ptr<LogicalTable> shadow = std::move(made).value();

    // Phase 1 — chunked copy: each chunk holds the reader lock just long
    // enough to collect migration_chunk_rows slots; inserts into the
    // private shadow happen outside it. The scan bound is frozen per group
    // at the first chunk: rows appended later are covered by the op log,
    // and row ids are stable because merges are suppressed.
    std::vector<Row> buffer;
    for (size_t g = 0; g < table->groups().size(); ++g) {
      size_t cursor = 0;
      size_t bound = 0;
      bool first = true;
      while (true) {
        buffer.clear();
        {
          std::shared_lock<std::shared_mutex> rd(sync->rw);
          if (first) {
            bound = table->GroupSlotCount(g);
            first = false;
          }
          const size_t hi = std::min(cursor + migration_chunk_rows_, bound);
          if (cursor >= hi) break;
          CollectGroupRows(*table, g, cursor, hi, &buffer);
          cursor = hi;
        }
        for (Row& row : buffer) {
          Status inserted = shadow->Insert(std::move(row));
          if (!inserted.ok()) {
            return Result<std::unique_ptr<LogicalTable>>(inserted);
          }
          ++stats.rows_copied;
        }
      }
    }
    shadow->ForceMerge();

    // Phase 2 — catch-up replay: drain the writes that raced the copy,
    // outside any latch, until the log runs dry or the round budget is
    // spent. Whatever remains is the cut-over tail.
    for (int round = 0; round < migration_replay_rounds_; ++round) {
      std::vector<TableOp> ops = log.Drain();
      if (ops.empty()) break;
      Status replayed = ReplayOps(shadow.get(), ops, &stats.replayed_ops);
      if (!replayed.ok()) {
        return Result<std::unique_ptr<LogicalTable>>(replayed);
      }
    }
    return Result<std::unique_ptr<LogicalTable>>(std::move(shadow));
  }();
  if (!shadow_or.ok()) {
    detach();
    return shadow_or.status();
  }
  std::unique_ptr<LogicalTable> shadow = std::move(shadow_or).value();
  stats.build_ms = build_sw.ElapsedMs();

  // Phase 3 — cut-over: the only writer-visible window. Under the writer
  // latch (readers keep scanning): replay the tail, detach the log, swap
  // the catalog pointer. The old version is retired, not destroyed — any
  // reader that resolved it under an earlier pin finishes undisturbed.
  Stopwatch cutover_sw;
  {
    telemetry::ScopedSpan span("migration_swap");
    WriterLatchGuard latch(sync.get());
    std::vector<TableOp> tail = log.Drain();
    stats.tail_ops = tail.size();
    Status replayed = ReplayOps(shadow.get(), tail, &stats.replayed_ops);
    table->DetachOpLog();
    if (!replayed.ok()) return replayed;
    HSDB_RETURN_IF_ERROR(catalog_.ReplaceTable(name, std::move(shadow)));
    layout_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  stats.cutover_ms = cutover_sw.ElapsedMs();
  stats.rematerialized = true;
  catalog_.epochs().Advance();

  if (TelemetryOn()) {
    rematerializations_total_->Increment();
    migration_swap_ms_->Observe(stats.cutover_ms);
    migration_replay_rows_total_->Increment(stats.replayed_ops);
    epoch_pinned_readers_->Set(
        static_cast<double>(catalog_.epochs().pinned_readers()));
  }
  // Fresh statistics for the new version (under the reader lock, inside
  // UpdateStatistics — writers wait, readers don't).
  HSDB_RETURN_IF_ERROR(catalog_.UpdateStatistics(name));
  return stats;
}

}  // namespace hsdb
