#include "server/explain.h"

#include <cstdio>
#include <sstream>

#include "catalog/catalog.h"
#include "executor/batch_executor.h"
#include "executor/read_path.h"
#include "server/protocol.h"
#include "storage/compression/encoding.h"

namespace hsdb {
namespace server {

namespace {

namespace rp = readpath;

std::string FormatMs(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Splits a TraceSpan::ToString rendering into payload lines (the wire
/// framing is one line per payload entry).
void AppendTraceLines(const telemetry::TraceSpan& span, int indent,
                      std::vector<std::string>* out) {
  std::istringstream in(span.ToString(indent));
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out->push_back(line);
  }
}

/// The per-table part both verbs share: layout, rows, per-column codecs.
void AppendTableLines(const Catalog& catalog, const std::string& name,
                      std::vector<std::string>* out) {
  const LogicalTable* table = catalog.GetTable(name);
  if (table == nullptr) {
    out->push_back("table " + name + ": <dropped>");
    return;
  }
  out->push_back("table " + name + ": layout=" + table->layout().ToString() +
                 " rows=" + std::to_string(table->row_count()));
  const TableStatistics* stats = catalog.GetStatistics(name);
  if (stats == nullptr) {
    out->push_back("  statistics: none (not analyzed yet)");
    return;
  }
  const Schema& schema = table->schema();
  for (ColumnId c = 0; c < schema.num_columns(); ++c) {
    if (c >= stats->columns.size()) break;
    const ColumnStatistics& cs = stats->columns[c];
    char buf[64];
    std::snprintf(buf, sizeof(buf), " compression=%.2f", cs.compression_rate);
    out->push_back("  column " + schema.column(c).name + ": codec=" +
                   std::string(EncodingName(cs.encoding)) + buf);
  }
}

/// One-line characterization of the execution path — the analogue of a
/// plan node list for this engine's fixed pipeline. A scan reads
/// "morsel-parallel" exactly when the executors parallelize it:
/// rp::ScansInParallel applies their UseParallelScan decision to the same
/// covering fragments.
std::string PathLine(Database* db, const Catalog& catalog,
                     const Query& query) {
  // Scan mode of a single-table select or aggregation on `table` (nullptr
  // for a star join, which always scans serially).
  auto scan_mode = [db](const LogicalTable* table, const auto& q) {
    ParallelContext parallel;
    parallel.pool = db->scan_pool();
    const auto terms = rp::TermsForTable(q.predicate, 0);
    if (table == nullptr ||
        !rp::ScansInParallel(parallel, *table, rp::NeededColumns(q, terms),
                             terms)) {
      return std::string(", serial");
    }
    return ", morsel-parallel over " + std::to_string(db->num_threads()) +
           " threads";
  };
  const QueryKind kind = KindOf(query);
  if (kind == QueryKind::kSelect) {
    const auto& q = std::get<SelectQuery>(query);
    const LogicalTable* table = catalog.GetTable(q.table);
    if (table != nullptr && table->schema().primary_key().size() == 1 &&
        IsPointPredicateOn(q.predicate, table->schema().primary_key()[0])) {
      return "path: point-PK lookup (sub-linear fast path)";
    }
    return "path: filtered scan" + scan_mode(table, q);
  }
  if (kind == QueryKind::kAggregation) {
    const auto& q = std::get<AggregationQuery>(query);
    std::string path = q.group_by.empty() ? "path: scan + aggregate"
                                          : "path: scan + grouped aggregate";
    if (!q.joins.empty()) path += " (joined)";
    return path + scan_mode(q.tables.size() == 1 ? catalog.GetTable(q.tables[0])
                                                 : nullptr,
                            q);
  }
  return "path: per-statement DML (writer latch + exclusive lock)";
}

void AppendPredictionLines(Database* db, const Query& query,
                           std::vector<std::string>* out) {
  if (!db->has_cost_predictor()) {
    out->push_back(
        "predicted_cost_ms: none (no cost predictor installed; start the "
        "storage advisor to cost queries)");
    return;
  }
  out->push_back("predicted_cost_ms: " + FormatMs(db->PredictCost(query)));
}

}  // namespace

std::vector<std::string> ExplainLines(Database* db, const Query& query) {
  std::vector<std::string> out;
  out.push_back("query: " + QueryToString(query));
  out.push_back("kind: " + std::string(QueryKindName(KindOf(query))));

  const std::vector<std::string> tables = TablesOf(query);
  // Reader locks + epoch pin for a consistent catalog view, the same
  // discipline as the adaptation controller's planning reads.
  CatalogReadLock lock(db->catalog(), tables);
  AppendPredictionLines(db, query, &out);
  out.push_back(PathLine(db, db->catalog(), query));
  const std::string* shareable = BatchExecutor::ShareableTable(query);
  out.push_back(shareable != nullptr
                    ? "batch_shareable: yes (shared-scan group on " +
                          *shareable + ")"
                    : "batch_shareable: no (per-statement path)");
  for (const std::string& name : tables) {
    AppendTableLines(db->catalog(), name, &out);
  }
  return out;
}

Result<std::vector<std::string>> ExplainAnalyzeLines(Database* db,
                                                     const Query& query) {
  std::vector<std::string> out;
  out.push_back("query: " + QueryToString(query));
  out.push_back("kind: " + std::string(QueryKindName(KindOf(query))));

  // Morsel delta around the execution. Approximate under concurrent
  // traffic (the counter is process-wide); exact when the server is quiet.
  telemetry::Counter& morsels = db->metrics().GetCounter(
      "hsdb_scan_morsels_total",
      "Morsels dispatched by the parallel scan path.");
  const uint64_t morsels_before = morsels.value();
  HSDB_ASSIGN_OR_RETURN(QueryResult result, db->Execute(query));
  const uint64_t morsels_after = morsels.value();

  switch (KindOf(query)) {
    case QueryKind::kSelect:
      out.push_back("result: " + std::to_string(result.rows.size()) +
                    " row(s)");
      break;
    case QueryKind::kAggregation:
      if (result.rows.empty()) {
        std::string line =
            "result: " + std::to_string(result.aggregates.size()) +
            " aggregate(s):";
        for (double v : result.aggregates) {
          // The wire rendering: `explain analyze count t` shows exactly
          // the value `count t` returns.
          line += " " + FormatDouble(v);
        }
        out.push_back(line);
      } else {
        out.push_back("result: " + std::to_string(result.rows.size()) +
                      " group(s)");
      }
      break;
    default:
      out.push_back("result: " + std::to_string(result.affected_rows) +
                    " row(s) affected");
  }
  out.push_back("observed_ms: " + FormatMs(result.elapsed_ms));
  if (result.predicted_cost_ms >= 0.0) {
    out.push_back("predicted_cost_ms: " + FormatMs(result.predicted_cost_ms));
    const double delta = result.elapsed_ms - result.predicted_cost_ms;
    std::string line = "predicted_vs_observed: " + FormatMs(delta) + " ms";
    if (result.elapsed_ms > 0.0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " (%+.1f%% of observed)",
                    100.0 * delta / result.elapsed_ms);
      line += buf;
    }
    out.push_back(line);
  } else {
    out.push_back("predicted_cost_ms: none (no cost predictor installed)");
  }
  out.push_back("morsels_dispatched: " +
                std::to_string(morsels_after - morsels_before));
  if (result.trace != nullptr) {
    out.push_back("trace:");
    AppendTraceLines(*result.trace, 1, &out);
  } else {
    out.push_back("trace: none (telemetry disabled)");
  }
  return out;
}

}  // namespace server
}  // namespace hsdb
