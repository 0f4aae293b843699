#include "server/explain.h"

#include <cstdio>
#include <sstream>

#include "catalog/catalog.h"
#include "executor/plan.h"
#include "server/protocol.h"
#include "storage/compression/encoding.h"

namespace hsdb {
namespace server {

namespace {

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

std::string GroupPathName(GroupPath path, int threads) {
  switch (path) {
    case GroupPath::kSerialScan:
      return "serial";
    case GroupPath::kParallelScan:
      return "morsel-parallel over " + std::to_string(threads) + " threads";
    case GroupPath::kIndexSeeded:
      return "index-seeded";
    case GroupPath::kStitch:
      return "vertical-split stitch";
  }
  return "unknown";
}

/// One-line characterization of the plan's access path — the analogue of
/// a plan node list for this engine's fixed pipeline. Scans and star joins
/// end in the distinct paths of their row groups.
std::string PathLine(const Plan& plan, const Query& query, int threads) {
  switch (plan.path) {
    case AccessPath::kPkPoint:
      return plan.kind == QueryKind::kSelect
                 ? "path: point-PK lookup (sub-linear fast path)"
                 : "path: point-PK write (writer latch + exclusive lock)";
    case AccessPath::kInsert:
      return "path: insert (writer latch + exclusive lock)";
    case AccessPath::kDmlLocate:
      return "path: locate by scan, write by key (writer latch + exclusive "
             "lock)";
    case AccessPath::kScan:
    case AccessPath::kStarJoin:
      break;
  }
  std::string line;
  if (plan.kind == QueryKind::kSelect) {
    line = "path: filtered scan";
  } else {
    const auto& q = std::get<AggregationQuery>(query);
    line = q.group_by.empty() ? "path: scan + aggregate"
                              : "path: scan + grouped aggregate";
    if (plan.path == AccessPath::kStarJoin) line += " (joined)";
  }
  std::string modes;
  for (const GroupPlan& g : plan.groups) {
    const std::string mode = GroupPathName(g.path, threads);
    if (modes.find(mode) != std::string::npos) continue;
    modes += (modes.empty() ? ", " : " + ") + mode;
  }
  return line + modes;
}

/// The merged predicate terms, one `table.column range` entry each.
std::string TermsLine(const Catalog& catalog, const Plan& plan,
                      const Query& query) {
  if (plan.terms.empty()) return "terms: none";
  const std::vector<std::string> tables = TablesOf(query);
  std::string line = "terms:";
  for (const PredicateTerm& term : plan.terms) {
    const LogicalTable* table =
        catalog.GetTable(tables[term.column.table_index]);
    line += " " + tables[term.column.table_index] + "." +
            table->schema().column(term.column.column).name + " in " +
            term.range.ToString();
  }
  return line;
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
  Result<Plan> plan = PlanQuery(db->catalog(), query);
  if (plan.ok()) {
    ResolvePaths(db->parallel(), &*plan);
    out.push_back(PathLine(*plan, query, db->num_threads()));
    out.push_back(TermsLine(db->catalog(), *plan, query));
  } else {
    out.push_back("path: none (" + plan.status().ToString() + ")");
  }
  out.push_back(plan.ok() && plan->shareable
                    ? "batch_shareable: yes (shared-scan group on " +
                          tables.front() + ")"
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
  // A serial database has no counter and dispatches no morsels.
  const telemetry::Counter* morsels = db->parallel().morsels_total;
  const uint64_t morsels_before = morsels != nullptr ? morsels->value() : 0;
  HSDB_ASSIGN_OR_RETURN(QueryResult result, db->Execute(query));
  const uint64_t morsels_after = morsels != nullptr ? morsels->value() : 0;

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
