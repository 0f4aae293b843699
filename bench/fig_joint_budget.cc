// Budget sweep for the joint layout+encoding search: estimated workload
// cost of the advisor's recommendation as a function of the shared memory
// budget, against the staged layout-then-encoding pipeline the joint
// search prices internally (Recommendation::sequential_cost_ms).
// Expected shape: the two curves coincide while the budget is slack; once
// it binds, the staged pipeline can only downgrade codecs (and goes
// infeasible below its fixed layouts' footprint floor) while the joint
// search starts flipping low-value tables to the row store — so the joint
// curve is never above the sequential curve at any feasible point, and
// stays feasible all the way down to a zero budget.
//
// --json PATH additionally writes the advisor's joint-search wall-clock
// timings (fixed seeds, median of 3 runs) in google-benchmark JSON format,
// so CI's perf-regression gate (bench/check_regression.py) can track the
// cost of the search itself alongside the micro benches.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/advisor.h"
#include "executor/database.h"

namespace hsdb {
namespace {

struct Timing {
  std::string name;
  double ms = 0.0;
};

/// Median of 3 samples, each the mean wall clock over `reps` advisor
/// recommendations (one recommendation is sub-millisecond, so a single run
/// would be scheduler noise).
template <typename Fn>
double MedianMs(Fn&& fn, int reps = 8) {
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    runs.push_back(sw.ElapsedMs() / reps);
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

/// Minimal google-benchmark-format JSON: one iteration row per timing, in
/// milliseconds, consumable by bench/check_regression.py.
void WriteJson(const std::string& path, const std::vector<Timing>& timings) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n \"context\": {\"executable\": \"fig_joint_budget\"},\n"
                  " \"benchmarks\": [\n");
  for (size_t i = 0; i < timings.size(); ++i) {
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"run_name\": \"%s\", "
                 "\"run_type\": \"iteration\", \"iterations\": 3, "
                 "\"real_time\": %.6f, \"cpu_time\": %.6f, "
                 "\"time_unit\": \"ms\"}%s\n",
                 timings[i].name.c_str(), timings[i].name.c_str(),
                 timings[i].ms, timings[i].ms,
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, " ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  const size_t rows = bench::ScaledRows(2e6, 30'000);
  bench::PrintBanner(
      "joint budget sweep",
      "two sales fact tables (hot: heavily scanned, cold: lightly "
      "scanned), scan workload + inserts, one shared memory budget",
      "joint cost <= sequential cost at every feasible budget; joint stays "
      "feasible below the sequential floor by flipping cold to the row "
      "store");

  Schema schema = Schema::CreateOrDie({{"id", DataType::kInt64},
                                       {"day", DataType::kDate},
                                       {"status", DataType::kVarchar},
                                       {"amount", DataType::kDouble}},
                                      /*primary_key=*/{0});
  Database db;
  for (const char* name : {"hot", "cold"}) {
    HSDB_CHECK(db.CreateTable(name, schema,
                              TableLayout::SingleStore(StoreType::kRow))
                   .ok());
    LogicalTable* table = db.catalog().GetTable(name);
    const char* statuses[] = {"OPEN", "PAID", "SHIPPED", "RETURNED"};
    Rng rng(20120831);
    for (size_t i = 0; i < rows; ++i) {
      HSDB_CHECK(table
                     ->Insert(Row{Value(static_cast<int64_t>(i)),
                                  Value(Date{static_cast<int32_t>(i / 400)}),
                                  Value(std::string(statuses[rng.Index(4)])),
                                  Value(rng.UniformDouble(0.0, 1e9))})
                     .ok());
    }
    table->ForceMerge();
  }
  db.catalog().UpdateAllStatistics();

  auto scan = [&](const char* table) {
    AggregationQuery olap;
    olap.tables = {table};
    olap.aggregates = {{AggFn::kSum, {3, 0}}};
    olap.group_by = {{2, 0}};
    // Half the day domain (days run 0 .. rows/400 at load time).
    olap.predicate = {
        {{1, 0},
         ValueRange::Between(Value(Date{10}),
                             Value(Date{static_cast<int32_t>(rows / 800)}))}};
    return Query(olap);
  };
  std::vector<Query> workload;
  for (int i = 0; i < 40; ++i) workload.push_back(scan("hot"));
  for (int i = 0; i < 2; ++i) workload.push_back(scan("cold"));
  InsertQuery insert{"hot",
                     Row{Value(static_cast<int64_t>(rows) + 1), Value(Date{0}),
                         Value(std::string("OPEN")), Value(0.0)}};
  for (int i = 0; i < 4; ++i) workload.push_back(Query(insert));

  // Fixed analytic default parameters, deliberately not calibrated: the
  // joint <= sequential guarantee must hold under any parameters, and the
  // gated timings below must not vary with per-machine calibration (only
  // with the search's own speed, which the gate normalizes for).
  CostModelParams params = CostModelParams::Default();
  auto recommend = [&](std::optional<double> budget) {
    AdvisorOptions options;
    options.encoding.memory_budget_bytes = budget;
    StorageAdvisor advisor(&db, options);
    advisor.SetCostModelParams(params);
    Result<Recommendation> rec = advisor.RecommendOffline(workload);
    HSDB_CHECK(rec.ok());
    return std::move(rec).value();
  };

  // Anchor the sweep on the unconstrained joint footprint.
  Recommendation top = recommend(std::nullopt);
  std::printf(
      "unconstrained: joint cost %.3f ms (sequential %.3f ms), "
      "footprint %.0f bytes\n\n",
      top.estimated_cost_ms, top.sequential_cost_ms,
      top.encoding_footprint_bytes);
  std::printf("%8s  %12s  %12s | %12s %9s | %12s %9s | %9s\n", "budget%",
              "budget_bytes", "", "joint_ms", "feasible", "seq_ms",
              "feasible", "joint/seq");
  bench::PrintRule();

  bool joint_never_worse = true;
  for (int pct = 120; pct >= 0; pct -= 15) {
    const double budget =
        top.encoding_footprint_bytes * static_cast<double>(pct) / 100.0;
    Recommendation rec = recommend(budget);
    if (rec.sequential_feasible &&
        rec.estimated_cost_ms > rec.sequential_cost_ms * (1.0 + 1e-9)) {
      joint_never_worse = false;
    }
    std::printf("%7d%%  %12.0f  %12s | %12.3f %9s | %12.3f %9s | %8.3fx\n",
                pct, budget, "", rec.estimated_cost_ms,
                rec.encoding_budget_feasible ? "yes" : "NO",
                rec.sequential_cost_ms,
                rec.sequential_feasible ? "yes" : "NO",
                rec.estimated_cost_ms / rec.sequential_cost_ms);
  }
  std::printf("\njoint <= sequential at every feasible budget: %s\n",
              joint_never_worse ? "yes" : "VIOLATED");
  if (!joint_never_worse) std::exit(1);

  if (!json_path.empty()) {
    std::vector<Timing> timings;
    timings.push_back({"fig_joint_budget/advise_unconstrained",
                       MedianMs([&] { recommend(std::nullopt); })});
    const double binding = top.encoding_footprint_bytes * 0.6;
    timings.push_back({"fig_joint_budget/advise_joint_binding_budget",
                       MedianMs([&] { recommend(binding); })});
    WriteJson(json_path, timings);
  }
}

}  // namespace
}  // namespace hsdb

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH]\n", argv[0]);
      return 1;
    }
  }
  hsdb::Run(json_path);
  return 0;
}
