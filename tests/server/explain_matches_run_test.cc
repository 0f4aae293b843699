// `explain` must report the path that actually runs. For each query shape
// the test renders the explain lines, executes the query once through
// Database::Execute and twice in one BatchExecutor batch, and checks the
// `path:` and `batch_shareable:` lines against what ran: the trace spans
// (pk_lookup / scan_parallel / stitch / scan_shared) and the delta of
// hsdb_batch_shared_queries_total. Runs at 1 and 4 threads, over a table of
// exactly one morsel and one of a morsel plus a row, a row store with a
// sorted index, a vertically split table and a star join.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "executor/batch_executor.h"
#include "executor/database.h"
#include "executor/read_path.h"
#include "server/explain.h"
#include "server/protocol.h"
#include "telemetry/trace.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

/// One line of `lines` containing `needle`, or "" when absent.
std::string LineWith(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return line;
  }
  return std::string();
}

bool Has(const std::string& line, const std::string& needle) {
  return line.find(needle) != std::string::npos;
}

class ExplainMatchesRunTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr size_t kBig = readpath::kMorselRows + 1;

  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    spec_.num_keyfigures = 1;
    spec_.num_filters = 1;
    spec_.num_groups = 1;
    Database::Options options;
    options.num_threads = GetParam();
    options.metrics = &metrics_;
    db_ = std::make_unique<Database>(options);
    Load("events", TableLayout::SingleStore(StoreType::kColumn), kBig);
    Load("small", TableLayout::SingleStore(StoreType::kColumn),
         readpath::kMorselRows);
    Load("indexed", TableLayout::SingleStore(StoreType::kRow), kBig);
    ASSERT_TRUE(db_->catalog()
                    .GetTable("indexed")
                    ->CreateSortedIndex(spec_.filter(0))
                    .ok());
    TableLayout split = TableLayout::SingleStore(StoreType::kColumn);
    split.vertical = VerticalSpec{{spec_.keyfigure(0)}};
    Load("split", split, kBig);
    Load("dim", TableLayout::SingleStore(StoreType::kRow), 50);
    db_->catalog().UpdateAllStatistics();
  }

  void Load(const std::string& name, TableLayout layout, size_t rows) {
    spec_.name = name;
    ASSERT_TRUE(db_->CreateTable(name, spec_.MakeSchema(), layout).ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable(name), spec_, rows).ok());
  }

  /// Parses one wire query line.
  Query Parse(const std::string& line) {
    EpochPin pin(&db_->catalog().epochs());
    Result<server::Request> req = server::ParseRequest(
        line, [this](const std::string& name) -> const Schema* {
          const LogicalTable* table = db_->catalog().GetTable(name);
          return table == nullptr ? nullptr : &table->schema();
        });
    EXPECT_TRUE(req.ok()) << line << ": " << req.status().ToString();
    return req.ok() ? req->query : Query(SelectQuery{});
  }

  /// COUNT(*) of events joined to dim on events.g0 = dim.id.
  Query StarJoin() const {
    AggregationQuery q;
    q.tables = {"events", "dim"};
    q.joins = {{0, spec_.group(0), 1, 0}};
    q.aggregates = {{AggFn::kCount, {}}};
    q.predicate = {{{spec_.filter(0), 0},
                    ValueRange::Less(Value(int32_t{500}))}};
    return q;
  }

  uint64_t SharedQueries() {
    return metrics_.GetCounter("hsdb_batch_shared_queries_total").value();
  }

  /// Explains `q`, runs it, and checks the two lines against the run.
  /// Returns the explain lines for case-specific checks.
  std::vector<std::string> ExpectExplainMatchesRun(const Query& q) {
    const std::string what = QueryToString(q);
    const std::vector<std::string> lines = server::ExplainLines(db_.get(), q);
    const std::string path = LineWith(lines, "path:");
    const std::string shareable = LineWith(lines, "batch_shareable:");
    EXPECT_FALSE(path.empty()) << what;
    EXPECT_FALSE(shareable.empty()) << what;
    const bool shared = Has(shareable, "batch_shareable: yes");

    Result<QueryResult> run = db_->Execute(q);
    EXPECT_TRUE(run.ok()) << what;
    if (!run.ok() || run->trace == nullptr) return lines;
    const telemetry::TraceSpan& trace = *run->trace;
    EXPECT_EQ(Has(path, "point-PK"), trace.Find("pk_lookup") != nullptr)
        << path << "\n" << trace.ToString();
    EXPECT_EQ(Has(path, "morsel-parallel"),
              trace.Find("scan_parallel") != nullptr)
        << path << "\n" << trace.ToString();
    EXPECT_EQ(Has(path, "stitch"), trace.Find("stitch") != nullptr)
        << path << "\n" << trace.ToString();

    // The same query twice in one batch is shared exactly when explain
    // says so.
    BatchExecutor batch(db_.get());
    const uint64_t before = SharedQueries();
    std::vector<Result<QueryResult>> results = batch.ExecuteBatch({q, q});
    EXPECT_EQ(SharedQueries() - before, shared ? 2u : 0u)
        << shareable << " for " << what;
    for (const Result<QueryResult>& r : results) {
      EXPECT_TRUE(r.ok()) << what;
      if (!r.ok() || r->trace == nullptr) continue;
      EXPECT_EQ(r->trace->Find("scan_shared") != nullptr, shared)
          << shareable << "\n" << r->trace->ToString();
    }
    return lines;
  }

  SyntheticTableSpec spec_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<Database> db_;
};

TEST_P(ExplainMatchesRunTest, PkPointIsNeitherScannedNorShared) {
  const std::vector<std::string> lines =
      ExpectExplainMatchesRun(Parse("select events id,kf0 where id=42"));
  EXPECT_EQ(LineWith(lines, "path:"),
            "path: point-PK lookup (sub-linear fast path)");
  EXPECT_EQ(LineWith(lines, "batch_shareable:"),
            "batch_shareable: no (per-statement path)");
}

TEST_P(ExplainMatchesRunTest, TwoSidedRangeIsOneMergedTerm) {
  const std::vector<std::string> lines =
      ExpectExplainMatchesRun(Parse("count events where f0>=10 f0<=20"));
  EXPECT_EQ(LineWith(lines, "terms:"), "terms: events.f0 in [10, 20]");
  EXPECT_FALSE(LineWith(lines, "batch_shareable: yes").empty());
  // The PK range `id>=7 id<=7` merges into a point and takes the PK path.
  const std::vector<std::string> point =
      ExpectExplainMatchesRun(Parse("select events id where id>=7 id<=7"));
  EXPECT_EQ(LineWith(point, "path:"),
            "path: point-PK lookup (sub-linear fast path)");
}

TEST_P(ExplainMatchesRunTest, MorselBoundaryDecidesParallelism) {
  const std::string parallel =
      GetParam() > 1 ? "morsel-parallel over " + std::to_string(GetParam()) +
                           " threads"
                     : "serial";
  for (const char* line : {"count small where f0<100",
                           "select small id where f0<100"}) {
    const std::vector<std::string> lines = ExpectExplainMatchesRun(Parse(line));
    EXPECT_TRUE(Has(LineWith(lines, "path:"), ", serial")) << line;
  }
  for (const char* line : {"count events where f0<100",
                           "select events id where f0<100"}) {
    const std::vector<std::string> lines = ExpectExplainMatchesRun(Parse(line));
    EXPECT_TRUE(Has(LineWith(lines, "path:"), ", " + parallel)) << line;
  }
}

TEST_P(ExplainMatchesRunTest, SortedIndexSeedsSerially) {
  const std::vector<std::string> lines =
      ExpectExplainMatchesRun(Parse("select indexed id where f0<100"));
  EXPECT_EQ(LineWith(lines, "path:"), "path: filtered scan, index-seeded");
  EXPECT_FALSE(LineWith(lines, "batch_shareable: no").empty());
}

TEST_P(ExplainMatchesRunTest, VerticalSplitStitchesUnlessCovered) {
  const std::vector<std::string> spanning =
      ExpectExplainMatchesRun(Parse("select split id,kf0 where f0<100"));
  EXPECT_TRUE(Has(LineWith(spanning, "path:"), "vertical-split stitch"));
  EXPECT_FALSE(LineWith(spanning, "batch_shareable: no").empty());
  // A count over the column-store piece alone has a covering fragment.
  const std::vector<std::string> covered =
      ExpectExplainMatchesRun(Parse("count split where f0<100"));
  EXPECT_FALSE(Has(LineWith(covered, "path:"), "stitch"));
  EXPECT_FALSE(LineWith(covered, "batch_shareable: yes").empty());
}

TEST_P(ExplainMatchesRunTest, StarJoinRunsPerStatement) {
  const std::vector<std::string> lines = ExpectExplainMatchesRun(StarJoin());
  EXPECT_EQ(LineWith(lines, "path:"), "path: scan + aggregate (joined), serial");
  EXPECT_FALSE(LineWith(lines, "batch_shareable: no").empty());
}

TEST_P(ExplainMatchesRunTest, MixedBatchSharesOnlyTheScans) {
  const Query point = Parse("select events id,kf0 where id=42");
  const Query range = Parse("count events where f0>=10 f0<=20");
  BatchExecutor batch(db_.get());
  const uint64_t before = SharedQueries();
  std::vector<Result<QueryResult>> results =
      batch.ExecuteBatch({point, range, range, point});
  EXPECT_EQ(SharedQueries() - before, 2u);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    ASSERT_NE(results[i]->trace, nullptr) << i;
    const bool is_range = i == 1 || i == 2;
    EXPECT_EQ(results[i]->trace->Find("scan_shared") != nullptr, is_range)
        << i << "\n" << results[i]->trace->ToString();
    EXPECT_EQ(results[i]->trace->Find("pk_lookup") != nullptr, !is_range)
        << i << "\n" << results[i]->trace->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExplainMatchesRunTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hsdb
