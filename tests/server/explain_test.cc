// Wire-level `explain` / `explain analyze`: the introspection verbs answer
// on the reader thread with a rendered cost/path breakdown (explain) or an
// executed trace tree (explain analyze) — and explain analyze must agree
// with what actually executed: a count it reports matches the count the
// plain verb returns, and DML through explain analyze really mutates.
// Malformed explain requests get "err ..." and leave the connection usable.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "executor/database.h"
#include "executor/read_path.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

/// One line of the reply containing `needle`, or "" when absent.
std::string LineWith(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return line;
  }
  return std::string();
}

class ExplainWireTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 10'000;

  void SetUp() override {
    spec_.name = "events";
    spec_.num_keyfigures = 2;
    spec_.num_filters = 2;
    spec_.num_groups = 1;
    Database::Options options;
    options.num_threads = 0;  // honor HSDB_THREADS (CI matrix)
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec_.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec_, kRows)
            .ok());
    db_->catalog().UpdateAllStatistics();
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override { server_->Stop(); }

  SyntheticTableSpec spec_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  server::Client client_;
};

TEST_F(ExplainWireTest, ExplainRendersPlanWithoutExecuting) {
  Result<server::Reply> reply =
      client_.RoundTrip("explain count events where f0<100");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  const std::vector<std::string>& lines = reply->lines;
  EXPECT_FALSE(LineWith(lines, "query:").empty());
  EXPECT_FALSE(LineWith(lines, "kind: AGGREGATION").empty());
  EXPECT_FALSE(LineWith(lines, "path:").empty());
  EXPECT_FALSE(LineWith(lines, "batch_shareable: yes").empty())
      << "single-table count should be shareable";
  EXPECT_FALSE(LineWith(lines, "table events:").empty());
  // Per-column codec breakdown from the live statistics.
  EXPECT_FALSE(LineWith(lines, "codec=").empty());
  // explain does not execute: no observed time, no trace.
  EXPECT_TRUE(LineWith(lines, "observed_ms:").empty());
  EXPECT_TRUE(LineWith(lines, "trace").empty());
}

TEST_F(ExplainWireTest, ExplainReportsUnshareablePaths) {
  Result<server::Reply> reply =
      client_.RoundTrip("explain select events id,kf0 where id=17");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  // Point-PK lookups take the per-statement fast path.
  EXPECT_FALSE(LineWith(reply->lines, "point").empty());

  Result<server::Reply> dml =
      client_.RoundTrip("explain delete events where id=999999");
  ASSERT_TRUE(dml.ok());
  ASSERT_TRUE(dml->ok) << dml->error;
  EXPECT_FALSE(LineWith(dml->lines, "batch_shareable: no").empty());
  // explain of DML must NOT execute it.
  Result<server::Reply> count = client_.RoundTrip("count events");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->lines, std::vector<std::string>{std::to_string(kRows)});
}

TEST_F(ExplainWireTest, ExplainAnalyzeAgreesWithExecution) {
  Result<server::Reply> plain =
      client_.RoundTrip("count events where f0<250");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->ok);
  ASSERT_EQ(plain->lines.size(), 1u);

  Result<server::Reply> analyzed =
      client_.RoundTrip("explain analyze count events where f0<250");
  ASSERT_TRUE(analyzed.ok());
  ASSERT_TRUE(analyzed->ok) << analyzed->error;
  const std::vector<std::string>& lines = analyzed->lines;
  // The aggregate value explain analyze reports is the executed result.
  const std::string result_line = LineWith(lines, "result:");
  ASSERT_FALSE(result_line.empty());
  EXPECT_NE(result_line.find(plain->lines[0]), std::string::npos)
      << result_line << " vs " << plain->lines[0];
  EXPECT_FALSE(LineWith(lines, "observed_ms:").empty());
  if (telemetry::kCompiledIn) {
    // The executed QueryResult's trace tree is rendered phase by phase.
    EXPECT_FALSE(LineWith(lines, "trace:").empty());
    // TraceSpan::ToString renders "name  <elapsed> ms" per line.
    EXPECT_FALSE(LineWith(lines, "query  ").empty())
        << "trace root span missing";
  }
}

TEST_F(ExplainWireTest, ExplainAnalyzeDmlReallyMutates) {
  std::string row = "777777,1.5,2.5,10,20,3";  // id, 2 kf, 2 f, 1 g
  Result<server::Reply> ins =
      client_.RoundTrip("explain analyze insert events " + row);
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(ins->ok) << ins->error;
  EXPECT_FALSE(LineWith(ins->lines, "result: 1 row(s) affected").empty());

  Result<server::Reply> count = client_.RoundTrip("count events");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->lines,
            std::vector<std::string>{std::to_string(kRows + 1)});

  Result<server::Reply> del =
      client_.RoundTrip("explain analyze delete events where id=777777");
  ASSERT_TRUE(del.ok());
  ASSERT_TRUE(del->ok) << del->error;
  Result<server::Reply> after = client_.RoundTrip("count events");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->lines, std::vector<std::string>{std::to_string(kRows)});
}

TEST_F(ExplainWireTest, MalformedExplainStaysConnectionLocal) {
  for (const char* bad :
       {"explain", "explain analyze", "explain bogus events",
        "explain analyze frobnicate", "explain count nosuchtable",
        "explain select"}) {
    Result<server::Reply> reply = client_.RoundTrip(bad);
    ASSERT_TRUE(reply.ok()) << bad;
    EXPECT_FALSE(reply->ok) << bad << " unexpectedly parsed";
  }
  // The connection survived all of it.
  Result<server::Reply> ping = client_.RoundTrip("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->ok);
  EXPECT_EQ(ping->lines, std::vector<std::string>{"pong"});
}

TEST_F(ExplainWireTest, ExplainPredictionLineWhenPredictorInstalled) {
  // Without a predictor the explain says so rather than inventing numbers.
  Result<server::Reply> reply =
      client_.RoundTrip("explain sum events kf0 where f1>=100");
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->ok) << reply->error;
  EXPECT_FALSE(LineWith(reply->lines, "predicted_cost").empty());
}

/// At 4 threads the path line follows the plan's per-group scan
/// decision, not the thread count: a table that fits in one morsel scans
/// serially, one row more goes morsel-parallel — and explain analyze's
/// morsel count agrees with the line.
class ExplainPathTest : public ::testing::Test {
 protected:
  void Load(size_t rows) {
    SyntheticTableSpec spec;
    spec.name = "events";
    spec.num_keyfigures = 1;
    spec.num_filters = 1;
    spec.num_groups = 1;
    Database::Options options;
    options.num_threads = 4;
    db_ = std::make_unique<Database>(options);
    ASSERT_TRUE(db_->CreateTable("events", spec.MakeSchema(),
                                 TableLayout::SingleStore(StoreType::kColumn))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_->catalog().GetTable("events"), spec, rows).ok());
    server_ = std::make_unique<server::SocketServer>(db_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::string LineFor(const std::string& request, const std::string& needle) {
    Result<server::Reply> reply = client_.RoundTrip(request);
    if (!reply.ok()) return "transport: " + reply.status().ToString();
    if (!reply->ok) return "err: " + reply->error;
    return LineWith(reply->lines, needle);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<server::SocketServer> server_;
  server::Client client_;
};

TEST_F(ExplainPathTest, OneMorselTableScansSerially) {
  Load(readpath::kMorselRows);
  EXPECT_EQ(LineFor("explain select events id where f0<100", "path:"),
            "path: filtered scan, serial");
  EXPECT_EQ(LineFor("explain count events where f0<100", "path:"),
            "path: scan + aggregate, serial");
  EXPECT_EQ(LineFor("explain analyze count events where f0<100",
                    "morsels_dispatched:"),
            "morsels_dispatched: 0");
}

TEST_F(ExplainPathTest, MultiMorselTableScansInParallel) {
  Load(readpath::kMorselRows + 1);
  EXPECT_EQ(LineFor("explain select events id where f0<100", "path:"),
            "path: filtered scan, morsel-parallel over 4 threads");
  EXPECT_EQ(LineFor("explain count events where f0<100", "path:"),
            "path: scan + aggregate, morsel-parallel over 4 threads");
  EXPECT_EQ(LineFor("explain analyze count events where f0<100",
                    "morsels_dispatched:"),
            "morsels_dispatched: 2");
  // The point-PK fast path never scans, whatever the table size.
  EXPECT_EQ(LineFor("explain select events id where id=7", "path:"),
            "path: point-PK lookup (sub-linear fast path)");
}

}  // namespace
}  // namespace hsdb
