#include "core/workload_model.h"

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "core/table_advisor.h"
#include "executor/database.h"
#include "executor/plan.h"
#include "workload/generator.h"
#include "workload/runner.h"

namespace hsdb {
namespace {

class WorkloadModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_.name = "t";
    ASSERT_TRUE(db_.CreateTable("t", spec_.MakeSchema(),
                                TableLayout::SingleStore(StoreType::kRow))
                    .ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_.catalog().GetTable("t"), spec_, 2000).ok());
    db_.catalog().UpdateAllStatistics();
  }

  WorkloadStatistics RecordMix(double olap_fraction, size_t count) {
    WorkloadStatistics stats;
    WorkloadOptions o;
    o.olap_fraction = olap_fraction;
    o.seed = 5;
    SyntheticWorkloadGenerator gen(spec_, 2000, o);
    for (const Query& q : gen.Generate(count)) {
      stats.Record(q, db_.catalog());
    }
    return stats;
  }

  Database db_;
  SyntheticTableSpec spec_;
  CostModel model_;
};

TEST_F(WorkloadModelTest, WeightsMatchObservedCounts) {
  WorkloadStatistics stats = RecordMix(0.1, 500);
  auto model = BuildWorkloadModel(stats, db_.catalog());
  ASSERT_FALSE(model.empty());
  double inserts = 0, updates = 0, selects = 0, aggs = 0;
  for (const WeightedQuery& wq : model) {
    switch (KindOf(wq.query)) {
      case QueryKind::kInsert:
        inserts += wq.weight;
        break;
      case QueryKind::kUpdate:
        updates += wq.weight;
        break;
      case QueryKind::kSelect:
        selects += wq.weight;
        break;
      case QueryKind::kAggregation:
        aggs += wq.weight;
        break;
      default:
        break;
    }
  }
  const TableWorkloadStats* ts = stats.table("t");
  EXPECT_DOUBLE_EQ(inserts, static_cast<double>(ts->inserts));
  EXPECT_DOUBLE_EQ(updates, static_cast<double>(ts->updates));
  EXPECT_DOUBLE_EQ(selects,
                   static_cast<double>(ts->point_selects + ts->range_selects));
  EXPECT_NEAR(aggs, static_cast<double>(ts->aggregations), 1e-6);
}

TEST_F(WorkloadModelTest, ReconstructedUpdatesCarryObservedWidth) {
  WorkloadStatistics stats;
  UpdateQuery u;
  u.table = "t";
  u.predicate = {{{0, 0}, ValueRange::Eq(Value(int64_t{1}))}};
  u.set_columns = {spec_.keyfigure(0), spec_.keyfigure(1),
                   spec_.filter(0)};
  u.set_values = {Value(1.0), Value(2.0), Value(int32_t{3})};
  for (int i = 0; i < 10; ++i) stats.Record(Query(u), db_.catalog());
  auto model = BuildWorkloadModel(stats, db_.catalog());
  ASSERT_EQ(model.size(), 1u);
  const auto& rebuilt = std::get<UpdateQuery>(model[0].query);
  EXPECT_EQ(rebuilt.set_columns.size(), 3u);  // observed average width
  // The rebuilt update plans as a primary-key point write.
  Result<Plan> plan = PlanQuery(db_.catalog(), model[0].query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->path, AccessPath::kPkPoint);
}

TEST_F(WorkloadModelTest, StatisticsOnlyAdvisorAgreesWithFullLog) {
  // For clear-cut workloads, costing the reconstructed classes must lead to
  // the same table-level decision as costing the raw log.
  for (double frac : {0.0, 0.9}) {
    WorkloadOptions o;
    o.olap_fraction = frac;
    o.seed = 5;
    SyntheticWorkloadGenerator gen(spec_, 2000, o);
    std::vector<Query> raw = gen.Generate(400);
    WorkloadStatistics stats;
    for (const Query& q : raw) stats.Record(q, db_.catalog());

    TableAdvisor advisor(&model_, &db_.catalog());
    StoreType from_log =
        advisor.Recommend(ToWeighted(raw)).assignment.at("t");
    StoreType from_stats =
        advisor.Recommend(BuildWorkloadModel(stats, db_.catalog()))
            .assignment.at("t");
    EXPECT_EQ(from_log, from_stats) << "olap fraction " << frac;
  }
}

TEST_F(WorkloadModelTest, JoinClassesEmittedFromFactSide) {
  StarSchemaSpec star;
  ASSERT_TRUE(db_.CreateTable("dim", star.MakeDimSchema(),
                              TableLayout::SingleStore(StoreType::kRow))
                  .ok());
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_.catalog().GetTable("dim")->Insert(star.DimRow(i)).ok());
  }
  db_.catalog().UpdateAllStatistics();
  WorkloadStatistics stats;
  AggregationQuery a;
  a.tables = {"t", "dim"};
  a.joins = {{0, spec_.filter(0), 1, 0}};
  a.aggregates = {{AggFn::kSum, {spec_.keyfigure(0), 0}}};
  for (int i = 0; i < 7; ++i) stats.Record(Query(a), db_.catalog());

  auto model = BuildWorkloadModel(stats, db_.catalog());
  double join_weight = 0.0;
  size_t join_classes = 0;
  for (const WeightedQuery& wq : model) {
    if (KindOf(wq.query) != QueryKind::kAggregation) continue;
    const auto& q = std::get<AggregationQuery>(wq.query);
    if (q.tables.size() == 2) {
      ++join_classes;
      join_weight += wq.weight;
      EXPECT_EQ(q.tables[0], "t");  // fact = larger side
      EXPECT_EQ(q.tables[1], "dim");
    }
  }
  EXPECT_EQ(join_classes, 1u);
  EXPECT_DOUBLE_EQ(join_weight, 7.0);
}

TEST_F(WorkloadModelTest, OnlineStatisticsOnlyModeWorks) {
  // Recorder with no raw retention: RecommendOnline reconstructs.
  AdvisorOptions opts;
  opts.recorder_sample = 0;
  StorageAdvisor advisor(&db_, opts);
  advisor.StartRecording();
  WorkloadOptions o;
  o.olap_fraction = 0.9;
  o.seed = 6;
  SyntheticWorkloadGenerator gen(spec_, 2000, o);
  RunWorkload(db_, gen.Generate(100));
  auto rec = advisor.RecommendOnline();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->table_level_assignment.at("t"), StoreType::kColumn);
  advisor.StopRecording();
}

}  // namespace
}  // namespace hsdb
