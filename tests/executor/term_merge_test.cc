// The planner merges same-column predicate terms into one range
// (executor/plan.h). Merging must not change any answer: for both stores
// and every column-store codec, a query's rows, counts and sums must equal
// a reference that evaluates each original term on its own. The cases
// include contradictory bounds (`f0>=10 f0<=5`), exclusive bounds that
// meet on an integer column (`f0>5 f0<6`) and a PK range that collapses to
// a point (`id>=7 id<=7`, which must then take the point path). The cost
// predictor must see the merged range too: `f0>=a f0<=b` costs exactly
// what `Between(a, b)` costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "executor/database.h"
#include "executor/plan.h"
#include "workload/synthetic.h"

namespace hsdb {
namespace {

struct StoreCodec {
  StoreType store;
  Encoding codec;  // pinned on every column; ignored for the row store
};

class TermMergeTest : public ::testing::TestWithParam<StoreCodec> {
 protected:
  static constexpr size_t kRows = 3000;

  void SetUp() override {
    spec_.name = "t";
    spec_.num_keyfigures = 1;
    spec_.num_filters = 2;
    spec_.num_groups = 1;
    const TableLayout layout = TableLayout::SingleStore(GetParam().store);
    ASSERT_TRUE(db_.CreateTable("t", spec_.MakeSchema(), layout).ok());
    ASSERT_TRUE(
        PopulateSynthetic(db_.catalog().GetTable("t"), spec_, kRows).ok());
    if (GetParam().store == StoreType::kColumn) {
      ASSERT_TRUE(db_.ApplyLayout("t", layout,
                                  std::vector<Encoding>(spec_.num_columns(),
                                                        GetParam().codec))
                      .ok());
    }
    // Fresh rows in the delta and tombstones in the main part.
    for (int64_t id = kRows; id < static_cast<int64_t>(kRows) + 100; ++id) {
      ASSERT_TRUE(db_.Execute(InsertQuery{"t", SyntheticRow(spec_, id)}).ok());
    }
    DeleteQuery del;
    del.table = "t";
    del.predicate = {{{0, 0}, ValueRange::Between(Value(int64_t{100}),
                                                  Value(int64_t{160}))}};
    ASSERT_TRUE(db_.Execute(Query(del)).ok());
    db_.catalog().UpdateAllStatistics();
  }

  PredicateTerm Term(ColumnId col, ValueRange range) const {
    return PredicateTerm{{col, 0}, std::move(range)};
  }

  /// Ids (ascending) and kf0 sum of the rows every term of `predicate`
  /// accepts, each term evaluated on its own.
  struct Reference {
    std::vector<int64_t> ids;
    double sum = 0.0;
  };
  Reference Evaluate(const Predicate& predicate) {
    Reference ref;
    db_.catalog().GetTable("t")->ForEachRow([&](const Row& row) {
      for (const PredicateTerm& term : predicate) {
        if (!term.range.Contains(row[term.column.column])) return;
      }
      ref.ids.push_back(row[0].as_int64());
      ref.sum += row[spec_.keyfigure(0)].as_double();
    });
    std::sort(ref.ids.begin(), ref.ids.end());
    return ref;
  }

  /// Select, count and sum under `predicate` against the reference.
  void ExpectMatchesReference(const Predicate& predicate) {
    const Reference expected = Evaluate(predicate);
    SCOPED_TRACE(QueryToString(SelectQuery{"t", {0}, predicate, {}}));

    Result<QueryResult> sel = db_.Execute(SelectQuery{"t", {0}, predicate, {}});
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    std::vector<int64_t> got;
    for (const Row& row : sel->rows) got.push_back(row[0].as_int64());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected.ids);

    AggregationQuery agg;
    agg.tables = {"t"};
    agg.aggregates = {{AggFn::kCount, {}},
                      {AggFn::kSum, {spec_.keyfigure(0), 0}}};
    agg.predicate = predicate;
    Result<QueryResult> counted = db_.Execute(agg);
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    ASSERT_EQ(counted->aggregates.size(), 2u);
    EXPECT_EQ(counted->aggregates[0], static_cast<double>(expected.ids.size()));
    if (!expected.ids.empty()) {
      EXPECT_NEAR(counted->aggregates[1], expected.sum,
                  1e-9 * (1.0 + std::abs(expected.sum)));
    }
  }

  SyntheticTableSpec spec_;
  Database db_;
};

TEST_P(TermMergeTest, MergedTermsMatchPerTermEvaluation) {
  const ColumnId f0 = spec_.filter(0);
  const ColumnId f1 = spec_.filter(1);
  const ColumnId kf0 = spec_.keyfigure(0);
  const Value v5(int32_t{5}), v6(int32_t{6}), v10(int32_t{10});
  // A two-sided range from the wire, as two open-ended terms.
  ExpectMatchesReference({Term(f0, ValueRange::AtLeast(Value(int32_t{100}))),
                          Term(f0, ValueRange::AtMost(Value(int32_t{300})))});
  // Four terms on one column, mixing inclusive and exclusive bounds.
  ExpectMatchesReference({Term(f0, ValueRange::AtLeast(Value(int32_t{200}))),
                          Term(f0, ValueRange::Less(Value(int32_t{400}))),
                          Term(f0, ValueRange::Greater(Value(int32_t{250}))),
                          Term(f0, ValueRange::AtMost(Value(int32_t{260})))});
  // Equal bounds where the exclusive one must win.
  ExpectMatchesReference({Term(f0, ValueRange::AtLeast(Value(int32_t{500}))),
                          Term(f0, ValueRange::Greater(Value(int32_t{500}))),
                          Term(f0, ValueRange::AtMost(Value(int32_t{510})))});
  // Two columns, one of them bounded twice; a double column bounded twice.
  ExpectMatchesReference({Term(f0, ValueRange::AtLeast(Value(int32_t{100}))),
                          Term(f1, ValueRange::Less(Value(int32_t{500}))),
                          Term(f0, ValueRange::AtMost(Value(int32_t{700})))});
  ExpectMatchesReference({Term(kf0, ValueRange::AtLeast(Value(10.0))),
                          Term(kf0, ValueRange::Less(Value(40.0)))});
  // Contradictory bounds and exclusive bounds that meet: no rows at all.
  const Predicate contradictory = {Term(f0, ValueRange::AtLeast(v10)),
                                   Term(f0, ValueRange::AtMost(v5))};
  const Predicate meeting = {Term(f0, ValueRange::Greater(v5)),
                             Term(f0, ValueRange::Less(v6))};
  for (const Predicate& empty : {contradictory, meeting}) {
    ASSERT_TRUE(Evaluate(empty).ids.empty());
    ExpectMatchesReference(empty);
  }
}

TEST_P(TermMergeTest, PkRangeOfOneKeyTakesThePointPath) {
  const Predicate predicate = {
      Term(0, ValueRange::AtLeast(Value(int64_t{7}))),
      Term(0, ValueRange::AtMost(Value(int64_t{7})))};
  const Query q = SelectQuery{"t", {0, spec_.filter(0)}, predicate, {}};
  {
    EpochPin pin(&db_.catalog().epochs());
    Result<Plan> plan = PlanQuery(db_.catalog(), q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->path, AccessPath::kPkPoint);
    EXPECT_EQ(plan->point_key(), Value(int64_t{7}));
  }
  Result<QueryResult> r = db_.Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Value(int64_t{7}));
  if (r->trace != nullptr) {
    EXPECT_NE(r->trace->Find("pk_lookup"), nullptr);
  }
  ExpectMatchesReference(predicate);
}

TEST_P(TermMergeTest, PredictedCostSeesOneRange) {
  StorageAdvisor advisor(&db_);
  advisor.SetCostModelParams(CostModelParams::Default());
  const ColumnId f0 = spec_.filter(0);
  const Value a(int32_t{100}), b(int32_t{300});
  auto count_where = [&](Predicate predicate) {
    AggregationQuery q;
    q.tables = {"t"};
    q.aggregates = {{AggFn::kCount, {}}};
    q.predicate = std::move(predicate);
    return Query(q);
  };
  auto select_where = [&](Predicate predicate) {
    return Query(SelectQuery{"t", {0, f0}, std::move(predicate), {}});
  };
  CatalogReadLock lock(db_.catalog(), {"t"});
  for (auto make : {std::function<Query(Predicate)>(count_where),
                    std::function<Query(Predicate)>(select_where)}) {
    const double two_terms = db_.PredictCost(make(
        {Term(f0, ValueRange::AtLeast(a)), Term(f0, ValueRange::AtMost(b))}));
    const double between =
        db_.PredictCost(make({Term(f0, ValueRange::Between(a, b))}));
    EXPECT_GT(between, 0.0);
    EXPECT_EQ(two_terms, between);
  }
}

std::string StoreCodecName(const ::testing::TestParamInfo<StoreCodec>& info) {
  static const char* const kCodecs[] = {"Dictionary", "Rle",
                                        "FrameOfReference", "Raw"};
  return info.param.store == StoreType::kRow
             ? std::string("row")
             : std::string("column") +
                   kCodecs[static_cast<int>(info.param.codec)];
}

INSTANTIATE_TEST_SUITE_P(
    StoresAndCodecs, TermMergeTest,
    ::testing::Values(StoreCodec{StoreType::kRow, Encoding::kDictionary},
                      StoreCodec{StoreType::kColumn, Encoding::kDictionary},
                      StoreCodec{StoreType::kColumn, Encoding::kRle},
                      StoreCodec{StoreType::kColumn,
                                 Encoding::kFrameOfReference},
                      StoreCodec{StoreType::kColumn, Encoding::kRaw}),
    StoreCodecName);

}  // namespace
}  // namespace hsdb
