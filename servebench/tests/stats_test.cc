#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace servebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 0.5), 500u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileTest, HighestSupportedNeedsTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(9999), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
  EXPECT_EQ(HighestSupportedPercentile(1000, 11), 0.9);
}

TEST(LongestGapTest, EdgesCount) {
  // Completions at 3, 4 and 9 in [0, 10]: gaps 3, 1, 5 and the tail 1.
  EXPECT_EQ(LongestGap({9, 3, 4}, 0, 10), 5);
  // A long lead-in before the first completion is a stall too.
  EXPECT_EQ(LongestGap({8, 9}, 0, 10), 8);
  // So is a long tail after the last one.
  EXPECT_EQ(LongestGap({1, 2}, 0, 10), 8);
}

TEST(LongestGapTest, IgnoresOutsideWindow) {
  EXPECT_EQ(LongestGap({-50, 5, 60}, 0, 10), 5);
  EXPECT_EQ(LongestGap({}, 0, 10), 10);
  EXPECT_EQ(LongestGap({1, 2}, 10, 10), 0);
  EXPECT_EQ(LongestGap({4, 4, 4}, 0, 8), 4);
}

TEST(SelfTimeTest, SubtractsChildren) {
  std::vector<Span> spans = {
      {1, 0, 7, "execute", 0, 100},
      {2, 1, 7, "query", 10, 90},
      {3, 2, 7, "predicate", 20, 50},
      {4, 2, 7, "decode", 50, 70},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 20);  // 100 - 80 covered by "query"
  EXPECT_EQ(self[1], 30);  // 80 - (30 + 20)
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 20);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100},
      {2, 1, 1, "a", 10, 60},
      {3, 1, 1, "b", 40, 80},
  };
  EXPECT_EQ(SelfTimes(spans)[0], 30);  // union [10, 80] covers 70
}

TEST(SelfTimeTest, ChildOutsideParentIsClipped) {
  std::vector<Span> spans = {
      {1, 0, 1, "parent", 0, 100},
      {2, 1, 1, "late", 90, 130},
      {3, 0, 1, "unrelated", 0, 50},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 90);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 50);
}

TEST(MeanTest, Basic) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

}  // namespace
}  // namespace servebench
