// Arithmetic of the benchmark's statistics: percentile selection under
// the ten-samples-beyond rule, and the rate-ladder decisions.
#include "harness/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneToN(size_t n) {
  std::vector<double> out;
  for (size_t i = 1; i <= n; ++i) out.push_back(static_cast<double>(i));
  return out;
}

TEST(PercentileTest, NearestRankOnUnsortedInput) {
  const std::vector<double> samples = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(samples, 50.0), 3.0);
  EXPECT_EQ(Percentile(samples, 100.0), 5.0);
  EXPECT_EQ(Percentile(samples, 1.0), 1.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, SamplesBeyondCountsAboveTheRank) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(SummarizeTest, ThousandSamplesSupportP99) {
  const LatencySummary s = Summarize(OneToN(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(SummarizeTest, JustBelowAThousandFallsBackToP95) {
  // 999 samples leave only 9 beyond the 99th percentile.
  const LatencySummary s = Summarize(OneToN(999));
  EXPECT_EQ(s.tail_percentile, 95.0);
  EXPECT_EQ(s.tail, 950.0);
}

TEST(SummarizeTest, TenThousandSamplesSupportP999) {
  const LatencySummary s = Summarize(OneToN(10000));
  EXPECT_EQ(s.tail_percentile, 99.9);
  EXPECT_EQ(s.tail, 9990.0);
}

TEST(SummarizeTest, SmallSamplesReportTheMaximum) {
  // Fewer than 20 samples: not even the median has ten beyond it.
  const LatencySummary s = Summarize({3.0, 9.0, 1.0});
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.tail_percentile, 100.0);
  EXPECT_EQ(s.tail, 9.0);
  const LatencySummary twenty = Summarize(OneToN(20));
  EXPECT_EQ(twenty.tail_percentile, 50.0);
  EXPECT_EQ(twenty.tail, 10.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

LadderStep Step(double rate, double tail_ms, size_t backlog_start,
                size_t backlog_end, size_t failed = 0) {
  LadderStep step;
  step.offered_rps = rate;
  step.sent = static_cast<size_t>(rate);
  step.ok = step.sent - failed;
  step.failed = failed;
  step.tail_ms = tail_ms;
  step.backlog_start = backlog_start;
  step.backlog_end = backlog_end;
  return step;
}

TEST(LadderTest, StepPassesWithinLimitAndStableBacklog) {
  const LadderLimits limits{50.0};
  EXPECT_TRUE(StepPasses(Step(400, 20.0, 3, 5), limits));
  // Tail over the limit.
  EXPECT_FALSE(StepPasses(Step(400, 50.5, 3, 5), limits));
  // Any failed request fails the step.
  EXPECT_FALSE(StepPasses(Step(400, 20.0, 3, 5, /*failed=*/1), limits));
  // 400 rps x 50 ms = 20 requests may be in flight at the limit; a backlog
  // that grows by more than that is a queue that will not drain.
  EXPECT_TRUE(StepPasses(Step(400, 20.0, 0, 20), limits));
  EXPECT_FALSE(StepPasses(Step(400, 20.0, 0, 21), limits));
  // A shrinking backlog is fine.
  EXPECT_TRUE(StepPasses(Step(400, 20.0, 30, 2), limits));
  // A step that sent nothing measured nothing.
  EXPECT_FALSE(StepPasses(Step(0, 1.0, 0, 0), limits));
  LadderStep aborted = Step(400, 20.0, 0, 5);
  aborted.aborted = true;
  EXPECT_FALSE(StepPasses(aborted, limits));
}

TEST(LadderTest, AbortBacklogIsTwiceTheInFlightAtTheLimit) {
  EXPECT_EQ(AbortBacklog(1000.0, LadderLimits{50.0}), 100u);
  EXPECT_EQ(AbortBacklog(130.0, LadderLimits{50.0}), 13u);
}

// Runs the bisection against synthetic capacity: rates with index up to
// `capacity` pass.
int Search(int rates, int capacity, std::vector<int>* probes) {
  LadderSearch search(rates);
  for (int next = search.Next(); next >= 0; next = search.Next()) {
    probes->push_back(next);
    search.Record(next, next <= capacity);
  }
  return search.best();
}

TEST(LadderTest, BisectionFindsTheHighestPassingRate) {
  for (int capacity = -1; capacity < 39; ++capacity) {
    std::vector<int> probes;
    EXPECT_EQ(Search(39, capacity, &probes), capacity);
    // log2(39) rounded up, plus one.
    EXPECT_LE(probes.size(), 7u);
  }
}

TEST(LadderTest, BisectionProbesInOrderOnSyntheticSteps) {
  std::vector<int> probes;
  EXPECT_EQ(Search(8, 5, &probes), 5);
  EXPECT_EQ(probes, (std::vector<int>{3, 5, 6}));
  probes.clear();
  EXPECT_EQ(Search(1, 0, &probes), 0);
  EXPECT_EQ(probes, (std::vector<int>{0}));
  probes.clear();
  EXPECT_EQ(Search(0, 0, &probes), -1);
  EXPECT_TRUE(probes.empty());
}

}  // namespace
}  // namespace perfbench
