// Span self time: nested children, overlapping parallel children (the
// minispark tasks of one job), and the per-layer reduction.
#include "harness/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace perfbench {
namespace {

Span S(uint32_t id, uint32_t parent, const char* name, const char* layer,
       double start, double end) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.layer = layer;
  span.start_us = start;
  span.end_us = end;
  return span;
}

TEST(SelfTimeTest, LeafOwnsItsWholeDuration) {
  const auto self = SelfTimesUs({S(1, 0, "a", "x", 10, 35)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_DOUBLE_EQ(self[0], 25.0);
}

TEST(SelfTimeTest, NestedChildrenAreSubtractedLevelByLevel) {
  // root [0,100) > batch [10,90) > probe [20,30) and job [40,80)
  //                              > task [50,60) under job
  const std::vector<Span> spans = {
      S(1, 0, "root", "harness", 0, 100), S(2, 1, "batch", "serve", 10, 90),
      S(3, 2, "probe", "blocking", 20, 30), S(4, 2, "job", "knn", 40, 80),
      S(5, 4, "task", "minispark", 50, 60)};
  const auto self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 20.0);  // 100 - 80
  EXPECT_DOUBLE_EQ(self[1], 30.0);  // 80 - (10 + 40)
  EXPECT_DOUBLE_EQ(self[2], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);  // 40 - 10
  EXPECT_DOUBLE_EQ(self[4], 10.0);
}

TEST(SelfTimeTest, OverlappingParallelTasksCountOnce) {
  // One job [0,100) with four tasks on four executors:
  // [10,60) [20,70) [30,40) [80,90): union = [10,70) + [80,90) = 70.
  const std::vector<Span> spans = {
      S(1, 0, "job", "distance", 0, 100),
      S(2, 1, "task", "minispark", 10, 60),
      S(3, 1, "task", "minispark", 20, 70),
      S(4, 1, "task", "minispark", 30, 40),
      S(5, 1, "task", "minispark", 80, 90)};
  const auto self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 30.0);  // scheduling gaps only
  EXPECT_DOUBLE_EQ(self[1], 50.0);
  EXPECT_DOUBLE_EQ(self[2], 50.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0);
  EXPECT_DOUBLE_EQ(self[4], 10.0);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  // A child recorded on another thread that outlives its parent's span.
  const auto self = SelfTimesUs(
      {S(1, 0, "job", "x", 0, 50), S(2, 1, "task", "y", 40, 70)});
  EXPECT_DOUBLE_EQ(self[0], 40.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
}

TEST(BreakdownTest, SumsLayersAndCoverage) {
  const std::vector<Span> spans = {
      S(1, 0, "replay", "harness", 0, 100),
      S(2, 1, "job", "distance", 0, 50), S(3, 2, "task", "minispark", 10, 30),
      S(4, 2, "task", "minispark", 20, 40), S(5, 1, "prune", "prune", 60, 90)};
  const LayerBreakdown b = Breakdown(spans, "replay");
  EXPECT_DOUBLE_EQ(b.root_us, 100.0);
  EXPECT_DOUBLE_EQ(b.coverage, 0.8);  // 20 us outside any layer
  EXPECT_DOUBLE_EQ(b.self_us.at("distance"), 20.0);   // 50 - [10,40)
  EXPECT_DOUBLE_EQ(b.self_us.at("minispark"), 40.0);  // task time, summed
  EXPECT_DOUBLE_EQ(b.self_us.at("prune"), 30.0);
  EXPECT_EQ(b.self_us.count("harness"), 0u);
}

TEST(TracerTest, ScopesNestPerThreadAndTakeExplicitParents) {
  Tracer tracer(true);
  {
    Tracer::Scope root(&tracer, "replay", "harness");
    {
      Tracer::Scope job(&tracer, "job", "knn");
      const uint32_t job_id = job.id();
      std::thread worker([&] {
        Tracer::Scope task(&tracer, "task", "minispark", job_id);
      });
      worker.join();
    }
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);  // explicit, across threads
  EXPECT_EQ(spans[2].name, "task");
  for (const Span& span : spans) EXPECT_GE(span.end_us, span.start_us);
  EXPECT_EQ(Tracer::Current(), 0u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Scope scope(&tracer, "replay", "harness");
    EXPECT_EQ(scope.id(), 0u);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

}  // namespace
}  // namespace perfbench
