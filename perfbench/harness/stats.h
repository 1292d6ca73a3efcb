// Sample statistics of the benchmark: latency percentiles under the
// "highest percentile with at least ten samples beyond it" rule, and the
// open-loop rate-ladder decision that defines the highest sustainable
// screening rate.
#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it; fewer make the value a single outlier's.
inline constexpr size_t kMinSamplesBeyond = 10;

// Candidate tail percentiles, highest first.
inline constexpr double kTailPercentiles[] = {99.99, 99.9, 99.0, 95.0,
                                              90.0,  75.0, 50.0};

// Nearest-rank percentile of `samples` (any order): the value at 1-based
// rank ceil(p/100 * n). 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  // The highest kTailPercentiles entry with kMinSamplesBeyond samples
  // beyond it, and its value. With fewer than 2 * kMinSamplesBeyond
  // samples no entry qualifies: tail_percentile is 100 and tail is the
  // maximum.
  double tail_percentile = 0.0;
  double tail = 0.0;
};

LatencySummary Summarize(std::vector<double> samples);

// Median of a small sample (mean of the middle two for even n).
double Median(std::vector<double> values);

// One step of the open-loop rate ladder.
struct LadderStep {
  double offered_rps = 0.0;
  size_t sent = 0;
  size_t ok = 0;
  // Shed, expired, invalid and client-error answers, plus requests left
  // unanswered when the step was judged.
  size_t failed = 0;
  // Requests sent but not yet answered at the step's first and last
  // scheduled arrival.
  size_t backlog_start = 0;
  size_t backlog_end = 0;
  // Latency tail (LatencySummary::tail) of the step's kOk answers.
  double tail_ms = 0.0;
  // Completions per second over the step.
  double achieved_rps = 0.0;
  // The generator stopped early because the backlog passed
  // AbortBacklog(): the step has failed.
  bool aborted = false;
};

struct LadderLimits {
  double tail_ms = 50.0;
};

// A step passes when no request failed, its latency tail is within the
// limit, and the backlog grew by no more than the requests that could be
// in flight at the limit (offered rate x limit): a queue that grows
// faster than that cannot meet the limit for long.
bool StepPasses(const LadderStep& step, const LadderLimits& limits);

// Backlog at which a step is stopped and failed without sending the rest
// of it: twice the requests in flight at the limit. Requests that far
// behind wait well past the limit, so the step cannot pass, and sending
// on would only lengthen the run.
size_t AbortBacklog(double offered_rps, const LadderLimits& limits);

// Bisection over a fixed, ascending list of offered rates for the highest
// one whose step passes. The rates are constants of the benchmark; only
// the order of the probes depends on the outcomes, and it assumes a rate
// above a failing one fails too.
class LadderSearch {
 public:
  explicit LadderSearch(size_t rates) : hi_(static_cast<int>(rates)) {}
  // Index of the next rate to probe, or -1 when the search is done.
  int Next() const { return hi_ - lo_ > 1 ? lo_ + (hi_ - lo_) / 2 : -1; }
  void Record(int index, bool passed) {
    if (passed) {
      lo_ = index;
    } else {
      hi_ = index;
    }
  }
  // Highest rate index seen to pass, or -1 when every probe failed.
  int best() const { return lo_; }

 private:
  int lo_ = -1;  // highest index known to pass
  int hi_;       // lowest index known to fail (size() when none)
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
