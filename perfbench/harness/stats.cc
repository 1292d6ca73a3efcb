#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

size_t NearestRank(size_t n, double p) {
  // The epsilon keeps binary rounding (99.9 / 100 * 10000 =
  // 9990.000000000002) from pushing an exact rank up by one.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = samples[NearestRank(out.n, 50.0) - 1];
  out.tail_percentile = 100.0;
  out.tail = samples.back();
  for (const double p : kTailPercentiles) {
    if (SamplesBeyond(out.n, p) >= kMinSamplesBeyond) {
      out.tail_percentile = p;
      out.tail = samples[NearestRank(out.n, p) - 1];
      break;
    }
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool StepPasses(const LadderStep& step, const LadderLimits& limits) {
  if (step.aborted || step.sent == 0 || step.failed > 0) return false;
  if (step.tail_ms > limits.tail_ms) return false;
  const double allowed_growth = step.offered_rps * limits.tail_ms / 1000.0;
  const double growth = static_cast<double>(step.backlog_end) -
                        static_cast<double>(step.backlog_start);
  return growth <= allowed_growth;
}

size_t AbortBacklog(double offered_rps, const LadderLimits& limits) {
  return static_cast<size_t>(
      std::ceil(2.0 * offered_rps * limits.tail_ms / 1000.0));
}

}  // namespace perfbench
