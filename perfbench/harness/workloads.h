// The benchmark's three workloads. Each generates its corpus from the
// seed with datagen::GenerateCorpus, runs the live system untraced for
// the end-to-end metrics, checks the outputs, and replays the run
// layer by layer (traced when asked) for the per-layer metrics.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/host.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for journals and snapshots.
  std::string work_dir;
};

// Runs `args.workload` ("screen-open", "screen-durable" or "audit-full").
RunResult RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
