// adrdedup_perfbench: one run of one benchmark workload.
//
//   adrdedup_perfbench --workload=screen-open --seed=7 --seconds=20
//                      --trace=0 --work-dir=DIR [--result=FILE]
//
// Prints facts, checks and metrics as lines, then one JSON object with
// every metric as the last line. perfbench/run.py builds this binary
// and selects the metrics BENCHMARK.json lists for the mode.
#include <filesystem>
#include <iostream>
#include <string>

#include "harness/workloads.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  auto parsed = adrdedup::util::FlagSet::Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  const adrdedup::util::FlagSet& flags = parsed.value();
  const auto seed = flags.GetInt("seed", 1);
  const auto seconds = flags.GetDouble("seconds", 10.0);
  const auto trace = flags.GetInt("trace", 0);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || seed.value() < 0) {
    std::cerr << "--seed, --seconds and --trace take numbers\n";
    return 2;
  }
  perfbench::RunArgs args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(seed.value());
  args.seconds = seconds.value();
  args.trace = trace.value() != 0;
  args.work_dir = flags.GetString("work-dir", "");
  const std::string result_file = flags.GetString("result", "");
  if (auto unknown = flags.ExpectOnly(
          {"workload", "seed", "seconds", "trace", "work-dir", "result"});
      !unknown.ok()) {
    std::cerr << unknown.ToString() << "\n";
    return 2;
  }
  if (args.work_dir.empty() || args.seconds <= 0.0) {
    std::cerr << "--work-dir and a positive --seconds are required\n";
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  const perfbench::RunResult result = perfbench::RunWorkload(args);
  if (!result_file.empty() &&
      !perfbench::WriteResultFile(result, result_file)) {
    std::cerr << "cannot write " << result_file << "\n";
    return 1;
  }
  std::vector<std::string> all;
  for (const perfbench::Metric& metric : result.metrics) {
    all.push_back(metric.name);
  }
  perfbench::PrintResult(result, all);
  return 0;
}
