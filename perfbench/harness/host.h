// Result record of one benchmark run: host facts, metrics, correctness
// verdicts, and the printing of both the human-readable lines and the
// final one-line JSON object of the run.
#ifndef PERFBENCH_HARNESS_HOST_H_
#define PERFBENCH_HARNESS_HOST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  // Facts as (key, value) strings, in print order.
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<Metric> metrics;
  // Failed correctness checks, by description.
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
  void Fact(const std::string& key, double value);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures.empty(); }
};

// Records cores, SIMD dispatch level, build type, compiler, source
// identity and executor count, and whether this build may serve as a
// baseline (never a Debug or Sanitize build, nor ADRDEDUP_NO_SIMD).
void RecordHostFacts(RunResult* result, size_t executors);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Prints facts, checks and metrics as "name value unit" lines, then the
// final JSON line restricted to the metrics named in `reported`.
void PrintResult(const RunResult& result,
                 const std::vector<std::string>& reported);

// Writes the full record (facts, every metric, checks) as JSON.
bool WriteResultFile(const RunResult& result, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_H_
