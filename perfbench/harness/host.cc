#include "harness/host.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <thread>

#include "distance/simd/dispatch.h"
#include "util/json.h"

namespace perfbench {

void RunResult::Fact(const std::string& key, double value) {
  Fact(key, adrdedup::util::JsonNumber(value));
}

void RunResult::Check(bool ok, const std::string& what) {
  std::cout << "check " << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) failures.push_back(what);
}

void RecordHostFacts(RunResult* result, size_t executors) {
  namespace simd = adrdedup::distance::simd;
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const char* no_simd = std::getenv("ADRDEDUP_NO_SIMD");
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  result->Fact("cores", std::to_string(std::thread::hardware_concurrency()));
  result->Fact("simd_level", simd::LevelName(simd::ActiveLevel()));
  result->Fact("build_type", build_type);
  result->Fact("compiler", PERFBENCH_COMPILER);
  result->Fact("git_sha", sha != nullptr ? sha : "unknown");
  result->Fact("source_digest", digest != nullptr ? digest : "unknown");
  result->Fact("executors", std::to_string(executors));
  const bool debug_build =
      build_type == "Debug" || build_type == "Sanitize" || build_type.empty();
  const bool simd_disabled = no_simd != nullptr && *no_simd != '\0';
  result->Fact("baseline_eligible",
               debug_build || simd_disabled ? "false" : "true");
  if (debug_build) {
    result->Fact("baseline_blocker", "build type " + build_type);
  } else if (simd_disabled) {
    result->Fact("baseline_blocker", "ADRDEDUP_NO_SIMD is set");
  }
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const RunResult& result,
                 const std::vector<std::string>& reported) {
  for (const auto& [key, value] : result.facts) {
    std::cout << "fact " << key << " " << value << "\n";
  }
  for (const Metric& metric : result.metrics) {
    std::cout << "metric " << metric.name << " "
              << adrdedup::util::JsonNumber(metric.value) << " "
              << metric.unit << "\n";
  }
  const std::set<std::string> wanted(reported.begin(), reported.end());
  adrdedup::util::JsonWriter w;
  w.BeginObject();
  w.Field("correct", result.correct());
  w.Field("attempted", result.attempted);
  w.Field("failed", result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& metric : result.metrics) {
    if (!wanted.contains(metric.name)) continue;
    w.Key(metric.name);
    w.BeginObject();
    w.Field("value", metric.value);
    w.Field("unit", std::string_view(metric.unit));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::cout << std::move(w).TakeString() << std::endl;
}

bool WriteResultFile(const RunResult& result, const std::string& path) {
  adrdedup::util::JsonWriter w(/*pretty=*/true);
  w.BeginObject();
  w.Key("facts");
  w.BeginObject();
  for (const auto& [key, value] : result.facts) {
    w.Field(key, std::string_view(value));
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& metric : result.metrics) {
    w.Key(metric.name);
    w.BeginObject();
    w.Field("value", metric.value);
    w.Field("unit", std::string_view(metric.unit));
    w.EndObject();
  }
  w.EndObject();
  w.Field("correct", result.correct());
  w.Key("failed_checks");
  w.BeginArray();
  for (const std::string& failure : result.failures) {
    w.Value(std::string_view(failure));
  }
  w.EndArray();
  w.Field("attempted", result.attempted);
  w.Field("failed", result.failed);
  w.EndObject();
  std::ofstream out(path);
  out << std::move(w).TakeString() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
