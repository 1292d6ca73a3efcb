#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "core/dedup_pipeline.h"
#include "harness/corpus.h"
#include "harness/loadgen.h"
#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "minispark/context.h"
#include "serve/net/server.h"
#include "serve/screening_service.h"
#include "serve/snapshot.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = adrdedup::core;
namespace serve = adrdedup::serve;
using adrdedup::minispark::SparkContext;
using adrdedup::serve::net::ScreenStatus;
using adrdedup::util::Stopwatch;

// ---------------------------------------------------------------------------
// Workload constants. They are part of the benchmark's definition: a
// change to any of them is a change to the benchmark, never to be made in
// a change that claims a gain.

constexpr size_t kExecutors = 4;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepeats = 3;

// Screening corpus: Table 3's per-report shape (same lexicons, 286 duplicate
// pairs per 10,382 reports) with more reports, so the held-out stream
// outlasts the run.
constexpr size_t kScreenReports = 23000;
constexpr size_t kScreenDuplicatePairs = 634;
constexpr size_t kScreenHeldOut = 12000;
// Expert-labelled non-duplicate pairs sampled from the database.
constexpr size_t kNegatives = 20000;

// screen-open offered rates (requests per second). The light rate keeps
// micro-batches at about one request; the working rate keeps batching
// active. The ladder is kLadderRates rates growing geometrically from
// kLadderFirstRps by kLadderRatio; a bisection over it finds the highest
// rate that meets the latency limit.
constexpr double kLightRps = 40.0;
constexpr double kWorkingRps = 150.0;
constexpr double kLadderFirstRps = 100.0;
constexpr double kLadderRatio = 1.1;
constexpr int kLadderRates = 39;
// Phase lengths as shares of --seconds, after a fixed warm-up.
constexpr double kWarmupSeconds = 0.5;
constexpr double kLightShare = 0.2;
// The working rate runs as kWorkingSegments segments; latency is the
// median over segments, so one stall of the shared host moves one
// segment, not the result.
constexpr size_t kWorkingSegments = 5;
constexpr double kWorkingSegmentShare = 0.12;
constexpr double kLadderStepShare = 0.04;
// Capacity: bursts of requests sent back to back, so the queue always
// holds a full micro-batch; the screen-open throughput is the median
// completion rate of the bursts.
constexpr size_t kBursts = 5;
constexpr size_t kBurstRequests = 800;
// Latency limit of the ladder, on the highest supported percentile.
constexpr double kLatencyLimitMs = 50.0;
// A run whose generator was later than the latency limit at the light or
// working rate (99th percentile of send lateness) cannot tell whether
// the service met it: the run measured the generator and is invalid.
constexpr double kMaxGeneratorLagMs = kLatencyLimitMs;
// Responses of one micro-batch are released together; a gap longer than
// this between consecutive admissions' answers starts a new batch.
constexpr double kBatchGapMs = 0.3;

// screen-durable: snapshot every N admitted reports.
constexpr size_t kSnapshotEvery = 200;
// The closed loop runs as kClosedSegments segments, each a share of
// --seconds; throughput is the median over segments.
constexpr size_t kClosedSegments = 4;
constexpr double kClosedSegmentShare = 0.2;

// audit-full: the Table 3 corpus, auditing 300 held-out reports.
constexpr size_t kAuditHeldOut = 300;

// Every workload generates its corpus and draws its labelled negatives
// from this seed (the generator's default); --seed draws the order of the
// held-out reports and the arrival times. The corpus and label draws move
// the work of a run far more than the code does: the testing-set pruner
// keeps from 4% to 93% of the audit's Eq. 3 pairs across corpus seeds
// (one outlying positive pair widens a cluster's radius), and the
// negatives sample alone moves the audit's Fast kNN time by up to 30%.
// Per-seed corpora or labels would make the spread of the work, not of
// its speed, the measurement.
constexpr uint64_t kCorpusSeed = 42;

// ---------------------------------------------------------------------------

core::DedupPipelineOptions ScreenPipelineOptions() {
  core::DedupPipelineOptions options;
  options.use_blocking = true;
  options.incremental_blocking = true;
  options.auto_refit = false;
  options.blocking.keys = {adrdedup::blocking::BlockingKey::kDrugToken,
                           adrdedup::blocking::BlockingKey::kAdrToken};
  options.blocking.max_block_size = 64;
  options.theta = 0.0;
  options.f_theta = 0.9;
  return options;
}

core::DedupPipelineOptions AuditPipelineOptions() {
  core::DedupPipelineOptions options;
  options.use_blocking = false;
  options.f_theta = 0.5;
  return options;
}

serve::ScreeningServiceOptions ServiceOptions(const std::string& journal_dir) {
  serve::ScreeningServiceOptions options;
  options.pipeline = ScreenPipelineOptions();
  options.queue_capacity = 8192;  // the ladder must not shed
  options.max_batch = 32;
  options.max_linger_ms = 2.0;
  if (!journal_dir.empty()) {
    options.journal_dir = journal_dir;
    options.fsync_policy = serve::FsyncPolicy::kBatch;
    options.snapshot_every = kSnapshotEvery;
  }
  return options;
}

struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> bootstrap_s;
  std::vector<double> fit_s;
};

void AddSetupMetrics(const SetupTimes& times, RunResult* result) {
  result->Add("setup_s", Median(times.total_s), "s");
  result->Add("setup.bootstrap_s", Median(times.bootstrap_s), "s");
  result->Add("setup.fit_s", Median(times.fit_s), "s");
}

// Bootstrap, label seeding and Start() (model fit, and with a journal the
// first snapshot), timed.
std::unique_ptr<serve::ScreeningService> StartService(
    SparkContext* ctx, const serve::ScreeningServiceOptions& options,
    const SplitCorpus& corpus, SetupTimes* times) {
  Stopwatch total;
  auto service = std::make_unique<serve::ScreeningService>(ctx, options);
  Stopwatch phase;
  service->Bootstrap(corpus.bootstrap);
  service->SeedLabels(corpus.labels);
  times->bootstrap_s.push_back(phase.ElapsedSeconds());
  phase.Restart();
  const adrdedup::util::Status started = service->Start();
  times->fit_s.push_back(phase.ElapsedSeconds());
  times->total_s.push_back(total.ElapsedSeconds());
  if (!started.ok()) {
    std::cout << "ScreeningService::Start failed: " << started.ToString()
              << "\n";
    return nullptr;
  }
  return service;
}

std::vector<double> OkLatencies(const std::vector<Answer>& answers) {
  std::vector<double> out;
  for (const Answer& a : answers) {
    if (!a.client_error && a.status == ScreenStatus::kOk) {
      out.push_back(a.received_ms - a.scheduled_ms);
    }
  }
  return out;
}

struct Outcome {
  size_t sent = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t expired = 0;
  size_t invalid = 0;
  size_t client_errors = 0;
  size_t failed() const { return shed + expired + invalid + client_errors; }
};

Outcome CountOutcome(const std::vector<Answer>& answers) {
  Outcome out;
  for (const Answer& a : answers) {
    ++out.sent;
    if (a.client_error) {
      ++out.client_errors;
    } else if (a.status == ScreenStatus::kOk) {
      ++out.ok;
    } else if (a.status == ScreenStatus::kShed) {
      ++out.shed;
    } else if (a.status == ScreenStatus::kExpired) {
      ++out.expired;
    } else {
      ++out.invalid;
    }
  }
  return out;
}

// Detections of a screening run as sorted unique lines
// "case_a,case_b,<score bits>" with case_a < case_b. A pair found inside
// one micro-batch is reported in both requests' answers, otherwise only
// in the later one's, so the answers' bytes depend on where the batches
// split; the detected pairs and their scores do not. Clears *parsed on a
// payload that does not parse.
std::vector<std::string> CanonicalDetections(
    const std::vector<Answer>& answers,
    const std::vector<EncodedRequest>& requests, bool* parsed) {
  std::set<std::string> lines;
  for (const Answer& a : answers) {
    std::vector<std::pair<std::string, double>> matches;
    if (!AnswerMatches(a, &matches)) {
      *parsed = false;
      continue;
    }
    const std::string& mine = requests[a.stream_index].case_number;
    for (const auto& [other, score] : matches) {
      uint64_t bits = 0;
      std::memcpy(&bits, &score, sizeof(bits));
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(bits));
      lines.insert(std::min(mine, other) + "," + std::max(mine, other) + "," +
                   hex);
    }
  }
  return {lines.begin(), lines.end()};
}

// Live micro-batches in admission order, recovered from answer arrival:
// the dispatcher answers a batch at once, so answers closer together
// than kBatchGapMs belong to one batch.
std::vector<std::vector<size_t>> RecoverBatches(
    const std::vector<Answer>& admitted, size_t max_batch) {
  std::vector<std::vector<size_t>> batches;
  for (size_t i = 0; i < admitted.size(); ++i) {
    const bool joins =
        !batches.empty() && batches.back().size() < max_batch &&
        admitted[i].received_ms - admitted[i - 1].received_ms <= kBatchGapMs;
    if (!joins) batches.emplace_back();
    batches.back().push_back(i);
  }
  return batches;
}

struct SpanStat {
  size_t count = 0;
  double total_us = 0.0;
  std::vector<double> durations_us;
};

std::map<std::string, SpanStat> SpanStats(const std::vector<Span>& spans) {
  std::map<std::string, SpanStat> out;
  for (const Span& span : spans) {
    SpanStat& stat = out[span.name];
    ++stat.count;
    stat.total_us += span.end_us - span.start_us;
    stat.durations_us.push_back(span.end_us - span.start_us);
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Latency of a phase run as segments: the medians over segments of each
// segment's p50 and tail (its highest percentile with ten samples beyond).
void AddSegmentedLatency(const std::vector<LatencySummary>& segments,
                         RunResult* result) {
  std::vector<double> p50;
  std::vector<double> tail;
  size_t samples = SIZE_MAX;
  for (const LatencySummary& s : segments) {
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    samples = std::min(samples, s.n);
  }
  result->Add("p50_ms", Median(p50), "ms");
  result->Add("tail_ms", Median(tail), "ms");
  result->Fact("latency_segments", std::to_string(segments.size()));
  result->Fact("segment_samples_min", std::to_string(samples));
  result->Fact("segment_tail_percentile", segments.front().tail_percentile);
  std::string tails;
  for (const double t : tail) {
    tails += (tails.empty() ? "" : ",") + adrdedup::util::JsonNumber(t);
  }
  result->Fact("segment_tails_ms", tails);
}

// Answered requests per second, from the first scheduled send to the
// last answer.
double CompletionRate(const std::vector<Answer>& answers) {
  double first_ms = 1e300;
  double last_ms = 0.0;
  for (const Answer& a : answers) {
    first_ms = std::min(first_ms, a.scheduled_ms);
    last_ms = std::max(last_ms, a.received_ms);
  }
  return Ratio(CountOutcome(answers).ok, (last_ms - first_ms) / 1000.0);
}

// One open-loop step judged as a ladder step.
LadderStep StepOf(const LoadClient::OpenLoopStep& run, double offered_rps) {
  const Outcome outcome = CountOutcome(run.answers);
  LadderStep step;
  step.offered_rps = offered_rps;
  step.aborted = run.aborted;
  step.sent = outcome.sent;
  step.ok = outcome.ok;
  step.failed = outcome.failed();
  step.backlog_start = run.backlog_start;
  step.backlog_end = run.backlog_end;
  step.tail_ms = Summarize(OkLatencies(run.answers)).tail;
  step.achieved_rps = CompletionRate(run.answers);
  return step;
}

// Everything one replay produces.
struct ReplayOutput {
  std::vector<std::string> responses;  // screening: per admitted request
  core::DedupPipeline::DetectionResult audit;
  double wall_s = 0.0;
  std::vector<Span> spans;
  ReplayCounters counters;
  adrdedup::minispark::MetricsSnapshot spark;
  std::vector<double> task_seconds;
  core::ComparisonStatsSnapshot knn;
  adrdedup::blocking::PostingIndexStats postings;
  size_t dictionary_tokens = 0;
};

// Replays the run. Screening: `batches` of `admitted` through the
// serving path. Audit: `audit_reports` through the batch stages.
ReplayOutput Replay(const ReplayOptions& options, const SplitCorpus& corpus,
                    bool traced,
                    const std::vector<const EncodedRequest*>& admitted,
                    const std::vector<bool>& http,
                    const std::vector<std::vector<size_t>>& batches,
                    const std::vector<adrdedup::report::AdrReport>*
                        audit_reports) {
  ReplayOutput out;
  SparkContext ctx({.num_executors = kExecutors});
  Tracer tracer(traced);
  Replayer replayer(&ctx, options, &tracer);
  replayer.Bootstrap(corpus.bootstrap);
  replayer.Fit(corpus.labels);
  const adrdedup::util::Status durable = replayer.StartDurability();
  ADRDEDUP_CHECK(durable.ok()) << durable.ToString();
  ctx.metrics().Reset();
  Stopwatch wall;
  {
    Tracer::Scope root(&tracer, "replay", "harness");
    if (audit_reports != nullptr) {
      out.audit = replayer.Detect(*audit_reports);
    }
    for (const std::vector<size_t>& batch : batches) {
      std::vector<const EncodedRequest*> requests;
      std::vector<bool> is_http;
      for (const size_t i : batch) {
        requests.push_back(admitted[i]);
        is_http.push_back(http[i]);
      }
      std::vector<std::string> responses =
          replayer.ScreenBatch(requests, is_http);
      for (std::string& response : responses) {
        out.responses.push_back(std::move(response));
      }
    }
  }
  out.wall_s = wall.ElapsedSeconds();
  out.spans = tracer.spans();
  out.counters = replayer.counters();
  out.spark = ctx.metrics().Snapshot();
  out.task_seconds = ctx.metrics().TaskDurations();
  out.knn = replayer.classifier().stats().Snapshot();
  out.postings = replayer.index().Stats();
  out.dictionary_tokens = replayer.dictionary_tokens();
  return out;
}

// Per-layer metrics measured by the traced replay.
void AddReplayLayerMetrics(const ReplayOutput& traced, double untraced_wall_s,
                           RunResult* result) {
  const std::map<std::string, SpanStat> stats = SpanStats(traced.spans);
  const LayerBreakdown breakdown = Breakdown(traced.spans, "replay");
  const auto stat = [&](const char* name) -> SpanStat {
    const auto it = stats.find(name);
    return it == stats.end() ? SpanStat{} : it->second;
  };
  const auto self_us = [&](const char* layer) {
    const auto it = breakdown.self_us.find(layer);
    return it == breakdown.self_us.end() ? 0.0 : it->second;
  };
  const ReplayCounters& c = traced.counters;

  for (const auto& [layer, us] : breakdown.self_us) {
    std::cout << "trace self_ms " << layer << " " << us / 1000.0 << "\n";
  }
  result->Add("trace.coverage", breakdown.coverage, "ratio");
  result->Add("trace.overhead_pct",
              100.0 * (traced.wall_s / untraced_wall_s - 1.0), "%");

  const SpanStat decode = stat("net.decode");
  const SpanStat encode = stat("net.encode");
  result->Add("net.decode_us", Ratio(decode.total_us, decode.count), "us");
  result->Add("net.encode_us", Ratio(encode.total_us, encode.count), "us");

  result->Add("ingest.us_per_report", Ratio(self_us("ingest"), c.reports),
              "us");
  result->Add("ingest.dict_tokens", traced.dictionary_tokens, "count");

  const SpanStat probe = stat("blocking.probe");
  const SpanStat insert = stat("blocking.insert");
  result->Add("blocking.probe_us", Ratio(probe.total_us, probe.count), "us");
  result->Add("blocking.insert_us", Ratio(insert.total_us, insert.count),
              "us");
  result->Add("blocking.candidates_per_report", Ratio(c.candidates, c.probes),
              "count");
  result->Add("blocking.posting_bytes", traced.postings.posting_bytes,
              "bytes");
  result->Add("blocking.unions", traced.postings.candidate_unions, "count");

  result->Add("distance.vectors", c.vectors, "count");
  result->Add("distance.ms", self_us("distance") / 1000.0, "ms");
  result->Add("distance.ns_per_vector",
              Ratio(1000.0 * self_us("distance"), c.vectors), "ns");
  result->Add("prune.ns_per_vector",
              Ratio(1000.0 * self_us("prune"), c.vectors), "ns");
  result->Add("prune.kept_ratio", Ratio(c.kept, c.vectors), "ratio");

  const double queries = static_cast<double>(traced.knn.queries);
  result->Add("knn.queries", queries, "count");
  result->Add("knn.us_per_query", Ratio(self_us("knn"), queries), "us");
  result->Add("knn.intra_per_query",
              Ratio(traced.knn.intra_cluster_comparisons, queries), "count");
  result->Add("knn.cross_per_query",
              Ratio(traced.knn.cross_cluster_comparisons, queries), "count");
  result->Add("knn.stage2_cells_per_query",
              Ratio(traced.knn.additional_clusters_checked, queries),
              "count");
  result->Add("knn.early_exit_ratio", Ratio(traced.knn.early_exits, queries),
              "ratio");

  std::vector<double> task_us;
  double task_total_s = 0.0;
  for (const double s : traced.task_seconds) {
    task_us.push_back(s * 1e6);
    task_total_s += s;
  }
  const double job_wall_us =
      stat("distance.job").total_us + stat("knn.job").total_us;
  result->Add("spark.jobs", c.spark_jobs, "count");
  result->Add("spark.tasks_per_job",
              Ratio(traced.spark.tasks_launched, c.spark_jobs), "count");
  result->Add("spark.task_us.p50", Percentile(task_us, 50.0), "us");
  result->Add("spark.busy_share",
              Ratio(task_total_s * 1e6, job_wall_us * kExecutors), "ratio");
  result->Add("spark.tasks_retried", traced.spark.tasks_retried, "count");

  const SpanStat append = stat("journal.append");
  result->Add("journal.append_us.p50", Percentile(append.durations_us, 50.0),
              "us");
  result->Add("journal.append_us.p99", Percentile(append.durations_us, 99.0),
              "us");
  result->Add("journal.bytes_per_batch",
              Ratio(c.journal_bytes, c.journal_appends), "bytes");
  result->Add("journal.fsyncs_per_append",
              Ratio(c.journal_fsyncs, c.journal_appends), "ratio");

  result->Add("snapshot.count", c.snapshots, "count");
  result->Add("snapshot.pause_ms.p50", Percentile(c.snapshot_pause_ms, 50.0),
              "ms");
  result->Add("snapshot.pause_ms.max",
              c.snapshot_pause_ms.empty()
                  ? 0.0
                  : *std::max_element(c.snapshot_pause_ms.begin(),
                                      c.snapshot_pause_ms.end()),
              "ms");
  result->Add("snapshot.bytes", c.snapshot_bytes, "bytes");
}

// Serve-layer metrics read from the live service's own counters and the
// HTTP answers' server-side accounting.
void AddLiveServeMetrics(serve::ScreeningService& service,
                         const std::vector<Answer>& answers,
                         RunResult* result) {
  const serve::ServiceMetrics& m = service.metrics();
  std::vector<double> hop_ms;
  std::vector<double> service_ms;
  for (const Answer& a : answers) {
    if (!a.http || a.client_error || a.status != ScreenStatus::kOk ||
        a.server_total_ms < 0.0) {
      continue;
    }
    hop_ms.push_back(a.received_ms - a.sent_ms - a.server_total_ms);
    service_ms.push_back(a.server_total_ms - a.server_queue_ms);
  }
  const auto queue = m.QueueWait();
  const double requests = static_cast<double>(m.requests_received());
  result->Add("net.hop_ms.p50", Percentile(hop_ms, 50.0), "ms");
  result->Add("net.bytes_per_req",
              Ratio(static_cast<double>(m.bytes_rx() + m.bytes_tx()),
                    requests),
              "bytes");
  result->Add("net.protocol_errors", m.protocol_errors(), "count");
  result->Add("serve.queue_wait_ms.p50", queue.p50_ms, "ms");
  result->Add("serve.queue_wait_ms.p99", queue.p99_ms, "ms");
  result->Add("serve.service_ms.p50", Percentile(service_ms, 50.0), "ms");
  result->Add("serve.batch_size.mean",
              Ratio(static_cast<double>(m.requests_completed()),
                    static_cast<double>(m.batches_dispatched())),
              "count");
  result->Add("serve.batches", m.batches_dispatched(), "count");
  result->Add("serve.shed", m.requests_shed(), "count");
  result->Add("serve.expired", m.requests_expired(), "count");
}

// Checks that every failure the client saw is counted, and that the
// service's own counters agree.
void CheckAccounting(const Outcome& outcome, const serve::ServiceMetrics& m,
                     RunResult* result) {
  result->attempted = outcome.sent;
  result->failed = outcome.failed();
  result->Check(outcome.shed == m.requests_shed(),
                "client-observed sheds equal the service's requests_shed");
  result->Check(outcome.expired == m.requests_expired(),
                "client-observed expiries equal the service's "
                "requests_expired");
  result->Check(outcome.sent == outcome.ok + outcome.failed(),
                "every sent request is counted as ok or failed");
  result->Check(outcome.failed() == 0,
                "no request was shed, expired, invalid or lost");
  std::cout << "outcome sent=" << outcome.sent << " ok=" << outcome.ok
            << " shed=" << outcome.shed << " expired=" << outcome.expired
            << " invalid=" << outcome.invalid
            << " client_errors=" << outcome.client_errors << "\n";
}

// Replays a screening run in admission order (untraced for the check,
// then traced when asked), compares detections byte for byte, and adds
// dup_recall and the per-layer metrics.
void CheckAndTraceScreening(const std::vector<Answer>& answers,
                            const std::vector<EncodedRequest>& requests,
                            const SplitCorpus& corpus,
                            ReplayOptions options, bool traced,
                            const std::string& work_dir,
                            RunResult* result) {
  std::vector<Answer> admitted;
  for (const Answer& a : answers) {
    if (!a.client_error && a.status == ScreenStatus::kOk) admitted.push_back(a);
  }
  std::sort(admitted.begin(), admitted.end(),
            [](const Answer& x, const Answer& y) {
              return x.admission < y.admission;
            });
  std::vector<const EncodedRequest*> admitted_requests;
  std::vector<bool> http;
  for (const Answer& a : admitted) {
    admitted_requests.push_back(&requests[a.stream_index]);
    http.push_back(a.http);
  }
  const auto batches = RecoverBatches(admitted, options.max_batch);
  result->Fact("replay_batches", std::to_string(batches.size()));

  const auto run = [&](bool with_trace, const std::string& tag) {
    ReplayOptions o = options;
    if (!o.journal_dir.empty()) {
      o.journal_dir = (fs::path(work_dir) / ("replay-" + tag)).string();
      fs::remove_all(o.journal_dir);
      fs::create_directories(o.journal_dir);
    }
    return Replay(o, corpus, with_trace, admitted_requests, http, batches,
                  nullptr);
  };
  const ReplayOutput plain = run(false, "plain");
  result->Fact("replay_s", plain.wall_s);
  std::vector<Answer> replayed = admitted;
  for (size_t i = 0; i < replayed.size() && i < plain.responses.size(); ++i) {
    replayed[i].payload = plain.responses[i];
  }
  bool parsed = plain.responses.size() == admitted.size();
  const std::vector<std::string> live_lines =
      CanonicalDetections(admitted, requests, &parsed);
  const std::vector<std::string> replay_lines =
      CanonicalDetections(replayed, requests, &parsed);
  result->Check(parsed, "every response parses");
  result->Check(live_lines == replay_lines,
                "replayed detections are byte-identical to the live run's (" +
                    std::to_string(live_lines.size()) + " pairs over " +
                    std::to_string(admitted.size()) + " requests)");

  std::vector<std::string> sent;
  std::vector<std::pair<std::string, std::string>> detected;
  for (const Answer& a : answers) {
    const std::string& mine = requests[a.stream_index].case_number;
    sent.push_back(mine);
    std::vector<std::pair<std::string, double>> matches;
    if (a.client_error || a.status != ScreenStatus::kOk) continue;
    if (!AnswerMatches(a, &matches)) continue;
    for (const auto& [other, score] : matches) {
      detected.emplace_back(mine, other);
    }
  }
  const auto findable = FindableDuplicates(corpus, sent);
  const double recall = Recall(findable, detected);
  result->Check(!findable.empty(), "the stream holds ground-truth duplicates");
  result->Add("dup_recall", recall, "ratio");
  result->Fact("findable_duplicates", std::to_string(findable.size()));

  if (traced) {
    const ReplayOutput with_trace = run(true, "traced");
    result->Check(with_trace.responses == plain.responses,
                  "traced replay detections equal the untraced replay's");
    AddReplayLayerMetrics(with_trace, plain.wall_s, result);
  }
}

void GeneratorLagCheck(const std::vector<double>& lag_ms,
                       RunResult* result) {
  const double p99 = Percentile(lag_ms, 99.0);
  result->Add("bench.gen_lag_ms.p99", p99, "ms");
  result->Check(p99 <= kMaxGeneratorLagMs,
                "generator lag p99 within " +
                    adrdedup::util::JsonNumber(kMaxGeneratorLagMs) +
                    " ms (run valid)");
}

SplitCorpus ScreenCorpus(uint64_t seed) {
  CorpusSpec spec;
  spec.reports = kScreenReports;
  spec.duplicate_pairs = kScreenDuplicatePairs;
  spec.held_out = kScreenHeldOut;
  spec.negatives = kNegatives;
  return MakeSplitCorpus(spec, kCorpusSeed, seed);
}

std::vector<EncodedRequest> EncodeAll(const SplitCorpus& corpus) {
  std::vector<EncodedRequest> out;
  out.reserve(corpus.held_out.size());
  for (const auto& report : corpus.held_out) {
    out.push_back(EncodeRequest(report));
  }
  return out;
}

void RecordCorpusFacts(const SplitCorpus& corpus, RunResult* result) {
  result->Fact("corpus_reports",
               std::to_string(corpus.generated.db.size()));
  result->Fact("corpus_duplicate_pairs",
               std::to_string(corpus.generated.duplicate_pairs.size()));
  result->Fact("bootstrap_reports", std::to_string(corpus.bootstrap.size()));
  result->Fact("held_out_reports", std::to_string(corpus.held_out.size()));
  result->Fact("labels", std::to_string(corpus.labels.size()));
}

// ---------------------------------------------------------------------------
// screen-open

RunResult RunScreenOpen(const RunArgs& args) {
  RunResult result;
  Stopwatch corpus_clock;
  const SplitCorpus corpus = ScreenCorpus(args.seed);
  result.Fact("corpus_s", corpus_clock.ElapsedSeconds());
  RecordCorpusFacts(corpus, &result);
  const std::vector<EncodedRequest> requests = EncodeAll(corpus);

  SparkContext ctx({.num_executors = kExecutors});
  const serve::ScreeningServiceOptions options = ServiceOptions("");
  SetupTimes setup;
  std::unique_ptr<serve::ScreeningService> service;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    service = StartService(&ctx, options, corpus, &setup);
    if (!service) {
      result.Check(false, "service starts");
      return result;
    }
  }
  AddSetupMetrics(setup, &result);

  serve::net::NetServerOptions net_options;
  net_options.max_connections = 16;
  net_options.idle_timeout_ms = 0.0;
  serve::net::NetServer server(service.get(), net_options);
  if (!server.Start().ok()) {
    result.Check(false, "net server starts");
    return result;
  }
  serve::ScreeningService* live = service.get();
  LoadClient client(server.port(), &requests, [live] {
    return live->metrics().requests_received();
  });
  result.Check(client.connected(), "load client connects");

  std::vector<Answer> answers;
  std::vector<double> lag;
  uint64_t phase_seed = args.seed * 1000;
  const auto open_loop = [&](double rate, double seconds,
                             size_t abort_backlog) {
    LoadClient::OpenLoopStep step =
        client.RunOpenLoop(rate, seconds, ++phase_seed, abort_backlog);
    lag.insert(lag.end(), step.lag_ms.begin(), step.lag_ms.end());
    answers.insert(answers.end(), step.answers.begin(), step.answers.end());
    return step;
  };

  open_loop(kWorkingRps, kWarmupSeconds, 0);
  const auto light = open_loop(kLightRps, args.seconds * kLightShare, 0);
  // Working-rate segments alternate with the capacity bursts, so a slow
  // spell of the shared host moves a minority of each kind.
  std::vector<LatencySummary> working;
  std::vector<double> burst_rps;
  for (size_t i = 0; i < std::max(kWorkingSegments, kBursts); ++i) {
    if (i < kWorkingSegments) {
      working.push_back(Summarize(OkLatencies(
          open_loop(kWorkingRps, args.seconds * kWorkingSegmentShare, 0)
              .answers)));
    }
    if (i < kBursts) {
      const auto burst = client.RunBurst(kBurstRequests);
      answers.insert(answers.end(), burst.answers.begin(),
                     burst.answers.end());
      burst_rps.push_back(CompletionRate(burst.answers));
    }
  }
  GeneratorLagCheck(lag, &result);
  const LatencySummary light_latency = Summarize(OkLatencies(light.answers));
  result.Add("screen.p50_ms.light", light_latency.p50, "ms");
  result.Add("screen.tail_ms.light", light_latency.tail, "ms");
  result.Fact("light_latency_samples", std::to_string(light_latency.n));
  result.Fact("light_tail_percentile", light_latency.tail_percentile);
  AddSegmentedLatency(working, &result);
  result.Add("throughput", Median(burst_rps), "1/s");

  if (args.trace) {
    const LadderLimits limits{kLatencyLimitMs};
    const double step_seconds = args.seconds * kLadderStepShare;
    LadderSearch search(kLadderRates);
    std::map<int, LadderStep> steps;
    for (int next = search.Next(); next >= 0; next = search.Next()) {
      const double rate = kLadderFirstRps * std::pow(kLadderRatio, next);
      if (client.remaining() < static_cast<size_t>(rate * step_seconds) + 1) {
        result.Fact("ladder_stopped", "stream exhausted");
        break;
      }
      const LadderStep step = StepOf(
          open_loop(rate, step_seconds, AbortBacklog(rate, limits)), rate);
      const bool passed = StepPasses(step, limits);
      std::cout << "ladder " << rate << " rps: sent=" << step.sent
                << " failed=" << step.failed << " tail=" << step.tail_ms
                << " ms backlog=" << step.backlog_start << "->"
                << step.backlog_end << " achieved=" << step.achieved_rps
                << (step.aborted ? " aborted" : "")
                << (passed ? " pass" : " FAIL") << "\n";
      search.Record(next, passed);
      steps[next] = step;
    }
    const int top = search.best();
    result.Add("screen.max_rps", top >= 0 ? steps[top].offered_rps : 0.0,
               "1/s");
  }

  server.Stop();
  const Outcome outcome = CountOutcome(answers);
  CheckAccounting(outcome, service->metrics(), &result);
  if (args.trace) AddLiveServeMetrics(*service, answers, &result);
  service->Stop();
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  result.Fact("stream_sent", std::to_string(outcome.sent));

  ReplayOptions replay;
  replay.pipeline = options.pipeline;
  replay.max_batch = options.max_batch;
  CheckAndTraceScreening(answers, requests, corpus, replay, args.trace,
                         args.work_dir, &result);
  return result;
}

// ---------------------------------------------------------------------------
// screen-durable

RunResult RunScreenDurable(const RunArgs& args) {
  RunResult result;
  Stopwatch corpus_clock;
  const SplitCorpus corpus = ScreenCorpus(args.seed);
  result.Fact("corpus_s", corpus_clock.ElapsedSeconds());
  RecordCorpusFacts(corpus, &result);
  const std::vector<EncodedRequest> requests = EncodeAll(corpus);

  SparkContext ctx({.num_executors = kExecutors});
  SetupTimes setup;
  std::unique_ptr<serve::ScreeningService> service;
  std::string journal_dir;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    journal_dir =
        (fs::path(args.work_dir) / ("journal-" + std::to_string(i))).string();
    fs::remove_all(journal_dir);
    fs::create_directories(journal_dir);
    service = StartService(&ctx, ServiceOptions(journal_dir), corpus, &setup);
    if (!service) {
      result.Check(false, "durable service starts");
      return result;
    }
  }
  AddSetupMetrics(setup, &result);
  const serve::ScreeningServiceOptions options = ServiceOptions(journal_dir);

  serve::net::NetServerOptions net_options;
  net_options.max_connections = 16;
  net_options.idle_timeout_ms = 0.0;
  serve::net::NetServer server(service.get(), net_options);
  if (!server.Start().ok()) {
    result.Check(false, "net server starts");
    return result;
  }
  serve::ScreeningService* live = service.get();
  LoadClient client(server.port(), &requests, [live] {
    return live->metrics().requests_received();
  });
  result.Check(client.connected(), "load client connects");

  std::vector<Answer> answers;
  const auto warmup = client.RunClosedLoop(kWarmupSeconds);
  answers = warmup.answers;
  std::vector<double> latencies;
  std::vector<double> segment_rps;
  for (size_t i = 0; i < kClosedSegments; ++i) {
    const auto closed =
        client.RunClosedLoop(args.seconds * kClosedSegmentShare);
    answers.insert(answers.end(), closed.answers.begin(),
                   closed.answers.end());
    const std::vector<double> segment = OkLatencies(closed.answers);
    latencies.insert(latencies.end(), segment.begin(), segment.end());
    segment_rps.push_back(Ratio(segment.size(), closed.wall_s));
  }
  // Latency pools the segments: the tail must stay the 99th percentile
  // (set by the 4 requests each snapshot pause holds, about 2% of them),
  // and per-segment counts near 1,000 would flip it to the 95th.
  const LatencySummary latency = Summarize(latencies);
  result.Add("p50_ms", latency.p50, "ms");
  result.Add("tail_ms", latency.tail, "ms");
  result.Fact("latency_samples", std::to_string(latency.n));
  result.Fact("tail_percentile", latency.tail_percentile);
  result.Add("throughput", Median(segment_rps), "1/s");
  result.Add("screen.closed_rps", Median(segment_rps), "1/s");
  result.Check(client.remaining() > 0, "the stream outlasts the closed loop");
  result.Add("bench.gen_lag_ms.p99", 0.0, "ms");

  server.Stop();
  const Outcome outcome = CountOutcome(answers);
  CheckAccounting(outcome, service->metrics(), &result);
  if (args.trace) AddLiveServeMetrics(*service, answers, &result);
  const size_t db_size = service->db_size();
  service->Stop();
  const uint64_t fingerprint = service->metrics().state_fingerprint();
  result.Fact("snapshots_written",
              std::to_string(service->metrics().snapshots_written()));
  service.reset();

  // Restart on the same journal directory.
  SetupTimes restart_setup;
  {
    auto restarted = std::make_unique<serve::ScreeningService>(&ctx, options);
    restarted->Bootstrap(corpus.bootstrap);
    restarted->SeedLabels(corpus.labels);
    Stopwatch recover;
    const adrdedup::util::Status started = restarted->Start();
    while (started.ok() &&
           restarted->health() != serve::HealthState::kHealthy) {
    }
    result.Add("recover_s", recover.ElapsedSeconds(), "s");
    result.Check(started.ok(), "restart on the journal directory succeeds");
    result.Check(restarted->metrics().state_fingerprint() == fingerprint,
                 "restarted state_fingerprint equals the value at stop");
    result.Check(restarted->db_size() == db_size,
                 "restarted db_size equals the value at stop (" +
                     std::to_string(db_size) + ")");
    restarted.reset();
  }
  // The published snapshot lists the admitted reports in admission
  // order: it must match the order the generator recorded.
  {
    auto loaded = serve::SnapshotStore(journal_dir).Load();
    std::vector<Answer> admitted;
    for (const Answer& a : answers) {
      if (!a.client_error && a.status == ScreenStatus::kOk) {
        admitted.push_back(a);
      }
    }
    std::sort(admitted.begin(), admitted.end(),
              [](const Answer& x, const Answer& y) {
                return x.admission < y.admission;
              });
    bool same = loaded.ok() &&
                loaded.value().state.admitted.size() == admitted.size();
    for (size_t i = 0; same && i < admitted.size(); ++i) {
      same = loaded.value().state.admitted[i].case_number() ==
             requests[admitted[i].stream_index].case_number;
    }
    result.Check(same,
                 "snapshot admission order equals the generator's order");
  }
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");
  result.Fact("stream_sent", std::to_string(outcome.sent));

  ReplayOptions replay;
  replay.pipeline = options.pipeline;
  replay.max_batch = options.max_batch;
  replay.journal_dir = journal_dir;  // replaced by a fresh directory
  replay.fsync_policy = options.fsync_policy;
  replay.snapshot_every = options.snapshot_every;
  CheckAndTraceScreening(answers, requests, corpus, replay, args.trace,
                         args.work_dir, &result);
  return result;
}

// ---------------------------------------------------------------------------
// audit-full

RunResult RunAuditFull(const RunArgs& args) {
  RunResult result;
  CorpusSpec spec;
  spec.reports = 10382;
  spec.duplicate_pairs = 286;
  spec.held_out = kAuditHeldOut;
  spec.negatives = kNegatives;
  Stopwatch corpus_clock;
  const SplitCorpus corpus =
      MakeSplitCorpus(spec, kCorpusSeed, args.seed);
  result.Fact("corpus_s", corpus_clock.ElapsedSeconds());
  RecordCorpusFacts(corpus, &result);

  SparkContext ctx({.num_executors = kExecutors});
  const core::DedupPipelineOptions options = AuditPipelineOptions();
  SetupTimes setup;
  std::vector<double> audit_ms;
  core::DedupPipeline::DetectionResult first;
  std::vector<std::pair<std::string, std::string>> detected;
  bool repeatable = true;
  Stopwatch budget;
  while (audit_ms.size() < 2 || budget.ElapsedSeconds() < args.seconds) {
    Stopwatch total;
    core::DedupPipeline pipeline(&ctx, options);
    Stopwatch phase;
    pipeline.BootstrapDatabase(corpus.bootstrap);
    pipeline.SeedLabels(corpus.labels);
    setup.bootstrap_s.push_back(phase.ElapsedSeconds());
    phase.Restart();
    pipeline.ProcessNewReports({});  // fits classifier and pruner
    setup.fit_s.push_back(phase.ElapsedSeconds());
    setup.total_s.push_back(total.ElapsedSeconds());

    Stopwatch audit;
    core::DedupPipeline::DetectionResult r =
        pipeline.ProcessNewReports(corpus.held_out);
    audit_ms.push_back(audit.ElapsedMillis());
    if (audit_ms.size() == 1) {
      for (const auto& pair : r.duplicates) {
        detected.emplace_back(pipeline.db().Get(pair.a).case_number(),
                              pipeline.db().Get(pair.b).case_number());
      }
      first = std::move(r);
    } else {
      repeatable = repeatable && r.duplicates == first.duplicates &&
                   r.scores == first.scores;
    }
    result.attempted += corpus.held_out.size();
  }
  result.Check(repeatable, "every audit of the run detects the same pairs");
  AddSetupMetrics(setup, &result);
  const LatencySummary latency = Summarize(audit_ms);
  result.Add("p50_ms", latency.p50, "ms");
  result.Add("tail_ms", latency.tail, "ms");
  std::string walls;
  for (const double ms : audit_ms) {
    walls += (walls.empty() ? "" : ",") + std::to_string(std::lround(ms));
  }
  result.Fact("audit_ms", walls);
  result.Fact("tail_percentile", latency.tail_percentile);
  result.Add("throughput",
             Ratio(static_cast<double>(corpus.held_out.size()),
                   latency.p50 / 1000.0),
             "1/s");
  result.Add("audit.pairs_per_s",
             Ratio(static_cast<double>(first.pairs_considered),
                   latency.p50 / 1000.0),
             "1/s");
  result.Fact("pairs_considered", std::to_string(first.pairs_considered));
  result.Fact("pairs_after_pruning",
              std::to_string(first.pairs_after_pruning));
  result.Fact("duplicates_detected", std::to_string(first.duplicates.size()));
  result.Add("bench.gen_lag_ms.p99", 0.0, "ms");
  result.Add("peak_rss_mb", PeakRssMb(), "MiB");

  std::vector<std::string> sent;
  for (const auto& report : corpus.held_out) {
    sent.push_back(report.case_number());
  }
  const auto findable = FindableDuplicates(corpus, sent);
  result.Check(!findable.empty(),
               "the audit set holds ground-truth duplicates");
  result.Add("dup_recall", Recall(findable, detected), "ratio");
  result.Fact("findable_duplicates", std::to_string(findable.size()));

  ReplayOptions replay;
  replay.pipeline = options;
  const auto run = [&](bool traced) {
    return Replay(replay, corpus, traced, {}, {}, {}, &corpus.held_out);
  };
  const ReplayOutput plain = run(false);
  result.Fact("replay_s", plain.wall_s);
  result.Check(plain.audit.duplicates == first.duplicates &&
                   plain.audit.scores == first.scores &&
                   plain.audit.pairs_considered == first.pairs_considered &&
                   plain.audit.pairs_after_pruning ==
                       first.pairs_after_pruning,
               "replayed audit detections are bit-identical to the live "
               "audit (" +
                   std::to_string(first.duplicates.size()) + " pairs)");
  if (args.trace) {
    const ReplayOutput traced = run(true);
    result.Check(traced.audit.duplicates == plain.audit.duplicates &&
                     traced.audit.scores == plain.audit.scores,
                 "traced replay detections equal the untraced replay's");
    AddReplayLayerMetrics(traced, plain.wall_s, &result);
  }
  return result;
}

// Per-layer metrics a workload bypasses read 0 (no work done).
void FillBypassedLayers(RunResult* result) {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"net.hop_ms.p50", "ms"},          {"net.bytes_per_req", "bytes"},
      {"net.protocol_errors", "count"},  {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"}, {"serve.service_ms.p50", "ms"},
      {"serve.batch_size.mean", "count"}, {"serve.batches", "count"},
      {"serve.shed", "count"},           {"serve.expired", "count"},
      {"screen.p50_ms.light", "ms"},     {"screen.tail_ms.light", "ms"},
      {"screen.max_rps", "1/s"},         {"screen.closed_rps", "1/s"},
      {"recover_s", "s"},                {"audit.pairs_per_s", "1/s"}};
  std::set<std::string> present;
  for (const Metric& metric : result->metrics) present.insert(metric.name);
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!present.contains(name)) result->Add(name, 0.0, unit);
  }
}

}  // namespace

RunResult RunWorkload(const RunArgs& args) {
  RunResult result;
  if (args.workload == "screen-open") {
    result = RunScreenOpen(args);
  } else if (args.workload == "screen-durable") {
    result = RunScreenDurable(args);
  } else if (args.workload == "audit-full") {
    result = RunAuditFull(args);
  } else {
    result.Check(false, "known workload: " + args.workload);
    return result;
  }
  if (args.trace) FillBypassedLayers(&result);
  RecordHostFacts(&result, kExecutors);
  result.Fact("workload", args.workload);
  result.Fact("seed", std::to_string(args.seed));
  result.Fact("seconds", args.seconds);
  result.Fact("traced", args.trace ? "true" : "false");
  return result;
}

}  // namespace perfbench
