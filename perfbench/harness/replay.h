// Layer-by-layer replay of the detector: DedupPipeline::ProcessNewReports
// and the screening dispatcher re-executed from the library's public
// entry points (text features and interning, the incremental blocking
// index, the minispark distance job, the testing-set pruner, the Fast
// kNN scoring job, the serve frame/HTTP codecs, queue, journal and
// snapshot store), with a span around every call.
//
// The replay fits its own FastKnnClassifier and TestSetPruner on the
// labelled pairs in the pipeline's store order (positives, then
// negatives), so its detections must equal the live run's byte for byte;
// the benchmark checks that rather than assuming it.
#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blocking/incremental_index.h"
#include "core/dedup_pipeline.h"
#include "core/fast_knn.h"
#include "core/test_set_pruner.h"
#include "distance/interned.h"
#include "harness/loadgen.h"
#include "harness/trace.h"
#include "minispark/context.h"
#include "report/report_database.h"
#include "serve/journal.h"
#include "serve/screening_service.h"
#include "serve/snapshot.h"
#include "util/random.h"

namespace perfbench {

struct ReplayOptions {
  adrdedup::core::DedupPipelineOptions pipeline;
  // Screening dispatcher settings (queue replay).
  size_t max_batch = 32;
  // Durability, mirroring the live service: empty journal_dir disables.
  std::string journal_dir;
  adrdedup::serve::FsyncPolicy fsync_policy =
      adrdedup::serve::FsyncPolicy::kBatch;
  size_t snapshot_every = 0;
};

// Work and time counters of one replay, for the per-layer metrics that
// are counts rather than span times.
struct ReplayCounters {
  uint64_t reports = 0;
  uint64_t probes = 0;
  uint64_t candidates = 0;
  uint64_t vectors = 0;
  uint64_t kept = 0;
  uint64_t spark_jobs = 0;
  uint64_t journal_appends = 0;
  uint64_t journal_bytes = 0;
  uint64_t journal_fsyncs = 0;
  uint64_t snapshots = 0;
  uint64_t snapshot_bytes = 0;
  std::vector<double> snapshot_pause_ms;
};

class Replayer {
 public:
  Replayer(adrdedup::minispark::SparkContext* ctx,
           const ReplayOptions& options, Tracer* tracer);

  // Database ingest, as DedupPipeline::BootstrapDatabase.
  void Bootstrap(const std::vector<adrdedup::report::AdrReport>& reports);
  // Labelled stores and model fit, as SeedLabels + the first Refit.
  void Fit(const std::vector<adrdedup::distance::LabeledPair>& labels);
  // Publishes snapshot generation 1 with a fresh journal, as the live
  // service's Start() on an empty journal directory. No-op without a
  // journal_dir.
  adrdedup::util::Status StartDurability();

  // The stages of ProcessNewReports on one batch.
  adrdedup::core::DedupPipeline::DetectionResult Detect(
      const std::vector<adrdedup::report::AdrReport>& reports);

  // One live micro-batch through the serving path: decode each request
  // from the bytes that were sent, queue, detect, journal, snapshot when
  // due, and encode each response. Returns the encoded responses: binary
  // frame payloads, or HTTP bodies for HTTP requests.
  std::vector<std::string> ScreenBatch(
      const std::vector<const EncodedRequest*>& requests,
      const std::vector<bool>& http);

  const ReplayCounters& counters() const { return counters_; }
  const adrdedup::core::FastKnnClassifier& classifier() const {
    return classifier_;
  }
  const adrdedup::blocking::IncrementalBlockingIndex& index() const {
    return index_;
  }
  size_t dictionary_tokens() const { return dict_.size(); }

 private:
  bool incremental() const {
    return options_.pipeline.use_blocking &&
           options_.pipeline.incremental_blocking;
  }
  adrdedup::util::Status TakeSnapshot();

  adrdedup::minispark::SparkContext* ctx_;
  ReplayOptions options_;
  Tracer* tracer_;
  adrdedup::report::ReportDatabase db_;
  std::vector<adrdedup::distance::ReportFeatures> features_;
  adrdedup::distance::TokenDictionary dict_;
  std::vector<adrdedup::distance::InternedFeatures> interned_;
  adrdedup::blocking::IncrementalBlockingIndex index_;
  std::vector<adrdedup::distance::LabeledPair> positive_store_;
  std::vector<adrdedup::distance::LabeledPair> negative_store_;
  uint64_t negatives_seen_ = 0;
  uint64_t pruner_fit_positives_ = 0;
  adrdedup::core::FastKnnClassifier classifier_;
  adrdedup::core::TestSetPruner pruner_;
  adrdedup::util::Rng rng_;
  // Durability state.
  uint64_t bootstrap_size_ = 0;
  std::vector<adrdedup::report::AdrReport> admitted_;
  size_t admitted_since_snapshot_ = 0;
  std::unique_ptr<adrdedup::serve::SnapshotStore> store_;
  std::optional<adrdedup::serve::Journal> journal_;
  uint64_t generation_ = 0;
  // fsyncs of journals already superseded by a snapshot.
  uint64_t retired_fsyncs_ = 0;
  ReplayCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
