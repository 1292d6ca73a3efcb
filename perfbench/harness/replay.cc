#include "harness/replay.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "distance/pairwise.h"
#include "distance/report_features.h"
#include "serve/micro_batch_queue.h"
#include "serve/net/frame.h"
#include "serve/net/http.h"
#include "serve/request_codec.h"
#include "util/logging.h"

namespace perfbench {

namespace core = adrdedup::core;
namespace distance = adrdedup::distance;
namespace report = adrdedup::report;
namespace serve = adrdedup::serve;
namespace net = adrdedup::serve::net;
using adrdedup::util::Status;

Replayer::Replayer(adrdedup::minispark::SparkContext* ctx,
                   const ReplayOptions& options, Tracer* tracer)
    : ctx_(ctx),
      options_(options),
      tracer_(tracer),
      index_(options.pipeline.blocking),
      classifier_(options.pipeline.knn),
      pruner_(options.pipeline.pruner),
      rng_(options.pipeline.seed) {
  ADRDEDUP_CHECK(!options.pipeline.use_blocking || incremental())
      << "the replay covers the full pair universe and incremental blocking";
  ADRDEDUP_CHECK(!options.pipeline.persist_level.has_value());
}

void Replayer::Bootstrap(const std::vector<report::AdrReport>& reports) {
  for (const report::AdrReport& r : reports) db_.Add(r);
  features_ = distance::ExtractAllFeatures(db_, options_.pipeline.features,
                                           &ctx_->pool());
  dict_ = distance::TokenDictionary::Build(features_);
  interned_ = distance::InternAllFeatures(features_, &dict_, &ctx_->pool());
  if (incremental()) {
    for (size_t i = 0; i < interned_.size(); ++i) {
      index_.Add(static_cast<report::ReportId>(i), interned_[i]);
    }
  }
  bootstrap_size_ = db_.size();
}

void Replayer::Fit(const std::vector<distance::LabeledPair>& labels) {
  for (const distance::LabeledPair& pair : labels) {
    if (pair.is_positive()) {
      positive_store_.push_back(pair);
    } else {
      ++negatives_seen_;
      if (negative_store_.size() < options_.pipeline.max_negative_store) {
        negative_store_.push_back(pair);
      }
    }
  }
  std::vector<distance::LabeledPair> train = positive_store_;
  train.insert(train.end(), negative_store_.begin(), negative_store_.end());
  classifier_.Fit(train, &ctx_->pool());
  if (options_.pipeline.f_theta >= 0.0 && !positive_store_.empty()) {
    pruner_.Fit(positive_store_);
    pruner_fit_positives_ = positive_store_.size();
  }
}

Status Replayer::StartDurability() {
  if (options_.journal_dir.empty()) return Status::OK();
  store_ = std::make_unique<serve::SnapshotStore>(options_.journal_dir);
  ADRDEDUP_RETURN_NOT_OK(TakeSnapshot());
  // Generation 1 is set-up work; the counters cover the stream.
  counters_.snapshots = 0;
  counters_.snapshot_pause_ms.clear();
  return Status::OK();
}

core::DedupPipeline::DetectionResult Replayer::Detect(
    const std::vector<report::AdrReport>& reports) {
  const auto first_new = static_cast<report::ReportId>(db_.size());
  std::vector<report::ReportId> fresh;
  {
    Tracer::Scope ingest(tracer_, "ingest", "ingest");
    for (const report::AdrReport& r : reports) fresh.push_back(db_.Add(r));
    const size_t n = db_.size();
    features_.resize(n);
    ctx_->pool().ParallelFor(first_new, n, [&](size_t i) {
      Tracer::Scope span(tracer_, "ingest.extract", "ingest", ingest.id());
      features_[i] = distance::ExtractFeatures(
          db_.Get(static_cast<report::ReportId>(i)),
          options_.pipeline.features);
    });
    interned_.resize(n);
    for (size_t i = first_new; i < n; ++i) {
      distance::ExtendDictionary(features_[i], &dict_);
    }
    const distance::TokenDictionary& frozen = dict_;
    ctx_->pool().ParallelFor(first_new, n, [&](size_t i) {
      Tracer::Scope span(tracer_, "ingest.intern", "ingest", ingest.id());
      interned_[i] = distance::InternFeatures(features_[i], frozen);
    });
    counters_.reports += reports.size();
  }

  std::vector<distance::ReportPair> pairs;
  if (incremental()) {
    Tracer::Scope blocking(tracer_, "blocking", "blocking");
    for (const report::ReportId id : fresh) {
      std::vector<report::ReportId> candidates;
      {
        Tracer::Scope probe(tracer_, "blocking.probe", "blocking");
        candidates = index_.Candidates(interned_[id]);
      }
      ++counters_.probes;
      counters_.candidates += candidates.size();
      for (const report::ReportId other : candidates) {
        pairs.push_back({other, id});
      }
      Tracer::Scope insert(tracer_, "blocking.insert", "blocking");
      index_.Add(id, interned_[id]);
    }
  } else {
    Tracer::Scope universe(tracer_, "distance.pairs", "distance");
    std::vector<report::ReportId> existing(first_new);
    for (report::ReportId i = 0; i < first_new; ++i) existing[i] = i;
    pairs = distance::PairsForNewReports(existing, fresh);
  }

  core::DedupPipeline::DetectionResult result;
  result.pairs_considered = pairs.size();
  if (pairs.empty()) return result;

  std::vector<distance::DistanceVector> vectors;
  {
    Tracer::Scope job(tracer_, "distance.job", "distance");
    vectors = distance::ComputePairDistancesSpark(ctx_, interned_, pairs,
                                                  options_.pipeline.pairwise);
  }
  ++counters_.spark_jobs;
  counters_.vectors += vectors.size();

  std::vector<size_t> kept;
  {
    Tracer::Scope prune(tracer_, "prune", "prune");
    kept.reserve(pairs.size());
    const bool enabled =
        options_.pipeline.f_theta >= 0.0 && !positive_store_.empty();
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (!enabled ||
          pruner_.ShouldKeep(vectors[i], options_.pipeline.f_theta)) {
        kept.push_back(i);
      }
    }
  }
  result.pairs_after_pruning = kept.size();
  counters_.kept += kept.size();

  std::vector<double> scores;
  {
    Tracer::Scope knn(tracer_, "knn.job", "knn");
    std::vector<distance::LabeledPair> queries(kept.size());
    for (size_t q = 0; q < kept.size(); ++q) {
      queries[q].vector = vectors[kept[q]];
      queries[q].pair = pairs[kept[q]];
    }
    scores = classifier_.ScoreAllSpark(ctx_, queries);
  }
  ++counters_.spark_jobs;

  // Eq. 6 threshold and the labelled-store feedback of ProcessNewReports
  // (the stores feed the snapshot, not the fixed serving model).
  Tracer::Scope feedback(tracer_, "core.feedback", "core");
  for (size_t q = 0; q < kept.size(); ++q) {
    distance::LabeledPair labeled;
    labeled.vector = vectors[kept[q]];
    labeled.pair = pairs[kept[q]];
    if (scores[q] >= options_.pipeline.theta) {
      labeled.label = +1;
      positive_store_.push_back(labeled);
      result.duplicates.push_back(labeled.pair);
      result.scores.push_back(scores[q]);
    } else {
      labeled.label = -1;
      ++negatives_seen_;
      if (negative_store_.size() < options_.pipeline.max_negative_store) {
        negative_store_.push_back(labeled);
      } else {
        const uint64_t slot = rng_.Uniform(negatives_seen_);
        if (slot < negative_store_.size()) negative_store_[slot] = labeled;
      }
    }
  }
  return result;
}

std::vector<std::string> Replayer::ScreenBatch(
    const std::vector<const EncodedRequest*>& requests,
    const std::vector<bool>& http) {
  Tracer::Scope batch_span(tracer_, "serve.batch", "serve");
  const size_t n = requests.size();
  std::vector<report::AdrReport> reports(n);
  for (size_t i = 0; i < n; ++i) {
    Tracer::Scope span(tracer_, "net.decode", "net");
    std::vector<std::pair<std::string, std::string>> fields;
    std::string error;
    size_t consumed = 0;
    if (http[i]) {
      net::HttpRequest request;
      const net::HttpParseStatus parsed = net::ParseHttpRequest(
          requests[i]->http, 1 << 20, &request, &consumed, &error);
      ADRDEDUP_CHECK(parsed == net::HttpParseStatus::kRequest) << error;
      auto body = serve::ParseFlatJsonObject(request.body);
      ADRDEDUP_CHECK(body.ok()) << body.status().ToString();
      fields = std::move(body).value();
    } else {
      net::Frame frame;
      const net::DecodeStatus decoded = net::DecodeFrame(
          requests[i]->binary, 1 << 20, &frame, &consumed, &error);
      ADRDEDUP_CHECK(decoded == net::DecodeStatus::kFrame) << error;
      ADRDEDUP_CHECK(net::DecodeScreenRequest(frame.payload, &fields));
    }
    auto bound = serve::FieldsToReport(fields);
    ADRDEDUP_CHECK(bound.ok()) << bound.status().ToString();
    reports[i] = std::move(bound).value();
  }

  {
    Tracer::Scope span(tracer_, "serve.queue", "serve.queue");
    serve::MicroBatchQueue<size_t> queue(
        {/*.capacity=*/n, /*.max_batch=*/options_.max_batch,
         /*.max_linger=*/std::chrono::microseconds(0)});
    for (size_t i = 0; i < n; ++i) queue.Push(i);
    queue.Close();
    ADRDEDUP_CHECK_EQ(queue.PopBatch().size(), n);
  }

  const auto first_new = static_cast<report::ReportId>(db_.size());
  const core::DedupPipeline::DetectionResult result = Detect(reports);
  std::vector<serve::ScreenResponse> responses(n);
  for (size_t d = 0; d < result.duplicates.size(); ++d) {
    const distance::ReportPair& pair = result.duplicates[d];
    const auto attach = [&](report::ReportId mine, report::ReportId other) {
      if (mine < first_new) return;
      responses[mine - first_new].matches.push_back(
          {other, db_.Get(other).case_number(), result.scores[d]});
    };
    attach(pair.a, pair.b);
    attach(pair.b, pair.a);
  }

  if (journal_.has_value()) {
    const uint64_t bytes_before = journal_->appended_bytes();
    {
      Tracer::Scope span(tracer_, "journal.append", "journal");
      const Status appended = journal_->Append(reports);
      ADRDEDUP_CHECK(appended.ok()) << appended.ToString();
    }
    ++counters_.journal_appends;
    counters_.journal_bytes += journal_->appended_bytes() - bytes_before;
    counters_.journal_fsyncs = retired_fsyncs_ + journal_->fsyncs();
    admitted_.insert(admitted_.end(), reports.begin(), reports.end());
    admitted_since_snapshot_ += n;
    if (options_.snapshot_every > 0 &&
        admitted_since_snapshot_ >= options_.snapshot_every) {
      const Status snapshot = TakeSnapshot();
      ADRDEDUP_CHECK(snapshot.ok()) << snapshot.ToString();
    }
  }

  std::vector<std::string> out(n);
  for (size_t i = 0; i < n; ++i) {
    Tracer::Scope span(tracer_, "net.encode", "net");
    responses[i].batch_size = n;
    responses[i].model_generation = 1;
    if (http[i]) {
      out[i] = serve::ScreenResponseJson(reports[i], responses[i]);
      const std::string bytes =
          net::FormatHttpResponse(200, "application/json", out[i], true);
      ADRDEDUP_CHECK(!bytes.empty());
    } else {
      net::ScreenResponseBody body;
      for (const serve::ScreenMatch& match : responses[i].matches) {
        body.matches.emplace_back(match.other_case_number, match.score);
      }
      out[i] = net::EncodeScreenResponse(body);
      std::string frame;
      net::AppendFrame(&frame, net::FrameType::kScreenResponse, out[i]);
    }
  }
  return out;
}

Status Replayer::TakeSnapshot() {
  Tracer::Scope span(tracer_, "snapshot", "snapshot");
  adrdedup::util::Stopwatch pause;
  const uint64_t next = generation_ + 1;
  serve::ServingState state;
  state.bootstrap_size = bootstrap_size_;
  state.admitted = admitted_;
  state.pipeline.positive_store = positive_store_;
  state.pipeline.negative_store = negative_store_;
  state.pipeline.negatives_seen = negatives_seen_;
  state.pipeline.model_generation = 1;
  state.pipeline.pruner_fit_positives = pruner_fit_positives_;
  state.pipeline.rng = rng_.SaveState();
  std::ostringstream model;
  ADRDEDUP_RETURN_NOT_OK(classifier_.Save(model));
  const std::string model_bytes = model.str();
  ADRDEDUP_RETURN_NOT_OK(store_->WriteSnapshotFiles(next, state, model_bytes));
  auto journal = serve::Journal::Create(store_->JournalPath(next), next,
                                        options_.fsync_policy);
  ADRDEDUP_RETURN_NOT_OK(journal.status());
  ADRDEDUP_RETURN_NOT_OK(store_->PublishGeneration(next));
  if (journal_.has_value()) retired_fsyncs_ += journal_->fsyncs();
  journal_ = std::move(journal).value();
  if (generation_ > 0) store_->RemoveGeneration(generation_);
  generation_ = next;
  admitted_since_snapshot_ = 0;
  ++counters_.snapshots;
  counters_.snapshot_bytes =
      std::filesystem::file_size(store_->StatePath(next)) +
      std::filesystem::file_size(store_->ModelPath(next));
  counters_.snapshot_pause_ms.push_back(pause.ElapsedMillis());
  return Status::OK();
}

}  // namespace perfbench
