#include "harness/corpus.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "distance/pairwise.h"
#include "distance/report_features.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using adrdedup::distance::LabeledPair;
using adrdedup::report::ReportId;

SplitCorpus MakeSplitCorpus(const CorpusSpec& spec, uint64_t corpus_seed,
                            uint64_t sample_seed) {
  adrdedup::datagen::GeneratorConfig config;
  config.seed = corpus_seed;
  config.num_reports = spec.reports;
  config.num_duplicate_pairs = spec.duplicate_pairs;
  SplitCorpus out;
  out.generated = adrdedup::datagen::GenerateCorpus(config);
  const auto& db = out.generated.db;
  const size_t n = db.size();

  // The generator appends every duplicate copy after all originals; a
  // plain "newest reports" split would leave the database without a
  // single positive training pair.
  const size_t copies = out.generated.duplicate_pairs.size();
  const size_t held_copies = std::min(copies / 2, spec.held_out);
  const size_t copy_begin = n - copies;
  const size_t originals =
      std::min(spec.held_out - held_copies, copy_begin);
  std::vector<bool> in_bootstrap(n, true);
  std::vector<size_t> held_ids;
  for (size_t i = copy_begin - originals; i < copy_begin; ++i) {
    held_ids.push_back(i);
  }
  for (size_t i = n - held_copies; i < n; ++i) held_ids.push_back(i);
  for (const size_t i : held_ids) in_bootstrap[i] = false;
  adrdedup::util::Rng order_rng(sample_seed ^ 0x5eedULL);
  order_rng.Shuffle(&held_ids);

  std::vector<ReportId> bootstrap_id(n, 0);
  std::vector<size_t> bootstrap_corpus_ids;
  for (size_t i = 0; i < n; ++i) {
    if (!in_bootstrap[i]) continue;
    bootstrap_id[i] = static_cast<ReportId>(out.bootstrap.size());
    bootstrap_corpus_ids.push_back(i);
    out.bootstrap.push_back(db.Get(static_cast<ReportId>(i)));
  }
  for (const size_t i : held_ids) {
    out.held_out.push_back(db.Get(static_cast<ReportId>(i)));
  }

  for (const auto& [a, b] : out.generated.duplicate_pairs) {
    const std::string& ca = db.Get(a).case_number();
    const std::string& cb = db.Get(b).case_number();
    out.partners[ca].push_back(cb);
    out.partners[cb].push_back(ca);
  }

  // Expert labels: every ground-truth duplicate inside the database plus
  // sampled database pairs that are not duplicates.
  adrdedup::util::ThreadPool pool(4);
  const std::vector<adrdedup::distance::ReportFeatures> features =
      adrdedup::distance::ExtractAllFeatures(db, {}, &pool);
  std::unordered_set<uint64_t> seen;
  for (const auto& [a, b] : out.generated.duplicate_pairs) {
    seen.insert(adrdedup::distance::PairKey(
        adrdedup::distance::ReportPair{std::min(a, b), std::max(a, b)}));
  }
  const auto make_pair = [&](size_t a, size_t b, int8_t label) {
    LabeledPair pair;
    const ReportId ia = bootstrap_id[a];
    const ReportId ib = bootstrap_id[b];
    pair.pair = {std::min(ia, ib), std::max(ia, ib)};
    pair.label = label;
    pair.vector =
        adrdedup::distance::ComputeDistanceVector(features[a], features[b]);
    return pair;
  };
  for (const auto& [a, b] : out.generated.duplicate_pairs) {
    if (!in_bootstrap[a] || !in_bootstrap[b]) continue;
    out.labels.push_back(make_pair(a, b, +1));
  }
  const size_t positives = out.labels.size();
  ADRDEDUP_CHECK(positives > 0) << "no positive training pairs";
  adrdedup::util::Rng rng(corpus_seed ^ 0x1abe1ULL);
  const uint64_t pool_size = bootstrap_corpus_ids.size();
  while (out.labels.size() < positives + spec.negatives) {
    const size_t a = bootstrap_corpus_ids[rng.Uniform(pool_size)];
    const size_t b = bootstrap_corpus_ids[rng.Uniform(pool_size)];
    if (a == b) continue;
    const auto key = adrdedup::distance::PairKey(adrdedup::distance::ReportPair{
        static_cast<ReportId>(std::min(a, b)),
        static_cast<ReportId>(std::max(a, b))});
    if (!seen.insert(key).second) continue;
    out.labels.push_back(make_pair(a, b, -1));
  }
  return out;
}

namespace {

std::pair<std::string, std::string> Ordered(std::string a, std::string b) {
  if (b < a) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

}  // namespace

std::vector<std::pair<std::string, std::string>> FindableDuplicates(
    const SplitCorpus& corpus, const std::vector<std::string>& sent) {
  std::unordered_set<std::string> sent_set(sent.begin(), sent.end());
  std::unordered_set<std::string> held_set;
  for (const auto& report : corpus.held_out) {
    held_set.insert(report.case_number());
  }
  std::set<std::pair<std::string, std::string>> pairs;
  for (const std::string& mine : sent) {
    const auto it = corpus.partners.find(mine);
    if (it == corpus.partners.end()) continue;
    for (const std::string& other : it->second) {
      // The partner is in the database unless it was held out, in which
      // case it counts only when it was sent too.
      if (held_set.contains(other) && !sent_set.contains(other)) continue;
      pairs.insert(Ordered(mine, other));
    }
  }
  return {pairs.begin(), pairs.end()};
}

double Recall(
    const std::vector<std::pair<std::string, std::string>>& findable,
    const std::vector<std::pair<std::string, std::string>>& detected) {
  if (findable.empty()) return 0.0;
  std::set<std::pair<std::string, std::string>> found;
  for (const auto& [a, b] : detected) found.insert(Ordered(a, b));
  size_t hits = 0;
  for (const auto& pair : findable) hits += found.contains(pair) ? 1 : 0;
  return static_cast<double>(hits) / static_cast<double>(findable.size());
}

}  // namespace perfbench
