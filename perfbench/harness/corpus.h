// Workload inputs: a datagen corpus split into the database the service
// or pipeline bootstraps and the held-out reports it screens or audits,
// plus the expert-labelled training pairs and the ground truth that
// dup_recall is computed from.
#ifndef PERFBENCH_HARNESS_CORPUS_H_
#define PERFBENCH_HARNESS_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "distance/pair_dataset.h"
#include "report/report.h"

namespace perfbench {

struct CorpusSpec {
  size_t reports = 0;
  size_t duplicate_pairs = 0;
  // Held-out reports: the newer half of the injected duplicate copies
  // (their originals stay in the database, so screening them must find
  // duplicates) padded with the originals just below the copy region.
  size_t held_out = 0;
  // Sampled non-duplicate training pairs.
  size_t negatives = 0;
};

struct SplitCorpus {
  adrdedup::datagen::GeneratedCorpus generated;
  // Bootstrapped database, in the service's id space (index = id).
  std::vector<adrdedup::report::AdrReport> bootstrap;
  // Held-out reports in the order they are sent: shuffled by the sample
  // seed, so a screening stream mixes copies and originals in every
  // phase.
  std::vector<adrdedup::report::AdrReport> held_out;
  // Training pairs with ids in the bootstrap id space: ground-truth
  // duplicates inside the database, then sampled negatives.
  std::vector<adrdedup::distance::LabeledPair> labels;
  // Case number -> case numbers of its ground-truth duplicate partners.
  std::unordered_map<std::string, std::vector<std::string>> partners;
};

// Generates the corpus and draws the labelled negatives from
// `corpus_seed`; `sample_seed` draws the held-out order.
SplitCorpus MakeSplitCorpus(const CorpusSpec& spec, uint64_t corpus_seed,
                            uint64_t sample_seed);

// Ground-truth duplicate pairs (case numbers, sorted within the pair)
// that have an endpoint among `sent` and whose other endpoint is in the
// database or also among `sent`: the duplicates a correct detector can
// find in the run.
std::vector<std::pair<std::string, std::string>> FindableDuplicates(
    const SplitCorpus& corpus, const std::vector<std::string>& sent);

// Share of `findable` pairs present in `detected` (unordered case-number
// pairs). 0 when nothing was findable.
double Recall(const std::vector<std::pair<std::string, std::string>>& findable,
              const std::vector<std::pair<std::string, std::string>>& detected);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CORPUS_H_
