#include "harness/trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {
namespace {

thread_local uint32_t t_current_span = 0;

// Length of the union of [start, end) intervals, each clipped to
// [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<size_t> index_of_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= index_of_id.size()) {
      index_of_id.resize(spans[i].id + 1, SIZE_MAX);
    }
    index_of_id[spans[i].id] = i;
  }
  for (const Span& span : spans) {
    if (span.parent == 0 || span.parent >= index_of_id.size()) continue;
    const size_t parent = index_of_id[span.parent];
    if (parent == SIZE_MAX) continue;
    children[parent].emplace_back(span.start_us, span.end_us);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_us - spans[i].start_us;
    self[i] = duration - CoveredLength(std::move(children[i]),
                                       spans[i].start_us, spans[i].end_us);
  }
  return self;
}

LayerBreakdown Breakdown(const std::vector<Span>& spans,
                         const std::string& root_name) {
  LayerBreakdown out;
  const std::vector<double> self = SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0 && spans[i].name == root_name) {
      out.root_us = spans[i].end_us - spans[i].start_us;
      out.coverage = out.root_us > 0.0 ? 1.0 - self[i] / out.root_us : 0.0;
      continue;
    }
    out.self_us[spans[i].layer] += self[i];
  }
  return out;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t Tracer::Open(const char* name, const char* layer, uint32_t parent) {
  Span span;
  span.parent = parent;
  span.name = name;
  span.layer = layer;
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::Close(uint32_t id) {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_us = now;
}

uint32_t Tracer::Current() { return t_current_span; }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     uint32_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->Open(name, layer, parent != 0 ? parent : t_current_span);
  saved_current_ = t_current_span;
  t_current_span = id_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->Close(id_);
  t_current_span = saved_current_;
}

}  // namespace perfbench
