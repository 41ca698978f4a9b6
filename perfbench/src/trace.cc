#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace specqp::perfbench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRdf:
      return "rdf";
    case Layer::kQuery:
      return "query";
    case Layer::kCore:
      return "core";
    case Layer::kTopk:
      return "topk";
    case Layer::kHarness:
      return "harness";
  }
  return "?";
}

size_t Tracer::Record(const char* name, Layer layer, uint64_t request,
                      size_t parent, Clock::time_point start,
                      Clock::time_point end) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back({name, layer, request, parent, us(start), us(end)});
  return spans_.size() - 1;
}

size_t Tracer::RecordReported(const char* name, Layer layer, uint64_t request,
                              size_t parent, double offset_ms,
                              double duration_ms) {
  const double start = spans_[parent].start_us + offset_ms * 1e3;
  spans_.push_back(
      {name, layer, request, parent, start, start + duration_ms * 1e3});
  return spans_.size() - 1;
}

std::array<double, kNumLayers> Tracer::SelfTimeMs() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent];
    const double lo = std::max(span.start_us, parent.start_us);
    const double hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) covered[span.parent] += hi - lo;
  }
  std::array<double, kNumLayers> self{};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double own =
        std::max(0.0, spans_[i].end_us - spans_[i].start_us - covered[i]);
    self[static_cast<size_t>(spans_[i].layer)] += own / 1e3;
  }
  return self;
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  out << "{\"traceEvents\": [\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    std::snprintf(line, sizeof(line),
                  "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"span\": %zu, \"parent\": %lld, "
                  "\"request\": %llu}}\n",
                  i == 0 ? "" : ",", s.name,
                  std::string(LayerName(s.layer)).c_str(), s.start_us,
                  s.end_us - s.start_us, i, parent,
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "]}\n";
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

}  // namespace specqp::perfbench
