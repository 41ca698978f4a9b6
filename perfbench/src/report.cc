#include "report.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace specqp::perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(
      std::max(std::ceil(q * static_cast<double>(n)), 1.0));
  return n > rank ? n - rank : 0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Note(std::string line) { notes_.push_back(std::move(line)); }

bool Report::AllFinite() const {
  return std::all_of(metrics_.begin(), metrics_.end(),
                     [](const Metric& m) { return std::isfinite(m.value); });
}

void Report::PrintTable(std::FILE* out) const {
  for (const std::string& note : notes_) std::fprintf(out, "  %s\n", note.c_str());
  for (const Metric& m : metrics_) {
    std::fprintf(out, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Every digit as measured; JSON has no NaN or infinity (AllFinite).
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace specqp::perfbench
