#ifndef SPECQP_PERFBENCH_REPORT_H_
#define SPECQP_PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace specqp::perfbench {

// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

// Samples strictly beyond the nearest-rank percentile q of n samples.
size_t SamplesBeyond(size_t n, double q);

double Mean(const std::vector<double>& values);

// Metrics of one run, printed by name with their units.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  // Printed in the table only (not part of the result line).
  void Note(std::string line);

  // False when a metric is NaN or infinite (the result line then writes 0
  // for it, and the run must not count as correct).
  bool AllFinite() const;

  void PrintTable(std::FILE* out) const;
  // The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_REPORT_H_
