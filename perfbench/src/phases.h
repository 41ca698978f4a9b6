#ifndef SPECQP_PERFBENCH_PHASES_H_
#define SPECQP_PERFBENCH_PHASES_H_

#include <cstdint>
#include <string>

#include "workloads.h"

namespace specqp::perfbench {

// Set-up phase (its own process): generates the dataset and query set,
// writes the store file, the bundle (when the workload serves one), the
// rule file, the query texts and the reference answers into `dir`, and
// prints "setup_s <seconds>". Returns the process exit code.
int RunSetup(const WorkloadSpec& spec, const std::string& dir);

struct ServeArgs {
  std::string dir;        // prepared by RunSetup
  uint64_t seed = 0;      // run seed: request order, draws, arrival times
  double seconds = 10.0;  // timed window
  bool trace = false;     // per-layer metrics from a traced replay
  double setup_s = 0.0;   // median set-up phase time, measured by the caller
  std::string trace_out;  // span file of the traced replay ("" = none)
};

// Serving phase (its own process, so its peak RSS is the serving
// footprint): runs the workload against the prepared directory, checks
// every answer, prints the report and, last, the result line. Returns the
// process exit code.
int RunServe(const WorkloadSpec& spec, const ServeArgs& args);

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_PHASES_H_
