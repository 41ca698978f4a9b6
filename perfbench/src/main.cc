// specqp_perfbench: the two phases of one benchmark run (see README.md).
//
//   specqp_perfbench setup --workload W --data DIR
//   specqp_perfbench serve --workload W --data DIR --seed N --seconds S
//                          --trace 0|1 [--setup-s X] [--trace-out FILE]
//
// perfbench/run.py builds this binary and drives both phases.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "phases.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "specqp_perfbench: %s\n"
               "usage: specqp_perfbench setup --workload W --data DIR\n"
               "       specqp_perfbench serve --workload W --data DIR "
               "--seed N --seconds S --trace 0|1\n"
               "                              [--setup-s X] [--trace-out FILE]\n"
               "workloads: %s\n",
               why, specqp::perfbench::WorkloadNames().c_str());
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace specqp::perfbench;
  if (argc < 2) return Usage("missing phase");
  const std::string phase = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument " + flag).c_str());
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  const WorkloadSpec* spec = FindWorkload(flags["workload"]);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (flags["data"].empty()) return Usage("missing --data");

  if (phase == "setup") return RunSetup(*spec, flags["data"]);
  if (phase != "serve") return Usage("unknown phase");

  ServeArgs args;
  args.dir = flags["data"];
  double seed = 0, seconds = 0, trace = 0;
  if (!ParseNumber(flags["seed"], &seed) || seed < 0 ||
      !ParseNumber(flags["seconds"], &seconds) || seconds <= 0 ||
      !ParseNumber(flags["trace"], &trace) || (trace != 0 && trace != 1)) {
    return Usage("--seed, --seconds and --trace need valid numbers");
  }
  args.seed = static_cast<uint64_t>(seed);
  args.seconds = seconds;
  args.trace = trace == 1;
  if (flags.count("setup-s") > 0 &&
      !ParseNumber(flags["setup-s"], &args.setup_s)) {
    return Usage("bad --setup-s");
  }
  args.trace_out = flags["trace-out"];
  return RunServe(*spec, args);
}
