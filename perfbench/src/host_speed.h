#ifndef SPECQP_PERFBENCH_HOST_SPEED_H_
#define SPECQP_PERFBENCH_HOST_SPEED_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace specqp::perfbench {

// The host yardstick (README.md, "Host speed"): a fixed kernel of work
// that resembles query execution but runs none of the library's code.
// On a shared host the speed of every CPU swings by up to 3x within a
// second, and by tens of percent from one minute to the next, as other
// tenants load the caches and memory. The harness times the kernel next
// to every closed-loop request, cold open and set-up phase and divides
// their times by the kernel's, so a slow stretch of the host slows both
// alike and cancels; a slower library slows only the request.
class Yardstick {
 public:
  // Normalised times are given at the host speed at which a sample takes
  // this long. On the 4-vCPU VM the benchmark was built on, a sample took
  // 0.6 to 0.9 ms on an idle thread and typically 1.5 ms right after a
  // closed-loop request.
  static constexpr double kNominalMs = 1.0;

  Yardstick();

  // Runs the kernel once and returns the CPU time it took in ms. Every
  // call does the same amount of work on other cache lines of the large
  // table. CPU time, not wall time: the host slows the instructions (it
  // steals no time from the VM), and a sample that shares its CPU with
  // another thread is not charged for the other thread's turns.
  double SampleMs();

 private:
  std::vector<uint64_t> large_;  // larger than a core's caches
  std::vector<uint64_t> small_;  // fits in a core's caches
  uint64_t calls_ = 0;
  uint64_t sink_ = 0;
};

// Host factors of samples taken in time order: factor i is the median of
// samples i - kHostWindow .. i + kHostWindow (clamped to the ends) over
// Yardstick::kNominalMs. A time divided by its factor is the time at the
// nominal speed; the window keeps one disturbed sample from moving it.
inline constexpr size_t kHostWindow = 2;
std::vector<double> HostFactors(const std::vector<double>& samples_ms);

// Samples the yardstick every kPeriod on a thread of its own, which shares
// the creating thread's CPUs, from construction until Stop. For phases
// such as set-up that run long stretches of library code with no room for
// a sample in between.
class HostSampler {
 public:
  static constexpr std::chrono::milliseconds kPeriod{50};

  HostSampler();
  ~HostSampler();
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  // Stops sampling; returns the median sample over Yardstick::kNominalMs
  // (1 when no sample was taken).
  double Stop();

 private:
  void Loop();

  Yardstick yardstick_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

// Restricts the calling thread to `count` of the CPUs it may run on,
// starting at the one it runs on, and returns them ("" where the kernel
// refuses). Threads it creates afterwards, the engines' among them,
// inherit the set, so a yardstick sampled on any thread of the process
// measures the CPUs that serve the requests.
std::string PinToCpus(int count);

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_HOST_SPEED_H_
