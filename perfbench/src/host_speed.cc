#include "host_speed.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <unordered_map>

namespace specqp::perfbench {
namespace {

constexpr size_t kLargeWords = size_t{1} << 20;  // 8 MiB
constexpr size_t kSmallWords = size_t{1} << 12;  // 32 KiB
// Work of one sample, about Yardstick::kNominalMs on a quiet CPU.
constexpr int kHashOps = 8000;
constexpr int kLargeOps = 4000;
constexpr size_t kSortWords = 5000;

// This thread's CPU time in ms. A thread that shares its CPU with another
// is not charged for the time the other runs.
double ThreadCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
  return *state;
}

// The median sample over Yardstick::kNominalMs (1 when there is none).
double HostFactor(std::vector<double> samples_ms) {
  if (samples_ms.empty()) return 1.0;
  const auto middle = samples_ms.begin() +
                      static_cast<std::ptrdiff_t>(samples_ms.size() / 2);
  std::nth_element(samples_ms.begin(), middle, samples_ms.end());
  return *middle / Yardstick::kNominalMs;
}

}  // namespace

Yardstick::Yardstick() : large_(kLargeWords, 1), small_(kSmallWords, 1) {}

double Yardstick::SampleMs() {
  const double start = ThreadCpuMs();
  uint64_t state = 0x9E3779B97F4A7C15ULL ^ ++calls_;
  uint64_t acc = 0;
  // Hash build and probe with node allocation, over a cache-resident table.
  std::unordered_map<uint32_t, uint32_t> map;
  for (int i = 0; i < kHashOps; ++i) {
    const uint64_t r = Next(&state);
    map[static_cast<uint32_t>(r >> 52)] += static_cast<uint32_t>(i);
    small_[(r >> 30) % kSmallWords] += r;
    acc += small_[(r >> 40) % kSmallWords];
  }
  // Random read-modify-write beyond the core's caches.
  for (int i = 0; i < kLargeOps; ++i) {
    const uint64_t r = Next(&state);
    large_[(r >> 20) % kLargeWords] += r;
    acc += large_[(r >> 37) % kLargeWords];
  }
  std::vector<uint64_t> sorted(kSortWords);
  for (uint64_t& word : sorted) word = Next(&state);
  std::sort(sorted.begin(), sorted.end());
  sink_ += acc + map.size() + sorted[kSortWords / 2];
  return ThreadCpuMs() - start;
}

std::vector<double> HostFactors(const std::vector<double>& samples_ms) {
  std::vector<double> factors(samples_ms.size());
  for (size_t i = 0; i < samples_ms.size(); ++i) {
    const size_t lo = i > kHostWindow ? i - kHostWindow : 0;
    const size_t hi = std::min(samples_ms.size(), i + kHostWindow + 1);
    factors[i] = HostFactor(
        {samples_ms.begin() + static_cast<std::ptrdiff_t>(lo),
         samples_ms.begin() + static_cast<std::ptrdiff_t>(hi)});
  }
  return factors;
}

HostSampler::HostSampler() : thread_([this] { Loop(); }) {}

HostSampler::~HostSampler() { (void)Stop(); }

void HostSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    const double sample = yardstick_.SampleMs();
    lock.lock();
    samples_.push_back(sample);
    wake_.wait_for(lock, kPeriod, [this] { return stop_; });
  }
}

double HostSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  return HostFactor(samples_);
}

std::string PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  const int current = std::max(0, sched_getcpu());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string names;
  for (int i = 0, picked = 0; i < CPU_SETSIZE && picked < count; ++i) {
    const int cpu = (current + i) % CPU_SETSIZE;
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    if (!names.empty()) names += ',';
    names += std::to_string(cpu);
    ++picked;
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "";
  return names;
}

}  // namespace specqp::perfbench
