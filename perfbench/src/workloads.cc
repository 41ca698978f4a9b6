#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "util/random.h"
#include "util/zipf.h"

namespace specqp::perfbench {
namespace {

// Posting-list cache budget of serving-zipf: 27% of the 679,296 bytes its
// traffic keeps resident with an unbounded cache (seeds 1-2, 30-second
// runs). Not exactly a quarter (169,824 bytes), where latency is steep in
// the budget (README.md).
constexpr size_t kServingCacheBudgetBytes = 185580;

constexpr WorkloadSpec kWorkloads[] = {
    {"xkg-specqp", Dataset::kXkg, Loop::kClosed, /*num_threads=*/1,
     /*specqp_share=*/1.0, /*shards=*/0, /*cache_budget_bytes=*/0,
     /*warm_passes=*/1, /*offered_rps=*/0.0, /*zipf_skew=*/0.0},
    {"twitter-trinit", Dataset::kTwitter, Loop::kClosed, 2, 0.0, 0, 0, 0, 0.0,
     0.0},
    {"serving-zipf", Dataset::kXkg, Loop::kOpen, 2, 0.8, 4,
     kServingCacheBudgetBytes, 0, /*offered_rps=*/18.0,
     /*zipf_skew=*/1.0},
};

// Fixed seed of the popularity permutation (rank -> pair) of the open loop.
constexpr uint64_t kPopularitySeed = 0x5eed0f2a11ULL;
// Open-loop arrivals per block of the stratified Poisson schedule.
constexpr size_t kArrivalBlock = 10;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Streams of the run seed: one for the closed-loop pass order, one per
// open-loop replay.
constexpr uint64_t kPassStream = 1ULL << 32;
constexpr uint64_t kScheduleStream = 1ULL << 33;

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

Corpus GenerateCorpus(Dataset dataset) {
  Corpus corpus;
  if (dataset == Dataset::kXkg) {
    XkgDataset data = GenerateXkg(XkgConfig{});
    XkgWorkloadConfig config;
    config.seed = 71;
    config.queries_per_size = 22;
    config.min_relaxations = 10;
    corpus.queries = MakeXkgWorkload(data, config);
    corpus.store = std::move(data.store);
    corpus.rules = std::move(data.rules);
  } else {
    TwitterDataset data = GenerateTwitter(TwitterConfig{});
    TwitterWorkloadConfig config;
    config.seed = 73;
    config.queries_per_size = 25;
    config.min_relaxations = 5;
    corpus.queries = MakeTwitterWorkload(data, config);
    corpus.store = std::move(data.store);
    corpus.rules = std::move(data.rules);
  }
  return corpus;
}

std::vector<Pair> AllPairs(size_t num_queries) {
  std::vector<Pair> pairs;
  pairs.reserve(num_queries * std::size(kTopKs));
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t k : kTopKs) pairs.push_back({q, k});
  }
  return pairs;
}

std::vector<size_t> PassOrder(size_t num_pairs, uint64_t seed) {
  std::vector<size_t> order(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) order[i] = i;
  Rng rng(Mix(seed, kPassStream));
  rng.Shuffle(&order);
  return order;
}

std::vector<ScheduledRequest> OpenLoopSchedule(const WorkloadSpec& spec,
                                               size_t num_pairs, uint64_t seed,
                                               uint64_t replay, double seconds) {
  const size_t count = static_cast<size_t>(
      std::max(1.0, std::round(spec.offered_rps * seconds)));
  Rng rng(Mix(seed, kScheduleStream + replay));

  // Systematic sampling of the Zipf law: arrival i takes the rank at CDF
  // point (i + 1/2) / count, so every run of the same length serves the
  // same pairs, each as often as the Zipf law gives up to rounding.
  const ZipfDistribution zipf(num_pairs, spec.zipf_skew);
  constexpr double u = 0.5;
  std::vector<ScheduledRequest> schedule(count);
  double cdf = zipf.Pmf(0);
  uint64_t rank = 0;
  for (size_t i = 0; i < count; ++i) {
    const double point = (static_cast<double>(i) + u) / static_cast<double>(count);
    while (point > cdf && rank + 1 < num_pairs) cdf += zipf.Pmf(++rank);
    schedule[i].id = i;
    schedule[i].pair = rank;
  }
  // The strategy coin, stratified the same way along the rank order: a
  // TriniT request every 1 / (1 - specqp_share) requests from a fixed
  // phase, so each popular pair gets its share of both strategies.
  const double trinit_share = 1.0 - spec.specqp_share;
  constexpr double phase = 0.5;
  for (size_t i = 0; i < count; ++i) {
    const double before = std::floor(static_cast<double>(i) * trinit_share + phase);
    const double after =
        std::floor(static_cast<double>(i + 1) * trinit_share + phase);
    schedule[i].strategy = after > before ? Strategy::kTrinit : Strategy::kSpecQp;
  }
  // Ranks map to pairs through a fixed permutation (the seed never picks
  // which pair is hottest); the seed orders the requests and draws the
  // arrival times.
  std::vector<size_t> popularity(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) popularity[i] = i;
  Rng permute(kPopularitySeed);
  permute.Shuffle(&popularity);
  for (ScheduledRequest& request : schedule) {
    request.pair = popularity[request.pair];
  }
  rng.Shuffle(&schedule);
  // Poisson arrivals conditioned on exactly kArrivalBlock of them in each
  // consecutive block of kArrivalBlock / rate seconds: uniform within a
  // block, so the offered rate stays flat across the run.
  std::vector<double> due(count);
  for (size_t lo = 0; lo < count; lo += kArrivalBlock) {
    const size_t hi = std::min(count, lo + kArrivalBlock);
    const double begin = seconds * static_cast<double>(lo) / count;
    const double end = seconds * static_cast<double>(hi) / count;
    for (size_t i = lo; i < hi; ++i) due[i] = rng.NextDouble(begin, end);
  }
  std::sort(due.begin(), due.end());
  for (size_t i = 0; i < count; ++i) schedule[i].due_s = due[i];
  return schedule;
}

std::string StorePath(const std::string& dir) { return dir + "/store.sqps"; }
std::string BundlePath(const std::string& dir) { return dir + "/bundle"; }
std::string RulesPath(const std::string& dir) { return dir + "/rules.sqpr"; }
std::string QueriesPath(const std::string& dir) {
  return dir + "/queries.txt";
}
std::string RefsPath(const std::string& dir) { return dir + "/refs.txt"; }

std::string ServedPath(const WorkloadSpec& spec, const std::string& dir) {
  return spec.shards > 0 ? BundlePath(dir) : StorePath(dir);
}

EngineOptions ServedOptions(const WorkloadSpec& spec) {
  EngineOptions options;
  options.num_threads = spec.num_threads;
  options.cache_budget_bytes = spec.cache_budget_bytes;
  options.mmap = true;
  return options;
}

}  // namespace specqp::perfbench
