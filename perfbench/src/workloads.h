#ifndef SPECQP_PERFBENCH_WORKLOADS_H_
#define SPECQP_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"

namespace specqp::perfbench {

enum class Dataset { kXkg, kTwitter };

// Closed loop: one client sends its next request when the previous one
// has completed. Open loop: requests are sent on a precomputed arrival
// schedule regardless of completions.
enum class Loop { kClosed, kOpen };

// One named workload. The numbers below are part of the benchmark's
// definition; README.md records how each was chosen.
struct WorkloadSpec {
  std::string_view name;
  Dataset dataset;
  Loop loop;
  int num_threads;      // EngineOptions::num_threads of the served engine
  // Share of Spec-QP requests; the rest are TriniT. Closed loops serve one
  // strategy (1 = Spec-QP, 0 = TriniT).
  double specqp_share;
  uint32_t shards;      // 0 = one v3 store file; N = N-shard SQPBNDL1 bundle
  size_t cache_budget_bytes;  // posting-list cache budget; 0 = unbounded
  // Closed loops: untimed passes over every (query, k) pair after Warm.
  int warm_passes;
  // Open loop only: offered rate (requests per second) and Zipf skew of
  // the (query, k) popularity.
  double offered_rps;
  double zipf_skew;
};

const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();  // "a, b, c" for usage messages

// The paper's k values (section 4.4).
inline constexpr size_t kTopKs[] = {10, 15, 20};

// A dataset and its query set, generated by the repository's seeded
// generators. The graphs use the generators' default seeds; the query sets
// use the bench suite's workload seeds (bench/bench_common.cc), so every
// run serves the same 66 XKG or 50 Twitter queries (see README.md for why
// the run seed does not pick the query set).
struct Corpus {
  TripleStore store;
  RelaxationIndex rules;
  std::vector<Query> queries;
};
Corpus GenerateCorpus(Dataset dataset);

// One (query, k) pair; pair index = query * size(kTopKs) + k index.
struct Pair {
  size_t query = 0;
  size_t k = 0;
};
std::vector<Pair> AllPairs(size_t num_queries);

// Closed loops: every pass of a run visits every pair once, in this order
// drawn from the run seed. Whole passes keep the measured work identical
// across seeds, and one order lets a run time the same stretch of
// requests in every pass.
std::vector<size_t> PassOrder(size_t num_pairs, uint64_t seed);

// Open loop: one scheduled request.
struct ScheduledRequest {
  size_t id = 0;  // the request's place in the mix, the same in every replay
  size_t pair = 0;
  Strategy strategy = Strategy::kSpecQp;
  double due_s = 0.0;  // offset from the start of the run
};

// Open loop: replay `replay` of a run, round(offered_rps * seconds)
// arrivals of a Poisson process conditioned on ten arrivals in each block
// of 10 / offered_rps seconds, each a Zipf-distributed pair and a strategy.
// Pairs and strategies are taken by systematic sampling, so every replay
// of every seed serves the same mix of (pair, strategy) requests;
// popularity ranks map to pairs through a fixed permutation. The seed and
// the replay order the requests and draw the arrival times.
std::vector<ScheduledRequest> OpenLoopSchedule(const WorkloadSpec& spec,
                                               size_t num_pairs, uint64_t seed,
                                               uint64_t replay, double seconds);

// Files of one prepared data directory.
std::string StorePath(const std::string& dir);    // v3 single-file store
std::string BundlePath(const std::string& dir);   // SQPBNDL1 bundle dir
std::string RulesPath(const std::string& dir);
std::string QueriesPath(const std::string& dir);  // one query text a line
std::string RefsPath(const std::string& dir);
// The store the workload serves from.
std::string ServedPath(const WorkloadSpec& spec, const std::string& dir);

EngineOptions ServedOptions(const WorkloadSpec& spec);

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_WORKLOADS_H_
