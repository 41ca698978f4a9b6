// Operator microbenchmarks: throughput of the building blocks behind the
// tables/figures — pattern scans, incremental merges, rank joins,
// histogram convolution + refit, and PLANGEN latency. Runs on the shared
// BenchMain driver so the timings land in the same JSON artifact format as
// the figure/table benches.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "rdf/posting_list.h"
#include "rdf/posting_partition.h"
#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "stats/convolution.h"
#include "stats/grid_pdf.h"
#include "topk/exec_context.h"
#include "topk/incremental_merge.h"
#include "topk/parallel_rank_join.h"
#include "topk/pattern_scan.h"
#include "topk/rank_join.h"
#include "topk/top_k.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace specqp::bench {
namespace {

// Synthetic store: `num_objects` object constants under one predicate, each
// with ~num_triples/num_objects power-law-scored subjects.
struct MicroFixture {
  TripleStore store;
  RelaxationIndex rules;
  TermId predicate = kInvalidTermId;
  std::vector<TermId> objects;

  explicit MicroFixture(size_t num_subjects, size_t num_objects,
                        size_t triples_per_subject) {
    Rng rng(20240607);
    Dictionary& dict = store.dict();
    predicate = dict.Intern("p");
    for (size_t o = 0; o < num_objects; ++o) {
      objects.push_back(dict.Intern("obj" + std::to_string(o)));
    }
    for (size_t s = 0; s < num_subjects; ++s) {
      const TermId subject = dict.Intern("sub" + std::to_string(s));
      const double score =
          1e6 / static_cast<double>((s % 1000) + 1);  // power law
      for (size_t t = 0; t < triples_per_subject; ++t) {
        store.AddEncoded(subject, predicate,
                         objects[rng.NextBounded(objects.size())], score);
      }
    }
    store.Finalize();
    // Rules: each object relaxes to the next few, decaying weights.
    for (size_t o = 0; o < num_objects; ++o) {
      for (size_t j = 1; j <= 5 && o + j < num_objects; ++j) {
        RelaxationRule rule;
        rule.from = PatternKey{kInvalidTermId, predicate, objects[o]};
        rule.to = PatternKey{kInvalidTermId, predicate, objects[o + j]};
        rule.weight = 0.9 / static_cast<double>(j);
        (void)rules.AddRule(rule);
      }
    }
  }

  TriplePattern Pattern(size_t object_index, VarId var) const {
    return TriplePattern(PatternTerm::Var(var), PatternTerm::Const(predicate),
                         PatternTerm::Const(objects[object_index]));
  }
};

MicroFixture& Fixture() {
  static auto* fx = new MicroFixture(20000, 16, 4);
  return *fx;
}

// The LARGEST micro input (240k triples): one predicate, 8 objects,
// ~30k-entry posting lists per side. Shared by the parallel rank join and
// the block-skipping comparison.
MicroFixture& BigFixture() {
  static auto* fx = new MicroFixture(240000, 8, 1);
  return *fx;
}

// Re-encodes a flat posting list into the block-compressed backend, as a
// v3-backed store would serve it.
std::shared_ptr<const PostingList> BlockedCopy(const TripleStore& store,
                                               const PostingList& flat) {
  std::span<const PostingEntry> entries = flat.entries;
  EncodedPostingBlocks encoded =
      EncodePostingBlocks(entries.data(), entries.size());
  return std::make_shared<const PostingList>(PostingList::FromBlocks(
      std::move(encoded.headers), std::move(encoded.payload), entries.size(),
      flat.max_raw_score, static_cast<uint32_t>(store.size())));
}

// Keeps the result of `expr` alive so the compiler cannot elide the work.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// One microbenchmark: `body` is a single iteration; `items_per_iter` (when
// non-zero) scales the reported throughput.
struct MicroResult {
  std::string name;
  uint64_t iterations = 0;
  double total_ms = 0.0;
  double ns_per_iter = 0.0;
  uint64_t items_per_iter = 0;
  double items_per_second = 0.0;
  double speedup_vs_serial = 0.0;  // parallel variants only (0 = n/a)
};

MicroResult RunMicro(const std::string& name,
                     const std::function<void()>& body,
                     uint64_t items_per_iter = 0) {
  body();  // warm-up (first-touch allocation, cache fills)

  constexpr double kMinSeconds = 0.1;
  constexpr uint64_t kMaxIters = 1u << 22;
  uint64_t iterations = 0;
  WallTimer timer;
  // Run in growing batches so the clock is read rarely relative to work.
  for (uint64_t batch = 1; timer.ElapsedSeconds() < kMinSeconds &&
                           iterations < kMaxIters;
       batch *= 2) {
    for (uint64_t i = 0; i < batch; ++i) body();
    iterations += batch;
  }

  MicroResult result;
  result.name = name;
  result.iterations = iterations;
  result.total_ms = timer.ElapsedMillis();
  result.ns_per_iter =
      result.total_ms * 1e6 / static_cast<double>(iterations);
  result.items_per_iter = items_per_iter;
  if (items_per_iter > 0) {
    result.items_per_second = static_cast<double>(items_per_iter) *
                              static_cast<double>(iterations) /
                              (result.total_ms / 1e3);
  }
  return result;
}

void Run(Json& out) {
  PrintTitle("Operator microbenchmarks");
  std::vector<MicroResult> results;

  MicroFixture& fx = Fixture();

  {
    const PatternKey key = fx.Pattern(0, 0).Key();
    results.push_back(RunMicro(
        "posting_list_build",
        [&] {
          PostingList list = BuildPostingList(fx.store, key);
          DoNotOptimize(list.entries.data());
        },
        fx.store.CountMatches(key)));
  }

  {
    PostingListCache cache(&fx.store);
    const TriplePattern pattern = fx.Pattern(1, 0);
    auto list = cache.Get(pattern.Key());
    results.push_back(RunMicro(
        "pattern_scan_drain",
        [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          PatternScan scan(&fx.store, list, pattern, 1, 1.0, &ctx);
          ScoredRow row;
          size_t n = 0;
          while (scan.Next(&row)) ++n;
          DoNotOptimize(n);
        },
        list->size()));
  }

  {
    // The disarmed fault-injection probe: the hook every storage touch
    // pays in production (one relaxed atomic load). The artifact tracks
    // it so a change that puts real work on the disarmed path shows up
    // as a runtime regression here — and the hot-path benches above,
    // which all run with injection disabled, bound the end-to-end cost.
    SPECQP_CHECK(!FaultInjector::Global().armed());
    constexpr uint64_t kProbesPerIter = 1024;
    results.push_back(RunMicro(
        "fault_probe_disarmed",
        [&] {
          bool fired = false;
          for (uint64_t i = 0; i < kProbesPerIter; ++i) {
            fired |= FaultShouldFail("shard.read", i & 7);
          }
          DoNotOptimize(fired);
        },
        kProbesPerIter));
  }

  for (size_t num_inputs : {2u, 5u, 10u}) {
    PostingListCache cache(&fx.store);
    results.push_back(RunMicro(
        StrFormat("incremental_merge_topk/inputs:%zu", num_inputs), [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
          for (size_t i = 0; i < num_inputs; ++i) {
            const TriplePattern pattern =
                fx.Pattern(i % fx.objects.size(), 0);
            inputs.push_back(std::make_unique<PatternScan>(
                &fx.store, cache.Get(pattern.Key()), pattern, 1,
                1.0 / static_cast<double>(i + 1), &ctx));
          }
          IncrementalMerge merge(std::move(inputs), &ctx);
          const auto rows = PullTopK(&merge, 20, /*width=*/1, &stats);
          DoNotOptimize(rows.data());
        }));
  }

  for (size_t k : {1u, 10u, 100u}) {
    PostingListCache cache(&fx.store);
    const TriplePattern left = fx.Pattern(0, 0);
    const TriplePattern right = fx.Pattern(1, 0);
    results.push_back(
        RunMicro(StrFormat("rank_join_topk/k:%zu", k), [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          auto l = std::make_unique<PatternScan>(
              &fx.store, cache.Get(left.Key()), left, 1, 1.0, &ctx);
          auto r = std::make_unique<PatternScan>(
              &fx.store, cache.Get(right.Key()), right, 1, 1.0, &ctx);
          RankJoin join(std::move(l), std::move(r), {0}, &ctx);
          const auto rows = PullTopK(&join, k, /*width=*/1, &stats);
          DoNotOptimize(rows.data());
        }));
  }

  {
    // Partitioned parallel rank join over the LARGEST micro input: one
    // predicate, 8 objects, ~30k-entry posting lists per side. The
    // partition pieces are built outside the timed body (a build-time cost
    // amortised across executions, like posting-list construction itself);
    // the timed body builds the per-partition HRJN trees, runs them on the
    // pool, and merges the top-k. threads:1 is the serial RankJoin
    // baseline the speedups are measured against.
    MicroFixture& big = BigFixture();
    PostingListCache cache(&big.store);
    const TriplePattern left = big.Pattern(0, 0);
    const TriplePattern right = big.Pattern(1, 0);
    auto left_list = cache.Get(left.Key());
    auto right_list = cache.Get(right.Key());
    const size_t k = 500;
    double serial_ns = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const uint32_t parts = static_cast<uint32_t>(threads);
      std::unique_ptr<ThreadPool> pool;
      std::vector<std::shared_ptr<const PostingList>> left_parts;
      std::vector<std::shared_ptr<const PostingList>> right_parts;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads) - 1);
        left_parts = PartitionPostingList(big.store, *left_list, 0, parts);
        right_parts = PartitionPostingList(big.store, *right_list, 0, parts);
      }
      MicroResult r = RunMicro(
          StrFormat("parallel_rank_join_topk/threads:%d", threads), [&] {
            ExecStats stats;
            ExecContext ctx(&stats, pool.get());
            std::vector<ScoredRow> rows;
            if (threads == 1) {
              auto l = std::make_unique<PatternScan>(&big.store, left_list,
                                                     left, 1, 1.0, &ctx);
              auto r2 = std::make_unique<PatternScan>(&big.store, right_list,
                                                      right, 1, 1.0, &ctx);
              RankJoin join(std::move(l), std::move(r2), {0}, &ctx);
              rows = PullTopK(&join, k, /*width=*/1, &stats);
            } else {
              std::vector<std::unique_ptr<ScoredRowIterator>> roots;
              for (uint32_t p = 0; p < parts; ++p) {
                ExecContext* part_ctx = ctx.ForPartition();
                auto l = std::make_unique<PatternScan>(
                    &big.store, left_parts[p], left, 1, 1.0, part_ctx);
                auto r2 = std::make_unique<PatternScan>(
                    &big.store, right_parts[p], right, 1, 1.0, part_ctx);
                roots.push_back(std::make_unique<RankJoin>(
                    std::move(l), std::move(r2), std::vector<VarId>{0},
                    part_ctx));
              }
              ParallelRankJoin join(std::move(roots), &ctx);
              rows = PullTopK(&join, k, /*width=*/1, &stats);
              ctx.MergePartitionStats();
            }
            DoNotOptimize(rows.data());
          });
      if (threads == 1) {
        serial_ns = r.ns_per_iter;
      } else if (serial_ns > 0.0 && r.ns_per_iter > 0.0) {
        r.speedup_vs_serial = serial_ns / r.ns_per_iter;
      }
      results.push_back(std::move(r));
    }
  }

  {
    // Block skipping on the same 240k-triple input: a self-join over the
    // ~30k-entry obj0 list at k=10. The list's score curve has ~30 tied
    // top-score entries per side, so the HRJN corner bound is beaten after
    // a few dozen pulls and the join never looks at the tail. A flat list
    // pays for all ~30k entries up front regardless; the block-compressed
    // backend decodes only the leading block per scan and the remaining
    // ~470 blocks are charged as provably-dead skips at teardown. Both
    // backends return identical rows (the store-format probe asserts this
    // bit-exactly); `block_skipping` in the artifact records the counters
    // from one instrumented run so compare_bench_json.py can fail a change
    // that silently regresses skipping to zero.
    MicroFixture& big = BigFixture();
    PostingListCache cache(&big.store);
    const TriplePattern pattern = big.Pattern(0, 0);
    auto flat_list = cache.Get(pattern.Key());
    auto blocked_list = BlockedCopy(big.store, *flat_list);
    const size_t k = 10;
    for (const bool use_blocked : {false, true}) {
      const auto& list = use_blocked ? blocked_list : flat_list;
      results.push_back(RunMicro(
          StrFormat("rank_join_topk_240k/backend:%s",
                    use_blocked ? "blocked" : "flat"),
          [&] {
            ExecStats stats;
            ExecContext ctx(&stats);
            auto l = std::make_unique<PatternScan>(&big.store, list, pattern,
                                                   1, 1.0, &ctx);
            auto r = std::make_unique<PatternScan>(&big.store, list, pattern,
                                                   1, 1.0, &ctx);
            RankJoin join(std::move(l), std::move(r), {0}, &ctx);
            const auto rows = PullTopK(&join, k, /*width=*/1, &stats);
            DoNotOptimize(rows.data());
          }));
    }
    ExecStats stats;
    {
      ExecContext ctx(&stats);
      auto l = std::make_unique<PatternScan>(&big.store, blocked_list,
                                             pattern, 1, 1.0, &ctx);
      auto r = std::make_unique<PatternScan>(&big.store, blocked_list,
                                             pattern, 1, 1.0, &ctx);
      RankJoin join(std::move(l), std::move(r), {0}, &ctx);
      const auto rows = PullTopK(&join, k, /*width=*/1, &stats);
      DoNotOptimize(rows.data());
    }  // tree teardown charges the untouched tail blocks as skipped
    const size_t blocks_per_list =
        (blocked_list->size() + kPostingBlockEntries - 1) /
        kPostingBlockEntries;
    std::printf(
        "block skipping (240k self-join, k=%zu): decoded %llu of %zu "
        "blocks across both scans, skipped %llu\n",
        k, static_cast<unsigned long long>(stats.blocks_decoded),
        2 * blocks_per_list,
        static_cast<unsigned long long>(stats.blocks_skipped));
    Json& skip = out.Set("block_skipping", Json::Object());
    skip.Set("list_entries", blocked_list->size());
    skip.Set("blocks_per_list", blocks_per_list);
    skip.Set("k", k);
    skip.Set("blocks_decoded", stats.blocks_decoded);
    skip.Set("blocks_skipped", stats.blocks_skipped);
  }

  for (int patterns : {2, 3, 4}) {
    TwoBucketHistogram h(0.2, 0.8);
    results.push_back(RunMicro(
        StrFormat("convolve_refit_chain/patterns:%d", patterns), [&] {
          TwoBucketHistogram acc = h;
          for (int i = 1; i < patterns; ++i) {
            acc = RefitTwoBucket(ConvolveTwoBucket(acc, h), 0.8);
          }
          DoNotOptimize(acc.sigma_r());
        }));
  }

  for (int patterns : {2, 3, 4}) {
    TwoBucketHistogram h(0.2, 0.8);
    const double delta = 1.0 / 512.0;
    results.push_back(RunMicro(
        StrFormat("grid_convolve_chain/patterns:%d", patterns), [&] {
          GridPdf acc = GridPdf::FromDistribution(h, delta);
          for (int i = 1; i < patterns; ++i) {
            acc = GridPdf::Convolve(acc, GridPdf::FromDistribution(h, delta));
          }
          DoNotOptimize(acc.Mean());
        }));
  }

  for (size_t num_patterns : {2u, 3u, 4u}) {
    Engine engine(&fx.store, &fx.rules, MakeEngineOptions());
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    for (size_t i = 0; i < num_patterns; ++i) {
      query.AddPattern(fx.Pattern(i, s));
    }
    query.AddProjection(s);
    engine.Warm(query);
    (void)engine.PlanOnly(query, 10);  // warm the stats/selectivity memos
    results.push_back(RunMicro(
        StrFormat("plangen_latency/patterns:%zu", num_patterns), [&] {
          QueryPlan plan = engine.PlanOnly(query, 10);
          DoNotOptimize(plan.singletons.data());
        }));
  }

  for (const bool speculative : {false, true}) {
    Engine engine(&fx.store, &fx.rules, MakeEngineOptions());
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    query.AddPattern(fx.Pattern(0, s));
    query.AddPattern(fx.Pattern(1, s));
    query.AddPattern(fx.Pattern(2, s));
    query.AddProjection(s);
    engine.Warm(query);
    results.push_back(RunMicro(
        StrFormat("end_to_end_query/%s",
                  speculative ? "spec_qp" : "trinit"),
        [&] {
          const auto result = RunQuery(
              engine, query, 10,
              speculative ? Strategy::kSpecQp : Strategy::kTrinit);
          DoNotOptimize(result.rows.data());
        }));
    if (speculative) out.Set("cache", CacheStatsToJson(engine.postings()));
  }

  const std::vector<int> widths = {38, 12, 14, 16};
  PrintRow({"benchmark", "iters", "ns/iter", "items/s"}, widths);
  PrintRule(widths);
  Json& benchmarks = out.Set("benchmarks", Json::Array());
  for (const MicroResult& r : results) {
    PrintRow({r.name,
              StrFormat("%llu", static_cast<unsigned long long>(r.iterations)),
              StrFormat("%.1f", r.ns_per_iter),
              r.items_per_iter == 0 ? std::string("-")
                                    : StrFormat("%.3g", r.items_per_second)},
             widths);
    Json& j = benchmarks.Push(Json::Object());
    j.Set("name", r.name);
    j.Set("iterations", r.iterations);
    j.Set("total_ms", r.total_ms);
    j.Set("ns_per_iter", r.ns_per_iter);
    if (r.items_per_iter > 0) {
      j.Set("items_per_iter", r.items_per_iter);
      j.Set("items_per_second", r.items_per_second);
    }
    if (r.speedup_vs_serial > 0.0) {
      j.Set("speedup_vs_serial", r.speedup_vs_serial);
    }
  }
}

}  // namespace
}  // namespace specqp::bench

int main(int argc, char** argv) {
  return specqp::bench::BenchMain(argc, argv, "micro_operators",
                                  &specqp::bench::Run);
}
