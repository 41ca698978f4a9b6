// The store-format acceptance probe: every bundled workload query (66 XKG
// + 50 Twitter = 116, the bench-bundle counts over test-sized datasets)
// must return bit-identical rows — bindings AND scores — from a saved
// store opened mapped (zero-copy, block postings) and loaded (LoadStore,
// flat postings), across all three strategies and thread counts {1, 2, 8},
// and both must match an engine over the original in-memory store. Block
// skipping is an access-path optimisation only; this is the determinism
// contract of docs/ARCHITECTURE.md ("Block iterator & skipping").
//
// The same 116 queries also pin the engine's answers and operator work to
// checked-in digests, so a change that alters answers identically on every
// path (which the self-comparison above cannot see) still fails.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/crc32.h"

namespace specqp {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectIdenticalRows(const std::vector<ScoredRow>& a,
                         const std::vector<ScoredRow>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bindings, b[i].bindings) << label << " row " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " row " << i;  // bitwise
  }
}

// The 66 XKG + 50 Twitter test-sized workload, built once per process.
struct ProbeSet {
  XkgDataset xkg;
  TwitterDataset twitter;
  std::vector<Query> xkg_queries;
  std::vector<Query> twitter_queries;
};

ProbeSet* BuildProbeSet() {
  auto* set = new ProbeSet;
  XkgConfig xkg_config;
  xkg_config.num_entities = 6000;
  xkg_config.num_domains = 8;
  // A flat popularity curve, deliberately: rank-join early termination
  // requires some join result to beat top + UpperBound of the other side,
  // and under the default power-law skew the per-list-normalised scores
  // collapse so fast that no result ever does — the join provably drains
  // both sides before emitting, and block skipping cannot trigger no
  // matter the implementation (see docs/ARCHITECTURE.md, "Block iterator
  // & skipping"). A gentler curve keeps result scores competitive with
  // the corner bound so the skip path is actually exercised end-to-end.
  xkg_config.entity_popularity_skew = 0.15;
  set->xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_wl;  // defaults: 22 per size of 2/3/4 => 66
  xkg_wl.min_relaxations = 8;
  set->xkg_queries = MakeXkgWorkload(set->xkg, xkg_wl);

  TwitterConfig twitter_config;
  twitter_config.num_tweets = 20000;
  twitter_config.num_topics = 12;
  set->twitter = GenerateTwitter(twitter_config);
  TwitterWorkloadConfig twitter_wl;  // defaults: 25 per size of 2/3 => 50
  twitter_wl.min_relaxations = 4;
  twitter_wl.min_relaxed_answers = 10;
  set->twitter_queries = MakeTwitterWorkload(set->twitter, twitter_wl);
  return set;
}

const ProbeSet& GetProbeSet() {
  static const ProbeSet* set = BuildProbeSet();
  return *set;
}

TEST(StoreFormatProbeTest, WorkloadBitIdenticalAcrossBackendsAndThreads) {
  const ProbeSet& set = GetProbeSet();
  const XkgDataset& xkg = set.xkg;
  const TwitterDataset& twitter = set.twitter;
  const std::vector<Query>& xkg_queries = set.xkg_queries;
  const std::vector<Query>& twitter_queries = set.twitter_queries;
  ASSERT_EQ(xkg_queries.size(), 66u);
  ASSERT_EQ(twitter_queries.size(), 50u);
  ASSERT_EQ(xkg_queries.size() + twitter_queries.size(), 116u);

  const struct {
    const char* name;
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } bundles[] = {
      {"xkg", &xkg.store, &xkg.rules, &xkg_queries},
      {"twitter", &twitter.store, &twitter.rules, &twitter_queries},
  };
  const Strategy strategies[] = {Strategy::kSpecQp, Strategy::kTrinit,
                                 Strategy::kNoRelax};
  const size_t k = 10;

  uint64_t xkg_blocks_skipped = 0;
  for (const auto& bundle : bundles) {
    const std::string path =
        TempPath((std::string("probe_") + bundle.name + ".sqp").c_str());
    ASSERT_TRUE(SaveStore(*bundle.store, path).ok());

    Engine reference(bundle.store, bundle.rules);
    std::vector<std::vector<Engine::QueryResult>> expected(
        std::size(strategies));
    for (size_t si = 0; si < std::size(strategies); ++si) {
      expected[si].reserve(bundle.workload->size());
      for (const Query& query : *bundle.workload) {
        expected[si].push_back(
            testing::Execute(reference, query, k, strategies[si]));
      }
    }

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      if (threads > 1) options.parallel_min_rows = 1;  // force partitioning
      options.mmap = true;
      auto mapped = Engine::OpenFromPath(path, bundle.rules, options);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ASSERT_TRUE(mapped.value().mmap_backed());
      options.mmap = false;
      auto loaded = Engine::OpenFromPath(path, bundle.rules, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_FALSE(loaded.value().mmap_backed());

      for (size_t si = 0; si < std::size(strategies); ++si) {
        for (size_t qi = 0; qi < bundle.workload->size(); ++qi) {
          const Query& query = (*bundle.workload)[qi];
          const auto from_mapped = testing::Execute(*mapped.value().engine,
                                                    query, k, strategies[si]);
          const auto from_loaded = testing::Execute(*loaded.value().engine,
                                                    query, k, strategies[si]);
          const std::string label =
              std::string(bundle.name) + " q" + std::to_string(qi) +
              " strategy " + std::to_string(si) + " threads " +
              std::to_string(threads);
          ExpectIdenticalRows(from_mapped.rows, expected[si][qi].rows,
                              (label + " mapped vs original").c_str());
          ExpectIdenticalRows(from_loaded.rows, expected[si][qi].rows,
                              (label + " loaded vs original").c_str());
          // The loaded store's lists are flat: no block counters.
          EXPECT_EQ(from_loaded.stats.blocks_decoded, 0u);
          EXPECT_EQ(from_loaded.stats.blocks_skipped, 0u);
          if (bundle.store == &xkg.store) {
            xkg_blocks_skipped += from_mapped.stats.blocks_skipped;
          }
        }
      }
    }
  }

  // The rank-join-heavy XKG workload must actually exercise the skipping
  // machinery: top-k early termination leaves undecoded blocks behind.
  EXPECT_GT(xkg_blocks_skipped, 0u);
}

// Answer pin. Changing either constant needs a CHANGES.md entry naming the
// reason: the answers digest moves only if some query's rows (bindings or
// score bits) change, the work digest only if an operator does different
// work (rows scanned, merged, deduplicated, joined, probed or
// materialised) to produce them.
constexpr uint32_t kAnswersDigest = 1531274824;
constexpr uint32_t kWorkDigest = 42688737;

TEST(StoreFormatProbeTest, AnswersAndWorkMatchPinnedDigests) {
  const ProbeSet& set = GetProbeSet();
  ASSERT_EQ(set.xkg_queries.size() + set.twitter_queries.size(), 116u);
  const struct {
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } bundles[] = {
      {&set.xkg.store, &set.xkg.rules, &set.xkg_queries},
      {&set.twitter.store, &set.twitter.rules, &set.twitter_queries},
  };

  uint32_t answers = 0;
  uint32_t work = 0;
  for (const auto& bundle : bundles) {
    for (const int threads : {1, 2}) {
      EngineOptions options;
      options.num_threads = threads;
      if (threads > 1) options.parallel_min_rows = 1;  // force partitioning
      Engine engine(bundle.store, bundle.rules, options);
      for (const Strategy strategy :
           {Strategy::kSpecQp, Strategy::kTrinit, Strategy::kNoRelax}) {
        for (const size_t k : {size_t{10}, size_t{15}, size_t{20}}) {
          for (const Query& query : *bundle.workload) {
            const auto result = testing::Execute(engine, query, k, strategy);
            const uint64_t num_rows = result.rows.size();
            answers = Crc32c(&num_rows, sizeof(num_rows), answers);
            for (const ScoredRow& row : result.rows) {
              answers = Crc32c(row.bindings.data(),
                               row.bindings.size() * sizeof(TermId), answers);
              uint64_t score_bits = 0;
              std::memcpy(&score_bits, &row.score, sizeof(score_bits));
              answers = Crc32c(&score_bits, sizeof(score_bits), answers);
            }
            const ExecStats& s = result.stats;
            const uint64_t counters[] = {
                s.scan_rows,    s.merge_rows,       s.merge_duplicates,
                s.join_results, s.join_hash_probes, s.answer_objects};
            work = Crc32c(counters, sizeof(counters), work);
          }
        }
      }
    }
  }
  EXPECT_EQ(answers, kAnswersDigest);
  EXPECT_EQ(work, kWorkDigest);
}

}  // namespace
}  // namespace specqp
