// Shard failure isolation battery: injected open/read faults, retry-then-
// quarantine at open, runtime quarantine with epoch-tagged memo
// invalidation, SIGBUS containment for truncate-while-mapped (the process
// must survive and degrade, never die), grow-while-mapped harmlessness,
// and cancellation responsiveness of the scatter-gather path. Runs under
// ASan in CI's chaos job — "no crash" is checked by the sanitizer, the
// structured statuses by the assertions below.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/mapped_fault.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/stop_probe.h"

namespace specqp {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TripleStore MakeStore(uint64_t seed = 7, size_t triples = 3000) {
  Rng rng(seed);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 120;
  cfg.num_predicates = 6;
  cfg.num_objects = 25;
  cfg.num_triples = triples;
  return specqp::testing::MakeRandomStore(&rng, cfg);
}

// Triples of `store` that do NOT hash to `failed_shard` under the bundle's
// default (subject, 4-shard) partitioning — what a degraded bundle with
// that shard quarantined at open must serve.
std::vector<Triple> SurvivorTriples(const TripleStore& store,
                                    uint32_t failed_shard,
                                    uint32_t shard_count) {
  std::vector<Triple> out;
  for (const Triple& t : store.triples()) {
    if (BundleShardOfTriple(t, bundle::HashScheme::kSubject, shard_count) !=
        failed_shard) {
      out.push_back(t);
    }
  }
  return out;
}

std::string WriteBundle(const TripleStore& store, const char* name,
                        uint32_t shards = 4) {
  const std::string dir = FreshDir(name);
  ShardBundleOptions options;
  options.shard_count = shards;
  SPECQP_CHECK(WriteShardBundle(store, dir, options).ok());
  return dir;
}

ShardedStore::Options QuarantineOptions() {
  ShardedStore::Options options;
  options.allow_quarantine = true;
  // Keep injected-failure tests fast: micro backoffs, same schedule shape.
  options.open_retry.initial_backoff = std::chrono::microseconds(50);
  options.open_retry.max_backoff = std::chrono::microseconds(200);
  return options;
}

// ---------------------------------------------------------------------------
// Open-time faults: retry, quarantine, strict refusal.
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, OpenRetryRecoversFromTransientFault) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_open_retry");

  // Shard 2's first two open probes fail; the third (last retry) succeeds.
  ScopedFaultPlan plan("seed=1;shard.open.2=1@2");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->ShardsFailed(), 0u);
  EXPECT_TRUE(opened.value()->shard_alive(2));
  EXPECT_EQ(FaultInjector::Global().FireCount("shard.open.2"), 2u);
  // Fully recovered: the facade serves the complete store.
  EXPECT_EQ(opened.value()->store().size(), store.size());
}

TEST(FaultToleranceTest, OpenQuarantinesAShardAndServesSurvivors) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_open_quarantine");

  ScopedFaultPlan plan("shard.open.1=1");  // beyond any retry budget
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();
  EXPECT_EQ(sharded.ShardsTotal(), 4u);
  EXPECT_EQ(sharded.ShardsFailed(), 1u);
  EXPECT_FALSE(sharded.shard_alive(1));
  EXPECT_NE(sharded.quarantine_reason(1).find("injected fault"),
            std::string::npos)
      << sharded.quarantine_reason(1);
  EXPECT_TRUE(sharded.quarantine_reason(0).empty());

  // The degraded global space is exactly the SPO merge of the survivors.
  const std::vector<Triple> expected = SurvivorTriples(store, 1, 4);
  const TripleStore& facade = sharded.store();
  ASSERT_EQ(facade.size(), expected.size());
  for (uint32_t i = 0; i < facade.size(); ++i) {
    EXPECT_EQ(facade.triple(i), expected[i]) << "global index " << i;
  }
}

TEST(FaultToleranceTest, StrictOpenSurfacesTheInjectedFault) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_open_strict");

  ScopedFaultPlan plan("shard.open.1=1");
  auto opened = ShardedStore::Open(dir);  // allow_quarantine off (default)
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
}

TEST(FaultToleranceTest, EveryShardFailingIsUnavailable) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_open_all_fail");

  ScopedFaultPlan plan("shard.open=1");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kUnavailable);
}

TEST(FaultToleranceTest, CorruptShardIsNotRetriedAsTransient) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_open_corrupt");
  // Damage shard 3's header magic: a final (Corruption-class) failure.
  {
    std::fstream f(dir + "/" + BundleShardFileName(3),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const char junk[4] = {'J', 'U', 'N', 'K'};
    ASSERT_TRUE(f.write(junk, sizeof(junk)).good());
  }
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->ShardsFailed(), 1u);
  EXPECT_FALSE(opened.value()->shard_alive(3));
  EXPECT_EQ(opened.value()->store().size(), SurvivorTriples(store, 3, 4).size());
}

// ---------------------------------------------------------------------------
// Runtime faults: injected read faults, SIGBUS containment, epoch bumps.
// ---------------------------------------------------------------------------

TEST(FaultToleranceTest, InjectedReadFaultQuarantinesMidFlight) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_read_fault");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();
  EXPECT_EQ(sharded.FaultEpoch(), 0u);

  // One fault on shard 2's next read probe: the scatter quarantines it and
  // restarts over the survivors — the same Match call returns the degraded
  // answer, no error escapes.
  ScopedFaultPlan plan("shard.read.2=1@1");
  const IndexRange full = sharded.store().MatchIndices(PatternKey{});
  EXPECT_EQ(sharded.ShardsFailed(), 1u);
  EXPECT_FALSE(sharded.shard_alive(2));
  EXPECT_EQ(sharded.FaultEpoch(), 1u);
  EXPECT_EQ(full.size(), SurvivorTriples(store, 2, 4).size());

  // Later gathers keep serving the survivors; the quarantined shard keeps
  // its slots in the ORIGINAL global space (locators stay valid), so the
  // surviving answers are a strict subset of the pre-fault index space.
  const Triple& probe = store.triples()[0];
  const auto matched = sharded.store().MatchIndices(
      PatternKey{kInvalidTermId, probe.p, kInvalidTermId});
  for (const uint32_t global : matched) {
    EXPECT_NE(BundleShardOfTriple(sharded.store().triple(global),
                                  bundle::HashScheme::kSubject, 4),
              2u);
  }
}

TEST(FaultToleranceTest, SimulatedMappingFaultIsSweptIntoQuarantine) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_sim_fault");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();

  // Warm a gather, then fault shard 3's mapping through the test hook
  // (same registry path a real SIGBUS repair takes).
  const size_t before = sharded.store().MatchIndices(PatternKey{}).size();
  EXPECT_EQ(before, store.size());
  ASSERT_TRUE(SimulateMappedFault(sharded.shard(3).mapped_base()));
  EXPECT_GE(sharded.shard(3).mapping_faults(), 1u);

  sharded.PollFaults();
  EXPECT_EQ(sharded.ShardsFailed(), 1u);
  EXPECT_FALSE(sharded.shard_alive(3));
  EXPECT_NE(sharded.quarantine_reason(3).find("SIGBUS"), std::string::npos)
      << sharded.quarantine_reason(3);
  EXPECT_GE(sharded.FaultEpoch(), 1u);

  // The memoised full-scan gather was epoch-tagged: re-asking recomputes
  // over the survivors instead of serving the stale pre-fault answer.
  EXPECT_EQ(sharded.store().MatchIndices(PatternKey{}).size(),
            SurvivorTriples(store, 3, 4).size());
}

TEST(FaultToleranceTest, TruncateWhileMappedDegradesInsteadOfCrashing) {
  const TripleStore store = MakeStore(/*seed=*/11, /*triples=*/6000);
  const std::string dir = WriteBundle(store, "ft_truncate");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();
  ASSERT_EQ(sharded.store().MatchIndices(PatternKey{}).size(), store.size());

  // Truncate shard 1's file to one page while its mapping is live. Every
  // later access to the lost pages raises SIGBUS; the containment handler
  // zero-fills the page and latches the fault instead of killing the
  // process.
  const std::string shard_path = dir + "/" + BundleShardFileName(1);
  std::error_code ec;
  fs::resize_file(shard_path, 4096, ec);
  ASSERT_FALSE(ec) << ec.message();

  // Touch the truncated shard through the public read path. The scatter
  // may observe zero-page garbage on its first pass; the fault sweep then
  // quarantines the shard and the restart serves the survivors.
  const Triple& probe = store.triples()[0];
  (void)sharded.store().MatchIndices(
      PatternKey{kInvalidTermId, probe.p, kInvalidTermId});
  // Force a full sweep over every shard's pages so the truncated mapping
  // is guaranteed to have been dereferenced.
  (void)sharded.store().MatchIndices(PatternKey{});
  sharded.PollFaults();

  EXPECT_GE(sharded.shard(1).mapping_faults(), 1u);
  EXPECT_EQ(sharded.ShardsFailed(), 1u);
  EXPECT_FALSE(sharded.shard_alive(1));

  // Still serving: degraded answers over the surviving shards.
  EXPECT_EQ(sharded.store().MatchIndices(PatternKey{}).size(),
            SurvivorTriples(store, 1, 4).size());
}

TEST(FaultToleranceTest, GrowWhileMappedIsHarmless) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_grow");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();

  // Append junk past the mapped range: the mapping covers the original
  // bytes only, so reads are untouched and no fault ever latches.
  {
    std::ofstream f(dir + "/" + BundleShardFileName(0),
                    std::ios::binary | std::ios::app);
    std::vector<char> junk(1 << 20, '\x5A');
    ASSERT_TRUE(f.write(junk.data(), junk.size()).good());
  }
  EXPECT_EQ(sharded.store().MatchIndices(PatternKey{}).size(), store.size());
  sharded.PollFaults();
  EXPECT_EQ(sharded.ShardsFailed(), 0u);
  for (uint32_t i = 0; i < store.size(); ++i) {
    ASSERT_EQ(sharded.store().triple(i), store.triples()[i]);
  }
}

// ---------------------------------------------------------------------------
// Cancellation responsiveness of the scatter-gather path.
// ---------------------------------------------------------------------------

bool AlwaysStop(const void*) { return true; }

TEST(FaultToleranceTest, MatchAbortsUnderStopProbeWithoutPoisoningTheMemo) {
  const TripleStore store = MakeStore();
  const std::string dir = WriteBundle(store, "ft_cancel");
  auto opened = ShardedStore::Open(dir, QuarantineOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();

  {
    // A stopped execution gets an empty gather back immediately...
    ScopedStopProbe probe(&AlwaysStop, nullptr);
    EXPECT_TRUE(sharded.store().MatchIndices(PatternKey{}).empty());
  }
  // ...and the truncated result was NOT memoised: the next (un-stopped)
  // query computes the real answer.
  EXPECT_EQ(sharded.store().MatchIndices(PatternKey{}).size(), store.size());
}

}  // namespace
}  // namespace specqp
