#include "datasets/evaluation.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "stats/selectivity.h"
#include "test_util.h"

namespace specqp {
namespace {

XkgConfig SmallXkgConfig() {
  XkgConfig config;
  config.seed = 7;
  config.num_entities = 2500;
  config.num_domains = 6;
  config.types_per_domain = 10;
  config.num_attributes = 2;
  config.values_per_attribute = 8;
  return config;
}

TwitterConfig SmallTwitterConfig() {
  TwitterConfig config;
  config.seed = 13;
  config.num_tweets = 6000;
  config.num_topics = 8;
  config.tags_per_topic = 15;
  return config;
}

TEST(XkgGeneratorTest, BasicInvariants) {
  const XkgDataset data = GenerateXkg(SmallXkgConfig());
  EXPECT_TRUE(data.store.finalized());
  EXPECT_GT(data.store.size(), 5000u);
  EXPECT_NE(data.schema.type_predicate, kInvalidTermId);
  EXPECT_EQ(data.schema.attribute_predicates.size(), 2u);
  EXPECT_EQ(data.schema.domain_types.size(), 6u);
  EXPECT_GT(data.rules.total_rules(), 0u);
}

TEST(XkgGeneratorTest, DeterministicForSeed) {
  const XkgDataset a = GenerateXkg(SmallXkgConfig());
  const XkgDataset b = GenerateXkg(SmallXkgConfig());
  ASSERT_EQ(a.store.size(), b.store.size());
  for (size_t i = 0; i < std::min<size_t>(a.store.size(), 500); ++i) {
    EXPECT_EQ(a.store.triple(static_cast<uint32_t>(i)),
              b.store.triple(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(a.rules.total_rules(), b.rules.total_rules());
}

TEST(XkgGeneratorTest, ScoresArePowerLaw) {
  const XkgDataset data = GenerateXkg(SmallXkgConfig());
  // Type posting lists should be head-heavy: the top 20% of matches carry
  // well over half the mass for popular types.
  PatternKey key{kInvalidTermId, data.schema.type_predicate,
                 data.schema.domain_types[0][0]};
  const PostingList list = BuildPostingList(data.store, key);
  ASSERT_GT(list.size(), 20u);
  double total = 0.0;
  for (const PostingEntry& e : list.entries) total += e.score;
  double head = 0.0;
  const size_t head_n = list.size() / 5;
  for (size_t i = 0; i < head_n; ++i) head += list.entries[i].score;
  EXPECT_GT(head / total, 0.5);
}

TEST(XkgGeneratorTest, TypePatternsHaveRelaxations) {
  const XkgDataset data = GenerateXkg(SmallXkgConfig());
  size_t with_rules = 0;
  size_t total = 0;
  for (const auto& domain : data.schema.domain_types) {
    for (TermId type : domain) {
      PatternKey key{kInvalidTermId, data.schema.type_predicate, type};
      // Long-tail types (popularity-correlated fact density leaves them
      // with few instances) legitimately mine few rules; the workload only
      // draws from reasonably-populated patterns, so that is what we
      // check.
      if (data.store.CountMatches(key) < 30) continue;
      ++total;
      if (data.rules.NumRulesFor(key) >= 5) ++with_rules;
    }
  }
  ASSERT_GT(total, 0u);
  // The same-domain overlap must give most populated types a healthy rule
  // set.
  EXPECT_GT(static_cast<double>(with_rules) / static_cast<double>(total),
            0.7);
}

TEST(XkgGeneratorTest, MinedWeightsAreValid) {
  const XkgDataset data = GenerateXkg(SmallXkgConfig());
  size_t checked = 0;
  for (const auto& domain : data.schema.domain_types) {
    for (TermId type : domain) {
      PatternKey key{kInvalidTermId, data.schema.type_predicate, type};
      for (const RelaxationRule& rule : data.rules.RulesFor(key)) {
        EXPECT_TRUE(ValidateRule(rule).ok());
        EXPECT_LE(rule.weight, SmallXkgConfig().miner_weight_cap + 1e-12);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(XkgWorkloadTest, MeetsStructuralConstraints) {
  const XkgDataset data = GenerateXkg(SmallXkgConfig());
  XkgWorkloadConfig wl;
  wl.seed = 3;
  wl.queries_per_size = 4;
  wl.min_relaxations = 4;
  const std::vector<Query> queries = MakeXkgWorkload(data, wl);
  ASSERT_EQ(queries.size(), 12u);  // 4 each of 2, 3, 4 patterns

  SelectivityEstimator exact(&data.store);
  size_t index = 0;
  for (size_t num_patterns = 2; num_patterns <= 4; ++num_patterns) {
    for (size_t i = 0; i < 4; ++i, ++index) {
      const Query& q = queries[index];
      EXPECT_EQ(q.num_patterns(), num_patterns);
      EXPECT_TRUE(q.IsConnected());
      EXPECT_GE(exact.ExactQueryCardinality(q), 1u);
      for (const TriplePattern& p : q.patterns()) {
        EXPECT_GE(data.rules.NumRulesFor(p.Key()), wl.min_relaxations);
      }
    }
  }
}

TEST(TwitterGeneratorTest, BasicInvariants) {
  const TwitterDataset data = GenerateTwitter(SmallTwitterConfig());
  EXPECT_TRUE(data.store.finalized());
  EXPECT_GT(data.store.size(), 10000u);
  EXPECT_NE(data.schema.has_tag, kInvalidTermId);
  EXPECT_EQ(data.schema.topic_tags.size(), 8u);
  EXPECT_GT(data.rules.total_rules(), 0u);
  // Every triple uses the hasTag predicate.
  for (size_t i = 0; i < std::min<size_t>(data.store.size(), 1000); ++i) {
    EXPECT_EQ(data.store.triple(static_cast<uint32_t>(i)).p,
              data.schema.has_tag);
  }
}

TEST(TwitterGeneratorTest, DeterministicForSeed) {
  const TwitterDataset a = GenerateTwitter(SmallTwitterConfig());
  const TwitterDataset b = GenerateTwitter(SmallTwitterConfig());
  EXPECT_EQ(a.store.size(), b.store.size());
  EXPECT_EQ(a.rules.total_rules(), b.rules.total_rules());
}

TEST(TwitterGeneratorTest, CooccurrenceWeightsMatchFormula) {
  TwitterConfig config = SmallTwitterConfig();
  config.miner_max_rules = 50;
  // Disable sampling so weights are exact.
  const TwitterDataset data = GenerateTwitter(config);

  // Recompute w = #tweets(T1 ∧ T2) / #tweets(T1) for a handful of rules.
  size_t checked = 0;
  for (const auto& topic : data.schema.topic_tags) {
    for (TermId tag : topic) {
      PatternKey key{kInvalidTermId, data.schema.has_tag, tag};
      const auto rules = data.rules.RulesFor(key);
      if (rules.empty()) continue;
      // Subjects of T1.
      std::unordered_set<TermId> t1_subjects;
      for (uint32_t idx : data.store.MatchIndices(key)) {
        t1_subjects.insert(data.store.triple(idx).s);
      }
      const RelaxationRule& rule = rules.front();
      size_t both = 0;
      for (uint32_t idx : data.store.MatchIndices(rule.to)) {
        if (t1_subjects.count(data.store.triple(idx).s) > 0) ++both;
      }
      const double expected =
          std::min(static_cast<double>(both) /
                       static_cast<double>(t1_subjects.size()),
                   config.miner_weight_cap);
      // Sampling may kick in for very popular tags; allow slack there.
      if (t1_subjects.size() <= 4096) {
        EXPECT_NEAR(rule.weight, expected, 1e-9);
        ++checked;
      }
      if (checked >= 10) return;
    }
  }
  EXPECT_GE(checked, 3u);
}

TEST(TwitterWorkloadTest, MeetsStructuralConstraints) {
  const TwitterDataset data = GenerateTwitter(SmallTwitterConfig());
  TwitterWorkloadConfig wl;
  wl.seed = 5;
  wl.queries_per_size = 4;
  wl.min_relaxations = 3;
  wl.min_relaxed_answers = 10;
  const std::vector<Query> queries = MakeTwitterWorkload(data, wl);
  ASSERT_EQ(queries.size(), 8u);  // 4 each of 2, 3 patterns

  ExhaustiveEvaluator oracle(&data.store, &data.rules);
  size_t index = 0;
  for (size_t num_patterns = 2; num_patterns <= 3; ++num_patterns) {
    for (size_t i = 0; i < 4; ++i, ++index) {
      const Query& q = queries[index];
      EXPECT_EQ(q.num_patterns(), num_patterns);
      EXPECT_TRUE(q.IsConnected());
      EXPECT_GE(oracle.Evaluate(q).answers.size(), wl.min_relaxed_answers);
      for (const TriplePattern& p : q.patterns()) {
        EXPECT_GE(data.rules.NumRulesFor(p.Key()), wl.min_relaxations);
      }
    }
  }
}

// --- evaluation harness -------------------------------------------------------

TEST(EvaluationTest, QualityMetricsOnMusicFixture) {
  specqp::testing::MusicFixture fx = specqp::testing::MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  ExhaustiveEvaluator oracle(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  const QualityMetrics m = EvaluateQuality(engine, oracle, query, 5);
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 1.0);
  EXPECT_GE(m.score_error_mean, 0.0);
  EXPECT_GT(m.true_answer_count, 0u);
}

TEST(EvaluationTest, PerfectPredictionYieldsPrecisionOne) {
  // A query whose plan matches ground truth must reproduce the exact top-k.
  specqp::testing::MusicFixture fx = specqp::testing::MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  ExhaustiveEvaluator oracle(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "vocalist"});
  const QualityMetrics m = EvaluateQuality(engine, oracle, query, 3);
  if (m.prediction_exact) {
    EXPECT_DOUBLE_EQ(m.precision, 1.0);
    EXPECT_NEAR(m.score_error_mean, 0.0, 1e-9);
  }
}

TEST(EvaluationTest, EfficiencyMetricsSane) {
  specqp::testing::MusicFixture fx = specqp::testing::MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist", "guitarist"});
  const EfficiencyMetrics m = MeasureEfficiency(engine, query, 5, 3, 2);
  EXPECT_GT(m.trinit_ms, 0.0);
  EXPECT_GT(m.spec_ms, 0.0);
  EXPECT_GT(m.trinit_objects, 0u);
  EXPECT_GT(m.spec_objects, 0u);
  EXPECT_LE(m.spec_objects, m.trinit_objects);
  EXPECT_LE(m.patterns_relaxed, 3u);
}

}  // namespace
}  // namespace specqp
