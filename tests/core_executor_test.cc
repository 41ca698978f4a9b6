#include "core/plan_executor.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "test_util.h"
#include "topk/top_k.h"

namespace specqp {
namespace {

using specqp::testing::MakeMusicFixture;
using specqp::testing::MusicFixture;

// Compares engine output rows to the oracle's best answers: same bindings
// (as a set at each score level) and same scores rank by rank.
void ExpectMatchesOracle(const std::vector<ScoredRow>& rows,
                         const ExhaustiveEvaluator::EvalResult& truth,
                         size_t k) {
  const size_t expect = std::min(k, truth.answers.size());
  ASSERT_EQ(rows.size(), expect);
  for (size_t i = 0; i < expect; ++i) {
    EXPECT_NEAR(rows[i].score, truth.answers[i].score, 1e-9) << "rank " << i;
  }
  // Binding multiset of the full prefix must agree wherever scores are
  // unambiguous; compare as sets (ties can permute).
  std::multiset<double> expected_scores;
  std::multiset<double> actual_scores;
  for (size_t i = 0; i < expect; ++i) {
    expected_scores.insert(truth.answers[i].score);
    actual_scores.insert(rows[i].score);
  }
  auto eit = expected_scores.begin();
  auto ait = actual_scores.begin();
  for (; eit != expected_scores.end(); ++eit, ++ait) {
    EXPECT_NEAR(*eit, *ait, 1e-9);
  }
}

TEST(PlanExecutorTest, NoRelaxPlanEqualsOracleWithoutRules) {
  MusicFixture fx = MakeMusicFixture();
  PostingListCache postings(&fx.store);
  RelaxationIndex no_rules;
  PlanExecutor executor(&fx.store, &postings, &no_rules);
  ExhaustiveEvaluator oracle(&fx.store, &no_rules);

  const Query query = fx.TypeQuery({"singer", "vocalist"});
  ExecStats stats;
  ExecContext ctx(&stats);
  auto root = executor.Build(query, QueryPlan::NoRelaxationsPlan(2), &ctx);
  const auto rows = PullTopK(root.get(), 10, query.num_vars(), &stats);
  ExpectMatchesOracle(rows, oracle.Evaluate(query), 10);
}

TEST(PlanExecutorTest, TrinitPlanEqualsOracleWithRules) {
  MusicFixture fx = MakeMusicFixture();
  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);
  ExhaustiveEvaluator oracle(&fx.store, &fx.rules);

  for (const auto& names : std::vector<std::vector<std::string>>{
           {"singer"},
           {"singer", "lyricist"},
           {"singer", "lyricist", "guitarist"},
           {"singer", "lyricist", "guitarist", "pianist"}}) {
    const Query query = fx.TypeQuery(names);
    ExecStats stats;
    ExecContext ctx(&stats);
    auto root = executor.Build(
        query, QueryPlan::TrinitPlan(query.num_patterns()), &ctx);
    const auto rows = PullTopK(root.get(), 10, query.num_vars(), &stats);
    ExpectMatchesOracle(rows, oracle.Evaluate(query), 10);
  }
}

TEST(PlanExecutorTest, MixedPlanEqualsOracleWithFilteredRules) {
  // A plan relaxing only pattern 1 must equal the oracle evaluated over a
  // rule set containing only pattern 1's rules: speculative execution is
  // exact with respect to its own plan.
  MusicFixture fx = MakeMusicFixture();
  const Query query = fx.TypeQuery({"singer", "pianist"});

  RelaxationIndex only_pianist;
  for (const RelaxationRule& rule :
       fx.rules.RulesFor(query.pattern(1).Key())) {
    ASSERT_TRUE(only_pianist.AddRule(rule).ok());
  }

  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);
  ExhaustiveEvaluator oracle(&fx.store, &only_pianist);

  QueryPlan plan;
  plan.join_group = {0};
  plan.singletons = {1};
  ExecStats stats;
  ExecContext ctx(&stats);
  auto root = executor.Build(query, plan, &ctx);
  const auto rows = PullTopK(root.get(), 10, query.num_vars(), &stats);
  ExpectMatchesOracle(rows, oracle.Evaluate(query), 10);
}

TEST(PlanExecutorTest, PaperExampleQueryTrinit) {
  // The intro query: singers who are lyricists, guitarists and pianists.
  // No entity satisfies all four originals, so the top answers only exist
  // through relaxations.
  MusicFixture fx = MakeMusicFixture();
  const Query query =
      fx.TypeQuery({"singer", "lyricist", "guitarist", "pianist"});
  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);
  ExecStats stats;
  ExecContext ctx(&stats);
  auto root = executor.Build(query, QueryPlan::TrinitPlan(4), &ctx);
  const auto rows = PullTopK(root.get(), 3, query.num_vars(), &stats);
  ASSERT_FALSE(rows.empty());
  // Oracle cross-check.
  ExhaustiveEvaluator oracle(&fx.store, &fx.rules);
  const auto truth = oracle.Evaluate(query);
  ASSERT_FALSE(truth.answers.empty());
  EXPECT_NEAR(rows[0].score, truth.answers[0].score, 1e-9);
}

TEST(PlanExecutorTest, SingletonOnlyPlanOnSinglePattern) {
  MusicFixture fx = MakeMusicFixture();
  const Query query = fx.TypeQuery({"jazz_singer"});
  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);
  ExecStats stats;
  ExecContext ctx(&stats);
  QueryPlan plan;
  plan.singletons = {0};
  auto root = executor.Build(query, plan, &ctx);
  const auto rows = PullTopK(root.get(), 10, query.num_vars(), &stats);
  EXPECT_EQ(rows.size(), 2u);  // norah, ray — no rules for jazz_singer
}

TEST(PlanExecutorTest, FewerAnswerObjectsWithJoinGroupPlan) {
  // The whole point of Spec-QP: pruning merges reduces materialised
  // intermediate answers.
  MusicFixture fx = MakeMusicFixture();
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);

  ExecStats trinit_stats;
  ExecContext trinit_ctx(&trinit_stats);
  auto trinit_root =
      executor.Build(query, QueryPlan::TrinitPlan(2), &trinit_ctx);
  PullTopK(trinit_root.get(), 5, query.num_vars(), &trinit_stats);

  ExecStats norelax_stats;
  ExecContext norelax_ctx(&norelax_stats);
  auto norelax_root =
      executor.Build(query, QueryPlan::NoRelaxationsPlan(2), &norelax_ctx);
  PullTopK(norelax_root.get(), 5, query.num_vars(), &norelax_stats);

  EXPECT_LE(norelax_stats.answer_objects, trinit_stats.answer_objects);
}

TEST(PlanExecutorDeathTest, PlanMustCoverQuery) {
  MusicFixture fx = MakeMusicFixture();
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  PostingListCache postings(&fx.store);
  PlanExecutor executor(&fx.store, &postings, &fx.rules);
  ExecStats stats;
  ExecContext ctx(&stats);
  QueryPlan bad;
  bad.join_group = {0};
  EXPECT_DEATH((void)executor.Build(query, bad, &ctx), "cover");
}

// --- the big property: TriniT == oracle on random stores --------------------

class ExecutorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorPropertyTest, TrinitMatchesOracleOnRandomData) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6007 + 11);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 25;
  cfg.num_predicates = 3;
  cfg.num_objects = 8;
  cfg.num_triples = 180;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  RelaxationIndex rules = specqp::testing::MakeRandomRules(&rng, store, 4);

  PostingListCache postings(&store);
  PlanExecutor executor(&store, &postings, &rules);
  ExhaustiveEvaluator oracle(&store, &rules);

  for (int trial = 0; trial < 6; ++trial) {
    const size_t num_patterns = 1 + rng.NextBounded(3);
    const Query query =
        specqp::testing::MakeRandomStarQuery(&rng, store, num_patterns);
    for (size_t k : {1u, 5u, 10u}) {
      ExecStats stats;
      ExecContext ctx(&stats);
      auto root = executor.Build(
          query, QueryPlan::TrinitPlan(query.num_patterns()), &ctx);
      const auto rows = PullTopK(root.get(), k, query.num_vars(), &stats);
      const auto truth = oracle.Evaluate(query);
      const size_t expect = std::min(k, truth.answers.size());
      ASSERT_EQ(rows.size(), expect) << "k=" << k;
      for (size_t i = 0; i < expect; ++i) {
        EXPECT_NEAR(rows[i].score, truth.answers[i].score, 1e-9)
            << "k=" << k << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorPropertyTest, ::testing::Range(0, 12));

// Mixed random plans are exact w.r.t. plan-filtered rules.
class MixedPlanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MixedPlanPropertyTest, ArbitraryPlanEqualsFilteredOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 20;
  cfg.num_triples = 150;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  RelaxationIndex rules = specqp::testing::MakeRandomRules(&rng, store, 3);

  PostingListCache postings(&store);
  PlanExecutor executor(&store, &postings, &rules);

  for (int trial = 0; trial < 5; ++trial) {
    const size_t num_patterns = 2 + rng.NextBounded(2);
    const Query query =
        specqp::testing::MakeRandomStarQuery(&rng, store, num_patterns);

    // Random plan partition.
    QueryPlan plan;
    RelaxationIndex filtered;
    bool skip = false;
    for (size_t i = 0; i < num_patterns && !skip; ++i) {
      if (rng.NextBool(0.5)) {
        plan.singletons.push_back(i);
        for (const RelaxationRule& rule :
             rules.RulesFor(query.pattern(i).Key())) {
          // Two query patterns could share a key; skip such rare cases to
          // keep the filtered-oracle construction well-defined.
          for (size_t j = 0; j < num_patterns; ++j) {
            if (j != i && query.pattern(j).Key() == query.pattern(i).Key()) {
              skip = true;
            }
          }
          if (!filtered.AddRule(rule).ok()) skip = true;
        }
      } else {
        plan.join_group.push_back(i);
      }
    }
    if (skip) continue;

    ExhaustiveEvaluator oracle(&store, &filtered);
    const auto truth = oracle.Evaluate(query);
    ExecStats stats;
    ExecContext ctx(&stats);
    auto root = executor.Build(query, plan, &ctx);
    const auto rows = PullTopK(root.get(), 8, query.num_vars(), &stats);
    const size_t expect = std::min<size_t>(8, truth.answers.size());
    ASSERT_EQ(rows.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(rows[i].score, truth.answers[i].score, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedPlanPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace specqp
