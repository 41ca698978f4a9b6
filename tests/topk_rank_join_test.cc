#include "topk/rank_join.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "topk/key_table.h"
#include "topk/top_k.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::VectorIterator;

// Rows over a 2-variable schema: var 0 is the join key, var 1 carries a
// side-specific payload so merged rows are distinguishable.
std::unique_ptr<VectorIterator> LeftInput(
    const std::vector<std::pair<TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [key, score] : rows) {
    ScoredRow row(2, score);
    row.bindings[0] = key;
    v.push_back(std::move(row));
  }
  return std::make_unique<VectorIterator>(std::move(v));
}

std::unique_ptr<VectorIterator> RightInput(
    const std::vector<std::tuple<TermId, TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [key, payload, score] : rows) {
    ScoredRow row(2, score);
    row.bindings[0] = key;
    row.bindings[1] = payload;
    v.push_back(std::move(row));
  }
  return std::make_unique<VectorIterator>(std::move(v));
}

TEST(RankJoinTest, JoinsOnSharedVariable) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}, {2, 0.5}}),
                RightInput({{1, 10, 0.8}, {3, 30, 0.7}, {2, 20, 0.6}}),
                {0}, &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9 + 0.8);
  EXPECT_EQ(rows[0].bindings[0], 1u);
  EXPECT_EQ(rows[0].bindings[1], 10u);
  EXPECT_DOUBLE_EQ(rows[1].score, 0.5 + 0.6);
  EXPECT_EQ(rows[1].bindings[1], 20u);
}

TEST(RankJoinTest, EmitsInDescendingScoreOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.85}, {3, 0.2}}),
      RightInput({{3, 33, 1.0}, {2, 22, 0.4}, {1, 11, 0.05}}), {0}, &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);
  // Scores: 1+0.05=0.95? no: (1:0.9+0.05=0.95), (2:0.85+0.4=1.25),
  // (3:0.2+1.0=1.2) -> order 1.25, 1.2, 0.95.
  EXPECT_DOUBLE_EQ(rows[0].score, 1.25);
  EXPECT_DOUBLE_EQ(rows[1].score, 1.2);
  EXPECT_DOUBLE_EQ(rows[2].score, 0.95);
}

TEST(RankJoinTest, EmptyInputs) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({}), RightInput({{1, 10, 0.8}}), {0}, &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_FALSE(join.Next(&row));
}

TEST(RankJoinTest, NoMatchingKeys) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{2, 20, 0.8}}), {0},
                &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_EQ(stats.join_results, 0u);
}

TEST(RankJoinTest, OneToManyJoin) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}),
                RightInput({{1, 10, 0.8}, {1, 11, 0.5}, {1, 12, 0.1}}), {0},
                &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  EXPECT_DOUBLE_EQ(rows[2].score, 1.0);
  EXPECT_EQ(stats.join_results, 3u);
}

TEST(RankJoinTest, CrossProductWhenNoJoinVars) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}, {2, 0.5}}),
                RightInput({{0, 10, 0.8}, {0, 11, 0.3}}), {}, &ctx);
  const auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  double prev = 2.0;
  for (const ScoredRow& row : rows) {
    EXPECT_LE(row.score, prev + 1e-12);
    prev = row.score;
  }
}

TEST(RankJoinTest, BothInputsEmpty) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({}), RightInput({}), {0}, &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_FALSE(join.Next(&row));
  EXPECT_EQ(stats.join_results, 0u);

  ExecStats cross_stats;
  ExecContext cross_ctx(&cross_stats);
  RankJoin cross(LeftInput({}), RightInput({}), {}, &cross_ctx);
  EXPECT_FALSE(cross.Next(&row));
  EXPECT_EQ(cross_stats.join_results, 0u);
}

TEST(RankJoinTest, NextAfterExhaustionKeepsReturningFalse) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{1, 10, 0.8}}), {0},
                &ctx);
  ScoredRow row;
  ASSERT_TRUE(join.Next(&row));
  EXPECT_DOUBLE_EQ(row.score, 1.7);
  for (int i = 0; i < 5; ++i) {
    row.score = -1.0;
    EXPECT_FALSE(join.Next(&row));
  }
  EXPECT_EQ(stats.join_results, 1u);
}

TEST(RankJoinTest, CrossProductLeftInputBindingsWin) {
  // In a cross product the two sides bind the same slots to different
  // terms; the LEFT input's binding must win deterministically — never
  // depending on internal pull order — while slots bound only on the
  // right are still filled from the right.
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{2, 20, 0.8}}), {},
                &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  EXPECT_EQ(rows[0].bindings[0], 1u) << "left input's binding must win";
  EXPECT_EQ(rows[0].bindings[1], 20u);

  // Same inputs with the right side scoring higher (so the right side is
  // pulled and probed first): the left input's binding still wins.
  ExecStats stats2;
  ExecContext ctx2(&stats2);
  RankJoin join2(LeftInput({{1, 0.3}}), RightInput({{2, 20, 0.8}}), {},
                 &ctx2);
  const auto rows2 = Drain(&join2);
  ASSERT_EQ(rows2.size(), 1u);
  EXPECT_EQ(rows2[0].bindings[0], 1u) << "must not depend on probe order";
  EXPECT_EQ(rows2[0].bindings[1], 20u);
}

TEST(RankJoinTest, UpperBoundNeverIncreasesAndBoundsEmissions) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.1}}),
      RightInput(
          {{4, 44, 0.95}, {2, 22, 0.6}, {1, 11, 0.5}, {3, 33, 0.2}}),
      {0}, &ctx);
  double prev = join.UpperBound();
  ScoredRow row;
  while (join.Next(&row)) {
    EXPECT_LE(row.score, prev + 1e-9);
    const double bound = join.UpperBound();
    EXPECT_LE(bound, prev + 1e-9);
    prev = bound;
  }
}

TEST(RankJoinTest, EarlyTerminationReadsOnlyWhatIsNeeded) {
  // Long tails that can never contribute to the top answer must not be
  // read once the threshold proves it.
  std::vector<std::pair<TermId, double>> left_rows = {{1, 1.0}};
  std::vector<std::tuple<TermId, TermId, double>> right_rows = {{1, 11, 1.0}};
  for (TermId i = 2; i < 1000; ++i) {
    left_rows.emplace_back(i, 0.001);
    right_rows.emplace_back(i, i * 10, 0.001);
  }
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput(left_rows), RightInput(right_rows), {0}, &ctx);
  ScoredRow row;
  ASSERT_TRUE(join.Next(&row));
  EXPECT_DOUBLE_EQ(row.score, 2.0);
  // Producing the top-1 result must not have materialised the ~1000
  // tail join results.
  EXPECT_LT(stats.join_results, 10u);
}

// --- KeyTable and the join's row store ---------------------------------------

// `count` single-cell keys whose hashes agree in their low 12 bits, so they
// share a home slot in every table of up to 4096 slots.
std::vector<TermId> CollidingKeys(size_t count) {
  std::vector<TermId> keys;
  const TermId first = 1;
  const uint64_t home = KeyTable::Hash(&first, 1) & 0xFFF;
  for (TermId t = first; keys.size() < count; ++t) {
    if ((KeyTable::Hash(&t, 1) & 0xFFF) == home) keys.push_back(t);
  }
  return keys;
}

// All pairs of `left` x `right` agreeing on `join_vars`, merged left-wins,
// sorted in emission order.
std::vector<ScoredRow> NaiveJoin(const std::vector<ScoredRow>& left,
                                 const std::vector<ScoredRow>& right,
                                 const std::vector<VarId>& join_vars) {
  std::vector<ScoredRow> out;
  for (const ScoredRow& l : left) {
    for (const ScoredRow& r : right) {
      bool match = true;
      for (VarId v : join_vars) match &= l.bindings[v] == r.bindings[v];
      if (!match) continue;
      ScoredRow merged = l;
      for (size_t s = 0; s < merged.bindings.size(); ++s) {
        if (merged.bindings[s] == kInvalidTermId) {
          merged.bindings[s] = r.bindings[s];
        }
      }
      merged.score = l.score + r.score;
      out.push_back(std::move(merged));
    }
  }
  std::sort(out.begin(), out.end(), RowBefore);
  return out;
}

std::vector<ScoredRow> SortedRows(std::vector<ScoredRow> rows) {
  std::sort(rows.begin(), rows.end(), RowBefore);
  return rows;
}

void ExpectSameRows(const std::vector<ScoredRow>& actual,
                    const std::vector<ScoredRow>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].bindings, expected[i].bindings) << "rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
  }
}

TEST(KeyTableTest, KeysCollidingInLowBitsAreAllFound) {
  const std::vector<TermId> keys = CollidingKeys(65);
  KeyTable table(1);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    bool inserted = false;
    EXPECT_EQ(table.Insert(&keys[i], &inserted), i);
    EXPECT_TRUE(inserted);
  }
  ASSERT_LE(table.capacity(), 4096u);  // every key shares one home slot
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    bool inserted = true;
    EXPECT_EQ(table.Insert(&keys[i], &inserted), i);
    EXPECT_FALSE(inserted);
  }
  bool inserted = false;
  EXPECT_EQ(table.Insert(&keys.back(), &inserted), keys.size() - 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.size(), keys.size());
}

TEST(KeyTableTest, GrowsAcrossRehashesKeepingEveryKey) {
  KeyTable table(2);
  int rehashes = 0;
  size_t capacity = 0;
  for (TermId i = 0; i < 1000; ++i) {
    const TermId key[2] = {i, 7 * i + 3};
    bool inserted = false;
    ASSERT_EQ(table.Insert(key, &inserted), i);
    ASSERT_TRUE(inserted);
    if (table.capacity() != capacity) {
      if (capacity != 0) ++rehashes;
      capacity = table.capacity();
    }
  }
  EXPECT_GE(rehashes, 3);
  for (TermId i = 0; i < 1000; ++i) {
    const TermId key[2] = {i, 7 * i + 3};
    bool inserted = true;
    ASSERT_EQ(table.Insert(key, &inserted), i);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(table.key(i)[0], i);
    EXPECT_EQ(table.key(i)[1], 7 * i + 3);
  }
  const TermId absent[2] = {3, 4};
  bool inserted = false;
  EXPECT_EQ(table.Insert(absent, &inserted), 1000u);
  EXPECT_TRUE(inserted);
}

TEST(KeyTableTest, ZeroWidthKeysAreOneKey) {
  KeyTable table(0);
  bool inserted = false;
  EXPECT_EQ(table.Insert(nullptr, &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(table.Insert(nullptr, &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RankJoinTest, CollidingKeysJoinOnlyTheirOwnPartners) {
  // Join keys that share a home slot, many rows per key on each side and
  // enough keys to grow the table: every result must still pair equal
  // keys only.
  const std::vector<TermId> keys = CollidingKeys(40);
  std::vector<ScoredRow> left;
  std::vector<ScoredRow> right;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (TermId copy = 0; copy < 3; ++copy) {
      ScoredRow l(3, 1.0 / static_cast<double>(1 + i + 50 * copy));
      l.bindings[0] = keys[i];
      l.bindings[1] = 1000 + copy;
      left.push_back(std::move(l));
      ScoredRow r(3, 1.0 / static_cast<double>(2 + 3 * i + copy));
      r.bindings[0] = keys[i];
      r.bindings[2] = 2000 + copy;
      right.push_back(std::move(r));
    }
  }
  left = SortedRows(std::move(left));
  right = SortedRows(std::move(right));
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(std::make_unique<VectorIterator>(left),
                std::make_unique<VectorIterator>(right), {0}, &ctx);
  const auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), keys.size() * 9);
  ExpectSameRows(rows, NaiveJoin(left, right, {0}));
}

TEST(RankJoinTest, CrossProductMatchesNaiveAllPairs) {
  std::vector<ScoredRow> left;
  std::vector<ScoredRow> right;
  for (TermId i = 0; i < 6; ++i) {
    ScoredRow l(2, 0.9 - 0.1 * i);
    l.bindings[0] = 10 + i;
    left.push_back(std::move(l));
    ScoredRow r(2, 0.85 - 0.15 * i);
    r.bindings[1] = 20 + i;
    right.push_back(std::move(r));
  }
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(std::make_unique<VectorIterator>(left),
                std::make_unique<VectorIterator>(right), {}, &ctx);
  const auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 36u);
  ExpectSameRows(rows, NaiveJoin(left, right, {}));
  EXPECT_EQ(stats.join_results, 36u);
}

TEST(RankJoinTest, ThreeJoinVariablesMatchNaiveJoin) {
  // The widest join a triple pattern allows: the right side binds three
  // variables, all already bound on the left.
  Rng rng(3);
  std::vector<ScoredRow> left;
  std::vector<ScoredRow> right;
  for (int i = 0; i < 60; ++i) {
    ScoredRow l(5, rng.NextDouble(0.0, 1.0));
    for (VarId v = 0; v < 3; ++v) {
      l.bindings[v] = static_cast<TermId>(rng.NextBounded(3));
    }
    l.bindings[3] = static_cast<TermId>(100 + i);
    left.push_back(std::move(l));
    ScoredRow r(5, rng.NextDouble(0.0, 1.0));
    for (VarId v = 0; v < 3; ++v) {
      r.bindings[v] = static_cast<TermId>(rng.NextBounded(3));
    }
    right.push_back(std::move(r));
  }
  left = SortedRows(std::move(left));
  right = SortedRows(std::move(right));
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(std::make_unique<VectorIterator>(left),
                std::make_unique<VectorIterator>(right), {0, 1, 2}, &ctx);
  const auto rows = Drain(&join);
  const auto expected = NaiveJoin(left, right, {0, 1, 2});
  ASSERT_FALSE(expected.empty());
  ExpectSameRows(rows, expected);
}

// --- property: rank join == naive join, top-k prefix -------------------------

struct NaiveResult {
  TermId key;
  TermId payload;
  double score;
};

class RankJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RankJoinPropertyTest, MatchesNaiveJoin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1231 + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t nl = 1 + rng.NextBounded(30);
    const size_t nr = 1 + rng.NextBounded(30);
    std::vector<std::pair<TermId, double>> left;
    std::vector<std::tuple<TermId, TermId, double>> right;
    double score = 1.0;
    std::unordered_set<TermId> used_left;
    for (size_t i = 0; i < nl; ++i) {
      score *= rng.NextDouble(0.7, 1.0);
      const TermId key = static_cast<TermId>(rng.NextBounded(12));
      if (!used_left.insert(key).second) continue;  // distinct bindings
      left.emplace_back(key, score);
    }
    score = 1.0;
    std::unordered_set<uint64_t> used_right;
    for (size_t i = 0; i < nr; ++i) {
      score *= rng.NextDouble(0.7, 1.0);
      const TermId key = static_cast<TermId>(rng.NextBounded(12));
      const TermId payload = static_cast<TermId>(100 + rng.NextBounded(5));
      if (!used_right.insert((static_cast<uint64_t>(key) << 32) | payload)
               .second) {
        continue;
      }
      right.emplace_back(key, payload, score);
    }

    // Naive join: all pairs, sorted by (score desc, bindings asc).
    std::vector<ScoredRow> expected;
    for (const auto& [lk, ls] : left) {
      for (const auto& [rk, payload, rs] : right) {
        if (lk != rk) continue;
        ScoredRow row(2, ls + rs);
        row.bindings[0] = lk;
        row.bindings[1] = payload;
        expected.push_back(std::move(row));
      }
    }
    std::sort(expected.begin(), expected.end(), RowBefore);

    ExecStats stats;

    ExecContext ctx(&stats);
    RankJoin join(LeftInput(left), RightInput(right), {0}, &ctx);
    const auto actual = Drain(&join);

    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-9) << "rank " << i;
    }
    // As multisets of bindings the outputs agree exactly.
    auto key_of = [](const ScoredRow& r) {
      return std::make_tuple(r.bindings[0], r.bindings[1]);
    };
    std::multiset<std::tuple<TermId, TermId>> expected_keys;
    std::multiset<std::tuple<TermId, TermId>> actual_keys;
    for (const auto& r : expected) expected_keys.insert(key_of(r));
    for (const auto& r : actual) actual_keys.insert(key_of(r));
    EXPECT_EQ(actual_keys, expected_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankJoinPropertyTest, ::testing::Range(0, 10));

TEST(PullTopKTest, TakesKInOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.8}, {3, 0.7}}),
      RightInput({{1, 11, 0.9}, {2, 22, 0.8}, {3, 33, 0.7}}), {0}, &ctx);
  const auto rows = PullTopK(&join, 2, /*width=*/2, &stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.8);
  EXPECT_DOUBLE_EQ(rows[1].score, 1.6);
}

TEST(PullTopKTest, FewerThanKResults) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{1, 11, 0.9}}), {0},
                &ctx);
  const auto rows = PullTopK(&join, 10, /*width=*/2, &stats);
  EXPECT_EQ(rows.size(), 1u);
}

}  // namespace
}  // namespace specqp
