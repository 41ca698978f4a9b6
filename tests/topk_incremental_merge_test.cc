#include "topk/incremental_merge.h"

#include <algorithm>
#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "test_util.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::Row1;
using specqp::testing::VectorIterator;

std::unique_ptr<VectorIterator> MakeInput(
    const std::vector<std::pair<TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [value, score] : rows) v.push_back(Row1(1, value, score));
  return std::make_unique<VectorIterator>(std::move(v));
}

TEST(IncrementalMergeTest, MergesTwoStreamsInOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}, {3, 0.1}}));
  inputs.push_back(MakeInput({{4, 0.8}, {5, 0.4}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].score, rows[i - 1].score);
  }
  EXPECT_EQ(rows[0].bindings[0], 1u);
  EXPECT_EQ(rows[1].bindings[0], 4u);
}

TEST(IncrementalMergeTest, DeduplicatesKeepingMaxDerivation) {
  // The same binding arrives from two lists; the higher-scored (earlier)
  // one must win (Definition 8).
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{7, 0.9}, {8, 0.2}}));
  inputs.push_back(MakeInput({{7, 0.6}, {9, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].bindings[0], 7u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9);
  EXPECT_EQ(rows[1].bindings[0], 9u);
  EXPECT_EQ(rows[2].bindings[0], 8u);
  EXPECT_EQ(stats.merge_duplicates, 1u);
  EXPECT_EQ(stats.merge_rows, 3u);
}

TEST(IncrementalMergeTest, SingleInputPassThrough) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9);
}

TEST(IncrementalMergeTest, EmptyInputsYieldNothing) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({}));
  inputs.push_back(MakeInput({}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  ScoredRow row;
  EXPECT_FALSE(merge.Next(&row));
  EXPECT_FALSE(merge.Next(&row));  // stays exhausted
}

TEST(IncrementalMergeTest, MixedEmptyAndNonEmpty) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({}));
  inputs.push_back(MakeInput({{3, 0.7}}));
  inputs.push_back(MakeInput({}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].bindings[0], 3u);
}

TEST(IncrementalMergeTest, UpperBoundIsMaxOfInputBounds) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}}));
  inputs.push_back(MakeInput({{4, 0.8}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.9);
  ScoredRow row;
  ASSERT_TRUE(merge.Next(&row));  // 0.9
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.8);
  ASSERT_TRUE(merge.Next(&row));  // 0.8
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.5);
  ASSERT_TRUE(merge.Next(&row));  // 0.5
  EXPECT_DOUBLE_EQ(merge.UpperBound(), ScoredRowIterator::kExhausted);
}

TEST(IncrementalMergeTest, UpperBoundNeverIncreases) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.8}, {3, 0.3}}));
  inputs.push_back(MakeInput({{4, 0.85}, {5, 0.2}}));
  inputs.push_back(MakeInput({{6, 0.6}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  double prev = merge.UpperBound();
  ScoredRow row;
  while (merge.Next(&row)) {
    EXPECT_LE(row.score, prev + 1e-12);
    const double bound = merge.UpperBound();
    EXPECT_LE(bound, prev + 1e-12);
    prev = bound;
  }
}

TEST(IncrementalMergeTest, EquivalentToSortedUnionWithMaxDedup) {
  // Property: merge output == all rows, deduped by binding keeping max
  // score, sorted descending.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t num_inputs = 1 + rng.NextBounded(5);
    std::map<TermId, double> expected;  // binding -> max score
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
    for (size_t i = 0; i < num_inputs; ++i) {
      const size_t len = rng.NextBounded(12);
      std::vector<std::pair<TermId, double>> rows;
      double score = 1.0;
      for (size_t j = 0; j < len; ++j) {
        score *= rng.NextDouble(0.5, 1.0);
        const TermId value = static_cast<TermId>(rng.NextBounded(10));
        rows.emplace_back(value, score);
        auto it = expected.find(value);
        if (it == expected.end() || it->second < score) {
          expected[value] = score;
        }
      }
      inputs.push_back(MakeInput(rows));
    }
    ExecStats stats;
    ExecContext ctx(&stats);
    IncrementalMerge merge(std::move(inputs), &ctx);
    const auto rows = Drain(&merge);
    ASSERT_EQ(rows.size(), expected.size());
    double prev = 2.0;
    for (const ScoredRow& row : rows) {
      EXPECT_LE(row.score, prev + 1e-12);
      prev = row.score;
      auto it = expected.find(row.bindings[0]);
      ASSERT_NE(it, expected.end());
      EXPECT_DOUBLE_EQ(row.score, it->second);
    }
  }
}

TEST(IncrementalMergeTest, LazyInputsNotPulledUntilNeeded) {
  // A low-bound input should not be pulled while higher inputs dominate.
  // Track pulls through a counting wrapper.
  class CountingIterator : public ScoredRowIterator {
   public:
    CountingIterator(std::unique_ptr<ScoredRowIterator> inner, int* pulls)
        : inner_(std::move(inner)), pulls_(pulls) {}
    bool Next(ScoredRow* out) override {
      ++*pulls_;
      return inner_->Next(out);
    }
    double UpperBound() const override { return inner_->UpperBound(); }

   private:
    std::unique_ptr<ScoredRowIterator> inner_;
    int* pulls_;
  };

  int high_pulls = 0;
  int low_pulls = 0;
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(std::make_unique<CountingIterator>(
      MakeInput({{1, 0.9}, {2, 0.8}, {3, 0.7}}), &high_pulls));
  inputs.push_back(std::make_unique<CountingIterator>(
      MakeInput({{4, 0.1}, {5, 0.05}}), &low_pulls));
  ExecStats stats;
  ExecContext ctx(&stats);
  IncrementalMerge merge(std::move(inputs), &ctx);
  ScoredRow row;
  ASSERT_TRUE(merge.Next(&row));
  ASSERT_TRUE(merge.Next(&row));
  // Two emissions from the high stream; the low stream must not have been
  // pulled at all (its bound 0.1 never became the maximum).
  EXPECT_EQ(low_pulls, 0);
}

TEST(IncrementalMergeTest, DedupAcrossRehashKeepsFirstMaxDerivation) {
  // 200 distinct answers grow the seen set through several rehashes before
  // the lower-scored second derivations of the first answers arrive.
  std::vector<std::pair<TermId, double>> first;
  for (TermId i = 0; i < 200; ++i) {
    first.emplace_back(i, 1.0 - 0.001 * i);
  }
  std::vector<std::pair<TermId, double>> second;
  for (TermId i = 0; i < 10; ++i) second.emplace_back(i, 0.5 - 0.01 * i);
  second.emplace_back(500, 0.1);
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput(first));
  inputs.push_back(MakeInput(second));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 201u);
  for (TermId i = 0; i < 200; ++i) {
    EXPECT_EQ(rows[i].bindings[0], i);
    EXPECT_EQ(rows[i].score, 1.0 - 0.001 * i) << "first derivation must win";
  }
  EXPECT_EQ(rows[200].bindings[0], 500u);
  EXPECT_EQ(stats.merge_duplicates, 10u);
  EXPECT_EQ(stats.merge_rows, 201u);
}

TEST(IncrementalMergeTest, DedupKeysOnTheBoundSlotsOnly) {
  // Rows of a pattern binding slots 0 and 2 of a 3-wide row; slot 1 stays
  // unbound in every input.
  auto input = [](const std::vector<std::tuple<TermId, TermId, double>>& v) {
    std::vector<ScoredRow> rows;
    for (const auto& [a, b, score] : v) {
      ScoredRow row(3, score);
      row.bindings[0] = a;
      row.bindings[2] = b;
      rows.push_back(std::move(row));
    }
    return std::make_unique<VectorIterator>(std::move(rows));
  };
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(input({{1, 2, 0.9}, {1, 3, 0.7}}));
  inputs.push_back(input({{1, 3, 0.8}, {2, 1, 0.6}, {1, 2, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].bindings, (std::vector<TermId>{1, kInvalidTermId, 2}));
  EXPECT_EQ(rows[1].bindings, (std::vector<TermId>{1, kInvalidTermId, 3}));
  EXPECT_DOUBLE_EQ(rows[1].score, 0.8);
  EXPECT_EQ(rows[2].bindings, (std::vector<TermId>{2, kInvalidTermId, 1}));
  EXPECT_EQ(stats.merge_duplicates, 2u);
}

TEST(IncrementalMergeTest, EqualHeadScoresEmitInInputIndexOrder) {
  // Every head ties at 0.5: the lowest input index goes first, whether the
  // tie is between buffered heads or between unpulled inputs' bounds.
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{5, 0.5}}));
  inputs.push_back(MakeInput({{3, 0.5}, {6, 0.5}}));
  inputs.push_back(MakeInput({{4, 0.5}}));
  inputs.push_back(MakeInput({{2, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  std::vector<TermId> order;
  for (const ScoredRow& row : rows) order.push_back(row.bindings[0]);
  EXPECT_EQ(order, (std::vector<TermId>{5, 3, 6, 4, 2}));
}

TEST(IncrementalMergeDeathTest, NoInputsAborts) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  EXPECT_DEATH(IncrementalMerge(std::move(inputs), &ctx), "empty");
}

}  // namespace
}  // namespace specqp
