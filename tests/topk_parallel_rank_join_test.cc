#include "topk/parallel_rank_join.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/posting_partition.h"
#include "test_util.h"
#include "topk/rank_join.h"
#include "topk/top_k.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::VectorIterator;

ScoredRow MakeRow(TermId key, TermId payload, double score) {
  ScoredRow row(2, score);
  row.bindings[0] = key;
  row.bindings[1] = payload;
  return row;
}

std::unique_ptr<VectorIterator> SortedInput(std::vector<ScoredRow> rows) {
  std::sort(rows.begin(), rows.end(), RowBefore);
  return std::make_unique<VectorIterator>(std::move(rows));
}

TEST(ParallelRankJoinTest, MergesDisjointStreamsInRowBeforeOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);  // no pool: refills run inline
  std::vector<std::unique_ptr<ScoredRowIterator>> parts;
  parts.push_back(SortedInput({MakeRow(1, 10, 0.9), MakeRow(3, 30, 0.5)}));
  parts.push_back(SortedInput({MakeRow(2, 20, 0.7), MakeRow(4, 40, 0.5)}));
  parts.push_back(SortedInput({}));
  ParallelRankJoin merge(std::move(parts), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].bindings[0], 1u);
  EXPECT_EQ(rows[1].bindings[0], 2u);
  // The 0.5 tie breaks on bindings: key 3 before key 4.
  EXPECT_EQ(rows[2].bindings[0], 3u);
  EXPECT_EQ(rows[3].bindings[0], 4u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_TRUE(!RowBefore(rows[i], rows[i - 1])) << "rank " << i;
  }
}

TEST(ParallelRankJoinTest, AllPartitionsEmpty) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> parts;
  parts.push_back(SortedInput({}));
  parts.push_back(SortedInput({}));
  ParallelRankJoin merge(std::move(parts), &ctx);
  ScoredRow row;
  EXPECT_FALSE(merge.Next(&row));
  EXPECT_FALSE(merge.Next(&row));
  EXPECT_DOUBLE_EQ(merge.UpperBound(), ScoredRowIterator::kExhausted);
}

TEST(ParallelRankJoinTest, UpperBoundNeverIncreases) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> parts;
  parts.push_back(SortedInput({MakeRow(1, 0, 0.9), MakeRow(5, 0, 0.3),
                               MakeRow(9, 0, 0.1)}));
  parts.push_back(SortedInput({MakeRow(2, 0, 0.8), MakeRow(6, 0, 0.35)}));
  ParallelRankJoin merge(std::move(parts), &ctx, /*batch_size=*/1);
  double prev = merge.UpperBound();
  ScoredRow row;
  while (merge.Next(&row)) {
    EXPECT_LE(row.score, prev + 1e-9);
    const double bound = merge.UpperBound();
    EXPECT_LE(bound, prev + 1e-9);
    prev = bound;
  }
}

// The load-bearing property: a hash-partitioned join merged by
// ParallelRankJoin equals the serial RankJoin row-for-row, at any thread
// count and batch size.
class ParallelRankJoinEquivalenceTest : public ::testing::TestWithParam<int> {
};

TEST_P(ParallelRankJoinEquivalenceTest, MatchesSerialRankJoin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 4099 + 23);
  for (int trial = 0; trial < 8; ++trial) {
    // Random join inputs with plenty of score ties and shared keys.
    std::vector<ScoredRow> left;
    std::vector<ScoredRow> right;
    const size_t nl = 20 + rng.NextBounded(60);
    const size_t nr = 20 + rng.NextBounded(60);
    for (size_t i = 0; i < nl; ++i) {
      left.push_back(MakeRow(static_cast<TermId>(rng.NextBounded(16)),
                             kInvalidTermId,
                             0.1 * static_cast<double>(rng.NextBounded(9))));
    }
    for (size_t i = 0; i < nr; ++i) {
      right.push_back(MakeRow(static_cast<TermId>(rng.NextBounded(16)),
                              static_cast<TermId>(100 + rng.NextBounded(4)),
                              0.1 * static_cast<double>(rng.NextBounded(9))));
    }

    // Serial baseline.
    ExecStats serial_stats;
    ExecContext serial_ctx(&serial_stats);
    RankJoin serial(SortedInput(left), SortedInput(right), {0}, &serial_ctx);
    const auto expected = Drain(&serial);

    for (const size_t threads : {1u, 2u, 8u}) {
      for (const size_t batch : {1u, 4u, 32u}) {
        const uint32_t parts = static_cast<uint32_t>(threads);
        std::vector<std::vector<ScoredRow>> left_parts(parts);
        std::vector<std::vector<ScoredRow>> right_parts(parts);
        for (const ScoredRow& row : left) {
          left_parts[PostingPartitionOf(row.bindings[0], parts)].push_back(
              row);
        }
        for (const ScoredRow& row : right) {
          right_parts[PostingPartitionOf(row.bindings[0], parts)].push_back(
              row);
        }

        ThreadPool pool(threads - 1);
        ExecStats stats;
        ExecContext ctx(&stats, threads > 1 ? &pool : nullptr);
        std::vector<std::unique_ptr<ScoredRowIterator>> roots;
        for (uint32_t p = 0; p < parts; ++p) {
          roots.push_back(std::make_unique<RankJoin>(
              SortedInput(left_parts[p]), SortedInput(right_parts[p]),
              std::vector<VarId>{0}, ctx.ForPartition()));
        }
        ParallelRankJoin merge(std::move(roots), &ctx, batch);
        const auto actual = Drain(&merge);
        ctx.MergePartitionStats();

        ASSERT_EQ(actual.size(), expected.size())
            << "threads=" << threads << " batch=" << batch;
        for (size_t i = 0; i < actual.size(); ++i) {
          EXPECT_EQ(actual[i].bindings, expected[i].bindings)
              << "threads=" << threads << " batch=" << batch << " rank " << i;
          EXPECT_EQ(actual[i].score, expected[i].score)
              << "threads=" << threads << " batch=" << batch << " rank " << i;
        }
        // Partition counters were merged back into the root stats.
        EXPECT_EQ(stats.join_results, serial_stats.join_results)
            << "threads=" << threads << " batch=" << batch;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRankJoinEquivalenceTest,
                         ::testing::Range(0, 6));

TEST(ParallelRankJoinTest, TopKPrefixStableUnderBatchSize) {
  // PullTopK over the merger must not depend on how deep refills read.
  std::vector<ScoredRow> rows;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    rows.push_back(MakeRow(static_cast<TermId>(i), 0,
                           0.05 * static_cast<double>(rng.NextBounded(12))));
  }
  std::vector<std::vector<ScoredRow>> parts(4);
  for (const ScoredRow& row : rows) {
    parts[PostingPartitionOf(row.bindings[0], 4)].push_back(row);
  }
  std::vector<ScoredRow> first_result;
  for (const size_t batch : {1u, 3u, 64u}) {
    ExecStats stats;
    ExecContext ctx(&stats);
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
    for (auto& part : parts) inputs.push_back(SortedInput(part));
    ParallelRankJoin merge(std::move(inputs), &ctx, batch);
    auto result = PullTopK(&merge, 10, /*width=*/2, &stats);
    ASSERT_EQ(result.size(), 10u);
    if (first_result.empty()) {
      first_result = std::move(result);
      continue;
    }
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i].bindings, first_result[i].bindings);
      EXPECT_EQ(result[i].score, first_result[i].score);
    }
  }
}

}  // namespace
}  // namespace specqp
