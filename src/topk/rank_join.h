#ifndef SPECQP_TOPK_RANK_JOIN_H_
#define SPECQP_TOPK_RANK_JOIN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "topk/exec_context.h"
#include "topk/key_table.h"
#include "topk/operator.h"

namespace specqp {

// Hash Rank Join (HRJN, Ilyas et al. — the paper's [15, 17]): joins two
// score-descending inputs on the given variables and emits join results in
// descending order of the score *sum*, reading as little of each input as
// possible.
//
// State: the rows read from each input indexed on the join-variable values,
// an output priority queue, and the classic corner-bound threshold
//
//   T = max( topL + ubR , ubL + topR )
//
// where topX is the highest score seen on input X (its first row) and ubX
// the input's bound on unseen rows. Input selection follows HRJN*: pull
// from the input with the higher remaining upper bound.
//
// Emission is *strict*: a buffered result is emitted only once its score
// strictly exceeds T, i.e. once no future join result can tie it. Together
// with the RowBefore-ordered output queue this makes the emitted stream a
// total order — (score descending, bindings ascending) — that is a pure
// function of the input *contents*, independent of pull interleaving. The
// parallel execution layer relies on this: per-partition RankJoin streams
// merge back into exactly the serial emission order (see
// parallel_rank_join.h), so thread count never changes answers. When an
// input side is exhausted its corner term drops out, and once both are
// exhausted the queue drains in RowBefore order.
//
// Cost of determinism: before emitting at score s the join must read each
// input past its band of rows tied at the relevant corner score (the old
// `>= T - eps` rule could emit mid-band, in discovery order). Reads and
// buffering therefore grow with the width of the top score-tie bands —
// degenerating to a full drain only when an entire input is one tied band
// (uniform scores). Hash partitioning shrinks each band by the partition
// factor, so the parallel path also bounds this cost per partition.
//
// Storage is flat and sized per query: each input's rows live in one
// width-W TermId array (W = the query's binding width, fixed when the plan
// is built) with parallel score and next-row arrays, and one KeyTable over
// the join-variable values indexes both inputs — per key id, each side
// keeps the head of a chain of its rows with that key. Join results live
// in a flat store whose freed slots are reused; the output queue is a heap
// of indices into it. Input rows are pulled into one member scratch row,
// so in steady state a join allocates nothing per row.
class RankJoin final : public ScoredRowIterator {
 public:
  // `join_vars`: variables bound on both sides (may be empty — degenerates
  // to a cross product, still score-ordered).
  RankJoin(std::unique_ptr<ScoredRowIterator> left,
           std::unique_ptr<ScoredRowIterator> right,
           std::vector<VarId> join_vars, ExecContext* ctx);

  RankJoin(const RankJoin&) = delete;
  RankJoin& operator=(const RankJoin&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  // One input and the rows read from it so far.
  struct Side {
    std::unique_ptr<ScoredRowIterator> input;
    std::vector<TermId> cells;    // row r: [r * W, (r + 1) * W)
    std::vector<double> scores;   // row r's score
    std::vector<uint32_t> next;   // row r's predecessor with its key
    std::vector<uint32_t> head;   // per key id: latest row, or kNone
    bool done = false;

    size_t rows() const { return scores.size(); }
  };

  double Threshold() const;
  // Pulls one row from the chosen input and joins it against the other
  // side's rows; returns false if both inputs are exhausted.
  bool Advance();
  // A free slot of the result store.
  uint32_t NewResult();
  // RowBefore over two results in the store.
  bool ResultBefore(uint32_t a, uint32_t b) const;
  // std::*_heap order over result slots, so the top is emitted first.
  auto QueueLess() const {
    return [this](uint32_t a, uint32_t b) { return ResultBefore(b, a); };
  }
  // Pops the queue's first result into `out`.
  void Emit(ScoredRow* out);

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-9;

  Side left_;
  Side right_;
  std::vector<VarId> join_vars_;
  ExecContext* ctx_;
  ExecStats* stats_;

  size_t width_ = 0;  // W, taken from the first row pulled
  KeyTable keys_;
  std::vector<TermId> key_;  // the pulled row's join-variable values
  ScoredRow scratch_;        // the pulled row
  bool pull_left_next_ = true;  // tie-breaker for alternating pulls

  std::vector<TermId> result_cells_;   // result slot i: [i * W, (i + 1) * W)
  std::vector<double> result_scores_;
  std::vector<uint32_t> free_results_;
  // Heap of result slots; the front is the RowBefore-least (next to emit).
  std::vector<uint32_t> queue_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_RANK_JOIN_H_
