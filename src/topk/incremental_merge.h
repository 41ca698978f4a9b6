#ifndef SPECQP_TOPK_INCREMENTAL_MERGE_H_
#define SPECQP_TOPK_INCREMENTAL_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "topk/exec_context.h"
#include "topk/key_table.h"
#include "topk/operator.h"

namespace specqp {

// The Incremental Merge operator of Theobald et al. (the paper's [29], used
// as in TriniT): lazily merges the sorted streams of a triple pattern and
// all of its relaxations (each already discounted by its rule weight via
// PatternScan) into one globally score-descending stream.
//
// The same binding can be produced by several relaxations; Definition 8
// keeps the maximum-score derivation. Because the merged stream is
// descending, the first occurrence is the maximum, so later duplicates are
// suppressed with a KeyTable. Its key is the set of slots the first merged
// row binds — the pattern's own (at most three) variables: every input
// binds exactly those, because relaxation rules only swap constants and a
// chain relaxation's projection clears its fresh slot.
//
// The input to pull next is the top of a max-heap over the inputs' bounds
// (the buffered head's score, or the input's UpperBound() before its first
// pull), ties going to the lowest input index. Head rows are handed out by
// swapping buffers with the caller's row, so the merge allocates nothing
// per row once the buffers have grown to the query's width.
class IncrementalMerge final : public ScoredRowIterator {
 public:
  // At least one input; inputs are polled lazily (an input's first row is
  // only pulled when the merge first needs its head).
  IncrementalMerge(std::vector<std::unique_ptr<ScoredRowIterator>> inputs,
                   ExecContext* ctx);

  IncrementalMerge(const IncrementalMerge&) = delete;
  IncrementalMerge& operator=(const IncrementalMerge&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;

 private:
  struct Head {
    ScoredRow row;  // valid while the input's bound is a score (>= 0)
    bool primed = false;  // has the first Pull happened yet?
  };

  // Pulls the next row of input i, the heap's top, into its head and
  // restores the heap.
  void Prime(uint32_t i);
  // std::*_heap order, so the top is the highest bound, ties going to the
  // lowest input index.
  auto HeapLess() const {
    return [this](uint32_t a, uint32_t b) {
      return bounds_[a] != bounds_[b] ? bounds_[a] < bounds_[b] : a > b;
    };
  }
  // Inserts `row`'s key into the seen set; false if it was already there.
  bool FirstSighting(const ScoredRow& row);

  std::vector<std::unique_ptr<ScoredRowIterator>> inputs_;
  std::vector<Head> heads_;
  std::vector<double> bounds_;  // per input: its bound on rows to come
  std::vector<uint32_t> heap_;  // input indices, top = next to serve
  std::vector<VarId> key_vars_;  // fixed by the first merged row
  std::vector<TermId> key_;
  KeyTable seen_;
  ExecContext* ctx_;
  ExecStats* stats_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_INCREMENTAL_MERGE_H_
