#include "topk/incremental_merge.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace specqp {

IncrementalMerge::IncrementalMerge(
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs, ExecContext* ctx)
    : inputs_(std::move(inputs)),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()) {
  SPECQP_CHECK(!inputs_.empty());
  SPECQP_CHECK(stats_ != nullptr);
  heads_.resize(inputs_.size());
  // An unprimed input's bound is its UpperBound(), which stays put until
  // the input is pulled — and only this merge pulls it.
  bounds_.resize(inputs_.size());
  for (uint32_t i = 0; i < inputs_.size(); ++i) {
    bounds_[i] = inputs_[i]->UpperBound();
    heap_.push_back(i);
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapLess());
}

void IncrementalMerge::Prime(uint32_t i) {
  SPECQP_DCHECK(heap_.front() == i);
  Head& head = heads_[i];
  head.primed = true;
  const bool valid = inputs_[i]->Next(&head.row);
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess());
  bounds_[i] = valid ? head.row.score : kExhausted;
  std::push_heap(heap_.begin(), heap_.end(), HeapLess());
}

bool IncrementalMerge::FirstSighting(const ScoredRow& row) {
  if (seen_.size() == 0) {
    key_vars_.clear();
    for (size_t v = 0; v < row.bindings.size(); ++v) {
      if (row.bindings[v] != kInvalidTermId) {
        key_vars_.push_back(static_cast<VarId>(v));
      }
    }
    key_.resize(key_vars_.size());
    seen_ = KeyTable(key_vars_.size());
  }
  SPECQP_DCHECK(static_cast<size_t>(std::count_if(
                    row.bindings.begin(), row.bindings.end(),
                    [](TermId t) { return t != kInvalidTermId; })) ==
                key_vars_.size())
      << "merge inputs bind different slots";
  for (size_t j = 0; j < key_vars_.size(); ++j) {
    key_[j] = row.bindings[key_vars_[j]];
    SPECQP_DCHECK(key_[j] != kInvalidTermId)
        << "merge inputs bind different slots";
  }
  bool inserted = false;
  seen_.Insert(key_.data(), &inserted);
  return inserted;
}

bool IncrementalMerge::Next(ScoredRow* out) {
  while (true) {
    if (ctx_->Interrupted()) return false;  // cancellation / deadline
    // The top input's bound dominates every other input's: the score of
    // its buffered head if primed, otherwise its own upper bound — which
    // lets us defer pulling from low-weight relaxation lists until their
    // cap is actually reached (the "incremental" in incremental merge).
    const uint32_t best = heap_.front();
    if (bounds_[best] <= kExhausted) return false;
    Head& head = heads_[best];
    if (!head.primed) {
      Prime(best);
      continue;  // bounds changed; re-select
    }

    // The head of `best` is a real row whose score dominates every other
    // input's bound: safe to emit in globally sorted order.
    if (!FirstSighting(head.row)) {
      ++stats_->merge_duplicates;
      Prime(best);
      continue;  // a lower-scored derivation of an already-emitted answer
    }
    ++stats_->merge_rows;
    std::swap(*out, head.row);  // the caller's old buffer becomes the head
    Prime(best);  // advance that input
    return true;
  }
}

void IncrementalMerge::Discard() {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    inputs_[i]->Discard();
    // Mark every input exhausted so Next() reports false without pulling.
    heads_[i].primed = true;
    bounds_[i] = kExhausted;
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapLess());
}

double IncrementalMerge::UpperBound() const {
  return std::max(kExhausted, bounds_[heap_.front()]);
}

}  // namespace specqp
