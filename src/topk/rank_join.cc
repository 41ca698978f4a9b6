#include "topk/rank_join.h"

#include <algorithm>

#include "util/logging.h"

namespace specqp {

RankJoin::RankJoin(std::unique_ptr<ScoredRowIterator> left,
                   std::unique_ptr<ScoredRowIterator> right,
                   std::vector<VarId> join_vars, ExecContext* ctx)
    : join_vars_(std::move(join_vars)),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()),
      keys_(join_vars_.size()),
      key_(join_vars_.size()) {
  left_.input = std::move(left);
  right_.input = std::move(right);
  SPECQP_CHECK(left_.input != nullptr && right_.input != nullptr &&
               stats_ != nullptr);
}

double RankJoin::Threshold() const {
  const double ub_l = left_.done ? -kInf : left_.input->UpperBound();
  const double ub_r = right_.done ? -kInf : right_.input->UpperBound();
  // A side's "top" is the score of its first row; before any row is seen
  // it defaults to the side's upper bound (conservative).
  const double top_l =
      left_.rows() > 0 ? left_.scores[0] : std::max(ub_l, 0.0);
  const double top_r =
      right_.rows() > 0 ? right_.scores[0] : std::max(ub_r, 0.0);

  // Corner bounds: (seen left) x (unseen right) and (unseen left) x (seen
  // right). A corner with an exhausted unseen side cannot produce results.
  const double corner_lr = right_.done ? -kInf : top_l + ub_r;
  const double corner_rl = left_.done ? -kInf : ub_l + top_r;
  return std::max(corner_lr, corner_rl);
}

uint32_t RankJoin::NewResult() {
  if (!free_results_.empty()) {
    const uint32_t slot = free_results_.back();
    free_results_.pop_back();
    return slot;
  }
  result_cells_.resize(result_cells_.size() + width_);
  result_scores_.push_back(0.0);
  return static_cast<uint32_t>(result_scores_.size() - 1);
}

bool RankJoin::ResultBefore(uint32_t a, uint32_t b) const {
  if (result_scores_[a] != result_scores_[b]) {
    return result_scores_[a] > result_scores_[b];
  }
  const TermId* cells_a = result_cells_.data() + a * width_;
  const TermId* cells_b = result_cells_.data() + b * width_;
  return std::lexicographical_compare(cells_a, cells_a + width_, cells_b,
                                      cells_b + width_);
}

bool RankJoin::Advance() {
  // HRJN* pull strategy: take from the input whose unseen rows have the
  // higher bound; alternate on ties.
  const double ub_l = left_.done ? -kInf : left_.input->UpperBound();
  const double ub_r = right_.done ? -kInf : right_.input->UpperBound();
  if (left_.done && right_.done) return false;

  bool pull_left;
  if (left_.done) {
    pull_left = false;
  } else if (right_.done) {
    pull_left = true;
  } else if (ub_l != ub_r) {
    pull_left = ub_l > ub_r;
  } else {
    pull_left = pull_left_next_;
    pull_left_next_ = !pull_left_next_;
  }

  Side& own = pull_left ? left_ : right_;
  Side& other = pull_left ? right_ : left_;
  ScoredRow& row = scratch_;
  if (!own.input->Next(&row)) {
    own.done = true;
    // Dead-side pruning: a side that exhausted without producing a single
    // row can never supply a join partner, so no row the other input
    // still holds can contribute a result. Discarding the other side lets
    // block-backed scans account their remaining blocks as skipped instead
    // of decoding them. Both the trigger (an input's contents) and the
    // effect (suppressing rows that would join against an empty side) are
    // pull-order independent, so emitted answers are unchanged.
    if (!other.done && own.rows() == 0) {
      other.input->Discard();
      other.done = true;
    }
    return true;  // state changed; caller re-evaluates
  }

  if (left_.rows() + right_.rows() == 0) width_ = row.bindings.size();
  SPECQP_DCHECK(row.bindings.size() == width_)
      << "input rows differ in width";

  for (size_t i = 0; i < join_vars_.size(); ++i) {
    key_[i] = row.bindings[join_vars_[i]];
    SPECQP_DCHECK(key_[i] != kInvalidTermId)
        << "join variable unbound in input row";
  }
  bool inserted = false;
  const uint32_t key = keys_.Insert(key_.data(), &inserted);
  if (inserted) {
    left_.head.push_back(kNone);
    right_.head.push_back(kNone);
  }

  ++stats_->join_hash_probes;
  for (uint32_t match = other.head[key]; match != kNone;
       match = other.next[match]) {
    // Key equality guarantees the join variables agree. Unbound slots
    // (kInvalidTermId) of the left row take the right row's value; slots
    // bound on both sides are non-join slots, where the LEFT input's
    // binding wins deterministically, independent of which side happened
    // to be probed — so answers are a function of the inputs alone. With
    // no join variables every pair matches and this degenerates to the
    // cross product, whose sides may bind the same slots differently.
    const TermId* match_cells = other.cells.data() + match * width_;
    const TermId* l = pull_left ? row.bindings.data() : match_cells;
    const TermId* r = pull_left ? match_cells : row.bindings.data();
    const uint32_t result = NewResult();
    TermId* merged = result_cells_.data() + result * width_;
    for (size_t s = 0; s < width_; ++s) {
      merged[s] = l[s] != kInvalidTermId ? l[s] : r[s];
    }
    result_scores_[result] = row.score + other.scores[match];
    queue_.push_back(result);
    std::push_heap(queue_.begin(), queue_.end(), QueueLess());
    ++stats_->join_results;
    ++stats_->answer_objects;
  }

  own.cells.insert(own.cells.end(), row.bindings.begin(), row.bindings.end());
  own.scores.push_back(row.score);
  own.next.push_back(own.head[key]);
  own.head[key] = static_cast<uint32_t>(own.rows() - 1);
  return true;
}

void RankJoin::Emit(ScoredRow* out) {
  std::pop_heap(queue_.begin(), queue_.end(), QueueLess());
  const uint32_t result = queue_.back();
  queue_.pop_back();
  const TermId* cells = result_cells_.data() + result * width_;
  out->bindings.assign(cells, cells + width_);
  out->score = result_scores_[result];
  free_results_.push_back(result);
}

bool RankJoin::Next(ScoredRow* out) {
  while (true) {
    // Cooperative cancellation/deadline: checked once per pull-or-emit
    // iteration, so an interrupted join stops within one input row even
    // mid-drain. Buffered rows are abandoned — the caller discards partial
    // output on abort anyway.
    if (ctx_->Interrupted()) return false;
    // Strict emission: only emit once no future join result can reach the
    // buffered top's score. Any result formed after this point combines at
    // least one unseen row and is therefore bounded by T, so every row
    // that could tie the top is already in the queue — which pops in
    // RowBefore order. This is what makes the output a deterministic total
    // order instead of a discovery order (required for parallel == serial).
    const double threshold = Threshold();
    if (!queue_.empty() &&
        result_scores_[queue_.front()] > threshold + kEps) {
      Emit(out);
      return true;
    }
    if (!Advance()) {
      // Both inputs exhausted: drain whatever is buffered.
      if (queue_.empty()) return false;
      Emit(out);
      return true;
    }
  }
}

double RankJoin::UpperBound() const {
  const double threshold = Threshold();
  const double buffered =
      queue_.empty() ? -kInf : result_scores_[queue_.front()];
  const double bound = std::max(threshold, buffered);
  return (bound == -kInf) ? kExhausted : bound;
}

void RankJoin::Discard() {
  for (Side* side : {&left_, &right_}) {
    if (!side->done) {
      side->input->Discard();
      side->done = true;
    }
  }
  // Buffered-but-unemitted results are abandoned so Next() returns false.
  queue_.clear();
}

}  // namespace specqp
