#ifndef SPECQP_TOPK_TOP_K_H_
#define SPECQP_TOPK_TOP_K_H_

#include <cstddef>
#include <vector>

#include "topk/exec_stats.h"
#include "topk/operator.h"

namespace specqp {

// Pulls up to `k` distinct answers from the root of an operator tree. The
// root emits in descending score order, so the driver simply takes the
// first k distinct binding vectors (defensive dedup — operator trees built
// by the plan executor already deduplicate within merges). Returned rows
// are exactly `width` slots wide (the query's num_vars()): trees for chain
// relaxations carry trailing scratch slots, unbound at the root, which are
// trimmed here.
std::vector<ScoredRow> PullTopK(ScoredRowIterator* root, size_t k,
                                size_t width, ExecStats* stats);

}  // namespace specqp

#endif  // SPECQP_TOPK_TOP_K_H_
