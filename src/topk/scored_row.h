#ifndef SPECQP_TOPK_SCORED_ROW_H_
#define SPECQP_TOPK_SCORED_ROW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace specqp {

// A (partial) answer flowing through the operator tree: one TermId per
// query variable (kInvalidTermId where unbound) plus the accumulated score.
// Width is fixed per query (num_vars), so merging bindings never resizes.
struct ScoredRow {
  std::vector<TermId> bindings;
  double score = 0.0;

  ScoredRow() = default;
  ScoredRow(size_t width, double score_in)
      : bindings(width, kInvalidTermId), score(score_in) {}
};

// Total order for deterministic tie-breaking: score descending, then
// bindings lexicographically ascending.
bool RowBefore(const ScoredRow& a, const ScoredRow& b);

// "?s=<Shakira> ?o=<guitar> (score 1.73)" — for examples and debugging.
std::string RowToString(const ScoredRow& row, const Query& query,
                        const Dictionary& dict);

}  // namespace specqp

#endif  // SPECQP_TOPK_SCORED_ROW_H_
