#ifndef SPECQP_PERFBENCH_ANSWERS_H_
#define SPECQP_PERFBENCH_ANSWERS_H_

#include <string>
#include <vector>

#include "core/exhaustive.h"
#include "core/request.h"
#include "rdf/term.h"
#include "topk/scored_row.h"
#include "util/result.h"
#include "util/status.h"

namespace specqp::perfbench {

// The reference answer of one (query, k) pair, computed at set-up.
struct Reference {
  // The exhaustive oracle's top min(k, |answers|) rows, score-descending.
  std::vector<ScoredRow> truth_top;
  // Bindings of every oracle answer scoring at least the k-th true score
  // (the top-k plus answers tied with its last row), sorted.
  std::vector<std::vector<TermId>> truth_set;
  // The serial kImmediate single-file Spec-QP answer (empty unless
  // has_serial): Spec-QP answers on every other path must equal it bit for
  // bit.
  bool has_serial = false;
  std::vector<ScoredRow> serial;
};

Reference OracleReference(const ExhaustiveEvaluator::EvalResult& truth,
                          size_t k);

[[nodiscard]] Status WriteReferences(const std::string& path,
                                     const std::vector<Reference>& refs);
[[nodiscard]] Result<std::vector<Reference>> ReadReferences(
    const std::string& path);

struct Verdict {
  bool ok = true;
  double precision = 0.0;  // overlap with the oracle's top-k
  std::string why;         // set when !ok
};

// Checks one answer:
//  - at most k rows;
//  - TriniT: exactly the oracle's top-k scores and only answers from the
//    oracle's top-k (ties at the k-th score count as top-k), so its
//    precision is exactly 1;
//  - Spec-QP: bit-identical to the serial reference; precision is the
//    share of the oracle's top-k it returned.
Verdict CheckAnswer(const Reference& ref, Strategy strategy, size_t k,
                    const std::vector<ScoredRow>& rows);

// Shows that CheckAnswer catches one perturbed row: for the first pair
// with a non-empty reference, the unperturbed answer must pass and a copy
// with one binding changed, and one with one score changed, must fail.
// Returns false (with `report` saying why) when a perturbation slips
// through.
bool SelfTestChecker(const std::vector<Reference>& refs, std::string* report);

}  // namespace specqp::perfbench

#endif  // SPECQP_PERFBENCH_ANSWERS_H_
