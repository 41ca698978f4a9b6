#include "datasets/evaluation.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "topk/scored_row.h"
#include "util/logging.h"

namespace specqp {

QualityMetrics EvaluateQuality(Engine& engine,
                               const ExhaustiveEvaluator& oracle,
                               const Query& query, size_t k) {
  return EvaluateQualityWithTruth(engine, oracle.Evaluate(query), query, k);
}

QualityMetrics EvaluateQualityWithTruth(
    Engine& engine, const ExhaustiveEvaluator::EvalResult& truth,
    const Query& query, size_t k) {
  QualityMetrics metrics;
  metrics.true_answer_count = truth.answers.size();

  // Unified request path (immediate admission: the harness is a single
  // synchronous caller measuring one engine).
  QueryRequest request = QueryRequest::FromQuery(query, k, Strategy::kSpecQp);
  request.admission = QueryRequest::Admission::kImmediate;
  const QueryResponse spec = engine.Submit(std::move(request)).get();
  SPECQP_CHECK(spec.ok()) << spec.status.ToString();

  // Precision (== recall): overlap of binding sets at cutoff k.
  const size_t denom = std::min(k, truth.answers.size());
  if (denom > 0) {
    std::set<std::vector<TermId>> truth_set;
    for (size_t i = 0; i < denom; ++i) {
      truth_set.insert(truth.answers[i].bindings);
    }
    size_t hits = 0;
    for (size_t i = 0; i < spec.rows.size() && i < k; ++i) {
      if (truth_set.count(spec.rows[i].bindings) > 0) ++hits;
    }
    metrics.precision = static_cast<double>(hits) / static_cast<double>(denom);
  } else {
    metrics.precision = 1.0;  // no true answers and nothing to miss
  }

  // Rank-wise score deviation over the ranks both sides produced.
  const size_t ranks = std::min(denom, spec.rows.size());
  if (ranks > 0) {
    std::vector<double> errors(ranks);
    double sum = 0.0;
    double pct_sum = 0.0;
    for (size_t i = 0; i < ranks; ++i) {
      const double true_score = truth.answers[i].score;
      errors[i] = std::abs(spec.rows[i].score - true_score);
      sum += errors[i];
      if (true_score > 0.0) pct_sum += errors[i] / true_score;
    }
    metrics.score_error_mean = sum / static_cast<double>(ranks);
    metrics.score_error_pct = 100.0 * pct_sum / static_cast<double>(ranks);
    double var = 0.0;
    for (double e : errors) {
      var += (e - metrics.score_error_mean) * (e - metrics.score_error_mean);
    }
    metrics.score_error_std = std::sqrt(var / static_cast<double>(ranks));
  }

  // Prediction accuracy: PLANGEN's singleton set vs the oracle's required
  // set ("could identify exactly only these relaxations", Table 3).
  const std::vector<size_t> required = truth.RequiredRelaxations(k);
  std::vector<size_t> predicted = spec.plan.singletons;
  std::sort(predicted.begin(), predicted.end());
  metrics.required_relaxations = required.size();
  metrics.predicted_relaxations = predicted.size();
  metrics.prediction_exact = (predicted == required);
  return metrics;
}

EfficiencyMetrics MeasureEfficiency(Engine& engine, const Query& query,
                                    size_t k, int runs, int avg_last) {
  SPECQP_CHECK(runs >= avg_last && avg_last >= 1);
  EfficiencyMetrics metrics;
  engine.Warm(query);

  auto measure = [&](Strategy strategy, double* out_ms, uint64_t* out_objects,
                     double* out_plan_ms, size_t* out_relaxed,
                     uint64_t* out_answers, ExecStats* out_stats) {
    double total_ms = 0.0;
    double total_plan = 0.0;
    uint64_t objects = 0;
    size_t relaxed = 0;
    for (int r = 0; r < runs; ++r) {
      QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
      request.admission = QueryRequest::Admission::kImmediate;
      const QueryResponse result = engine.Submit(std::move(request)).get();
      SPECQP_CHECK(result.ok()) << result.status.ToString();
      if (r >= runs - avg_last) {
        total_ms += result.stats.plan_ms + result.stats.exec_ms;
        total_plan += result.stats.plan_ms;
        objects = result.stats.answer_objects;  // deterministic per run
        relaxed = result.plan.num_relaxed();
        *out_answers = result.rows.size();
        *out_stats = result.stats;
      }
    }
    *out_ms = total_ms / avg_last;
    if (out_plan_ms != nullptr) *out_plan_ms = total_plan / avg_last;
    *out_objects = objects;
    if (out_relaxed != nullptr) *out_relaxed = relaxed;
  };

  measure(Strategy::kTrinit, &metrics.trinit_ms, &metrics.trinit_objects,
          nullptr, nullptr, &metrics.trinit_answers, &metrics.trinit_stats);
  measure(Strategy::kSpecQp, &metrics.spec_ms, &metrics.spec_objects,
          &metrics.spec_plan_ms, &metrics.patterns_relaxed,
          &metrics.spec_answers, &metrics.spec_stats);
  return metrics;
}

}  // namespace specqp
