#include "datasets/workload.h"

#include <algorithm>
#include <unordered_set>

#include "core/exhaustive.h"
#include "stats/selectivity.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/zipf.h"

namespace specqp {

namespace {

// Builds a star query: one subject variable, each pattern (?s <p_i> <o_i>).
Query MakeStarQuery(const std::vector<std::pair<TermId, TermId>>& po_pairs) {
  Query query;
  const VarId s = query.GetOrAddVariable("s");
  for (const auto& [p, o] : po_pairs) {
    query.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(p),
                                   PatternTerm::Const(o)));
  }
  query.AddProjection(s);
  return query;
}

}  // namespace

std::vector<Query> MakeXkgWorkload(const XkgDataset& data,
                                   const XkgWorkloadConfig& config) {
  Rng rng(config.seed);
  SelectivityEstimator exact(&data.store, SelectivityEstimator::Mode::kExact);
  std::vector<Query> workload;
  const XkgSchema& schema = data.schema;

  const size_t num_domains = schema.domain_types.size();
  const ZipfDistribution domain_dist(num_domains, 0.7);

  for (size_t num_patterns = 2; num_patterns <= 4; ++num_patterns) {
    size_t made = 0;
    size_t attempts = 0;
    const size_t budget =
        config.max_attempts_per_query * config.queries_per_size;
    // Per-query fallback: after this many failed attempts for one query,
    // drop the cardinality band and accept anything >= the minimum.
    const size_t band_budget = config.max_attempts_per_query / 2;
    size_t attempts_this_query = 0;
    while (made < config.queries_per_size && attempts < budget) {
      ++attempts;
      ++attempts_this_query;
      const size_t domain = domain_dist.Sample(&rng);

      // Candidate (predicate, object) pairs from this domain with enough
      // relaxations.
      std::vector<std::pair<TermId, TermId>> pool;
      for (TermId type : schema.domain_types[domain]) {
        PatternKey key{kInvalidTermId, schema.type_predicate, type};
        if (data.rules.NumRulesFor(key) >= config.min_relaxations) {
          pool.emplace_back(schema.type_predicate, type);
        }
      }
      for (size_t a = 0; a < schema.attribute_predicates.size(); ++a) {
        for (TermId value : schema.attribute_values[domain][a]) {
          PatternKey key{kInvalidTermId, schema.attribute_predicates[a], value};
          if (data.rules.NumRulesFor(key) >= config.min_relaxations) {
            pool.emplace_back(schema.attribute_predicates[a], value);
          }
        }
      }
      if (pool.size() < num_patterns) continue;

      rng.Shuffle(&pool);
      pool.resize(num_patterns);
      Query query = MakeStarQuery(pool);

      const uint64_t original_answers = exact.ExactQueryCardinality(query);
      if (original_answers < config.min_original_answers) continue;
      if (!config.cardinality_bands.empty() &&
          attempts_this_query <= band_budget) {
        const auto& band = config.cardinality_bands[workload.size() %
                                                    config.cardinality_bands
                                                        .size()];
        if (original_answers < band.first || original_answers > band.second) {
          continue;
        }
      }
      workload.push_back(std::move(query));
      ++made;
      attempts_this_query = 0;
    }
    SPECQP_CHECK(made == config.queries_per_size)
        << "XKG workload generation exhausted attempts for " << num_patterns
        << "-pattern queries (made " << made << "); loosen the generator or "
        << "workload constraints";
  }
  return workload;
}

std::vector<Query> MakeTwitterWorkload(const TwitterDataset& data,
                                       const TwitterWorkloadConfig& config) {
  Rng rng(config.seed);
  ExhaustiveEvaluator oracle(&data.store, &data.rules);
  std::vector<Query> workload;
  const TwitterSchema& schema = data.schema;

  const size_t num_topics = schema.topic_tags.size();
  const ZipfDistribution topic_dist(num_topics, 0.8);

  for (size_t num_patterns = 2; num_patterns <= 3; ++num_patterns) {
    size_t made = 0;
    size_t attempts = 0;
    const size_t budget =
        config.max_attempts_per_query * config.queries_per_size;
    while (made < config.queries_per_size && attempts < budget) {
      ++attempts;
      const size_t topic = topic_dist.Sample(&rng);

      // "Most frequent tags": prefer low tag indices (tag popularity within
      // a topic is Zipf by construction), requiring the relaxation minimum.
      std::vector<std::pair<TermId, TermId>> pool;
      for (TermId tag : schema.topic_tags[topic]) {
        PatternKey key{kInvalidTermId, schema.has_tag, tag};
        if (data.rules.NumRulesFor(key) >= config.min_relaxations) {
          pool.emplace_back(schema.has_tag, tag);
        }
      }
      if (pool.size() < num_patterns) continue;
      // Bias towards the head of the (popularity-ordered) pool.
      std::vector<std::pair<TermId, TermId>> chosen;
      std::unordered_set<TermId> used;
      size_t guard = 0;
      while (chosen.size() < num_patterns && guard++ < 64) {
        const size_t idx = std::min<size_t>(
            rng.NextBounded(pool.size()), rng.NextBounded(pool.size()));
        if (used.insert(pool[idx].second).second) {
          chosen.push_back(pool[idx]);
        }
      }
      if (chosen.size() < num_patterns) continue;

      Query query = MakeStarQuery(chosen);
      if (oracle.Evaluate(query).answers.size() < config.min_relaxed_answers) {
        continue;
      }
      workload.push_back(std::move(query));
      ++made;
    }
    SPECQP_CHECK(made == config.queries_per_size)
        << "Twitter workload generation exhausted attempts for "
        << num_patterns << "-pattern queries (made " << made << ")";
  }
  return workload;
}

}  // namespace specqp
