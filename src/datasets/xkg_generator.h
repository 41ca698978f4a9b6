#ifndef SPECQP_DATASETS_XKG_GENERATOR_H_
#define SPECQP_DATASETS_XKG_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "datasets/triple_sink.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"

namespace specqp {

// Synthetic stand-in for the paper's XKG (YAGO2s + OpenIE, 105M triples),
// scaled to laptop size while preserving the properties the planner's
// decisions depend on:
//
//   - power-law triple scores ("number of inlinks into the subject"):
//     entity popularity follows a Zipf law and every triple about an entity
//     carries its popularity as score, so per-pattern score distributions
//     follow the 80/20 shape the two-bucket model assumes;
//   - a rich relaxation space: entities live in topical *domains*; each
//     domain has a cluster of overlapping rdf:type classes and per-attribute
//     value vocabularies, so co-instance containment mining yields >= 10
//     relaxations per query pattern with a wide weight spread;
//   - star-shaped query patterns (?s <rdf:type> <C>, ?s <plays> <guitar>)
//     with object constants, matching the paper's example queries.
struct XkgConfig {
  uint64_t seed = 42;
  // Workload scale tier: multiplies num_entities (1 = the laptop-sized
  // default, 10 = the first step toward the paper's full scale). Schema
  // breadth (domains, types, attributes) is unchanged, so queries and
  // relaxation structure stay comparable across tiers — posting lists just
  // get proportionally longer. Benches plumb --scale through here and
  // record it in the artifact knobs.
  size_t scale = 1;
  size_t num_entities = 40000;
  size_t num_domains = 24;
  size_t types_per_domain = 18;
  size_t num_attributes = 5;
  size_t values_per_attribute = 14;  // per domain, per attribute
  double entity_popularity_skew = 0.85;
  double domain_skew = 0.7;
  double type_skew = 0.8;
  // After the primary type, each further same-domain type is added with
  // this probability (geometric stop), up to max_types_per_entity.
  double extra_type_prob = 0.55;
  size_t max_types_per_entity = 6;
  double attribute_participation = 0.75;
  size_t max_values_per_attribute = 3;
  double value_skew = 0.9;
  // Probability of one additional out-of-domain type per entity (keeps the
  // relaxation graph from being block-diagonal).
  double cross_domain_noise = 0.05;
  // Degree-popularity correlation, a well-documented property of real KGs
  // that the paper's data shares: popular entities carry more facts (more
  // types, more attribute values), so pattern *intersections* are dominated
  // by high-scoring entities and relaxations only overtake the top-k when
  // the original query is recall-starved. An entity at popularity rank r
  // gets fact-density factor (1 - r/N)^popularity_correlation; 0 disables
  // the correlation.
  double popularity_correlation = 3.0;

  // Relaxation mining knobs.
  size_t miner_min_support = 3;
  size_t miner_max_rules = 25;
  double miner_min_weight = 0.02;
  double miner_weight_cap = 0.8;

  // Chain-relaxation extension (off by default; the paper's main
  // experiments use simple relaxations only). When enabled the generator
  // adds a <relatedTo> value graph — each attribute value is linked to its
  // nearest same-attribute values — and mines chain rules
  // (?s <attr> <v>) ~> (?s <attr> ?z)(?z <relatedTo> <v>).
  bool generate_value_graph = false;
  size_t related_per_value = 3;
  double chain_min_weight = 0.05;
  double chain_weight_cap = 0.9;
};

// Schema handles of the generated graph (shared by the materialised and
// streaming entry points).
struct XkgSchema {
  TermId type_predicate = kInvalidTermId;
  // Only set when config.generate_value_graph is true.
  TermId related_predicate = kInvalidTermId;
  std::vector<TermId> attribute_predicates;
  // domain_types[d] — the type TermIds of domain d.
  std::vector<std::vector<TermId>> domain_types;
  // attribute_values[d][a] — value TermIds of attribute a in domain d.
  std::vector<std::vector<std::vector<TermId>>> attribute_values;
};

struct XkgDataset {
  TripleStore store;
  RelaxationIndex rules;
  XkgSchema schema;
};

// Streaming core: emits every triple of the deterministic dataset for
// `config` into `sink` (in generation order, duplicates included) and
// interns the FULL dictionary into `dict` — the same terms in the same
// order no matter which triples the sink keeps. That invariant is what
// lets tools/store_shard run one pass per shard, keep only the triples
// hashing to it, and still produce shard files whose TermIds (and
// dictionary sections, byte for byte) agree across the bundle, without
// the whole graph ever existing in memory.
XkgSchema StreamXkgTriples(const XkgConfig& config, Dictionary* dict,
                           const TripleSink& sink);

// Builds the store (finalized), mines relaxations, and reports the schema
// handles needed by the workload generator. Delegates triple generation
// to StreamXkgTriples, so the two entry points are bit-identical.
XkgDataset GenerateXkg(const XkgConfig& config);

}  // namespace specqp

#endif  // SPECQP_DATASETS_XKG_GENERATOR_H_
