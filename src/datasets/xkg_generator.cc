#include "datasets/xkg_generator.h"

#include <cmath>

#include "relax/miner.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace specqp {

XkgSchema StreamXkgTriples(const XkgConfig& config, Dictionary* dict,
                           const TripleSink& sink) {
  SPECQP_CHECK(dict != nullptr);
  SPECQP_CHECK(config.num_entities > 0 && config.num_domains > 0);
  SPECQP_CHECK(config.types_per_domain >= 2);
  SPECQP_CHECK(config.scale >= 1);
  // Scale tier: more entities over the same schema (see XkgConfig::scale).
  const size_t num_entities = config.num_entities * config.scale;

  Rng rng(config.seed);
  XkgSchema schema;

  // --- schema terms ---------------------------------------------------------
  schema.type_predicate = dict->Intern("rdf:type");
  static const char* kAttributeNames[] = {"plays",    "locatedIn", "memberOf",
                                          "wonAward", "activeIn",  "worksAt",
                                          "speaks",   "produced"};
  for (size_t a = 0; a < config.num_attributes; ++a) {
    const std::string name =
        (a < std::size(kAttributeNames))
            ? std::string(kAttributeNames[a])
            : StrFormat("attribute%zu", a);
    schema.attribute_predicates.push_back(dict->Intern(name));
  }

  schema.domain_types.resize(config.num_domains);
  schema.attribute_values.resize(config.num_domains);
  for (size_t d = 0; d < config.num_domains; ++d) {
    for (size_t t = 0; t < config.types_per_domain; ++t) {
      schema.domain_types[d].push_back(
          dict->Intern(StrFormat("domain%zu_type%zu", d, t)));
    }
    schema.attribute_values[d].resize(config.num_attributes);
    for (size_t a = 0; a < config.num_attributes; ++a) {
      for (size_t v = 0; v < config.values_per_attribute; ++v) {
        schema.attribute_values[d][a].push_back(
            dict->Intern(StrFormat("domain%zu_attr%zu_value%zu", d, a, v)));
      }
    }
  }

  // --- entity popularity ("inlink counts") ----------------------------------
  // Popularity rank is a random permutation of entity ids so popular
  // entities are spread across domains.
  std::vector<uint32_t> rank_of(num_entities);
  for (size_t e = 0; e < num_entities; ++e) {
    rank_of[e] = static_cast<uint32_t>(e);
  }
  rng.Shuffle(&rank_of);
  auto popularity = [&](size_t e) {
    // Power-law inlink count in [1, ~1e5].
    return std::max(
        1.0, 1e5 / std::pow(static_cast<double>(rank_of[e]) + 1.0,
                            config.entity_popularity_skew));
  };

  const ZipfDistribution domain_dist(config.num_domains, config.domain_skew);
  const ZipfDistribution type_dist(config.types_per_domain, config.type_skew);
  const ZipfDistribution value_dist(config.values_per_attribute,
                                    config.value_skew);

  // --- entities and their triples -------------------------------------------
  for (size_t e = 0; e < num_entities; ++e) {
    const TermId entity = dict->Intern(StrFormat("entity%zu", e));
    const double score = popularity(e);
    const size_t domain = domain_dist.Sample(&rng);
    // Fact-density factor: 1 for the most popular entity, ~0 for the tail.
    const double density =
        config.popularity_correlation <= 0.0
            ? 1.0
            : std::pow(1.0 - static_cast<double>(rank_of[e]) /
                                 static_cast<double>(num_entities),
                       config.popularity_correlation);

    // rdf:type triples: a primary type plus a geometric number of extra
    // same-domain types — this overlap is what the relaxation miner feeds
    // on. Popular entities accumulate more types.
    size_t num_types = 1;
    while (num_types < config.max_types_per_entity &&
           rng.NextBool(config.extra_type_prob * (0.3 + 0.7 * density))) {
      ++num_types;
    }
    for (size_t i = 0; i < num_types; ++i) {
      const size_t t = type_dist.Sample(&rng);
      sink(entity, schema.type_predicate, schema.domain_types[domain][t],
           score);
    }
    if (rng.NextBool(config.cross_domain_noise)) {
      const size_t other = rng.NextBounded(config.num_domains);
      const size_t t = type_dist.Sample(&rng);
      sink(entity, schema.type_predicate, schema.domain_types[other][t],
           score);
    }

    // Attribute triples within the entity's domain vocabulary; popular
    // entities participate in more attributes with more values each.
    for (size_t a = 0; a < config.num_attributes; ++a) {
      if (!rng.NextBool(config.attribute_participation *
                        (0.4 + 0.6 * density))) {
        continue;
      }
      const size_t value_span =
          1 + static_cast<size_t>(
                  density *
                  static_cast<double>(config.max_values_per_attribute - 1));
      const size_t num_values = 1 + rng.NextBounded(value_span);
      for (size_t v = 0; v < num_values; ++v) {
        const size_t value = value_dist.Sample(&rng);
        sink(entity, schema.attribute_predicates[a],
             schema.attribute_values[domain][a][value], score);
      }
    }
  }

  // Optional value graph for the chain-relaxation extension: each value is
  // related to its nearest same-attribute neighbours (value indices are
  // popularity-ordered, so neighbours co-occur on similar entities).
  if (config.generate_value_graph) {
    const TermId related = dict->Intern("relatedTo");
    schema.related_predicate = related;
    for (size_t d = 0; d < config.num_domains; ++d) {
      for (size_t a = 0; a < config.num_attributes; ++a) {
        const auto& values = schema.attribute_values[d][a];
        for (size_t v = 0; v < values.size(); ++v) {
          for (size_t j = 1; j <= config.related_per_value; ++j) {
            const size_t other = (v + j) % values.size();
            if (other == v) continue;
            sink(values[other], related, values[v], 1.0);
          }
        }
      }
    }
  }

  return schema;
}

XkgDataset GenerateXkg(const XkgConfig& config) {
  XkgDataset data;
  TripleStore& store = data.store;
  data.schema = StreamXkgTriples(
      config, &store.dict(),
      [&store](TermId s, TermId p, TermId o, double score) {
        store.AddEncoded(s, p, o, score);
      });
  store.Finalize();

  // --- relaxation mining -----------------------------------------------------
  MinerOptions miner;
  miner.min_support = config.miner_min_support;
  miner.max_rules_per_pattern = config.miner_max_rules;
  miner.min_weight = config.miner_min_weight;
  miner.weight_cap = config.miner_weight_cap;
  const XkgSchema& schema = data.schema;
  Status status =
      MineObjectCooccurrence(store, schema.type_predicate, miner, &data.rules);
  SPECQP_CHECK(status.ok()) << status.ToString();
  for (TermId predicate : schema.attribute_predicates) {
    status = MineObjectCooccurrence(store, predicate, miner, &data.rules);
    SPECQP_CHECK(status.ok()) << status.ToString();
  }

  if (config.generate_value_graph) {
    ChainMinerOptions chain;
    chain.min_weight = config.chain_min_weight;
    chain.weight_cap = config.chain_weight_cap;
    for (TermId predicate : schema.attribute_predicates) {
      status = MineChainRelaxations(store, predicate, schema.related_predicate,
                                    chain, &data.rules);
      SPECQP_CHECK(status.ok()) << status.ToString();
    }
  }

  SPECQP_LOG(Info) << "XKG generated: " << store.size() << " triples, "
                   << store.dict().size() << " terms, "
                   << data.rules.total_rules() << " relaxation rules over "
                   << data.rules.num_domains() << " patterns";
  return data;
}

}  // namespace specqp
