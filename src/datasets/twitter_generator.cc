#include "datasets/twitter_generator.h"

#include <cmath>
#include <unordered_set>

#include "relax/miner.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace specqp {

TwitterSchema StreamTwitterTriples(const TwitterConfig& config,
                                   Dictionary* dict, const TripleSink& sink) {
  SPECQP_CHECK(dict != nullptr);
  SPECQP_CHECK(config.num_tweets > 0 && config.num_topics > 0);
  SPECQP_CHECK(config.tags_per_topic >= 2);
  SPECQP_CHECK(config.min_tags_per_tweet >= 1 &&
               config.min_tags_per_tweet <= config.max_tags_per_tweet);
  SPECQP_CHECK(config.scale >= 1);
  // Scale tier: more tweets over the same tag vocabulary (see
  // TwitterConfig::scale).
  const size_t num_tweets = config.num_tweets * config.scale;

  Rng rng(config.seed);
  TwitterSchema schema;

  schema.has_tag = dict->Intern("hasTag");
  schema.topic_tags.resize(config.num_topics);
  for (size_t z = 0; z < config.num_topics; ++z) {
    for (size_t t = 0; t < config.tags_per_topic; ++t) {
      schema.topic_tags[z].push_back(
          dict->Intern(StrFormat("#topic%zu_tag%zu", z, t)));
    }
  }

  // Retweet counts: power law over a random permutation of tweets.
  std::vector<uint32_t> rank_of(num_tweets);
  for (size_t i = 0; i < num_tweets; ++i) {
    rank_of[i] = static_cast<uint32_t>(i);
  }
  rng.Shuffle(&rank_of);
  auto retweets = [&](size_t tweet) {
    return std::max(
        1.0, 5e4 / std::pow(static_cast<double>(rank_of[tweet]) + 1.0,
                            config.retweet_skew));
  };

  const ZipfDistribution topic_dist(config.num_topics, config.topic_skew);
  const ZipfDistribution tag_dist(config.tags_per_topic, config.tag_skew);

  for (size_t i = 0; i < num_tweets; ++i) {
    const TermId tweet = dict->Intern(StrFormat("tweet%zu", i));
    const double score = retweets(i);
    const size_t topic = topic_dist.Sample(&rng);
    const size_t span =
        config.max_tags_per_tweet - config.min_tags_per_tweet + 1;
    const size_t num_tags = config.min_tags_per_tweet + rng.NextBounded(span);

    std::unordered_set<TermId> used;
    for (size_t t = 0; t < num_tags; ++t) {
      TermId tag;
      if (rng.NextBool(config.global_noise)) {
        const size_t other = topic_dist.Sample(&rng);
        tag = schema.topic_tags[other][tag_dist.Sample(&rng)];
      } else {
        tag = schema.topic_tags[topic][tag_dist.Sample(&rng)];
      }
      if (!used.insert(tag).second) continue;  // duplicate tag in this tweet
      sink(tweet, schema.has_tag, tag, score);
    }
  }

  return schema;
}

TwitterDataset GenerateTwitter(const TwitterConfig& config) {
  TwitterDataset data;
  TripleStore& store = data.store;
  data.schema = StreamTwitterTriples(
      config, &store.dict(),
      [&store](TermId s, TermId p, TermId o, double score) {
        store.AddEncoded(s, p, o, score);
      });
  store.Finalize();

  MinerOptions miner;
  miner.min_support = config.miner_min_support;
  miner.max_rules_per_pattern = config.miner_max_rules;
  miner.min_weight = config.miner_min_weight;
  miner.weight_cap = config.miner_weight_cap;
  const Status status =
      MineObjectCooccurrence(store, data.schema.has_tag, miner, &data.rules);
  SPECQP_CHECK(status.ok()) << status.ToString();

  SPECQP_LOG(Info) << "Twitter generated: " << store.size() << " triples, "
                   << store.dict().size() << " terms, "
                   << data.rules.total_rules() << " relaxation rules";
  return data;
}

}  // namespace specqp
