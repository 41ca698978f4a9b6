#ifndef SPECQP_DATASETS_TWITTER_GENERATOR_H_
#define SPECQP_DATASETS_TWITTER_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "datasets/triple_sink.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"

namespace specqp {

// Synthetic stand-in for the paper's Twitter dataset: triples
// <tweetId, hasTag, term> scored by the tweet's retweet count, with
// relaxations mined from tag co-occurrence using exactly the paper's weight
// formula w = #tweets(T1 ∧ T2) / #tweets(T1) (section 4.2).
//
// Tags belong to trending *topics*; a tweet draws a topic and then tags
// from it (plus global noise), so tags within a topic co-occur strongly —
// giving each frequent tag >= 5 usable relaxations — while conjunctions of
// 2-3 tags are sparse, reproducing the regime in which most Twitter queries
// need all their patterns relaxed (Table 3).
struct TwitterConfig {
  uint64_t seed = 4217;
  // Workload scale tier: multiplies num_tweets (1 = the laptop-sized
  // default, 10 = the first step toward the paper's full scale). The tag
  // vocabulary is unchanged, so co-occurrence structure stays comparable
  // across tiers. Benches plumb --scale through here and record it in the
  // artifact knobs.
  size_t scale = 1;
  size_t num_tweets = 120000;
  size_t num_topics = 50;
  size_t tags_per_topic = 40;
  double topic_skew = 0.8;
  double tag_skew = 1.0;
  size_t min_tags_per_tweet = 2;
  size_t max_tags_per_tweet = 6;
  // Probability that a tag is drawn from the global vocabulary instead of
  // the tweet's topic.
  double global_noise = 0.10;
  double retweet_skew = 1.05;

  size_t miner_min_support = 3;
  size_t miner_max_rules = 20;
  double miner_min_weight = 0.02;
  double miner_weight_cap = 0.95;
};

// Schema handles of the generated graph (shared by the materialised and
// streaming entry points).
struct TwitterSchema {
  TermId has_tag = kInvalidTermId;
  // topic_tags[z] — tag TermIds of topic z, hottest topic first.
  std::vector<std::vector<TermId>> topic_tags;
};

struct TwitterDataset {
  TripleStore store;
  RelaxationIndex rules;
  TwitterSchema schema;
};

// Streaming core: emits every triple of the deterministic dataset for
// `config` into `sink` (generation order) while interning the FULL
// dictionary into `dict` — identical terms in identical order no matter
// which triples the sink keeps, so per-shard passes in tools/store_shard
// produce byte-identical dictionary sections without materialising the
// graph (memory stays at dictionary + one shard's triples).
TwitterSchema StreamTwitterTriples(const TwitterConfig& config,
                                   Dictionary* dict, const TripleSink& sink);

// Builds the store (finalized) and mines tag co-occurrence relaxations.
// Delegates triple generation to StreamTwitterTriples, so the two entry
// points are bit-identical.
TwitterDataset GenerateTwitter(const TwitterConfig& config);

}  // namespace specqp

#endif  // SPECQP_DATASETS_TWITTER_GENERATOR_H_
