// The paper's Twitter scenario: tweets scored by retweet count, queried by
// tag conjunctions, with relaxations mined from tag co-occurrence
// (w = #tweets(T1 ∧ T2) / #tweets(T1), section 4.2). Original conjunctions
// are sparse, so relaxations are what fills the top-k — the regime in
// which Spec-QP's predictions matter most.
//
//   $ ./build/examples/twitter_trending

#include <cstdio>

#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "relax/relaxation.h"
#include "topk/scored_row.h"
#include "util/logging.h"

using namespace specqp;

int main() {
  TwitterConfig config;
  config.num_tweets = 30000;
  config.num_topics = 20;
  config.tags_per_topic = 25;
  const TwitterDataset data = GenerateTwitter(config);
  std::printf("twitter store: %zu triples, %zu relaxation rules\n\n",
              data.store.size(), data.rules.total_rules());

  // Take the two hottest tags of the hottest topic.
  const TermId tag_a = data.schema.topic_tags[0][0];
  const TermId tag_b = data.schema.topic_tags[0][1];
  std::printf("relaxations for <%s>:\n",
              std::string(data.store.dict().Name(tag_a)).c_str());
  size_t shown = 0;
  for (const RelaxationRule& rule : data.rules.RulesFor(
           PatternKey{kInvalidTermId, data.schema.has_tag, tag_a})) {
    std::printf("  %s\n", RuleToString(rule, data.store.dict()).c_str());
    if (++shown >= 5) break;
  }

  Query query;
  const VarId s = query.GetOrAddVariable("tweet");
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(data.schema.has_tag),
                                 PatternTerm::Const(tag_a)));
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(data.schema.has_tag),
                                 PatternTerm::Const(tag_b)));
  query.AddProjection(s);
  std::printf("\nquery: %s\n", query.ToString(data.store.dict()).c_str());

  Engine engine(&data.store, &data.rules);
  for (Strategy strategy : {Strategy::kTrinit, Strategy::kSpecQp}) {
    const QueryResponse response =
        engine.Submit(QueryRequest::FromQuery(query, /*k=*/10, strategy))
            .get();
    SPECQP_CHECK(response.ok()) << response.status.ToString();
    std::printf("\n[%s] plan %s — %.3f ms, %llu answer objects\n",
                std::string(StrategyName(strategy)).c_str(),
                response.plan.ToString().c_str(),
                response.stats.plan_ms + response.stats.exec_ms,
                static_cast<unsigned long long>(
                    response.stats.answer_objects));
    for (size_t i = 0; i < response.rows.size() && i < 5; ++i) {
      std::printf("  #%zu %s\n", i + 1,
                  RowToString(response.rows[i], query, data.store.dict())
                      .c_str());
    }
  }
  return 0;
}
