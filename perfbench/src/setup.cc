// Set-up phase: dataset, store files, query texts and reference answers.

#include <chrono>
#include <cstdio>
#include <fstream>

#include "answers.h"
#include "core/engine.h"
#include "core/exhaustive.h"
#include "host_speed.h"
#include "phases.h"
#include "query/parser.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "relax/rules_io.h"

namespace specqp::perfbench {
namespace {

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench setup: %s\n", what.c_str());
  return 1;
}

}  // namespace

int RunSetup(const WorkloadSpec& spec, const std::string& dir) {
  // One CPU, shared with the host sampler, which measures that CPU's
  // speed throughout (README.md, "Host speed").
  (void)PinToCpus(1);
  const auto start = std::chrono::steady_clock::now();
  HostSampler host;

  Corpus corpus = GenerateCorpus(spec.dataset);
  const Dictionary& dict = corpus.store.dict();

  // Queries reach the engine only as text; every text must parse back to
  // the pattern list it was rendered from.
  std::vector<std::string> texts;
  for (const Query& query : corpus.queries) {
    std::string text = query.ToString(dict);
    const Result<Query> parsed = ParseQuery(text, dict);
    if (!parsed.ok()) {
      return Fail("query text does not parse: " + text + ": " +
                  parsed.status().ToString());
    }
    if (parsed.value().patterns() != query.patterns() ||
        parsed.value().num_vars() != query.num_vars() ||
        text.find('\n') != std::string::npos) {
      return Fail("query text does not round-trip: " + text);
    }
    texts.push_back(std::move(text));
  }
  {
    std::ofstream out(QueriesPath(dir));
    for (const std::string& text : texts) out << text << '\n';
    out.flush();
    if (!out) return Fail("cannot write " + QueriesPath(dir));
  }

  Status status = SaveStore(corpus.store, StorePath(dir));
  if (status.ok() && spec.shards > 0) {
    ShardBundleOptions options;
    options.shard_count = spec.shards;
    status = WriteShardBundle(corpus.store, BundlePath(dir), options);
  }
  if (status.ok()) status = SaveRules(corpus.rules, RulesPath(dir));
  if (!status.ok()) return Fail(status.ToString());

  const std::vector<Pair> pairs = AllPairs(texts.size());
  std::vector<Reference> refs(pairs.size());
  {
    const ExhaustiveEvaluator oracle(&corpus.store, &corpus.rules);
    for (size_t q = 0; q < corpus.queries.size(); ++q) {
      const ExhaustiveEvaluator::EvalResult truth =
          oracle.Evaluate(corpus.queries[q]);
      for (size_t i = 0; i < pairs.size(); ++i) {
        if (pairs[i].query == q) refs[i] = OracleReference(truth, pairs[i].k);
      }
    }
  }

  if (spec.specqp_share > 0.0) {
    // The serial, immediate, single-file Spec-QP answers, served from the
    // written files exactly as a one-thread engine would serve them.
    Result<RelaxationIndex> rules = LoadRules(RulesPath(dir));
    if (!rules.ok()) return Fail(rules.status().ToString());
    EngineOptions options;
    options.num_threads = 1;
    Result<Engine::Opened> opened =
        Engine::OpenFromPath(StorePath(dir), &rules.value(), options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    Engine& engine = *opened.value().engine;
    for (size_t i = 0; i < pairs.size(); ++i) {
      QueryRequest request = QueryRequest::FromText(
          texts[pairs[i].query], pairs[i].k, Strategy::kSpecQp);
      request.admission = QueryRequest::Admission::kImmediate;
      QueryResponse response = engine.Submit(std::move(request)).get();
      if (!response.ok()) return Fail(response.status.ToString());
      refs[i].has_serial = true;
      refs[i].serial = std::move(response.rows);
    }
  }
  status = WriteReferences(RefsPath(dir), refs);
  if (!status.ok()) return Fail(status.ToString());

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double factor = host.Stop();
  // setup_s is host-normalised; setup_measured_s is the wall time.
  std::printf("triples %zu\nqueries %zu\npairs %zu\nsetup_measured_s %.9f\n"
              "host_factor %.6f\nsetup_s %.9f\n",
              corpus.store.size(), texts.size(), pairs.size(), seconds, factor,
              seconds / factor);
  return 0;
}

}  // namespace specqp::perfbench
