// Serving phase: runs one workload, checks every answer, reports metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "answers.h"
#include "core/engine.h"
#include "host_speed.h"
#include "phases.h"
#include "query/parser.h"
#include "relax/rules_io.h"
#include "report.h"
#include "trace.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace specqp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// A run is made of rounds: closed-loop passes over every pair, or
// open-loop replays. Every round serves the same requests, in another
// order (and at other times), so each request is timed once per round
// (README.md, "Timing"). Closed loops run at least kMinRounds passes; the
// open loop runs kReplays replays within --seconds.
constexpr size_t kMinRounds = 4;
constexpr size_t kReplays = 12;
// Cold opens (OpenFromPath plus one request) after each untraced round.
constexpr int kColdOpensPerRound = 5;
// The open loop's reaper polls in-flight futures at this period.
constexpr auto kReapPeriod = std::chrono::microseconds(100);
// An open-loop replay whose completion rate falls below this share of the
// offered rate fell behind: its backlog grew.
constexpr double kMinCompletionShare = 0.9;
// The paper's precision bound for Spec-QP.
constexpr double kMinSpecQpPrecision = 0.7;

// Everything the serving process loads from the prepared directory.
struct Inputs {
  std::vector<std::string> texts;
  std::vector<Pair> pairs;
  std::vector<Reference> refs;
  RelaxationIndex rules;
};

// One request of a timed run.
struct Outcome {
  size_t slot = 0;   // the request's place in a round: pair or mix index
  size_t pair = 0;
  Strategy strategy = Strategy::kSpecQp;
  double latency_ms = 0.0;   // closed: from send; open: from due time
  // Closed loops: the request's share of its pass's wall time, from its
  // send to the next send, without the yardstick sample between them.
  double wall_ms = 0.0;
  // Closed loops: the host yardstick sampled after the request, and the
  // factor the pass's samples give it. The open loop's requests run on the
  // engine's threads, where the harness cannot sample (README.md, "Host
  // speed"), so their factor stays 1.
  double yardstick_ms = 0.0;
  double host_factor = 1.0;
  double send_lag_ms = 0.0;  // how late the request was sent
  double parse_us = 0.0;     // traced runs: the harness's ParseQuery span
  QueryResponse response;
};

// Admission counters summed over the engines of a run.
struct AdmissionTotals {
  uint64_t submitted = 0;
  uint64_t windows = 0;
  uint64_t closed_on_delay = 0;
  uint64_t shared_scan_hits = 0;
  uint64_t shed = 0;
};

// A timed run plus the engine counters it moved.
struct Run {
  std::vector<Outcome> outcomes;
  size_t rounds = 0;
  size_t slots = 0;             // requests per round
  std::vector<double> round_s;  // wall time of each round
  std::string invalid;     // why the run cannot be summarised ("" = valid)
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_bytes = 0;  // resident at the end
  size_t bytes_mapped = 0;
  AdmissionTotals admission;  // open loop only
  // Cold opens made between the rounds (untraced runs only), and their
  // requests, which are checked but not timed.
  std::vector<double> open_ms;
  std::vector<double> first_answer_ms;
  std::vector<double> first_answer_factor;  // host factor of each cold open
  std::vector<Outcome> cold;
  std::vector<double> peak_rss_mb;  // each round's peak
};

// Answer checks over a run: counts failures and collects precision.
struct Checked {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<double> specqp_precision;
  std::vector<double> trinit_precision;
  std::vector<std::string> examples;  // first few failure reasons
};

// Checks one response; the precision of timed requests is collected.
void Check(const Inputs& in, size_t pair, Strategy strategy,
           const QueryResponse& response, Checked* checked,
           bool timed = true) {
  ++checked->attempted;
  auto fail = [&](const std::string& why) {
    ++checked->failed;
    if (checked->examples.size() < 5) {
      checked->examples.push_back("pair " + std::to_string(pair) + " (" +
                                  std::string(StrategyName(strategy)) +
                                  "): " + why);
    }
  };
  if (!response.ok()) {
    fail(response.status.ToString());
    return;
  }
  const Verdict verdict = CheckAnswer(in.refs[pair], strategy,
                                      in.pairs[pair].k, response.rows);
  if (!verdict.ok) {
    ++checked->wrong;
    fail(verdict.why);
    return;
  }
  if (!timed) return;
  (strategy == Strategy::kSpecQp ? checked->specqp_precision
                                 : checked->trinit_precision)
      .push_back(verdict.precision);
}

// Per-request span context of a traced run (null tracer: untraced).
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t next_request = 1;
};

void RecordRequestSpans(TraceContext* trace, Clock::time_point send,
                        Clock::time_point parsed, Clock::time_point submit,
                        Clock::time_point done, const QueryResponse& r) {
  if (trace->tracer == nullptr) return;
  Tracer& t = *trace->tracer;
  const uint64_t id = trace->next_request++;
  const size_t root =
      t.Record("request", Layer::kHarness, id, Tracer::kNoParent, send, done);
  t.Record("query.parse", Layer::kQuery, id, root, send, parsed);
  const size_t call =
      t.Record("core.submit", Layer::kCore, id, root, submit, done);
  double offset = 0.0;
  t.RecordReported("core.admission", Layer::kCore, id, call, offset,
                   r.admission_ms);
  offset += r.admission_ms;
  t.RecordReported("core.plan", Layer::kCore, id, call, offset,
                   r.stats.plan_ms);
  offset += r.stats.plan_ms;
  t.RecordReported("topk.exec", Layer::kTopk, id, call, offset,
                   r.stats.exec_ms);
}

// Traced runs time the harness's own ParseQuery of the text before Submit.
Clock::time_point TracedParse(TraceContext* trace, const std::string& text,
                              const Dictionary& dict, Outcome* o,
                              Clock::time_point send) {
  if (trace->tracer == nullptr) return send;
  (void)ParseQuery(text, dict);
  const Clock::time_point parsed = Clock::now();
  o->parse_us = Ms(parsed - send) * 1e3;
  return parsed;
}

Result<Engine::Opened> Open(const WorkloadSpec& spec, const ServeArgs& args,
                            const Inputs& in) {
  return Engine::OpenFromPath(ServedPath(spec, args.dir), &in.rules,
                              ServedOptions(spec));
}

// The strategy of a closed loop, and of every cold open.
Strategy FirstStrategy(const WorkloadSpec& spec) {
  return spec.specqp_share > 0.0 ? Strategy::kSpecQp : Strategy::kTrinit;
}

// Sets the host factor of outcomes [begin, end), in time order, from
// their yardstick samples.
void SetHostFactors(std::vector<Outcome>::iterator begin,
                    std::vector<Outcome>::iterator end) {
  std::vector<double> samples;
  for (auto o = begin; o != end; ++o) samples.push_back(o->yardstick_ms);
  const std::vector<double> factors = HostFactors(samples);
  for (size_t i = 0; begin + static_cast<std::ptrdiff_t>(i) != end; ++i) {
    begin[static_cast<std::ptrdiff_t>(i)].host_factor = factors[i];
  }
}

// OpenFromPath of the served store plus one request (the first pair) on
// the fresh engine, repeated; the page cache stays warm throughout. A
// yardstick sample follows each.
void ColdOpens(const WorkloadSpec& spec, const ServeArgs& args,
               const Inputs& in, Yardstick& yardstick, Run* run) {
  std::vector<double> samples;
  for (int i = 0; i < kColdOpensPerRound; ++i) {
    Outcome o;
    o.strategy = FirstStrategy(spec);
    const Clock::time_point start = Clock::now();
    Result<Engine::Opened> opened = Open(spec, args, in);
    const Clock::time_point open_done = Clock::now();
    if (!opened.ok()) {
      o.response.status = opened.status();
      run->cold.push_back(std::move(o));
      continue;
    }
    QueryRequest request = QueryRequest::FromText(
        in.texts[in.pairs[0].query], in.pairs[0].k, o.strategy);
    if (spec.loop == Loop::kClosed) {
      request.admission = QueryRequest::Admission::kImmediate;
    }
    o.response = opened.value().engine->Submit(std::move(request)).get();
    const Clock::time_point done = Clock::now();
    samples.push_back(yardstick.SampleMs());
    run->open_ms.push_back(Ms(open_done - start));
    run->first_answer_ms.push_back(Ms(done - start));
    run->cold.push_back(std::move(o));
  }
  for (double factor : HostFactors(samples)) {
    run->first_answer_factor.push_back(factor);
  }
}

// One closed-loop pass: every pair once, in the run's seeded order, with
// a yardstick sample after each request.
void RunPass(Engine& engine, const WorkloadSpec& spec, const Inputs& in,
             uint64_t seed, Yardstick& yardstick, TraceContext* trace,
             Run* run) {
  const Dictionary& dict = engine.store().dict();
  const std::vector<size_t> order = PassOrder(in.pairs.size(), seed);
  const size_t first = run->outcomes.size();
  const Clock::time_point start = Clock::now();
  Clock::time_point previous = start;  // the last request's completion
  Clock::time_point resumed = start;   // the end of its yardstick sample
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t p = order[i];
    Outcome o;
    o.slot = p;
    o.pair = p;
    o.strategy = FirstStrategy(spec);
    const std::string& text = in.texts[in.pairs[p].query];
    const Clock::time_point send = Clock::now();
    if (i > 0) run->outcomes.back().wall_ms += Ms(send - resumed);
    const Clock::time_point parsed = TracedParse(trace, text, dict, &o, send);
    QueryRequest request =
        QueryRequest::FromText(text, in.pairs[p].k, o.strategy);
    request.admission = QueryRequest::Admission::kImmediate;
    const Clock::time_point submit = Clock::now();
    o.response = engine.Submit(std::move(request)).get();
    const Clock::time_point done = Clock::now();
    o.latency_ms = Ms(done - send);
    o.wall_ms = o.latency_ms;
    o.send_lag_ms = Ms(send - (i > 0 ? resumed : start));
    RecordRequestSpans(trace, send, parsed, submit, done, o.response);
    o.yardstick_ms = yardstick.SampleMs();
    previous = done;
    resumed = Clock::now();
    run->outcomes.push_back(std::move(o));
  }
  run->round_s.push_back(Ms(previous - start) / 1e3);
  SetHostFactors(run->outcomes.begin() + static_cast<std::ptrdiff_t>(first),
                 run->outcomes.end());
}

// One open-loop replay: sends on the schedule from this one thread, which
// also reaps completed futures; latency runs from each request's due time.
void RunReplay(Engine& engine, const Inputs& in,
               const std::vector<ScheduledRequest>& schedule, double window_s,
               TraceContext* trace, Run* run) {
  struct InFlight {
    size_t index;
    std::future<QueryResponse> future;
    Clock::time_point due, send, parsed, submit;
  };
  const Dictionary& dict = engine.store().dict();
  std::vector<InFlight> in_flight;
  std::vector<Outcome> outcomes(schedule.size());

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point last_done = start;
  auto reap = [&]() {
    for (size_t i = 0; i < in_flight.size();) {
      if (in_flight[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      InFlight& f = in_flight[i];
      Outcome& o = outcomes[f.index];
      o.response = f.future.get();
      o.latency_ms = Ms(done - f.due);
      RecordRequestSpans(trace, f.send, f.parsed, f.submit, done, o.response);
      last_done = std::max(last_done, done);
      in_flight[i] = std::move(in_flight.back());
      in_flight.pop_back();
    }
  };

  for (size_t i = 0; i < schedule.size(); ++i) {
    const ScheduledRequest& s = schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s.due_s));
    for (;;) {
      reap();
      const Clock::time_point now = Clock::now();
      if (now >= due) break;
      std::this_thread::sleep_until(std::min(due, now + kReapPeriod));
    }
    const Clock::time_point send = Clock::now();
    Outcome& o = outcomes[i];
    o.slot = s.id;
    o.pair = s.pair;
    o.strategy = s.strategy;
    o.send_lag_ms = Ms(send - due);
    const std::string& text = in.texts[in.pairs[s.pair].query];
    const Clock::time_point parsed = TracedParse(trace, text, dict, &o, send);
    const Clock::time_point submit = Clock::now();
    std::future<QueryResponse> future = engine.Submit(
        QueryRequest::FromText(text, in.pairs[s.pair].k, s.strategy));
    in_flight.push_back({i, std::move(future), due, send, parsed, submit});
  }
  while (!in_flight.empty()) {
    reap();
    if (!in_flight.empty()) std::this_thread::sleep_for(kReapPeriod);
  }

  const double elapsed_s = Ms(last_done - start) / 1e3;
  run->round_s.push_back(elapsed_s);
  for (Outcome& o : outcomes) run->outcomes.push_back(std::move(o));

  const double completion_rate =
      static_cast<double>(schedule.size()) / elapsed_s;
  const double offered_rate = static_cast<double>(schedule.size()) / window_s;
  if (completion_rate < kMinCompletionShare * offered_rate &&
      run->invalid.empty()) {
    char why[256];
    std::snprintf(why, sizeof(why),
                  "completions fell behind the offered rate in replay %zu: "
                  "%zu requests completed in %.3f s (%.1f/s against %.1f/s "
                  "offered)",
                  run->rounds, schedule.size(), elapsed_s, completion_rate,
                  offered_rate);
    run->invalid = why;
  }
}

// Returns the heap's free memory to the kernel and restarts the kernel's
// count of this process's peak resident set (VmHWM) at its current size,
// so the peak covers the round that follows, not set-up, earlier rounds
// or the cold opens. False where the kernel refuses.
bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Peak resident set in MiB: VmHWM, or getrusage's whole-process peak
// where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Runs the workload's rounds on `engine` into `run`: closed-loop passes on
// the warm served engine until --seconds have passed, or kReplays replays
// of --seconds / kReplays each on an engine opened cold for the run.
// Untraced runs make their cold opens between the rounds, so slow
// stretches of a shared host hit both alike; the peak resident set is
// each round's own, without the cold opens' engines.
void RunTimed(const WorkloadSpec& spec, const ServeArgs& args,
              const Inputs& in, Engine& engine, Yardstick& yardstick,
              TraceContext* trace, Run* out) {
  Run& run = *out;
  const bool closed = spec.loop == Loop::kClosed;
  const double replay_s = args.seconds / static_cast<double>(kReplays);
  const PostingListCache& cache = engine.postings();
  const uint64_t hits = cache.hits();
  const uint64_t misses = cache.misses();
  const uint64_t evictions = cache.evictions();
  double elapsed_s = 0.0;
  for (; closed ? run.rounds < kMinRounds || elapsed_s < args.seconds
                : run.rounds < kReplays;
       ++run.rounds) {
    (void)ResetPeakRss();
    if (closed) {
      run.slots = in.pairs.size();
      RunPass(engine, spec, in, args.seed, yardstick, trace, &run);
    } else {
      const std::vector<ScheduledRequest> schedule = OpenLoopSchedule(
          spec, in.pairs.size(), args.seed, run.rounds, replay_s);
      run.slots = schedule.size();
      RunReplay(engine, in, schedule, replay_s, trace, &run);
    }
    elapsed_s += run.round_s.back();
    run.peak_rss_mb.push_back(PeakRssMb());
    if (trace->tracer == nullptr) ColdOpens(spec, args, in, yardstick, &run);
  }
  run.cache_hits = cache.hits() - hits;
  run.cache_misses = cache.misses() - misses;
  run.cache_evictions = cache.evictions() - evictions;
  run.cache_bytes = cache.bytes();
  if (spec.loop == Loop::kOpen) {
    // The engine serves this run only, so its counters are the run's.
    const AdmissionController::Stats stats = engine.admission().stats();
    run.admission = {stats.submitted, stats.windows_dispatched,
                     stats.closed_on_delay, stats.shared_scan_hits,
                     stats.shed_queue_full + stats.shed_deadline};
    if (run.admission.shed > 0 && run.invalid.empty()) {
      run.invalid = std::to_string(run.admission.shed) + " requests shed";
    }
  }
}

// The distinct queries of the set, parsed against `dict`.
std::vector<Query> ParseDistinct(const Inputs& in, const Dictionary& dict,
                                 std::string* error) {
  std::vector<Query> queries;
  std::set<std::string> seen;
  for (const std::string& text : in.texts) {
    if (!seen.insert(text).second) continue;
    Result<Query> parsed = ParseQuery(text, dict);
    if (!parsed.ok()) {
      *error = parsed.status().ToString();
      return {};
    }
    queries.push_back(std::move(parsed).value());
  }
  return queries;
}

// Traced only: a fresh engine that opens, warms every distinct query and
// explains every pair under spans, so the rdf open/warm and PLANGEN costs
// show without disturbing the timed engines' caches. Returns the mean
// Warm time per distinct query.
Result<double> TraceProbeEngine(const WorkloadSpec& spec,
                                const ServeArgs& args, const Inputs& in,
                                Tracer* tracer) {
  const Clock::time_point open_start = Clock::now();
  Result<Engine::Opened> opened = Open(spec, args, in);
  tracer->Record("rdf.open", Layer::kRdf, Tracer::kNoRequest,
                 Tracer::kNoParent, open_start, Clock::now());
  if (!opened.ok()) return opened.status();
  Engine& engine = *opened.value().engine;
  std::string error;
  const std::vector<Query> queries =
      ParseDistinct(in, engine.store().dict(), &error);
  if (!error.empty()) return Status::InvalidArgument(error);
  double warm_ms = 0.0;
  for (const Query& query : queries) {
    const Clock::time_point start = Clock::now();
    engine.Warm(query);
    const Clock::time_point done = Clock::now();
    tracer->Record("rdf.warm", Layer::kRdf, Tracer::kNoRequest,
                   Tracer::kNoParent, start, done);
    warm_ms += Ms(done - start);
  }
  for (const Pair& pair : in.pairs) {
    const Clock::time_point start = Clock::now();
    (void)engine.Explain(QueryRequest::FromText(in.texts[pair.query], pair.k,
                                                FirstStrategy(spec)));
    tracer->Record("core.explain", Layer::kCore, Tracer::kNoRequest,
                   Tracer::kNoParent, start, Clock::now());
  }
  return warm_ms / static_cast<double>(std::max<size_t>(queries.size(), 1));
}

// Closed loops: opens the served engine and warms it with Warm per
// distinct query, then the workload's untimed passes.
Result<Engine::Opened> OpenWarm(const WorkloadSpec& spec,
                                const ServeArgs& args, const Inputs& in) {
  Result<Engine::Opened> opened = Open(spec, args, in);
  if (!opened.ok()) return opened;
  Engine& engine = *opened.value().engine;
  std::string error;
  for (const Query& query : ParseDistinct(in, engine.store().dict(), &error)) {
    engine.Warm(query);
  }
  if (!error.empty()) return Status::InvalidArgument(error);
  for (int pass = 0; pass < spec.warm_passes; ++pass) {
    for (const Pair& pair : in.pairs) {
      QueryRequest request = QueryRequest::FromText(
          in.texts[pair.query], pair.k, FirstStrategy(spec));
      request.admission = QueryRequest::Admission::kImmediate;
      (void)engine.Submit(std::move(request)).get();
    }
  }
  return opened;
}

Result<Inputs> LoadInputs(const std::string& dir) {
  Inputs in;
  std::ifstream queries(QueriesPath(dir));
  for (std::string line; std::getline(queries, line);) {
    in.texts.push_back(line);
  }
  if (in.texts.empty()) return Status::IoError("no queries in " + dir);
  in.pairs = AllPairs(in.texts.size());
  Result<std::vector<Reference>> refs = ReadReferences(RefsPath(dir));
  if (!refs.ok()) return refs.status();
  in.refs = std::move(refs).value();
  if (in.refs.size() != in.pairs.size()) {
    return Status::Corruption("reference count does not match the pairs");
  }
  Result<RelaxationIndex> rules = LoadRules(RulesPath(dir));
  if (!rules.ok()) return rules.status();
  in.rules = std::move(rules).value();
  return in;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}
double Best(const std::vector<double>& values) {
  return Percentile(values, 0.0);
}

// The latency sample the end-to-end figures are taken over (README.md,
// "Timing"): closed loops take each pair's median host-normalised latency
// over the passes; the open loop takes each scheduled request's best
// latency over the replays, since queueing behind other requests and the
// host's slow stretches, which it cannot normalise, only add.
std::vector<double> SlotLatencies(const WorkloadSpec& spec, const Run& run,
                                  bool normalised = true) {
  std::vector<std::vector<double>> by_slot(run.slots);
  for (const Outcome& o : run.outcomes) {
    by_slot[o.slot].push_back(o.latency_ms /
                              (normalised ? o.host_factor : 1.0));
  }
  std::vector<double> slot;
  for (const std::vector<double>& latencies : by_slot) {
    slot.push_back(spec.loop == Loop::kClosed ? Median(latencies)
                                              : Best(latencies));
  }
  return slot;
}

// Closed loops: each pass's host-normalised wall time in seconds.
std::vector<double> NormalisedPassSeconds(const Run& run) {
  std::vector<double> pass_s(run.rounds, 0.0);
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const Outcome& o = run.outcomes[i];
    pass_s[i / run.slots] += o.wall_ms / o.host_factor / 1e3;
  }
  return pass_s;
}

template <typename F>
double SumOver(const Run& run, F field) {
  double sum = 0.0;
  for (const Outcome& o : run.outcomes) sum += field(o);
  return sum;
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

void AddEndToEndMetrics(const WorkloadSpec& spec, const Run& run,
                        const Checked& checked, double setup_s,
                        Report* report) {
  // Closed loops: the pairs of one pass over the median pass's
  // host-normalised wall time; open loop: completions over the replays'
  // wall time (README.md, "Timing").
  const std::vector<double> latency = SlotLatencies(spec, run);
  const double qps =
      spec.loop == Loop::kClosed
          ? Ratio(static_cast<double>(run.slots),
                  Median(NormalisedPassSeconds(run)))
          : Ratio(static_cast<double>(run.outcomes.size()),
                  std::accumulate(run.round_s.begin(), run.round_s.end(),
                                  0.0));
  std::vector<double> first_answer;
  for (size_t i = 0; i < run.first_answer_ms.size(); ++i) {
    first_answer.push_back(run.first_answer_ms[i] /
                           run.first_answer_factor[i]);
  }
  const std::vector<double>& precision = checked.specqp_precision.empty()
                                             ? checked.trinit_precision
                                             : checked.specqp_precision;
  report->Add("setup_s", setup_s, "s");
  report->Add("qps", qps, "1/s");
  report->Add("latency_p50_ms", Percentile(latency, 0.5), "ms");
  report->Add("latency_p90_ms", Percentile(latency, 0.9), "ms");
  report->Add("precision_at_k", Mean(precision), "ratio");
  report->Add("first_answer_ms", Median(first_answer), "ms");
  report->Add("peak_rss_mb", Median(run.peak_rss_mb), "MB");

  char note[200];
  const size_t beyond = SamplesBeyond(latency.size(), 0.99);
  if (beyond >= 10) {
    std::snprintf(note, sizeof(note),
                  "latency_p99_ms %.6f ms (%zu samples, %zu beyond)",
                  Percentile(latency, 0.99), latency.size(), beyond);
  } else {
    std::snprintf(note, sizeof(note),
                  "latency_p99_ms omitted: %zu samples leave %zu beyond the "
                  "99th percentile (< 10)",
                  latency.size(), beyond);
  }
  report->Note(note);
  std::snprintf(note, sizeof(note),
                "round wall time over %zu rounds: best %.3f s, median %.3f s, "
                "worst %.3f s (requests per second: %.3f, %.3f, %.3f)",
                run.round_s.size(), Best(run.round_s), Median(run.round_s),
                Percentile(run.round_s, 1.0),
                Ratio(static_cast<double>(run.slots), Best(run.round_s)),
                Ratio(static_cast<double>(run.slots), Median(run.round_s)),
                Ratio(static_cast<double>(run.slots),
                      Percentile(run.round_s, 1.0)));
  report->Note(note);
  std::snprintf(note, sizeof(note),
                "peak resident memory of a round: least %.3f MB, median "
                "%.3f MB, largest %.3f MB",
                Best(run.peak_rss_mb), Median(run.peak_rss_mb),
                Percentile(run.peak_rss_mb, 1.0));
  report->Note(note);
  std::snprintf(note, sizeof(note),
                "first answer over %zu cold opens, as measured: best %.3f "
                "ms, median %.3f ms, worst %.3f ms",
                run.first_answer_ms.size(), Best(run.first_answer_ms),
                Median(run.first_answer_ms),
                Percentile(run.first_answer_ms, 1.0));
  report->Note(note);
  const std::vector<double> raw = SlotLatencies(spec, run, false);
  std::snprintf(note, sizeof(note),
                "latency as measured, not host-normalised: p50 %.3f ms, "
                "p90 %.3f ms",
                Percentile(raw, 0.5), Percentile(raw, 0.9));
  report->Note(note);
  std::vector<double> factors;
  if (spec.loop == Loop::kClosed) {
    for (const Outcome& o : run.outcomes) factors.push_back(o.host_factor);
  }
  factors.insert(factors.end(), run.first_answer_factor.begin(),
                 run.first_answer_factor.end());
  std::snprintf(note, sizeof(note),
                "host factor over %zu samples (yardstick ms / %.3f ms): "
                "least %.3f, median %.3f, largest %.3f",
                factors.size(), Yardstick::kNominalMs, Best(factors),
                Median(factors), Percentile(factors, 1.0));
  report->Note(note);
}

void AddLayerMetrics(const Run& run, double warm_ms, const Run& traced,
                     double trace_overhead,
                     const std::array<double, kNumLayers>& self_ms,
                     Report* report) {
  const double n =
      std::max<double>(1.0, static_cast<double>(run.outcomes.size()));
  constexpr double kMiB = 1024.0 * 1024.0;
  auto stat = [&](uint64_t ExecStats::*field) {
    return SumOver(run, [field](const Outcome& o) {
      return static_cast<double>(o.response.stats.*field);
    });
  };

  // rdf
  const double decoded = stat(&ExecStats::blocks_decoded);
  const double skipped = stat(&ExecStats::blocks_skipped);
  report->Add("rdf.open_ms", Best(run.open_ms), "ms");
  report->Add("rdf.bytes_mapped_mb",
              static_cast<double>(run.bytes_mapped) / kMiB, "MB");
  report->Add("rdf.warm_ms", warm_ms, "ms");
  report->Add("rdf.cache_hit_ratio",
              Ratio(static_cast<double>(run.cache_hits),
                    static_cast<double>(run.cache_hits + run.cache_misses)),
              "ratio");
  report->Add("rdf.cache_evictions", static_cast<double>(run.cache_evictions),
              "count");
  report->Add("rdf.cache_resident_mb",
              static_cast<double>(run.cache_bytes) / kMiB, "MB");
  report->Add("rdf.blocks_decoded_per_query", decoded / n, "count");
  report->Add("rdf.block_skip_ratio", Ratio(skipped, decoded + skipped),
              "ratio");

  // query
  std::vector<double> parse_us;
  for (const Outcome& o : traced.outcomes) parse_us.push_back(o.parse_us);
  report->Add("query.parse_us", Mean(parse_us), "us");

  // core: planner and estimator
  const double plan_ms =
      SumOver(run, [](const Outcome& o) { return o.response.stats.plan_ms; });
  const double relaxed = SumOver(run, [](const Outcome& o) {
    return static_cast<double>(o.response.plan.num_relaxed());
  });
  const double patterns = SumOver(run, [](const Outcome& o) {
    return static_cast<double>(o.response.plan.num_relaxed() +
                               o.response.plan.join_group.size());
  });
  report->Add("core.plan_ms", plan_ms / n, "ms");
  report->Add("core.plan_share",
              Ratio(plan_ms, SumOver(run, [](const Outcome& o) {
                      return o.latency_ms;
                    })),
              "ratio");
  report->Add("core.patterns_relaxed_frac", Ratio(relaxed, patterns),
              "ratio");

  // core: admission and batching
  std::vector<double> admission_ms;
  std::vector<double> send_lag_ms;
  for (const Outcome& o : run.outcomes) {
    admission_ms.push_back(o.response.admission_ms);
    send_lag_ms.push_back(o.send_lag_ms);
  }
  const AdmissionTotals& a = run.admission;
  const double windows = static_cast<double>(a.windows);
  report->Add("core.admission_wait_ms_p50", Percentile(admission_ms, 0.5),
              "ms");
  report->Add("core.admission_wait_ms_p99", Percentile(admission_ms, 0.99),
              "ms");
  report->Add("core.window_size_mean",
              Ratio(static_cast<double>(a.submitted), windows), "count");
  report->Add("core.windows_closed_on_delay_frac",
              Ratio(static_cast<double>(a.closed_on_delay), windows), "ratio");
  report->Add("core.shared_scan_hits_per_window",
              Ratio(static_cast<double>(a.shared_scan_hits), windows),
              "count");
  report->Add("core.shed", static_cast<double>(a.shed), "count");

  // core execution and topk operators
  const double merged = stat(&ExecStats::merge_rows);
  const double duplicates = stat(&ExecStats::merge_duplicates);
  const double rows = SumOver(run, [](const Outcome& o) {
    return static_cast<double>(o.response.rows.size());
  });
  report->Add("core.exec_ms",
              SumOver(run, [](const Outcome& o) {
                return o.response.stats.exec_ms;
              }) / n,
              "ms");
  report->Add("topk.scan_rows_per_query", stat(&ExecStats::scan_rows) / n,
              "count");
  report->Add("topk.merge_rows_per_query", merged / n, "count");
  report->Add("topk.merge_dup_ratio", Ratio(duplicates, merged + duplicates),
              "ratio");
  report->Add("topk.join_results_per_query",
              stat(&ExecStats::join_results) / n, "count");
  report->Add("topk.join_probes_per_query",
              stat(&ExecStats::join_hash_probes) / n, "count");
  report->Add("topk.answer_objects_per_query",
              stat(&ExecStats::answer_objects) / n, "count");
  report->Add("topk.answer_objects_per_row",
              Ratio(stat(&ExecStats::answer_objects), rows), "count");
  report->Add("topk.parallel_partitions_per_query",
              stat(&ExecStats::parallel_partitions) / n, "count");

  // harness
  report->Add("harness.send_lag_p99_ms", Percentile(send_lag_ms, 0.99), "ms");
  report->Add("harness.trace_overhead_ratio", trace_overhead, "ratio");

  // Layer self times of the traced replay and their shares.
  double total = 0.0;
  for (double ms : self_ms) total += ms;
  for (Layer layer : {Layer::kRdf, Layer::kQuery, Layer::kCore, Layer::kTopk}) {
    const std::string name(LayerName(layer));
    const double ms = self_ms[static_cast<size_t>(layer)];
    report->Add("trace." + name + "_self_ms", ms, "ms");
    report->Add("trace." + name + "_share", Ratio(ms, total), "ratio");
  }
  const double harness_ms = self_ms[static_cast<size_t>(Layer::kHarness)];
  char note[160];
  std::snprintf(note, sizeof(note),
                "traced replay: %zu requests; harness self time %.3f ms "
                "(share %.4f)",
                traced.outcomes.size(), harness_ms, Ratio(harness_ms, total));
  report->Note(note);
}

}  // namespace

int RunServe(const WorkloadSpec& spec, const ServeArgs& args) {
  auto fail = [](const std::string& what) {
    std::fprintf(stderr, "perfbench serve: %s\n", what.c_str());
    return 1;
  };

  // Closed loops: every thread of the process, the engines' too, runs on
  // as many CPUs as the served engine has threads, so the yardstick samples
  // the CPUs that serve the requests. The open loop is not normalised, and
  // its sender, dispatcher and pool threads would crowd two CPUs.
  const std::string cpus =
      spec.loop == Loop::kClosed ? PinToCpus(spec.num_threads) : "";

  // Set-up of this process: load the prepared inputs.
  const Clock::time_point setup_start = Clock::now();
  auto setup_host = std::make_unique<HostSampler>();
  Result<Inputs> loaded = LoadInputs(args.dir);
  if (!loaded.ok()) return fail(loaded.status().ToString());
  const Inputs& in = loaded.value();
  std::string self_test;
  const bool self_test_ok = SelfTestChecker(in.refs, &self_test);
  std::printf("answer-checker self-test: %s%s\n", self_test.c_str(),
              self_test_ok ? "passed" : "FAILED");
  // Closed loops open and warm their engine as set-up; the open loop opens
  // its engine cold at the start of the timed run.
  Result<Engine::Opened> served = Status::IoError("not opened");
  if (spec.loop == Loop::kClosed) served = OpenWarm(spec, args, in);
  const double serve_setup_s =
      Ms(Clock::now() - setup_start) / 1e3 / setup_host->Stop();
  setup_host.reset();  // frees its yardstick before the peak count starts
  if (spec.loop == Loop::kOpen) served = Open(spec, args, in);
  if (!served.ok()) return fail(served.status().ToString());

  Checked checked;
  Report report;
  report.Note(cpus.empty() ? "threads not pinned"
                           : "threads pinned to CPUs " + cpus);
  Run run;
  TraceContext untraced;
  if (!ResetPeakRss()) {
    report.Note("peak_rss_mb counts from process start: /proc/self/"
                "clear_refs refused the reset");
  }
  Yardstick yardstick;
  RunTimed(spec, args, in, *served.value().engine, yardstick, &untraced,
           &run);
  run.bytes_mapped = served.value().bytes_mapped();
  for (const Outcome& o : run.outcomes) {
    Check(in, o.pair, o.strategy, o.response, &checked);
  }
  for (const Outcome& o : run.cold) {
    Check(in, o.pair, o.strategy, o.response, &checked, /*timed=*/false);
  }

  if (!args.trace) {
    AddEndToEndMetrics(spec, run, checked, args.setup_s + serve_setup_s,
                       &report);
  } else {
    // The same rounds replayed under spans, plus a probe engine for the
    // open / warm / explain spans.
    Tracer tracer(Clock::now());
    Result<double> warm_ms = TraceProbeEngine(spec, args, in, &tracer);
    if (!warm_ms.ok()) return fail(warm_ms.status().ToString());
    // Closed loops replay on the same warm engine; the open loop on a
    // fresh one opened cold again.
    if (spec.loop == Loop::kOpen) {
      const Clock::time_point start = Clock::now();
      served = Open(spec, args, in);
      tracer.Record("rdf.open", Layer::kRdf, Tracer::kNoRequest,
                    Tracer::kNoParent, start, Clock::now());
      if (!served.ok()) return fail(served.status().ToString());
    }
    TraceContext traced_ctx{&tracer, 1};
    Run traced;
    RunTimed(spec, args, in, *served.value().engine, yardstick, &traced_ctx,
             &traced);
    for (const Outcome& o : traced.outcomes) {
      Check(in, o.pair, o.strategy, o.response, &checked);
    }
    const double overhead = Ratio(Median(SlotLatencies(spec, traced)),
                                  Median(SlotLatencies(spec, run)));
    AddLayerMetrics(run, warm_ms.value(), traced, overhead,
                    tracer.SelfTimeMs(), &report);
    if (run.invalid.empty() && !traced.invalid.empty()) {
      run.invalid = "traced replay: " + traced.invalid;
    }
    if (!args.trace_out.empty()) {
      const Status written = tracer.Write(args.trace_out);
      if (!written.ok()) return fail(written.ToString());
      std::printf("trace: %zu spans written to %s\n", tracer.size(),
                  args.trace_out.c_str());
    }
  }

  const double specqp_precision = Mean(checked.specqp_precision);
  bool correct = self_test_ok && checked.failed == 0 && run.invalid.empty() &&
                 report.AllFinite();
  if (!checked.specqp_precision.empty() &&
      specqp_precision < kMinSpecQpPrecision) {
    correct = false;
    report.Note("Spec-QP precision below the paper's 0.7 bound");
  }
  char note[240];
  std::snprintf(note, sizeof(note),
                "requests checked %llu, failed %llu (wrong answers %llu), "
                "error_frac %.6f",
                static_cast<unsigned long long>(checked.attempted),
                static_cast<unsigned long long>(checked.failed),
                static_cast<unsigned long long>(checked.wrong),
                Ratio(static_cast<double>(checked.failed),
                      static_cast<double>(checked.attempted)));
  report.Note(note);
  std::snprintf(note, sizeof(note),
                "precision: Spec-QP mean %.6f over %zu, TriniT mean %.6f "
                "over %zu",
                specqp_precision, checked.specqp_precision.size(),
                Mean(checked.trinit_precision),
                checked.trinit_precision.size());
  report.Note(note);
  for (const std::string& example : checked.examples) {
    report.Note("failure: " + example);
  }
  if (!run.invalid.empty()) report.Note("RUN INVALID: " + run.invalid);

  std::printf("workload %s, seed %llu, %zu timed requests in %zu %s, "
              "%.3f s%s\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), run.outcomes.size(),
              run.rounds, spec.loop == Loop::kClosed ? "passes" : "replays",
              std::accumulate(run.round_s.begin(), run.round_s.end(), 0.0),
              args.trace ? " (traced run)" : "");
  report.PrintTable(stdout);
  std::printf("%s\n", report.ResultJson(correct, checked.attempted,
                                        checked.failed)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace specqp::perfbench
