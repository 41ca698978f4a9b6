#include "core/exhaustive.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "rdf/posting_list.h"
#include "topk/scored_row.h"
#include "util/logging.h"

namespace specqp {

namespace {

// FNV-1a over a binding vector.
struct BindingsHash {
  size_t operator()(const std::vector<TermId>& b) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (TermId t : b) {
      h ^= t;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Best derivations of one pattern-level match: overall maximum (Definition
// 8) and the best through the original pattern only.
struct Derivation {
  double best = 0.0;
  double original = ExhaustiveEvaluator::Answer::kNoOriginal;
};

using MatchMap =
    std::unordered_map<std::vector<TermId>, Derivation, BindingsHash>;

// A partially-joined answer.
struct Partial {
  std::vector<TermId> bindings;
  double score = 0.0;
  std::vector<double> best_scores;      // per pattern
  std::vector<double> original_scores;  // per pattern
};

std::vector<TermId> BindPattern(const TriplePattern& q, const Triple& t,
                                size_t width) {
  std::vector<TermId> bindings(width, kInvalidTermId);
  if (q.s.is_variable()) bindings[q.s.var()] = t.s;
  if (q.p.is_variable()) bindings[q.p.var()] = t.p;
  if (q.o.is_variable()) bindings[q.o.var()] = t.o;
  return bindings;
}

}  // namespace

ExhaustiveEvaluator::ExhaustiveEvaluator(const TripleStore* store,
                                         const RelaxationIndex* rules)
    : store_(store), rules_(rules) {
  SPECQP_CHECK(store_ != nullptr && rules_ != nullptr);
}

ExhaustiveEvaluator::EvalResult ExhaustiveEvaluator::Evaluate(
    const Query& query) const {
  const size_t width = query.num_vars();
  const size_t num_patterns = query.num_patterns();

  // Step 1: per pattern, the best derivation of each distinct binding
  // across the original pattern and all of its relaxations.
  std::vector<MatchMap> per_pattern(num_patterns);
  for (size_t i = 0; i < num_patterns; ++i) {
    const TriplePattern& q = query.pattern(i);
    MatchMap& map = per_pattern[i];

    auto absorb = [&](const TriplePattern& concrete, double weight,
                      bool is_original) {
      const PostingList list = BuildPostingList(*store_, concrete.Key());
      for (BlockIterator iter(&list); !iter.AtEnd(); iter.Advance()) {
        const PostingEntry& entry = iter.Entry();
        const Triple& t = store_->triple(entry.triple_index);
        if (!ConsistentMatch(concrete, t)) continue;
        const double score = weight * entry.score;
        std::vector<TermId> bindings = BindPattern(concrete, t, width);
        Derivation& d = map[std::move(bindings)];
        d.best = std::max(d.best, score);
        if (is_original) d.original = std::max(d.original, score);
      }
    };

    absorb(q, 1.0, /*is_original=*/true);
    for (const RelaxationRule& rule : rules_->RulesFor(q.Key())) {
      auto relaxed = ApplyRule(q, rule);
      SPECQP_CHECK(relaxed.ok()) << relaxed.status().ToString();
      absorb(relaxed.value(), rule.weight, /*is_original=*/false);
    }

    // Chain relaxations: a subject matches through (?s p1 ?z)(?z p2 o2)
    // with contribution (w/2)·(S(t1|hop1) + S(t2|hop2)); hop scores are
    // normalised exactly as the operators normalise them — over the full
    // hop pattern match sets.
    if (q.s.is_variable()) {
      for (const ChainRelaxationRule& rule :
           rules_->ChainRulesFor(q.Key())) {
        const PatternKey hop1_key{kInvalidTermId, rule.hop1_predicate,
                                  kInvalidTermId};
        const PatternKey hop2_key{kInvalidTermId, rule.hop2_predicate,
                                  rule.hop2_object};
        const double hop1_max = store_->MaxScore(hop1_key);
        if (hop1_max <= 0.0) continue;
        const PostingList hop2 = BuildPostingList(*store_, hop2_key);
        for (BlockIterator iter(&hop2); !iter.AtEnd(); iter.Advance()) {
          const PostingEntry& entry = iter.Entry();
          const TermId z = store_->triple(entry.triple_index).s;
          const PatternKey hop1_z{kInvalidTermId, rule.hop1_predicate, z};
          for (uint32_t idx : store_->MatchIndices(hop1_z)) {
            const Triple& t1 = store_->triple(idx);
            const double s1 = t1.score / hop1_max;
            const double score =
                rule.weight / 2.0 * (s1 + entry.score);
            std::vector<TermId> bindings(width, kInvalidTermId);
            bindings[q.s.var()] = t1.s;
            Derivation& d = map[std::move(bindings)];
            d.best = std::max(d.best, score);
          }
        }
      }
    }
  }

  // Step 2: hash-join the patterns, smallest-first among those connected to
  // the joined prefix (plain full materialisation; this evaluator is the
  // oracle, not the system under test).
  std::vector<size_t> remaining(num_patterns);
  for (size_t i = 0; i < num_patterns; ++i) remaining[i] = i;
  std::sort(remaining.begin(), remaining.end(), [&](size_t a, size_t b) {
    return per_pattern[a].size() < per_pattern[b].size();
  });

  std::vector<Partial> current;
  std::vector<bool> bound(width, false);

  auto bind_vars_of = [&](size_t pattern_index) {
    VarId vars[3];
    const int n = query.pattern(pattern_index).Variables(vars);
    for (int v = 0; v < n; ++v) bound[vars[v]] = true;
  };

  // Seed with the smallest pattern.
  {
    const size_t first = remaining.front();
    remaining.erase(remaining.begin());
    current.reserve(per_pattern[first].size());
    for (const auto& [bindings, derivation] : per_pattern[first]) {
      Partial p;
      p.bindings = bindings;
      p.score = derivation.best;
      p.best_scores.assign(num_patterns, 0.0);
      p.original_scores.assign(num_patterns, 0.0);
      p.best_scores[first] = derivation.best;
      p.original_scores[first] = derivation.original;
      current.push_back(std::move(p));
    }
    bind_vars_of(first);
  }

  while (!remaining.empty()) {
    // Prefer a connected pattern; fall back to the smallest remaining.
    size_t pick_pos = 0;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      VarId vars[3];
      const int n = query.pattern(remaining[pos]).Variables(vars);
      bool connected = false;
      for (int v = 0; v < n; ++v) connected |= bound[vars[v]];
      if (connected) {
        pick_pos = pos;
        break;
      }
    }
    const size_t next = remaining[pick_pos];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick_pos));

    // Join keys: variables of `next` already bound.
    VarId vars[3];
    const int nv = query.pattern(next).Variables(vars);
    std::vector<VarId> join_vars;
    for (int v = 0; v < nv; ++v) {
      if (bound[vars[v]]) join_vars.push_back(vars[v]);
    }

    // Index the (usually smaller) pattern side on the join key.
    std::unordered_map<std::vector<TermId>,
                       std::vector<const std::pair<const std::vector<TermId>,
                                                   Derivation>*>,
                       BindingsHash>
        side_index;
    for (const auto& entry : per_pattern[next]) {
      std::vector<TermId> key;
      key.reserve(join_vars.size());
      for (VarId v : join_vars) key.push_back(entry.first[v]);
      side_index[std::move(key)].push_back(&entry);
    }

    std::vector<Partial> joined;
    for (Partial& partial : current) {
      std::vector<TermId> key;
      key.reserve(join_vars.size());
      for (VarId v : join_vars) key.push_back(partial.bindings[v]);
      auto it = side_index.find(key);
      if (it == side_index.end()) continue;
      for (const auto* entry : it->second) {
        Partial merged = partial;
        merged.score += entry->second.best;
        merged.best_scores[next] = entry->second.best;
        merged.original_scores[next] = entry->second.original;
        for (size_t v = 0; v < width; ++v) {
          if (entry->first[v] != kInvalidTermId) {
            merged.bindings[v] = entry->first[v];
          }
        }
        joined.push_back(std::move(merged));
      }
    }
    current = std::move(joined);
    bind_vars_of(next);
  }

  EvalResult result;
  result.answers.reserve(current.size());
  for (Partial& p : current) {
    result.answers.push_back(Answer{std::move(p.bindings), p.score,
                                    std::move(p.best_scores),
                                    std::move(p.original_scores)});
  }
  std::sort(result.answers.begin(), result.answers.end(),
            [](const Answer& a, const Answer& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.bindings < b.bindings;
            });
  return result;
}

std::vector<size_t> ExhaustiveEvaluator::EvalResult::RequiredRelaxations(
    size_t k) const {
  if (answers.empty()) return {};
  const size_t num_patterns = answers.front().best_scores.size();

  // The true top-k binding set.
  std::set<std::vector<TermId>> full_top;
  for (size_t i = 0; i < answers.size() && i < k; ++i) {
    full_top.insert(answers[i].bindings);
  }

  std::vector<size_t> required;
  for (size_t p = 0; p < num_patterns; ++p) {
    // Re-rank with pattern p's relaxations disabled: answers score through
    // p's original pattern only; answers with no original match vanish.
    std::vector<std::pair<double, const std::vector<TermId>*>> alt;
    alt.reserve(answers.size());
    for (const Answer& a : answers) {
      if (a.original_scores[p] == Answer::kNoOriginal) continue;
      const double score = a.score - a.best_scores[p] + a.original_scores[p];
      alt.emplace_back(score, &a.bindings);
    }
    const size_t take = std::min(k, alt.size());
    std::partial_sort(
        alt.begin(), alt.begin() + static_cast<ptrdiff_t>(take), alt.end(),
        [](const auto& x, const auto& y) {
          if (x.first != y.first) return x.first > y.first;
          return *x.second < *y.second;
        });
    bool same = (take == full_top.size());
    for (size_t i = 0; same && i < take; ++i) {
      same = full_top.count(*alt[i].second) > 0;
    }
    if (!same) required.push_back(p);
  }
  return required;
}

}  // namespace specqp
