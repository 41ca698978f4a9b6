#include "answers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace specqp::perfbench {
namespace {

// Oracle and engine sum the same per-pattern scores in different orders.
constexpr double kScoreTolerance = 1e-9;

constexpr char kMagic[] = "specqp-perfbench-refs";
constexpr int kVersion = 1;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void WriteRow(std::ostream& out, const ScoredRow& row) {
  char score[64];
  std::snprintf(score, sizeof(score), "%a", row.score);
  out << score << ' ' << row.bindings.size();
  for (TermId id : row.bindings) out << ' ' << id;
  out << '\n';
}

bool ReadRow(std::istream& in, ScoredRow* row) {
  std::string score;
  size_t width = 0;
  if (!(in >> score >> width)) return false;
  row->score = std::strtod(score.c_str(), nullptr);
  row->bindings.resize(width);
  for (TermId& id : row->bindings) {
    if (!(in >> id)) return false;
  }
  return true;
}

bool InTruthSet(const Reference& ref, const std::vector<TermId>& bindings) {
  return std::binary_search(ref.truth_set.begin(), ref.truth_set.end(),
                            bindings);
}

double Precision(const Reference& ref, size_t k,
                 const std::vector<ScoredRow>& rows) {
  const size_t denom = ref.truth_top.size();
  if (denom == 0) return rows.empty() ? 1.0 : 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < rows.size() && i < k; ++i) {
    if (InTruthSet(ref, rows[i].bindings)) ++hits;
  }
  return static_cast<double>(std::min(hits, denom)) /
         static_cast<double>(denom);
}

}  // namespace

Reference OracleReference(const ExhaustiveEvaluator::EvalResult& truth,
                          size_t k) {
  Reference ref;
  const size_t top = std::min(k, truth.answers.size());
  for (size_t i = 0; i < top; ++i) {
    ScoredRow row;
    row.bindings = truth.answers[i].bindings;
    row.score = truth.answers[i].score;
    ref.truth_top.push_back(std::move(row));
  }
  if (top > 0) {
    const double kth = truth.answers[top - 1].score;
    for (const auto& answer : truth.answers) {
      if (answer.score < kth - kScoreTolerance) break;
      ref.truth_set.push_back(answer.bindings);
    }
    std::sort(ref.truth_set.begin(), ref.truth_set.end());
  }
  return ref;
}

Status WriteReferences(const std::string& path,
                       const std::vector<Reference>& refs) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  out << kMagic << ' ' << kVersion << ' ' << refs.size() << '\n';
  for (const Reference& ref : refs) {
    out << "pair " << ref.truth_top.size() << ' ' << ref.truth_set.size()
        << ' ' << (ref.has_serial ? 1 : 0) << ' ' << ref.serial.size()
        << '\n';
    for (const ScoredRow& row : ref.truth_top) WriteRow(out, row);
    for (const auto& bindings : ref.truth_set) {
      out << bindings.size();
      for (TermId id : bindings) out << ' ' << id;
      out << '\n';
    }
    for (const ScoredRow& row : ref.serial) WriteRow(out, row);
  }
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::Ok();
}

Result<std::vector<Reference>> ReadReferences(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read " + path);
  std::string magic;
  int version = 0;
  size_t count = 0;
  if (!(in >> magic >> version >> count) || magic != kMagic ||
      version != kVersion) {
    return Status::Corruption(path + ": not a reference file");
  }
  std::vector<Reference> refs(count);
  for (Reference& ref : refs) {
    std::string tag;
    size_t top = 0, set = 0, serial = 0;
    int has_serial = 0;
    if (!(in >> tag >> top >> set >> has_serial >> serial) || tag != "pair") {
      return Status::Corruption(path + ": bad pair header");
    }
    ref.has_serial = has_serial != 0;
    ref.truth_top.resize(top);
    for (ScoredRow& row : ref.truth_top) {
      if (!ReadRow(in, &row)) return Status::Corruption(path + ": bad row");
    }
    ref.truth_set.resize(set);
    for (auto& bindings : ref.truth_set) {
      size_t width = 0;
      if (!(in >> width)) return Status::Corruption(path + ": bad binding");
      bindings.resize(width);
      for (TermId& id : bindings) {
        if (!(in >> id)) return Status::Corruption(path + ": bad binding");
      }
    }
    ref.serial.resize(serial);
    for (ScoredRow& row : ref.serial) {
      if (!ReadRow(in, &row)) return Status::Corruption(path + ": bad row");
    }
  }
  return refs;
}

Verdict CheckAnswer(const Reference& ref, Strategy strategy, size_t k,
                    const std::vector<ScoredRow>& rows) {
  Verdict verdict;
  verdict.precision = Precision(ref, k, rows);
  auto fail = [&verdict](std::string why) {
    verdict.ok = false;
    verdict.why = std::move(why);
    return verdict;
  };
  if (rows.size() > k) return fail("more than k rows");

  if (strategy == Strategy::kTrinit) {
    if (rows.size() != ref.truth_top.size()) {
      return fail("TriniT returned " + std::to_string(rows.size()) +
                  " rows, oracle has " + std::to_string(ref.truth_top.size()));
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      const double want = ref.truth_top[i].score;
      if (std::abs(rows[i].score - want) >
          kScoreTolerance * std::max(1.0, std::abs(want))) {
        return fail("TriniT score differs from the oracle at rank " +
                    std::to_string(i));
      }
      if (!InTruthSet(ref, rows[i].bindings)) {
        return fail("TriniT row " + std::to_string(i) +
                    " is not in the oracle's top-k");
      }
    }
    return verdict;
  }

  if (!ref.has_serial) return fail("no serial reference for Spec-QP");
  if (rows.size() != ref.serial.size()) {
    return fail("Spec-QP returned " + std::to_string(rows.size()) +
                " rows, serial reference has " +
                std::to_string(ref.serial.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].bindings != ref.serial[i].bindings ||
        !SameBits(rows[i].score, ref.serial[i].score)) {
      return fail("Spec-QP row " + std::to_string(i) +
                  " differs from the serial reference");
    }
  }
  return verdict;
}

bool SelfTestChecker(const std::vector<Reference>& refs, std::string* report) {
  std::ostringstream out;
  bool passed = true;
  int tested = 0;
  auto probe = [&](const Reference& ref, Strategy strategy,
                   const std::vector<ScoredRow>& answer, size_t k) {
    ++tested;
    const char* name = strategy == Strategy::kTrinit ? "TriniT" : "Spec-QP";
    if (!CheckAnswer(ref, strategy, k, answer).ok) {
      out << name << " reference answer rejected; ";
      passed = false;
    }
    std::vector<ScoredRow> bad_binding = answer;
    bad_binding.front().bindings.front() ^= 0x5a5a5a5aU;
    std::vector<ScoredRow> bad_score = answer;
    bad_score.front().score = std::nextafter(bad_score.front().score, 1e300);
    if (strategy == Strategy::kTrinit) bad_score.front().score += 1.0;
    const bool caught_binding =
        !CheckAnswer(ref, strategy, k, bad_binding).ok;
    const bool caught_score = !CheckAnswer(ref, strategy, k, bad_score).ok;
    out << name << ": perturbed binding "
        << (caught_binding ? "caught" : "MISSED") << ", perturbed score "
        << (caught_score ? "caught" : "MISSED") << "; ";
    passed = passed && caught_binding && caught_score;
  };

  for (const Reference& ref : refs) {
    if (ref.has_serial && !ref.serial.empty() &&
        !ref.serial.front().bindings.empty()) {
      probe(ref, Strategy::kSpecQp, ref.serial, ref.serial.size());
      break;
    }
  }
  for (const Reference& ref : refs) {
    if (!ref.truth_top.empty() && !ref.truth_top.front().bindings.empty()) {
      probe(ref, Strategy::kTrinit, ref.truth_top, ref.truth_top.size());
      break;
    }
  }
  if (tested == 0) {
    out << "no non-empty reference to perturb";
    passed = false;
  }
  *report = out.str();
  return passed;
}

}  // namespace specqp::perfbench
