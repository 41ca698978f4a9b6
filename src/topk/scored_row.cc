#include "topk/scored_row.h"

#include <algorithm>

#include "util/string_util.h"

namespace specqp {

bool RowBefore(const ScoredRow& a, const ScoredRow& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.bindings < b.bindings;
}

std::string RowToString(const ScoredRow& row, const Query& query,
                        const Dictionary& dict) {
  std::string out;
  // Rows can carry trailing scratch slots (chain-relaxation variables);
  // only the query's own variables are printable.
  const size_t printable = std::min(row.bindings.size(), query.num_vars());
  for (size_t v = 0; v < printable; ++v) {
    if (row.bindings[v] == kInvalidTermId) continue;
    if (!out.empty()) out += " ";
    std::string_view var = query.var_name(static_cast<VarId>(v));
    std::string_view val = dict.Name(row.bindings[v]);
    out += StrFormat("?%.*s=<%.*s>", static_cast<int>(var.size()), var.data(),
                     static_cast<int>(val.size()), val.data());
  }
  out += StrFormat(" (score %s)", DoubleToString(row.score).c_str());
  return out;
}

}  // namespace specqp
