#include "topk/top_k.h"

#include <algorithm>

#include "topk/key_table.h"
#include "util/logging.h"

namespace specqp {

std::vector<ScoredRow> PullTopK(ScoredRowIterator* root, size_t k,
                                size_t width, ExecStats* stats) {
  SPECQP_CHECK(root != nullptr && stats != nullptr);
  std::vector<ScoredRow> out;
  out.reserve(k);
  KeyTable seen(width);
  ScoredRow row;
  while (out.size() < k && root->Next(&row)) {
    SPECQP_DCHECK(row.bindings.size() >= width &&
                  std::all_of(row.bindings.begin() + width,
                              row.bindings.end(),
                              [](TermId t) { return t == kInvalidTermId; }))
        << "root row binds a slot past the query's variables";
    bool inserted = false;
    seen.Insert(row.bindings.data(), &inserted);
    if (!inserted) continue;
    ScoredRow& kept = out.emplace_back();
    kept.bindings.assign(row.bindings.begin(), row.bindings.begin() + width);
    kept.score = row.score;
  }
  return out;
}

}  // namespace specqp
