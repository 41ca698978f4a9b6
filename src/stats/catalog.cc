#include "stats/catalog.h"

#include <algorithm>
#include <tuple>

#include "util/logging.h"

namespace specqp {

TwoBucketHistogram PatternStats::Histogram() const {
  SPECQP_CHECK(!empty()) << "histogram of an empty pattern";
  return TwoBucketHistogram(sigma_r, s_r / s_m, /*upper=*/1.0);
}

StatisticsCatalog::StatisticsCatalog(const TripleStore* store,
                                     PostingListCache* postings,
                                     double head_fraction)
    : store_(store), postings_(postings), head_fraction_(head_fraction) {
  SPECQP_CHECK(store_ != nullptr && postings_ != nullptr);
  SPECQP_CHECK(head_fraction_ > 0.0 && head_fraction_ < 1.0);
}

const PatternStats& StatisticsCatalog::GetStats(const PatternKey& key) {
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(key, Compute(key)).first->second;
}

PatternStats StatisticsCatalog::Compute(const PatternKey& key) {
  const auto list = postings_->Get(key);
  PatternStats stats;
  stats.m = list->size();
  if (list->empty()) return stats;

  double total = 0.0;
  for (BlockIterator it(&*list); !it.AtEnd(); it.Advance()) {
    total += it.Entry().score;
  }
  stats.s_m = total;
  if (total <= 0.0) return stats;

  double acc = 0.0;
  double last_score = 0.0;
  for (BlockIterator it(&*list); !it.AtEnd(); it.Advance()) {
    last_score = it.Entry().score;
    acc += last_score;
    if (acc >= head_fraction_ * total) {
      stats.sigma_r = last_score;
      stats.s_r = acc;
      return stats;
    }
  }
  // Fell through only via floating-point slack; use the full list.
  stats.sigma_r = last_score;
  stats.s_r = acc;
  return stats;
}

std::vector<v2::StatsEntry> StatisticsCatalog::Snapshot() const {
  std::vector<v2::StatsEntry> rows;
  rows.reserve(cache_.size());
  for (const auto& [key, stats] : cache_) {
    rows.push_back(v2::StatsEntry{key.s, key.p, key.o, /*reserved=*/0,
                                  stats.m, stats.sigma_r, stats.s_r,
                                  stats.s_m});
  }
  std::sort(rows.begin(), rows.end(),
            [](const v2::StatsEntry& a, const v2::StatsEntry& b) {
              return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
            });
  return rows;
}

size_t StatisticsCatalog::Preload(std::span<const v2::StatsEntry> entries) {
  size_t inserted = 0;
  for (const v2::StatsEntry& row : entries) {
    PatternStats stats;
    stats.m = row.m;
    stats.sigma_r = row.sigma_r;
    stats.s_r = row.s_r;
    stats.s_m = row.s_m;
    inserted +=
        cache_.emplace(PatternKey{row.s, row.p, row.o}, stats).second ? 1 : 0;
  }
  return inserted;
}

}  // namespace specqp
