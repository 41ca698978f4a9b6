#ifndef SPECQP_TOPK_EXEC_STATS_H_
#define SPECQP_TOPK_EXEC_STATS_H_

#include <algorithm>
#include <cstdint>

namespace specqp {

// Counters shared by all operators of one query execution.
//
// `answer_objects` is the paper's memory metric (section 4.3): every
// intermediate answer object materialised during processing. Our counting
// policy (identical for both engines, so the T-vs-S comparison is
// apples-to-apples):
//   - +1 per row materialised from a posting list by a PatternScan, and
//   - +1 per join result constructed by a RankJoin.
// IncrementalMerge forwards scan rows without constructing new objects, so
// its traffic is visible through the scan counter.
//
// Under parallel execution each partition tree writes to its own ExecStats
// (handed out by ExecContext::ForPartition), so no counter is ever shared
// between threads; the per-partition counters are folded back into the
// root stats with operator+= once the query has finished.
struct ExecStats {
  uint64_t answer_objects = 0;
  uint64_t scan_rows = 0;        // rows emitted by pattern scans
  uint64_t merge_rows = 0;       // rows emitted by incremental merges
  uint64_t merge_duplicates = 0; // rows suppressed by merge dedup
  uint64_t join_results = 0;     // rows constructed by rank joins
  uint64_t join_hash_probes = 0;
  uint64_t parallel_partitions = 0;    // partition trees built (0 = serial)
  uint64_t parallel_refill_rounds = 0; // fork-join refills by the top merger
  uint64_t blocks_decoded = 0;  // posting blocks materialised by scans
  uint64_t blocks_skipped = 0;  // posting blocks bypassed via headers

  // Degraded-read ledger (rdf/sharded_store.h). store_faults counts
  // posting-block decode failures observed by scans during this query —
  // nonzero means the answer was computed over damaged data and the
  // engine fails the query with IoError. shards_failed / shards_total
  // record the quarantine state the query was served under: failed > 0
  // with an OK status means a degraded (partial = true) answer covering
  // only the surviving shards.
  uint64_t store_faults = 0;
  uint64_t shards_failed = 0;
  uint64_t shards_total = 0;

  double plan_ms = 0.0;
  double exec_ms = 0.0;

  void Reset() { *this = ExecStats(); }

  ExecStats& operator+=(const ExecStats& other) {
    answer_objects += other.answer_objects;
    scan_rows += other.scan_rows;
    merge_rows += other.merge_rows;
    merge_duplicates += other.merge_duplicates;
    join_results += other.join_results;
    join_hash_probes += other.join_hash_probes;
    parallel_partitions += other.parallel_partitions;
    parallel_refill_rounds += other.parallel_refill_rounds;
    blocks_decoded += other.blocks_decoded;
    blocks_skipped += other.blocks_skipped;
    store_faults += other.store_faults;
    // shards_failed / shards_total describe the serving state, not work
    // done by a partition; the root query's snapshot wins, so folding a
    // partition in must not double them.
    shards_failed = std::max(shards_failed, other.shards_failed);
    shards_total = std::max(shards_total, other.shards_total);
    plan_ms += other.plan_ms;
    exec_ms += other.exec_ms;
    return *this;
  }
};

}  // namespace specqp

#endif  // SPECQP_TOPK_EXEC_STATS_H_
