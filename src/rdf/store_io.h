#ifndef SPECQP_RDF_STORE_IO_H_
#define SPECQP_RDF_STORE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "util/result.h"
#include "util/status.h"

namespace specqp {

// Serialised store files. The byte-level format specification
// ("SQPSTOR3") lives in docs/FORMATS.md; the shared record structs live in
// rdf/store_format.h.
//
// Public API contract:
//
//  * SaveStore writes a section-table layout whose sections (dictionary,
//    triple array, POS/OSP permutation indexes, block-compressed
//    per-predicate posting lists, optional statistics snapshot) can be
//    memory-mapped and used in place by MmapStore (rdf/mmap_store.h) with
//    no per-triple parsing. Posting lists are stored block-compressed
//    (rdf/posting_blocks.h) and decoded block-by-block on demand. The SPO
//    order needs no section: it is the triple array's own order. Requires
//    a finalized store; deterministic byte-for-byte for a given store +
//    options.
//  * LoadStore maps the file, re-verifies every section checksum and
//    value invariant, and materialises an owned, finalized TripleStore —
//    the reference backend tests compare the zero-copy path against. For
//    the O(ms) zero-copy path use MmapStore::Open instead.
//
// All load paths return Status::Corruption on malformed input (bad magic,
// a retired SQPSTOR1/SQPSTOR2 file, truncation, checksum mismatch,
// misaligned or overlapping sections, out-of-range ids) and never
// CHECK-fail on untrusted bytes.

struct SaveStoreOptions {
  // Optional statistics snapshot (section kStats): the memoised
  // PatternStats rows of a StatisticsCatalog, exported via
  // StatisticsCatalog::Snapshot(). Rows are written sorted by key;
  // head_fraction records the 80/20 boundary they were computed under so
  // loaders only reuse them for a matching engine configuration.
  std::vector<v2::StatsEntry> stats;
  double stats_head_fraction = 0.0;
};

[[nodiscard]] Status SaveStore(const TripleStore& store, const std::string& path,
                 const SaveStoreOptions& options = {});

[[nodiscard]] Result<TripleStore> LoadStore(const std::string& path);

}  // namespace specqp

#endif  // SPECQP_RDF_STORE_IO_H_
