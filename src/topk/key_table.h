#ifndef SPECQP_TOPK_KEY_TABLE_H_
#define SPECQP_TOPK_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rdf/term.h"

namespace specqp {

// Open-addressing set of fixed-width TermId keys: the one hash structure of
// the operator core. RankJoin indexes both inputs on their join-variable
// values; IncrementalMerge and PullTopK deduplicate on the bound slots.
//
// Keys are copied into one flat array, `width` TermIds each, in insertion
// order, so a key's id is its insertion rank and callers keep per-key state
// in arrays indexed by id. A hash slot holds only the key's hash tag and
// id; linear probing compares key cells only on a tag match. The width is
// fixed at construction and may be 0, in which case every key is the same
// key (RankJoin's cross product).
class KeyTable {
 public:
  explicit KeyTable(size_t width = 0) : width_(width) {}

  size_t size() const { return size_; }
  // Hash slots (a power of two; 0 until the first insert).
  size_t capacity() const { return slots_.size(); }

  // Id of `key` (as many TermIds as the table's width), inserting it
  // first if absent; `*inserted` says which happened.
  uint32_t Insert(const TermId* key, bool* inserted);
  const TermId* key(uint32_t id) const { return keys_.data() + id * width_; }

  // The hash Insert uses; its low bits pick the home slot.
  static uint64_t Hash(const TermId* key, size_t width);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    uint32_t tag = 0;          // high half of the key's hash
    uint32_t id = kEmpty;
  };

  // Index of the slot holding `key`, or of the empty slot ending its probe.
  size_t Probe(const TermId* key, uint64_t hash) const;
  void Grow();

  size_t width_;
  uint32_t size_ = 0;
  std::vector<TermId> keys_;
  std::vector<Slot> slots_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_KEY_TABLE_H_
