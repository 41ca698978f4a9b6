#include "topk/key_table.h"

#include <algorithm>

#include "util/logging.h"

namespace specqp {

uint64_t KeyTable::Hash(const TermId* key, size_t width) {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < width; ++i) {
    h = (h ^ key[i]) * 0xFF51AFD7ED558CCDULL;
  }
  // MurmurHash3's finaliser, so the low bits (the home slot) and the high
  // bits (the tag) both depend on every key cell.
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

size_t KeyTable::Probe(const TermId* key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kEmpty) return i;
    if (slot.tag == tag &&
        std::equal(key, key + width_, this->key(slot.id))) {
      return i;
    }
  }
}

uint32_t KeyTable::Insert(const TermId* key, bool* inserted) {
  const uint64_t hash = Hash(key, width_);
  if (!slots_.empty()) {
    const uint32_t id = slots_[Probe(key, hash)].id;
    if (id != kEmpty) {
      *inserted = false;
      return id;
    }
  }
  // Keep the load at most one half, so probes stay short.
  if (2 * (size_t{size_} + 1) > slots_.size()) Grow();
  SPECQP_CHECK(size_ < kEmpty) << "key table full";
  Slot& slot = slots_[Probe(key, hash)];
  slot.tag = static_cast<uint32_t>(hash >> 32);
  slot.id = size_;
  keys_.insert(keys_.end(), key, key + width_);
  *inserted = true;
  return size_++;
}

void KeyTable::Grow() {
  slots_.assign(std::max<size_t>(16, 2 * slots_.size()), Slot());
  for (uint32_t id = 0; id < size_; ++id) {
    const uint64_t hash = Hash(key(id), width_);
    Slot& slot = slots_[Probe(key(id), hash)];
    slot.tag = static_cast<uint32_t>(hash >> 32);
    slot.id = id;
  }
}

}  // namespace specqp
