#include "core/routing_table.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"

namespace skewless {

bool RoutingTable::set(KeyId key, InstanceId dest) {
  SKW_EXPECTS(dest >= 0);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = dest;
    return true;
  }
  if (bounded() && entries_.size() >= max_entries_) return false;
  entries_.emplace(key, dest);
  note_insert(key);
  return true;
}

void RoutingTable::note_insert(KeyId key) {
  if (entries_.size() * kFilterBitsPerEntry > filter_mask_ + 1 &&
      filter_mask_ + 1 < kMaxFilterBits) {
    rebuild_filter();  // grown past its sizing: a bigger filter
  } else {
    set_filter_bit(key);
  }
}

void RoutingTable::note_erase() {
  if (++filter_stale_ > entries_.size()) rebuild_filter();
}

void RoutingTable::rebuild_filter() {
  const std::size_t bits = std::clamp(
      std::bit_ceil(entries_.size() * kFilterBitsPerEntry), kMinFilterBits,
      kMaxFilterBits);
  filter_.assign(bits / 64, 0);
  filter_mask_ = bits - 1;
  filter_stale_ = 0;
  for (const auto& [key, dest] : entries_) set_filter_bit(key);
}

std::vector<std::pair<KeyId, InstanceId>> RoutingTable::entries() const {
  std::vector<std::pair<KeyId, InstanceId>> out(entries_.begin(),
                                                entries_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void RoutingTable::assign(
    std::vector<std::pair<KeyId, InstanceId>> new_entries) {
  entries_.clear();
  for (auto& [k, d] : new_entries) {
    SKW_EXPECTS(d >= 0);
    entries_[k] = d;
  }
  rebuild_filter();
}

}  // namespace skewless
