// The explicit routing table A of the paper's mixed routing strategy:
// a bounded map from KeyId to destination instance. Keys absent from the
// table fall through to the hash function (see AssignmentFunction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace skewless {

class RoutingTable {
 public:
  /// `max_entries` = Amax in the paper; 0 means unbounded (used by MinMig,
  /// which the paper notes "can not control the size of routing tables").
  explicit RoutingTable(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// Destination for `key` if an entry exists.
  [[nodiscard]] std::optional<InstanceId> lookup(KeyId key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Batched lookup for the router: overwrites out[i] with the entry for
  /// keys[i] where the table holds one and leaves the rest (the caller's
  /// hash default — see AssignmentFunction::route_batch) unchanged. A key
  /// whose filter bit is clear is not in the table, so most keys skip
  /// the map probe.
  void override_batch(const KeyId* keys, std::size_t n,
                      InstanceId* out) const {
    if (entries_.empty()) return;
    for (std::size_t i = 0; i < n; ++i) {
      if (!maybe_present(keys[i])) continue;
      const auto it = entries_.find(keys[i]);
      if (it != entries_.end()) out[i] = it->second;
    }
  }

  /// Inserts or updates an entry. Returns false (no-op) if inserting a new
  /// key would exceed the bound.
  bool set(KeyId key, InstanceId dest);

  /// Inserts or updates an entry regardless of the bound — the sparse
  /// equivalent of assign()'s wholesale replacement, used when installing
  /// a rebalance plan (planners may deliberately exceed Amax when no
  /// feasible plan exists; the plan's table_fits flag reports it).
  void set_unchecked(KeyId key, InstanceId dest) {
    const auto [it, inserted] = entries_.try_emplace(key, dest);
    if (inserted) {
      note_insert(key);
    } else {
      it->second = dest;
    }
  }

  /// Removes the entry for `key` ("move back" in the paper). Returns true
  /// if an entry was removed.
  bool erase(KeyId key) {
    if (entries_.erase(key) == 0) return false;
    note_erase();
    return true;
  }

  void clear() {
    entries_.clear();
    rebuild_filter();
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] bool bounded() const { return max_entries_ > 0; }

  /// Snapshot of all entries (sorted by key for deterministic iteration).
  [[nodiscard]] std::vector<std::pair<KeyId, InstanceId>> entries() const;

  /// Replaces the whole table (used when installing a rebalance plan).
  void assign(std::vector<std::pair<KeyId, InstanceId>> new_entries);

 private:
  // Membership filter: one bit per slot of mix64(key), set for every key
  // in the table (a bit may also be set by a key erased since the last
  // rebuild — the filter only ever over-approximates). Sized to about
  // 1.5 % false positives, and rebuilt when the table outgrows it or
  // once erases since the last rebuild outnumber the entries.
  static constexpr std::size_t kFilterBitsPerEntry = 64;
  static constexpr std::size_t kMinFilterBits = 1024;
  static constexpr std::size_t kMaxFilterBits = std::size_t{1} << 22;

  [[nodiscard]] bool maybe_present(KeyId key) const {
    const std::uint64_t bit = mix64(key) & filter_mask_;
    return ((filter_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
  void set_filter_bit(KeyId key) {
    const std::uint64_t bit = mix64(key) & filter_mask_;
    filter_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  void note_insert(KeyId key);
  void note_erase();
  void rebuild_filter();

  std::unordered_map<KeyId, InstanceId> entries_;
  std::size_t max_entries_;
  std::vector<std::uint64_t> filter_;
  std::uint64_t filter_mask_ = 0;  // filter bits - 1
  std::size_t filter_stale_ = 0;   // erases since the last rebuild
};

}  // namespace skewless
