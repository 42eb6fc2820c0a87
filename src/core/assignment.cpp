#include "core/assignment.h"

#include "common/assert.h"

namespace skewless {

void AssignmentFunction::route_batch(const KeyId* keys, std::size_t n,
                                     InstanceId* out) const {
  // The ring default for every key in ONE batched pass, then the table's
  // few entries on top: hashing the rare table hits too is cheaper than
  // gathering the misses.
  ring_.owner_batch(keys, n, out);
  table_.override_batch(keys, n, out);
  if (!survivors_.empty()) {
    // Degraded mode: re-home any destination that points at a retired
    // instance. One predictable post-pass; the common (healthy) case
    // pays a single branch above.
    for (std::size_t i = 0; i < n; ++i) out[i] = resolve(out[i], keys[i]);
  }
}

std::vector<InstanceId> AssignmentFunction::materialize(
    std::size_t num_keys) const {
  std::vector<InstanceId> out(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    out[k] = (*this)(static_cast<KeyId>(k));
  }
  return out;
}

std::vector<InstanceId> AssignmentFunction::materialize_hash(
    std::size_t num_keys) const {
  std::vector<InstanceId> out(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    out[k] = ring_.owner(static_cast<KeyId>(k));
  }
  return out;
}

void AssignmentFunction::install(const std::vector<InstanceId>& assignment) {
  std::vector<std::pair<KeyId, InstanceId>> entries;
  for (std::size_t k = 0; k < assignment.size(); ++k) {
    const auto key = static_cast<KeyId>(k);
    SKW_EXPECTS(assignment[k] >= 0 && assignment[k] < num_instances());
    if (assignment[k] != ring_.owner(key)) {
      entries.emplace_back(key, assignment[k]);
    }
  }
  table_.assign(std::move(entries));
}

void AssignmentFunction::apply(KeyId key, InstanceId dest) {
  SKW_EXPECTS(dest >= 0 && dest < num_instances());
  if (dest == ring_.owner(key)) {
    table_.erase(key);
  } else {
    table_.set_unchecked(key, dest);
  }
}

std::vector<KeyId> assignment_delta(const std::vector<InstanceId>& before,
                                    const std::vector<InstanceId>& after) {
  SKW_EXPECTS(before.size() == after.size());
  std::vector<KeyId> delta;
  for (std::size_t k = 0; k < before.size(); ++k) {
    if (before[k] != after[k]) delta.push_back(static_cast<KeyId>(k));
  }
  return delta;
}

}  // namespace skewless
