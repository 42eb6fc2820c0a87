// What the benchmark computes from its own generated input, to check the
// engines' outputs against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/plan.h"
#include "probes.h"

namespace perfbench {

/// The value ThreadedEngine/NetEngine::state_checksum() must report after
/// WordCountLogic has processed `intervals` as expanded by the engines'
/// run() (the c-th tuple of key k in an interval carries value c):
///   Σ_k mix64(k ^ mix64(count_k · 0x9e37 + sum_k)),
/// over keys with count_k > 0; `entries` receives their number.
[[nodiscard]] std::uint64_t expected_checksum(
    const std::vector<SparseInterval>& intervals, std::size_t num_keys,
    std::size_t* entries);

/// Realized max θ of every interval: per-instance tuple counts under the
/// assignment in force during that interval, max_d |L(d) − L̄| / L̄ —
/// the same formula as PartitionSnapshot::max_theta. `initial` is F over
/// the dense key domain before the first interval; `moves_after[i]` (null
/// when boundary i migrated nothing) is applied after interval i.
[[nodiscard]] std::vector<double> realized_theta(
    const std::vector<SparseInterval>& intervals,
    std::vector<skewless::InstanceId> initial,
    const std::vector<const std::vector<skewless::KeyMove>*>& moves_after,
    skewless::InstanceId instances);

/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
