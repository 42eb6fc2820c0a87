// Per-key statistics collection over the sliding window of the last w
// intervals (Section II-A): frequency g_i(k), computation cost c_i(k),
// per-interval state growth s_i(k) and the windowed total S_i(k, w).
//
// The engine's load-reporting module feeds record(); the controller calls
// roll() at each interval boundary and reads the closed interval's values.
//
// This is the *exact* StatsProvider: six dense O(|K|) vectors plus a
// w-deep ring. Perfect fidelity, O(|K|) memory. For million-key domains
// use sketch mode (ShardedSketchStats over SketchStatsWindows) instead —
// the make_stats_provider factory below selects between them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sketch/stats_provider.h"

namespace skewless {

class StatsWindow final : public StatsProvider {
 public:
  /// `num_keys` = |K| (dense domain), `window` = w ≥ 1.
  StatsWindow(std::size_t num_keys, int window);

  /// Accumulates one observation for the *current* (open) interval.
  /// Contract: `key < num_keys()` is a precondition (asserts). Grow the
  /// domain with resize_keys() first; auto-grow is deliberately not done
  /// here because it would hide workload-generator bugs — only the
  /// sketch provider (which allocates nothing per key) auto-grows.
  /// `dest` is ignored: the exact provider resolves per-instance loads
  /// from the dense per-key view, not from recorded destinations.
  void record(KeyId key, Cost cost, Bytes state_bytes,
              std::uint64_t frequency = 1,
              InstanceId dest = kNilInstance) override;

  /// Closes the current interval: its values become "last interval"
  /// (c_{i-1}, g_{i-1}), enter the window sum, and the oldest interval
  /// falls out once more than w intervals are retained.
  void roll() override;

  /// c_{i-1}(k) — cost during the most recently closed interval.
  [[nodiscard]] const std::vector<Cost>& last_cost() const {
    return last_cost_;
  }

  /// g_{i-1}(k).
  [[nodiscard]] const std::vector<std::uint64_t>& last_frequency() const {
    return last_freq_;
  }

  /// S_{i-1}(k, w) — state bytes summed over the last w closed intervals.
  [[nodiscard]] const std::vector<Bytes>& windowed_state() const {
    return window_sum_;
  }

  // StatsProvider per-key accessors (exact).
  [[nodiscard]] Cost last_cost_of(KeyId key) const override;
  [[nodiscard]] std::uint64_t last_frequency_of(KeyId key) const override;
  [[nodiscard]] Bytes windowed_state_of(KeyId key) const override;

  /// Total windowed state over all keys (denominator of the paper's
  /// "migration cost %" metric).
  [[nodiscard]] Bytes total_windowed_state() const override;

  /// Dense view: straight copies of last_cost() / windowed_state().
  void synthesize_dense(std::vector<Cost>& cost,
                        std::vector<Bytes>& state) const override;

  [[nodiscard]] std::size_t num_keys() const override {
    return cur_cost_.size();
  }
  [[nodiscard]] int window() const override { return window_; }
  [[nodiscard]] IntervalId closed_intervals() const override {
    return closed_;
  }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] StatsMode mode() const override { return StatsMode::kExact; }

  /// Grows the key domain (new keys appear with zero history). Shrinking
  /// is a precondition violation: keys never leave the dense domain.
  void resize_keys(std::size_t num_keys) override;

 private:
  int window_;
  IntervalId closed_ = 0;
  std::vector<Cost> cur_cost_;
  std::vector<Bytes> cur_state_;
  std::vector<std::uint64_t> cur_freq_;
  std::vector<Cost> last_cost_;
  std::vector<std::uint64_t> last_freq_;
  std::vector<Bytes> window_sum_;
  std::deque<std::vector<Bytes>> ring_;  // closed per-interval state bytes
};

/// Builds the statistics provider selected by `mode`. In sketch mode
/// Sketch mode builds the sharded provider (ShardedSketchStats, `shards`
/// >= 1 shard-local windows absorbing concurrently; S = 1 is the single
/// window). Exact mode ignores `shards`.
[[nodiscard]] std::unique_ptr<StatsProvider> make_stats_provider(
    StatsMode mode, std::size_t num_keys, int window,
    const SketchStatsConfig& sketch = {}, std::size_t shards = 1);

}  // namespace skewless
