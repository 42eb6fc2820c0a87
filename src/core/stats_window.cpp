#include "core/stats_window.h"

#include <algorithm>

#include "common/assert.h"
#include "core/sharded_controller.h"
#include "sketch/sketch_stats_window.h"

namespace skewless {

StatsWindow::StatsWindow(std::size_t num_keys, int window)
    : window_(window),
      cur_cost_(num_keys, 0.0),
      cur_state_(num_keys, 0.0),
      cur_freq_(num_keys, 0),
      last_cost_(num_keys, 0.0),
      last_freq_(num_keys, 0),
      window_sum_(num_keys, 0.0) {
  SKW_EXPECTS(window >= 1);
}

void StatsWindow::record(KeyId key, Cost cost, Bytes state_bytes,
                         std::uint64_t frequency, InstanceId /*dest*/) {
  const auto k = static_cast<std::size_t>(key);
  SKW_EXPECTS(k < cur_cost_.size());
  SKW_EXPECTS(cost >= 0.0 && state_bytes >= 0.0);
  cur_cost_[k] += cost;
  cur_state_[k] += state_bytes;
  cur_freq_[k] += frequency;
}

void StatsWindow::roll() {
  last_cost_ = cur_cost_;
  last_freq_ = cur_freq_;

  for (std::size_t k = 0; k < cur_state_.size(); ++k) {
    window_sum_[k] += cur_state_[k];
  }
  ring_.push_back(std::move(cur_state_));
  if (ring_.size() > static_cast<std::size_t>(window_)) {
    const auto& oldest = ring_.front();
    for (std::size_t k = 0; k < oldest.size(); ++k) {
      window_sum_[k] -= oldest[k];
      // Clamp tiny float residue so S never goes negative.
      if (window_sum_[k] < 0.0) window_sum_[k] = 0.0;
    }
    ring_.pop_front();
  }

  cur_state_.assign(window_sum_.size(), 0.0);
  std::fill(cur_cost_.begin(), cur_cost_.end(), 0.0);
  std::fill(cur_freq_.begin(), cur_freq_.end(), 0);
  ++closed_;
}

Bytes StatsWindow::total_windowed_state() const {
  Bytes total = 0.0;
  for (const Bytes b : window_sum_) total += b;
  return total;
}

Cost StatsWindow::last_cost_of(KeyId key) const {
  SKW_EXPECTS(key < last_cost_.size());
  return last_cost_[static_cast<std::size_t>(key)];
}

std::uint64_t StatsWindow::last_frequency_of(KeyId key) const {
  SKW_EXPECTS(key < last_freq_.size());
  return last_freq_[static_cast<std::size_t>(key)];
}

Bytes StatsWindow::windowed_state_of(KeyId key) const {
  SKW_EXPECTS(key < window_sum_.size());
  return window_sum_[static_cast<std::size_t>(key)];
}

void StatsWindow::synthesize_dense(std::vector<Cost>& cost,
                                   std::vector<Bytes>& state) const {
  cost = last_cost_;
  state = window_sum_;
}

std::size_t StatsWindow::memory_bytes() const {
  std::size_t bytes = sizeof(*this) +
                      cur_cost_.capacity() * sizeof(Cost) +
                      cur_state_.capacity() * sizeof(Bytes) +
                      cur_freq_.capacity() * sizeof(std::uint64_t) +
                      last_cost_.capacity() * sizeof(Cost) +
                      last_freq_.capacity() * sizeof(std::uint64_t) +
                      window_sum_.capacity() * sizeof(Bytes);
  for (const auto& interval : ring_) {
    bytes += sizeof(interval) + interval.capacity() * sizeof(Bytes);
  }
  return bytes;
}

void StatsWindow::resize_keys(std::size_t num_keys) {
  SKW_EXPECTS(num_keys >= cur_cost_.size());
  cur_cost_.resize(num_keys, 0.0);
  cur_state_.resize(num_keys, 0.0);
  cur_freq_.resize(num_keys, 0);
  last_cost_.resize(num_keys, 0.0);
  last_freq_.resize(num_keys, 0);
  window_sum_.resize(num_keys, 0.0);
  for (auto& interval : ring_) interval.resize(num_keys, 0.0);
}

std::unique_ptr<StatsProvider> make_stats_provider(
    StatsMode mode, std::size_t num_keys, int window,
    const SketchStatsConfig& sketch, std::size_t shards) {
  if (mode == StatsMode::kSketch) {
    return std::make_unique<ShardedSketchStats>(num_keys, window, sketch,
                                                shards);
  }
  return std::make_unique<StatsWindow>(num_keys, window);
}

}  // namespace skewless
