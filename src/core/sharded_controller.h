// ShardedSketchStats — the sharded controller's statistics tier: S
// shard-local SketchStatsWindows (shard = stable hash of the KeyId, the
// same shard_of_key every layer uses) behind the StatsProvider seam, so
// the Controller, the planners and both engines see ONE provider while
// the boundary merge fans out across shards concurrently.
//
// Concurrency model: a sealed epoch is the shard-boundary unit. The
// engines absorb workers in worker-index order (unchanged), and each
// absorb_slab call hands section s of that worker's ShardedWorkerSlab to
// shard window s on a small persistent thread pool — shard windows are
// disjoint (a key's whole history lives in exactly one shard), so the
// only ordering that matters for determinism is the per-shard absorb
// order, which the sequential worker loop fixes. roll() and the dense /
// compact synthesis fan out the same way.
//
// Global tier: synthesize_compact runs the S per-shard compact views
// concurrently, then concatenates the heavy entries (re-sorted by key —
// shards hold disjoint keys, so this is a permutation, not a merge) and
// element-wise sums the per-instance cold residual vectors in shard
// order 0..S-1 (fixed FP summation order). O(S·(k/S + N_D)) = O(k + S·N_D)
// work, never O(|K|). The concatenated snapshot feeds the existing
// planner stack untouched.
//
// S = 1 is an explicit identity: every path short-circuits to the single
// window inline (no pool threads exist), so a shards=1 run plans exactly
// as one SketchStatsWindow would — plan-history digest, θ bit patterns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sketch/sharded_worker_slab.h"
#include "sketch/sketch_stats_window.h"
#include "sketch/slab_sink.h"
#include "sketch/stats_provider.h"

namespace skewless {

/// A small persistent fork-join pool: run(n, fn) executes fn(0..n-1)
/// across the pool threads AND the calling thread, returning when all n
/// tasks finished. Persistent because the sharded boundary merge runs at
/// interval cadence — spawning threads per epoch would cost more than
/// the parallel absorb saves. With zero workers (the S = 1 case) run()
/// is a plain inline loop.
class ShardPool {
 public:
  explicit ShardPool(std::size_t workers);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

 private:
  void worker_loop();
  void work();

  std::mutex mu_;
  std::condition_variable cv_;       // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for completion
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<const std::function<void(std::size_t)>*> fn_{nullptr};
  std::atomic<std::size_t> tasks_{0};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::vector<std::thread> threads_;
};

class ShardedSketchStats final : public StatsProvider, public SketchSlabSink {
 public:
  /// `config` is the GLOBAL sketch configuration; each shard window gets
  /// shard_config(config, shards) — ε and heavy_capacity scaled by S,
  /// seed and behavior knobs unchanged — matching the per-shard sections
  /// ShardedWorkerSlab builds from the same derivation.
  ShardedSketchStats(std::size_t num_keys, int window,
                     const SketchStatsConfig& config, std::size_t shards);
  ~ShardedSketchStats() override;

  // StatsProvider.
  void record(KeyId key, Cost cost, Bytes state_bytes,
              std::uint64_t frequency = 1,
              InstanceId dest = kNilInstance) override;
  void roll() override;
  [[nodiscard]] Cost last_cost_of(KeyId key) const override;
  [[nodiscard]] std::uint64_t last_frequency_of(KeyId key) const override;
  [[nodiscard]] Bytes windowed_state_of(KeyId key) const override;
  [[nodiscard]] Bytes total_windowed_state() const override;
  void synthesize_dense(std::vector<Cost>& cost,
                        std::vector<Bytes>& state) const override;
  [[nodiscard]] std::size_t num_keys() const override { return num_keys_; }
  void resize_keys(std::size_t num_keys) override;
  [[nodiscard]] int window() const override;
  [[nodiscard]] IntervalId closed_intervals() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] StatsMode mode() const override { return StatsMode::kSketch; }

  // SketchSlabSink.
  [[nodiscard]] const SketchStatsConfig& slab_config() const override {
    return config_;
  }
  [[nodiscard]] std::size_t slab_shards() const override {
    return shards_.size();
  }
  void absorb_slab(const ShardedWorkerSlab& slab,
                   InstanceId dest = kNilInstance) override;
  [[nodiscard]] std::vector<KeyId> heavy_keys() const override;
  void synthesize_compact(InstanceId num_instances, std::vector<KeyId>& keys,
                          std::vector<Cost>& cost, std::vector<Bytes>& state,
                          std::vector<Cost>& cold_cost,
                          std::vector<Bytes>& cold_state) const override;
  [[nodiscard]] std::uint64_t total_promotions() const override;
  [[nodiscard]] std::uint64_t total_demotions() const override;

  /// Shard window s (tests; shards hold disjoint key sets).
  [[nodiscard]] const SketchStatsWindow& shard(std::size_t s) const {
    return *shards_[s];
  }

 private:
  [[nodiscard]] std::size_t shard_of(KeyId key) const {
    return shard_of_key(key, shards_.size());
  }

  SketchStatsConfig config_;
  std::size_t num_keys_ = 0;
  std::vector<std::unique_ptr<SketchStatsWindow>> shards_;
  /// mutable: synthesis is logically const but fans out on the pool.
  mutable ShardPool pool_;
};

}  // namespace skewless
