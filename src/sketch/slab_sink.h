// SketchSlabSink — the boundary-merge contract between the engines and
// what absorbs sealed worker slabs: the sharded controller's
// ShardedSketchStats, which fans one ShardedWorkerSlab's per-shard
// sections out to S shard-local windows concurrently (S = 1 is the
// single window).
//
// The engines (ThreadedEngine's merge path, NetEngine's summary absorb)
// talk ONLY to this interface in sketch mode: they build per-worker
// ShardedWorkerSlabs from slab_config()/slab_shards(), hand sealed epochs
// to absorb_slab() in worker-index order, redistribute heavy_keys() at
// interval boundaries, and let the controller plan from
// synthesize_compact(). Keeping the seam this narrow is what lets the
// shard count change without either engine knowing how statistics are
// stored — the StatsProvider seam IS the shard boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sketch/stats_provider.h"

namespace skewless {

class ShardedWorkerSlab;

class SketchSlabSink {
 public:
  virtual ~SketchSlabSink() = default;

  /// The GLOBAL (unsharded) sketch configuration. Worker slabs must be
  /// constructed as ShardedWorkerSlab(slab_config(), slab_shards()) — the
  /// slab derives the per-shard section geometry itself, with the same
  /// shard_config() derivation the sink applies to its shard windows, so
  /// sections and windows stay cell-wise compatible.
  [[nodiscard]] virtual const SketchStatsConfig& slab_config() const = 0;

  /// Number of key-domain shards (1 = the single-window identity case).
  [[nodiscard]] virtual std::size_t slab_shards() const = 0;

  /// Boundary merge: folds one worker's sealed interval slab into the
  /// open interval, section s into shard s. Callers absorb workers in
  /// worker-index order; the sink may absorb the S sections of one call
  /// concurrently (they touch disjoint shard windows), so the combined
  /// order — fixed across workers, parallel across shards — keeps the
  /// merged state deterministic.
  virtual void absorb_slab(const ShardedWorkerSlab& slab,
                           InstanceId dest = kNilInstance) = 0;

  /// Union of the per-shard heavy sets, sorted ascending (shards hold
  /// disjoint key ranges, so the union is duplicate-free). What the
  /// driver distributes to worker slabs at interval boundaries.
  [[nodiscard]] virtual std::vector<KeyId> heavy_keys() const = 0;

  /// The compact planner view (see SketchStatsWindow::synthesize_compact
  /// for the per-window contract). A sharded sink concatenates the
  /// per-shard heavy entries (re-sorted by key) and element-wise sums the
  /// per-instance cold residual vectors in shard order — O(S·(k + N_D)),
  /// never O(|K|).
  virtual void synthesize_compact(InstanceId num_instances,
                                  std::vector<KeyId>& keys,
                                  std::vector<Cost>& cost,
                                  std::vector<Bytes>& state,
                                  std::vector<Cost>& cold_cost,
                                  std::vector<Bytes>& cold_state) const = 0;

  /// Heavy-set churn accounting, summed across shards.
  [[nodiscard]] virtual std::uint64_t total_promotions() const = 0;
  [[nodiscard]] virtual std::uint64_t total_demotions() const = 0;
};

}  // namespace skewless
