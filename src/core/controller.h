// The rebalance controller (Fig. 5 of the paper).
//
// At each interval boundary the engine hands the controller the interval's
// statistics (already accumulated into the StatsWindow). The controller:
//   1. evaluates workload imbalance under the assignment in force,
//   2. if max θ(d) exceeds θmax, runs the configured planner to build F',
//   3. returns the migration plan for the engine to execute
//      (pause -> migrate -> resume), and installs F' into the live
//      AssignmentFunction.
//
// Scale-out support: add_instance() grows the hash ring but pins every
// key to its previous destination with explicit entries, so state never
// moves implicitly; the next rebalance then shifts load onto the new
// instance deliberately (the Fig. 15 experiment).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/assignment.h"
#include "core/plan.h"
#include "core/stats_window.h"

namespace skewless {

class SketchSlabSink;

struct ControllerConfig {
  PlannerConfig planner;
  /// w — sliding window length in intervals.
  int window = 1;
  /// If false, the controller reports imbalance but never migrates
  /// (the "Storm" baseline behaviour).
  bool enabled = true;
  /// How per-key statistics are stored: kExact keeps dense O(|K|)
  /// vectors (StatsWindow); kSketch keeps exact stats only for tracked
  /// heavy hitters plus Count-Min aggregates for the cold tail
  /// (ShardedSketchStats over SketchStatsWindows) — the million-key
  /// configuration.
  StatsMode stats_mode = StatsMode::kExact;
  /// Tuning for stats_mode == kSketch.
  SketchStatsConfig sketch = {};
  /// Key-domain shards (>= 1) of the sketch provider, the sharded
  /// controller (ShardedSketchStats): S shard-local windows absorbing
  /// sealed worker slabs concurrently, a thin global tier concatenating
  /// the per-shard compact snapshots for planning. S = 1 is the single
  /// window, with no pool threads. Ignored in exact mode.
  std::size_t shards = 1;
};

class Controller {
 public:
  Controller(AssignmentFunction assignment, PlannerPtr planner,
             ControllerConfig config, std::size_t num_keys);

  /// Load reporting (step 1 of Fig. 5): the engine records each key's cost
  /// and state growth as it processes tuples. `dest` — the instance the
  /// key's tuples ran on — feeds the sketch provider's per-instance cold
  /// residual aggregates (the compact planning view); engines know it at
  /// routing time and must pass it in sketch mode.
  void record(KeyId key, Cost cost, Bytes state_bytes,
              std::uint64_t frequency = 1, InstanceId dest = kNilInstance) {
    stats_->record(key, cost, state_bytes, frequency, dest);
  }

  [[nodiscard]] StatsProvider& stats() { return *stats_; }
  [[nodiscard]] const StatsProvider& stats() const { return *stats_; }

  /// The provider as a slab sink when stats_mode == kSketch (the sharded
  /// provider, at any shard count), nullptr in exact mode. This is the seam the engines feed sealed worker slabs through
  /// and the shard boundary the sharded controller lives behind.
  [[nodiscard]] SketchSlabSink* slab_sink();
  [[nodiscard]] const SketchSlabSink* slab_sink() const;

  /// Resident bytes of the statistics structures (the exact-vs-sketch
  /// trade-off number).
  [[nodiscard]] std::size_t stats_memory_bytes() const {
    return stats_->memory_bytes();
  }

  /// Cumulative heavy-set churn (sketch mode; zeros in exact mode, where
  /// every key is tracked exactly and nothing promotes or demotes). The
  /// churn-rate metric the adversarial benches gate on is
  /// (promotions + demotions) / (intervals · heavy_capacity).
  [[nodiscard]] std::uint64_t heavy_promotions() const;
  [[nodiscard]] std::uint64_t heavy_demotions() const;

  /// Interval boundary: closes the stats interval, checks the trigger and
  /// plans + installs a new assignment if needed. Returns the plan when a
  /// migration was decided, nullopt otherwise.
  std::optional<RebalancePlan> end_interval();

  /// Live assignment function evaluated by the upstream router.
  [[nodiscard]] const AssignmentFunction& assignment() const {
    return assignment_;
  }

  /// Adds one instance (scale-out), pinning current destinations.
  void add_instance();

  /// Degraded mode (fault tolerance): permanently removes an instance
  /// from the assignment. Its keys re-home deterministically onto the
  /// survivors and future plans never touch it. See
  /// AssignmentFunction::retire.
  void retire_instance(InstanceId id) { assignment_.retire(id); }

  /// The snapshot used for the most recent planning decision. Compact in
  /// sketch mode (heavy entries + cold residuals), dense in exact mode.
  [[nodiscard]] const PartitionSnapshot& last_snapshot() const {
    return last_snapshot_;
  }

  /// Imbalance max θ(d) measured at the most recent interval boundary.
  [[nodiscard]] double last_observed_theta() const {
    return last_observed_theta_;
  }

  [[nodiscard]] InstanceId num_instances() const {
    return assignment_.num_instances();
  }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Cumulative planning statistics.
  [[nodiscard]] std::size_t rebalance_count() const {
    return rebalance_count_;
  }
  [[nodiscard]] Micros total_generation_micros() const {
    return total_generation_micros_;
  }
  [[nodiscard]] Bytes total_migrated_bytes() const {
    return total_migrated_bytes_;
  }

  /// Running digest over every plan this controller decided, chained in
  /// decision order from plan_value_digest (wall-clock fields excluded).
  /// Two controllers that made identical rebalance decisions — same
  /// plans, same order — hold equal digests; the net-vs-threaded
  /// determinism test compares exactly this.
  [[nodiscard]] std::uint64_t plan_history_digest() const {
    return plan_digest_;
  }

  /// Boundary accounting fed by the engine after each interval: time
  /// spent absorbing worker statistics into the provider (merge) and
  /// time tuple ingestion was blocked at the boundary (stall — the
  /// number the asynchronous slab merge exists to shrink). Purely
  /// observability; skewless_sim surfaces the totals in its summary.
  void note_boundary(double merge_ms, double stall_ms) {
    total_merge_ms_ += merge_ms;
    total_stall_ms_ += stall_ms;
  }
  [[nodiscard]] double total_merge_ms() const { return total_merge_ms_; }
  [[nodiscard]] double total_stall_ms() const { return total_stall_ms_; }

 private:
  [[nodiscard]] PartitionSnapshot build_snapshot() const;

  AssignmentFunction assignment_;
  PlannerPtr planner_;
  ControllerConfig config_;
  std::unique_ptr<StatsProvider> stats_;
  PartitionSnapshot last_snapshot_;
  double last_observed_theta_ = 0.0;
  std::size_t rebalance_count_ = 0;
  std::uint64_t plan_digest_ = 0;
  Micros total_generation_micros_ = 0;
  Bytes total_migrated_bytes_ = 0;
  double total_merge_ms_ = 0.0;
  double total_stall_ms_ = 0.0;
};

}  // namespace skewless
