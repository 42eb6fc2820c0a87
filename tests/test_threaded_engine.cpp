#include "engine/threaded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <set>

#include "common/cpu_topology.h"
#include "common/first_touch.h"
#include "core/planners.h"
#include "core/sharded_controller.h"
#include "sketch/sketch_stats_window.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

std::unique_ptr<Controller> make_controller(
    InstanceId nd, std::size_t num_keys, double theta_max,
    StatsMode stats_mode = StatsMode::kExact) {
  ControllerConfig cfg;
  cfg.planner.theta_max = theta_max;
  cfg.planner.max_table_entries = 0;
  cfg.stats_mode = stats_mode;
  cfg.sketch.heavy_capacity = 256;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(nd, 128, 11), 0),
      std::make_unique<MixedPlanner>(), cfg, num_keys);
}

std::vector<Tuple> make_tuples(std::size_t n, std::size_t num_keys,
                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> tuples(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuples[i].key = rng.next_below(num_keys);
    tuples[i].value = static_cast<std::int64_t>(i);
  }
  return tuples;
}

TEST(ThreadedEngine, ProcessesEveryTuple) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(3, 100, 0.5));
  const auto tuples = make_tuples(10'000, 100, 1);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.emitted, 10'000u);
  EXPECT_EQ(report.processed, 10'000u);
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), 10'000u);
}

TEST(ThreadedEngine, WordCountStateMatchesInput) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(4, 50, 0.5));
  std::vector<Tuple> tuples;
  for (int rep = 0; rep < 7; ++rep) {
    for (KeyId k = 0; k < 50; ++k) {
      tuples.push_back(Tuple{k, static_cast<std::int64_t>(rep), 0, 0});
    }
  }
  engine.run_interval(tuples);
  engine.shutdown();
  EXPECT_EQ(engine.total_state_entries(), 50u);
  EXPECT_EQ(engine.total_output_tuples(), 7u * 50u);
}

TEST(ThreadedEngine, HashOnlyModeWorksWithoutController) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  const auto tuples = make_tuples(5'000, 64, 2);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 5'000u);
  EXPECT_FALSE(report.migrated);
  engine.shutdown();
}

TEST(ThreadedEngine, MigrationPreservesStateExactly) {
  // Run the same skewed workload with and without rebalancing; the final
  // global state checksum must be identical — migration moves state, it
  // never loses or duplicates it.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    // Heavy skew: key k appears ~1000/(k+1) times.
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  std::uint64_t checksum_rebalanced;
  std::uint64_t outputs_rebalanced;
  {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02));
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 5; ++interval) {
      const auto report = engine.run_interval(make_input(interval));
      migrations += report.migrated ? 1 : 0;
    }
    EXPECT_GT(migrations, 0u) << "test needs at least one migration";
    engine.shutdown();
    checksum_rebalanced = engine.state_checksum();
    outputs_rebalanced = engine.total_output_tuples();
  }

  std::uint64_t checksum_static;
  std::uint64_t outputs_static;
  {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          /*num_workers_for_ring=*/4, /*ring_seed=*/11);
    for (int interval = 0; interval < 5; ++interval) {
      engine.run_interval(make_input(interval));
    }
    engine.shutdown();
    checksum_static = engine.state_checksum();
    outputs_static = engine.total_output_tuples();
  }

  EXPECT_EQ(checksum_rebalanced, checksum_static);
  EXPECT_EQ(outputs_rebalanced, outputs_static);
}

TEST(ThreadedEngine, MigrationMovesKeysToPlannedWorkers) {
  auto controller = make_controller(3, 60, 0.02);
  Controller* ctrl = controller.get();
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        std::move(controller));
  // Interval 1: all load on the instance that owns key 0.
  std::vector<Tuple> tuples;
  const InstanceId hot = ctrl->assignment()(0);
  for (KeyId k = 0; k < 60; ++k) {
    if (ctrl->assignment()(k) != hot) continue;
    for (int i = 0; i < 200; ++i) {
      tuples.push_back(Tuple{k, 1, 0, 0});
    }
  }
  const auto report = engine.run_interval(tuples);
  EXPECT_TRUE(report.migrated);
  EXPECT_GT(report.moves, 0u);
  engine.shutdown();
  // All per-key states exist exactly once globally.
  EXPECT_GT(engine.total_state_entries(), 0u);
}

TEST(ThreadedEngine, SelfJoinEmitsMatches) {
  ThreadedEngine engine(ThreadedConfig{},
                        std::make_shared<SelfJoinLogic>(1.0, 0.01, 1024),
                        make_controller(2, 10, 0.5));
  std::vector<Tuple> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back(Tuple{5, i % 2, 0, 0});  // same key, alternating parity
  }
  engine.run_interval(tuples);
  engine.shutdown();
  EXPECT_GT(engine.total_output_tuples(), 0u);
}

TEST(ThreadedEngine, RunWithSourceExpandsCounts) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 128;
  opts.tuples_per_interval = 20'000;
  opts.fluctuation = 0.5;
  ZipfFluctuatingSource source(opts);
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(4, 128, 0.1));
  const auto reports = engine.run(source, 3);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.emitted, 20'000u);
    EXPECT_EQ(r.processed, 20'000u);
    EXPECT_GT(r.throughput_tps, 0.0);
  }
  engine.shutdown();
}

TEST(ThreadedEngine, ExpiryMessagesShrinkWindows) {
  ThreadedConfig cfg;
  cfg.expire_lag_intervals = 1;
  ThreadedEngine engine(cfg, std::make_shared<SelfJoinLogic>(1.0, 0.01, 1 << 20),
                        make_controller(2, 4, 0.9));
  // Tuples with old timestamps: after the interval, the expiry watermark
  // passes them and the window shrinks.
  std::vector<Tuple> tuples(500, Tuple{1, 7, 0, 0});
  engine.run_interval(tuples);
  engine.run_interval({});  // watermark advances past the tuples
  engine.run_interval({});
  engine.shutdown();
  // State entry still exists but its window emptied.
  EXPECT_EQ(engine.total_state_entries(), 1u);
}

// One expire_before call on one state: its watermark, the newest interval
// it dropped and the oldest interval it kept.
struct ExpiryCall {
  Micros watermark = 0;
  std::int64_t newest_dropped = -1;
  std::int64_t oldest_kept = std::numeric_limits<std::int64_t>::max();
};

struct ExpiryLog {
  std::mutex mu;
  std::vector<ExpiryCall> calls;
};

// Keeps (stamp, interval) per tuple — the interval rides in the tuple's
// value — and logs what every watermark drops and keeps.
class IntervalWindowState final : public KeyState {
 public:
  explicit IntervalWindowState(ExpiryLog& log) : log_(log) {}
  [[nodiscard]] Bytes bytes() const override {
    return 16.0 * static_cast<Bytes>(window_.size());
  }
  [[nodiscard]] std::uint64_t checksum() const override { return 0; }
  void serialize(ByteWriter& /*out*/) const override {}
  void expire_before(Micros watermark) override {
    ExpiryCall call;
    call.watermark = watermark;
    while (!window_.empty() && window_.front().first < watermark) {
      call.newest_dropped =
          std::max(call.newest_dropped, window_.front().second);
      window_.pop_front();
    }
    for (const auto& entry : window_) {
      call.oldest_kept = std::min(call.oldest_kept, entry.second);
    }
    std::lock_guard lock(log_.mu);
    log_.calls.push_back(call);
  }
  void add(const Tuple& t) { window_.emplace_back(t.emit_micros, t.value); }

 private:
  ExpiryLog& log_;
  std::deque<std::pair<Micros, std::int64_t>> window_;
};

class IntervalWindowLogic final : public OperatorLogic {
 public:
  explicit IntervalWindowLogic(ExpiryLog& log) : log_(log) {}
  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<IntervalWindowState>(log_);
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& /*in*/) const override {
    return make_state();
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& /*out*/) const override {
    static_cast<IntervalWindowState&>(state).add(tuple);
    return 1.0;
  }

 private:
  ExpiryLog& log_;
};

TEST(ThreadedEngine, ExpiryDropsExactlyTheIntervalsOlderThanTheLag) {
  // Millisecond intervals: the watermark must follow the recorded
  // interval starts, not assume a fixed interval length.
  constexpr int kIntervals = 6;
  ExpiryLog log;
  ThreadedConfig cfg;
  cfg.expire_lag_intervals = 1;
  ThreadedEngine engine(cfg, std::make_shared<IntervalWindowLogic>(log),
                        make_controller(2, 64, 0.9));
  for (int interval = 0; interval < kIntervals; ++interval) {
    std::vector<Tuple> tuples;
    for (KeyId k = 0; k < 400; ++k) {
      tuples.push_back(Tuple{k % 64, interval, 0, 0});
    }
    engine.run_interval(tuples);
  }
  engine.shutdown();

  // One watermark per closed interval, strictly increasing: the k-th
  // distinct watermark is the one sent when interval k closed.
  std::vector<Micros> watermarks;
  for (const ExpiryCall& call : log.calls) watermarks.push_back(call.watermark);
  std::sort(watermarks.begin(), watermarks.end());
  watermarks.erase(std::unique(watermarks.begin(), watermarks.end()),
                   watermarks.end());
  ASSERT_EQ(watermarks.size(), static_cast<std::size_t>(kIntervals));
  std::size_t drops = 0;
  for (const ExpiryCall& call : log.calls) {
    const auto closed = static_cast<std::int64_t>(
        std::lower_bound(watermarks.begin(), watermarks.end(),
                         call.watermark) -
        watermarks.begin());
    // Nothing of the just-closed interval expires; everything older does.
    EXPECT_LT(call.newest_dropped, closed);
    EXPECT_GE(call.oldest_kept, closed);
    if (call.newest_dropped >= 0) ++drops;
  }
  EXPECT_GT(drops, 0u);
}

TEST(ThreadedEngine, SerializedMigrationPreservesState) {
  // Same workload with in-process pointer moves vs full byte round-trips:
  // identical final state.
  const auto run_with = [](bool serialize) {
    ThreadedConfig cfg;
    cfg.serialize_migration = serialize;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          make_controller(4, 100, 0.02));
    Bytes wire = 0.0;
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 4; ++interval) {
      std::vector<Tuple> tuples;
      for (KeyId k = 0; k < 100; ++k) {
        const int n = static_cast<int>(500 / (k + 1) + 1);
        for (int i = 0; i < n; ++i) {
          tuples.push_back(
              Tuple{k, static_cast<std::int64_t>(interval * 7 + i), 0, 0});
        }
      }
      const auto report = engine.run_interval(tuples);
      wire += report.migration_wire_bytes;
      migrations += report.migrated ? 1 : 0;
    }
    engine.shutdown();
    return std::make_tuple(engine.state_checksum(), wire, migrations);
  };

  const auto [sum_plain, wire_plain, mig_plain] = run_with(false);
  const auto [sum_serde, wire_serde, mig_serde] = run_with(true);
  EXPECT_EQ(sum_plain, sum_serde);
  EXPECT_EQ(wire_plain, 0.0);
  EXPECT_GT(mig_serde, 0u);
  EXPECT_GT(wire_serde, 0.0);  // real bytes crossed the codec
}

TEST(ThreadedEngine, SketchModeHashOnlyTracksHeavyKeysViaSlabs) {
  ThreadedConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch.heavy_capacity = 64;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  // Two intervals of heavy skew: key k carries ~2000/(k+1) tuples.
  std::uint64_t expected = 0;
  for (int interval = 0; interval < 2; ++interval) {
    std::vector<Tuple> tuples;
    for (KeyId k = 0; k < 500; ++k) {
      const int n = static_cast<int>(2000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(Tuple{k, static_cast<std::int64_t>(i), 0, 0});
      }
    }
    expected += tuples.size();
    const auto report = engine.run_interval(tuples);
    EXPECT_GT(report.stats_memory_bytes, 0u);
  }
  const auto* sharded =
      dynamic_cast<const ShardedSketchStats*>(&engine.state_tracker());
  ASSERT_NE(sharded, nullptr);
  const SketchStatsWindow* sketch = &sharded->shard(0);
  // The hottest keys were promoted out of the worker slabs' candidate
  // union, and their exact hot-tier stats match the true per-key cost
  // (WordCountLogic reports cost 1 per tuple).
  EXPECT_GT(sketch->heavy_count(), 0u);
  EXPECT_TRUE(sketch->is_heavy(0));
  EXPECT_DOUBLE_EQ(sketch->last_cost_of(0), 2001.0);
  EXPECT_EQ(sketch->last_frequency_of(0), 2001u);
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), expected);
}

TEST(ThreadedEngine, SketchModeControllerMigratesAndPreservesState) {
  // Same skewed workload under exact and sketch statistics: both must
  // trigger migrations, and the final global state must be identical —
  // the statistics path influences *planning*, never state ownership.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  const auto run_with = [&](StatsMode mode) {
    ThreadedEngine engine(ThreadedConfig{},
                          std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02, mode));
    std::uint64_t migrations = 0;
    for (int interval = 0; interval < 5; ++interval) {
      migrations += engine.run_interval(make_input(interval)).migrated ? 1 : 0;
    }
    engine.shutdown();
    return std::make_pair(engine.state_checksum(), migrations);
  };

  const auto [sum_exact, mig_exact] = run_with(StatsMode::kExact);
  const auto [sum_sketch, mig_sketch] = run_with(StatsMode::kSketch);
  EXPECT_GT(mig_exact, 0u);
  EXPECT_GT(mig_sketch, 0u) << "sketch stats must still drive rebalancing";
  EXPECT_EQ(sum_exact, sum_sketch);
}

TEST(ThreadedEngine, SealSwapKeepsStatsExactAcrossEpochs) {
  // The double-buffered seal path must deliver the same per-epoch
  // statistics contract as the inline merge: after each run_interval the
  // merged window reflects exactly the closed epoch (scalars included —
  // they ride the sealed slab, not a mutex), and the hot tier stays
  // exact across the buffer alternation (epoch 1 seals buffer 0, epoch 2
  // buffer 1, epoch 3 buffer 0 again).
  ThreadedConfig cfg;
  cfg.stats_mode = StatsMode::kSketch;
  cfg.sketch.heavy_capacity = 64;
  cfg.batch_size = 8;  // many in-flight messages per boundary
  cfg.async_merge = true;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/4, /*ring_seed=*/7);
  for (int interval = 0; interval < 3; ++interval) {
    std::vector<Tuple> tuples;
    for (KeyId k = 0; k < 200; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(Tuple{k, static_cast<std::int64_t>(i), 0, 0});
      }
    }
    const auto report = engine.run_interval(tuples);
    // Scalars harvested from the sealed slabs must cover every tuple of
    // the epoch — a gap here means a batch was folded into the wrong
    // buffer or read before its seal.
    EXPECT_EQ(report.processed, report.emitted);
    EXPECT_GT(report.stats_memory_bytes, 0u);
    EXPECT_GE(report.stall_ms, 0.0);
    EXPECT_GE(report.merge_ms, 0.0);
  }
  const auto* sharded =
      dynamic_cast<const ShardedSketchStats*>(&engine.state_tracker());
  ASSERT_NE(sharded, nullptr);
  const SketchStatsWindow* sketch = &sharded->shard(0);
  EXPECT_TRUE(sketch->is_heavy(0));
  EXPECT_DOUBLE_EQ(sketch->last_cost_of(0), 1001.0);
  EXPECT_EQ(sketch->last_frequency_of(0), 1001u);
  engine.shutdown();
}

TEST(ThreadedEngine, AsyncAndInlineMergeAgreeUnderController) {
  // Same skewed workload, controller-driven migrations, both buffer
  // modes: the planner sees the identical merged epoch either way, so
  // the plans, the migrations and the final global state must coincide.
  const std::size_t num_keys = 200;
  const auto make_input = [&](std::uint64_t seed) {
    std::vector<Tuple> tuples;
    Xoshiro256 rng(seed);
    for (KeyId k = 0; k < num_keys; ++k) {
      const int n = static_cast<int>(1000 / (k + 1) + 1);
      for (int i = 0; i < n; ++i) {
        tuples.push_back(
            Tuple{k, static_cast<std::int64_t>(k * 1000 + i), 0, 0});
      }
    }
    for (std::size_t j = tuples.size(); j > 1; --j) {
      std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
    }
    return tuples;
  };

  const auto run_with = [&](bool async_merge) {
    ThreadedConfig cfg;
    cfg.async_merge = async_merge;
    cfg.batch_size = 32;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          make_controller(4, num_keys, 0.02,
                                          StatsMode::kSketch));
    std::uint64_t migrations = 0;
    std::size_t moves = 0;
    for (int interval = 0; interval < 5; ++interval) {
      const auto report = engine.run_interval(make_input(interval));
      migrations += report.migrated ? 1 : 0;
      moves += report.moves;
    }
    engine.shutdown();
    return std::make_tuple(engine.state_checksum(), migrations, moves);
  };

  const auto [sum_inline, mig_inline, moves_inline] = run_with(false);
  const auto [sum_async, mig_async, moves_async] = run_with(true);
  EXPECT_GT(mig_async, 0u) << "async merge must still drive rebalancing";
  EXPECT_EQ(mig_inline, mig_async);
  EXPECT_EQ(moves_inline, moves_async);
  EXPECT_EQ(sum_inline, sum_async);
}

TEST(ThreadedEngine, DoubleBufferAccountsBothSlabBuffers) {
  // async_merge doubles the worker-side slab footprint (active + sealed
  // buffer per worker); the end-to-end stats memory must say so rather
  // than hide the cost of the overlap.
  const auto stats_bytes = [](bool async_merge) {
    ThreadedConfig cfg;
    cfg.stats_mode = StatsMode::kSketch;
    cfg.async_merge = async_merge;
    ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                          /*num_workers_for_ring=*/2, /*ring_seed=*/7);
    const auto tuples = make_tuples(5'000, 512, 2);
    const auto report = engine.run_interval(tuples);
    engine.shutdown();
    return report.stats_memory_bytes;
  };
  const std::size_t inline_bytes = stats_bytes(false);
  const std::size_t async_bytes = stats_bytes(true);
  // Strictly more than the single-buffer run, by at least one extra
  // fused-cell array per worker (the dominant slab allocation).
  EXPECT_GT(async_bytes, inline_bytes);
}

TEST(ThreadedEngine, PinWorkersReportsEffectivePins) {
  ThreadedConfig cfg;
  cfg.pin_workers = true;
  ThreadedEngine engine(cfg, std::make_shared<WordCountLogic>(),
                        /*num_workers_for_ring=*/2, /*ring_seed=*/7);
  const auto tuples = make_tuples(2'000, 64, 3);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 2'000u);
  // Affinity is best-effort (unsupported platforms report 0), but it
  // can never exceed the worker count.
  EXPECT_LE(engine.pinned_workers(), 2);
  engine.shutdown();
}

TEST(ThreadedEngine, ExactModeReportsMergeAndStall) {
  // The small-fix satellite: exact mode surfaces its per-drain replay
  // cost (merge_ms) and boundary stall in the same report fields the
  // sketch path fills.
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(2, 5'000, 0.5));
  const auto tuples = make_tuples(50'000, 5'000, 4);
  const auto report = engine.run_interval(tuples);
  EXPECT_EQ(report.processed, 50'000u);
  EXPECT_GT(report.merge_ms, 0.0);  // replaying 5k keys takes measurable time
  EXPECT_GE(report.stall_ms, report.merge_ms);  // replay runs inside it
  engine.shutdown();
}

TEST(ThreadedEngine, ShutdownIsIdempotent) {
  ThreadedEngine engine(ThreadedConfig{}, std::make_shared<WordCountLogic>(),
                        make_controller(2, 4, 0.5));
  engine.shutdown();
  engine.shutdown();
  EXPECT_EQ(engine.total_processed(), 0u);
}

// ---------------------------------------------------------------------
// FirstTouchArray — the lazily-mapped backing store the NUMA first-touch
// placement relies on.

TEST(FirstTouchArrayTest, ResetZeroPrefaultAndMoveSemantics) {
  FirstTouchArray<double> arr;
  EXPECT_TRUE(arr.empty());
  EXPECT_EQ(arr.size(), 0u);

  arr.reset(1000);
  ASSERT_EQ(arr.size(), 1000u);
  ASSERT_NE(arr.data(), nullptr);
  EXPECT_GE(arr.memory_bytes(), 1000 * sizeof(double));
  // Fresh mappings read as zero without any explicit initialization.
  for (std::size_t i = 0; i < arr.size(); ++i) ASSERT_EQ(arr[i], 0.0);

  for (std::size_t i = 0; i < arr.size(); ++i) {
    arr[i] = static_cast<double>(i);
  }
  // prefault() is value-neutral: committing pages must not disturb
  // already-written contents.
  arr.prefault();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    ASSERT_EQ(arr[i], static_cast<double>(i));
  }
  arr.zero();
  for (std::size_t i = 0; i < arr.size(); ++i) ASSERT_EQ(arr[i], 0.0);

  arr[7] = 42.0;
  FirstTouchArray<double> moved = std::move(arr);
  ASSERT_EQ(moved.size(), 1000u);
  EXPECT_EQ(moved[7], 42.0);
  EXPECT_TRUE(arr.empty());  // NOLINT(bugprone-use-after-move): specified

  // reset() replaces the mapping: new extent, zeroed content again.
  moved.reset(64);
  ASSERT_EQ(moved.size(), 64u);
  for (std::size_t i = 0; i < moved.size(); ++i) ASSERT_EQ(moved[i], 0.0);
}

// ---------------------------------------------------------------------
// CPU topology — the worker pin order.

TEST(CpuTopologyTest, PinOrderIsAPermutationCoveringEveryHardwareThread) {
  const CpuTopology& topo = cpu_topology();
  EXPECT_GE(topo.hardware_threads, 1u);
  EXPECT_GE(topo.physical_cores, 1u);
  EXPECT_LE(topo.physical_cores, topo.hardware_threads);
  EXPECT_EQ(topo.smt, topo.hardware_threads > topo.physical_cores);

  ASSERT_EQ(topo.pin_order.size(), topo.hardware_threads);
  std::set<int> seen;
  for (const int cpu : topo.pin_order) {
    EXPECT_GE(cpu, 0);
    EXPECT_TRUE(seen.insert(cpu).second) << "duplicate cpu " << cpu;
  }
  // Physical-core primaries occupy the first physical_cores slots: a
  // worker fleet no larger than the core count never lands on an SMT
  // sibling. (With the identity fallback physical_cores ==
  // hardware_threads and the property holds trivially.)
  std::set<int> primaries(topo.pin_order.begin(),
                          topo.pin_order.begin() +
                              static_cast<std::ptrdiff_t>(topo.physical_cores));
  EXPECT_EQ(primaries.size(), topo.physical_cores);
}

TEST(CpuTopologyTest, NumaBindIsSafeWhereverItLands) {
  // On hosts without libnuma (or single-node machines) this is a no-op
  // returning false; with libnuma it binds. Either way it must not
  // crash and must tolerate an arbitrary valid CPU id.
  const bool bound = bind_current_thread_to_node_of_cpu(0);
  if (!numa_support_compiled()) {
    EXPECT_FALSE(bound);
  }
}

}  // namespace
}  // namespace skewless
