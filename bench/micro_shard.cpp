// micro_shard — the sharded-controller boundary-merge scaling harness.
//
// Scenario: a 10M-key domain streamed into W = 4 worker
// ShardedWorkerSlabs (50% of tuples on a 4096-key hot head, the rest
// uniform over the domain), then the interval boundary driven directly —
// absorb_slab for every worker, roll, synthesize_compact — against a
// ShardedSketchStats with S ∈ {1, 2, 4, 8} shards. The slab FILL is
// untimed (it is the workers' steady-state cost, identical machinery at
// every S); the MERGE is what sharding parallelizes, and what this bench
// times.
//
// Measured, per shard count:
//   1. MERGE      — wall time of absorb(all W slabs) + roll, minimum
//                   over the steady intervals (boundary work is
//                   identical each interval, so spread is scheduler
//                   noise and the minimum is the intrinsic cost);
//   2. COMPACT    — wall time of synthesize_compact (the planner's
//                   snapshot view, O(k + S·N_D));
//   3. MEMORY     — provider + slab bytes (should stay roughly flat
//                   across S: per-shard geometry divides by S);
//   4. FIDELITY   — total windowed state must agree with S = 1 exactly
//                   (integer masses; sharding is a partition, not an
//                   approximation) and the heavy tier must be populated.
//
// Gate: merge(S=1) / merge(S=4) >= 2x — the near-linear boundary-merge
// scaling claim, as the ratio of each configuration's best-of-rounds
// merge time. The pool cannot beat the
// hardware: on a single-core host the gate is reported as SKIPPED (and
// the JSON says so) instead of failing — there is no parallelism to
// demonstrate, the same way the TSan leg skips fork-based suites.
//
// Output: human-readable summary on stderr, machine-readable JSON on
// stdout (bench/run_benches.sh redirects it into BENCH_shard.json).
// Non-zero exit if a gate fails, so CI can run it as a check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/sharded_controller.h"
#include "sketch/sharded_worker_slab.h"

using namespace skewless;

namespace {

struct Scenario {
  std::uint64_t num_keys = 10'000'000;
  std::uint64_t tuples_per_interval = 2'000'000;
  int intervals = 4;
  std::size_t workers = 4;
  std::size_t hot_keys = 4096;
  SketchStatsConfig sketch;
};

struct ShardResult {
  std::size_t shards = 1;
  double merge_ms = 0.0;    // min over steady intervals
  double compact_ms = 0.0;  // min over steady intervals
  std::size_t memory_bytes = 0;
  std::size_t heavy_keys = 0;
  double windowed_state = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ShardResult run_config(const Scenario& sc, std::size_t shards) {
  ShardedSketchStats stats(sc.num_keys, /*window=*/2, sc.sketch, shards);
  std::vector<ShardedWorkerSlab> slabs;
  slabs.reserve(static_cast<std::size_t>(sc.workers));
  for (std::size_t w = 0; w < sc.workers; ++w) {
    slabs.emplace_back(sc.sketch, shards);
  }

  ShardResult res;
  res.shards = shards;
  Xoshiro256 rng(0x5eed);
  for (int interval = 0; interval < sc.intervals; ++interval) {
    // Untimed fill: the workers' steady-state accumulation. Heavy-set
    // refresh mirrors the engines (driver pushes the promoted set down
    // at each boundary).
    const auto heavy = stats.heavy_keys();
    for (auto& slab : slabs) {
      slab.clear();
      slab.set_heavy_keys(heavy);
    }
    for (std::uint64_t i = 0; i < sc.tuples_per_interval; ++i) {
      const KeyId key =
          rng.next_below(2) == 0
              ? static_cast<KeyId>(rng.next_below(sc.hot_keys))
              : static_cast<KeyId>(rng.next_below(sc.num_keys));
      const std::size_t w = i % sc.workers;
      slabs[w].add(key, static_cast<double>(1 + rng.next_below(4)),
                   static_cast<double>(rng.next_below(16)), 1);
    }

    // Timed boundary: the sharded absorb fan-out plus the roll.
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t w = 0; w < sc.workers; ++w) {
      stats.absorb_slab(slabs[w], static_cast<InstanceId>(w));
    }
    stats.roll();
    const double merge = ms_since(t0);

    const auto t1 = std::chrono::steady_clock::now();
    std::vector<KeyId> keys;
    std::vector<Cost> cost, cold_cost;
    std::vector<Bytes> state, cold_state;
    stats.synthesize_compact(static_cast<InstanceId>(sc.workers), keys, cost,
                             state, cold_cost, cold_state);
    const double compact = ms_since(t1);

    // Interval 0 is warm-up (empty heavy set, cold-path-only fill).
    if (interval > 0) {
      res.merge_ms = res.merge_ms == 0.0 ? merge : std::min(res.merge_ms,
                                                            merge);
      res.compact_ms = res.compact_ms == 0.0
                           ? compact
                           : std::min(res.compact_ms, compact);
    }
  }
  std::size_t slab_bytes = 0;
  for (const auto& slab : slabs) slab_bytes += slab.memory_bytes();
  res.memory_bytes = stats.memory_bytes() + slab_bytes;
  res.heavy_keys = stats.heavy_keys().size();
  res.windowed_state = stats.total_windowed_state();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [--keys N] [--tuples N] [--intervals N] "
                 "[--workers N]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const auto need = [&]() -> long long {
      if (i + 1 >= argc) usage();
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      sc.num_keys = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--tuples") == 0) {
      sc.tuples_per_interval = static_cast<std::uint64_t>(need());
    } else if (std::strcmp(argv[i], "--intervals") == 0) {
      sc.intervals = static_cast<int>(need());
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      sc.workers = static_cast<std::size_t>(need());
    } else {
      usage();
    }
  }
  if (sc.intervals < 2 || sc.workers < 1) {
    std::fprintf(stderr, "need --intervals >= 2 and --workers >= 1\n");
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t shard_counts[] = {1, 2, 4, 8};
  std::fprintf(stderr,
               "shard merge: %llu-key domain, %llu tuples/interval, %d "
               "intervals, %zu workers, %u hardware threads\n",
               static_cast<unsigned long long>(sc.num_keys),
               static_cast<unsigned long long>(sc.tuples_per_interval),
               sc.intervals, sc.workers, hw);

  // Alternating measurement rounds, all configurations back-to-back per
  // round. Interference only ever slows a configuration down, so each
  // configuration's minimum over rounds converges toward its intrinsic
  // cost, and the gated ratio is taken between those minimums. (A max of
  // per-round ratios would let one round where the S=1 baseline happened
  // to run slow make the gate easier.) Extra rounds are added only while
  // the gate is unmet, bounded so a real regression fails in finite
  // time.
  constexpr int kRounds = 2;
  constexpr int kMaxRounds = 5;
  ShardResult best[4];
  double speedup_4x = 0.0;
  double speedup_8x = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= kRounds && (speedup_4x >= 2.0 || hw < 2)) break;
    for (int c = 0; c < 4; ++c) {
      std::fprintf(stderr, "round %d: %zu shard(s)...\n", round,
                   shard_counts[c]);
      const ShardResult r = run_config(sc, shard_counts[c]);
      if (round == 0 || r.merge_ms < best[c].merge_ms) best[c] = r;
    }
    if (best[2].merge_ms > 0.0) {
      speedup_4x = best[0].merge_ms / best[2].merge_ms;
    }
    if (best[3].merge_ms > 0.0) {
      speedup_8x = best[0].merge_ms / best[3].merge_ms;
    }
  }

  // The partition invariant: identical integer masses at every S.
  bool mass_ok = true;
  for (int c = 1; c < 4; ++c) {
    mass_ok = mass_ok && best[c].windowed_state == best[0].windowed_state;
  }
  const bool heavy_ok = best[2].heavy_keys > 0;
  // A single-core host has no parallelism to demonstrate: report the
  // ratio but skip the gate (CI's multi-core runners enforce it).
  const bool speedup_skipped = hw < 2;
  const bool speedup_ok = speedup_skipped || speedup_4x >= 2.0;

  std::fprintf(stderr, "\n%-24s %12s %12s %12s %12s\n", "", "S=1", "S=2",
               "S=4", "S=8");
  std::fprintf(stderr, "%-24s %12.3f %12.3f %12.3f %12.3f\n",
               "boundary merge (ms)", best[0].merge_ms, best[1].merge_ms,
               best[2].merge_ms, best[3].merge_ms);
  std::fprintf(stderr, "%-24s %12.3f %12.3f %12.3f %12.3f\n",
               "compact synth (ms)", best[0].compact_ms, best[1].compact_ms,
               best[2].compact_ms, best[3].compact_ms);
  std::fprintf(stderr, "%-24s %12zu %12zu %12zu %12zu\n", "memory (bytes)",
               best[0].memory_bytes, best[1].memory_bytes,
               best[2].memory_bytes, best[3].memory_bytes);
  std::fprintf(stderr, "%-24s %12zu %12zu %12zu %12zu\n", "heavy keys",
               best[0].heavy_keys, best[1].heavy_keys, best[2].heavy_keys,
               best[3].heavy_keys);
  std::fprintf(stderr,
               "merge speedup S=4 %.2fx (gate >= 2x: %s), S=8 %.2fx, "
               "mass conserved: %s, heavy keys: %s\n",
               speedup_4x,
               speedup_skipped ? "SKIPPED (single-core host)"
                               : (speedup_ok ? "PASS" : "FAIL"),
               speedup_8x, mass_ok ? "PASS" : "FAIL",
               heavy_ok ? "PASS" : "FAIL");

  std::printf(
      "{\n"
      "  \"bench\": \"micro_shard\",\n"
      "  \"workload\": {\"keys\": %llu, \"tuples_per_interval\": %llu, "
      "\"intervals\": %d, \"workers\": %zu, \"hot_keys\": %zu},\n"
      "%s"
      "  \"configs\": {\n"
      "    \"s1\": {\"merge_ms\": %.3f, \"compact_ms\": %.3f, "
      "\"memory_bytes\": %zu, \"heavy_keys\": %zu},\n"
      "    \"s2\": {\"merge_ms\": %.3f, \"compact_ms\": %.3f, "
      "\"memory_bytes\": %zu, \"heavy_keys\": %zu},\n"
      "    \"s4\": {\"merge_ms\": %.3f, \"compact_ms\": %.3f, "
      "\"memory_bytes\": %zu, \"heavy_keys\": %zu},\n"
      "    \"s8\": {\"merge_ms\": %.3f, \"compact_ms\": %.3f, "
      "\"memory_bytes\": %zu, \"heavy_keys\": %zu}\n"
      "  },\n"
      "  \"merge_speedup_4x\": %.3f,\n"
      "  \"merge_speedup_8x\": %.3f,\n"
      "  \"gates\": {\"merge_speedup_ge_2x\": %s, "
      "\"speedup_gate_skipped_single_core\": %s, \"mass_conserved\": %s, "
      "\"heavy_keys_nonzero\": %s}\n"
      "}\n",
      static_cast<unsigned long long>(sc.num_keys),
      static_cast<unsigned long long>(sc.tuples_per_interval), sc.intervals,
      sc.workers, sc.hot_keys, bench::env_json().c_str(),
      best[0].merge_ms, best[0].compact_ms,
      best[0].memory_bytes, best[0].heavy_keys, best[1].merge_ms,
      best[1].compact_ms, best[1].memory_bytes, best[1].heavy_keys,
      best[2].merge_ms, best[2].compact_ms, best[2].memory_bytes,
      best[2].heavy_keys, best[3].merge_ms, best[3].compact_ms,
      best[3].memory_bytes, best[3].heavy_keys, speedup_4x, speedup_8x,
      speedup_ok ? "true" : "false", speedup_skipped ? "true" : "false",
      mass_ok ? "true" : "false", heavy_ok ? "true" : "false");

  return (speedup_ok && mass_ok && heavy_ok) ? 0 : 1;
}
