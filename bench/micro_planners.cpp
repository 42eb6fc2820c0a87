// Google-benchmark microbenchmarks of the planning algorithms: per-plan
// latency of LLFD-based planners, the compact representation build, and
// the end-to-end Mixed pass across key-domain sizes. Complements the
// figure benches with statistically robust single-operation timings.
// The routing layer is timed too: the ring lookup per key and per
// 1024-key chunk, and the chunked F(k) evaluation the engines run.
#include <benchmark/benchmark.h>

#include "baselines/readj.h"
#include "common/consistent_hash.h"
#include "common/zipf.h"
#include "core/assignment.h"
#include "core/compact.h"
#include "core/planners.h"
#include "workload/synthetic.h"

namespace skewless {
namespace {

PartitionSnapshot snapshot_for(std::uint64_t num_keys) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = num_keys;
  opts.skew = 0.85;
  opts.tuples_per_interval = num_keys * 10;
  opts.fluctuation = 0.0;
  opts.seed = 47;
  ZipfFluctuatingSource source(opts);
  const auto load = source.next_interval();
  const ConsistentHashRing ring(10, 128, 21);

  PartitionSnapshot snap;
  snap.num_instances = 10;
  snap.cost.resize(num_keys);
  snap.state.resize(num_keys);
  snap.hash_dest.resize(num_keys);
  for (std::size_t k = 0; k < num_keys; ++k) {
    snap.cost[k] = static_cast<Cost>(load.counts[k]);
    snap.state[k] = 8.0 * static_cast<Bytes>(load.counts[k]);
    snap.hash_dest[k] = ring.owner(static_cast<KeyId>(k));
  }
  snap.current = snap.hash_dest;
  return snap;
}

PlannerConfig default_config() {
  PlannerConfig cfg;
  cfg.theta_max = 0.08;
  cfg.max_table_entries = 0;
  return cfg;
}

void BM_MixedPlan(benchmark::State& state) {
  const auto snap = snapshot_for(static_cast<std::uint64_t>(state.range(0)));
  const auto cfg = default_config();
  MixedPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(snap, cfg));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MixedPlan)->Range(1'000, 100'000)->Complexity();

void BM_MinTablePlan(benchmark::State& state) {
  const auto snap = snapshot_for(static_cast<std::uint64_t>(state.range(0)));
  const auto cfg = default_config();
  MinTablePlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(snap, cfg));
  }
}
BENCHMARK(BM_MinTablePlan)->Range(1'000, 100'000);

void BM_ReadjPlan(benchmark::State& state) {
  const auto snap = snapshot_for(static_cast<std::uint64_t>(state.range(0)));
  const auto cfg = default_config();
  ReadjPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(snap, cfg));
  }
}
BENCHMARK(BM_ReadjPlan)->Range(1'000, 32'000);

void BM_CompactBuild(benchmark::State& state) {
  const auto snap = snapshot_for(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompactSpace::build(snap, 3));
  }
}
BENCHMARK(BM_CompactBuild)->Range(1'000, 100'000);

void BM_CompactMixedPlan(benchmark::State& state) {
  const auto snap = snapshot_for(static_cast<std::uint64_t>(state.range(0)));
  const auto cfg = default_config();
  CompactMixedPlanner planner(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(snap, cfg));
  }
}
BENCHMARK(BM_CompactMixedPlan)->Range(1'000, 100'000);

void BM_HashRingOwner(benchmark::State& state) {
  const ConsistentHashRing ring(static_cast<InstanceId>(state.range(0)), 128);
  KeyId key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(key++));
  }
}
BENCHMARK(BM_HashRingOwner)->Arg(5)->Arg(10)->Arg(40);

// The router's per-chunk inputs: 64 chunks of kRouteChunk keys drawn from
// Zipf(1.2) over 1M keys, cycled through.
constexpr std::size_t kRouteChunk = 1024;
constexpr std::size_t kRouteChunks = 64;

const std::vector<KeyId>& zipf_route_keys() {
  static const std::vector<KeyId> keys = [] {
    const ZipfDistribution zipf(1'000'000, 1.2, true, 13);
    Xoshiro256 rng(29);
    std::vector<KeyId> out(kRouteChunk * kRouteChunks);
    for (KeyId& k : out) k = zipf.sample(rng);
    return out;
  }();
  return keys;
}

/// ns/key = time per iteration / 1024.
void BM_HashRingOwnerBatch(benchmark::State& state) {
  const ConsistentHashRing ring(3, 128);
  const std::vector<KeyId>& keys = zipf_route_keys();
  std::vector<InstanceId> out(kRouteChunk);
  std::size_t chunk = 0;
  for (auto _ : state) {
    ring.owner_batch(keys.data() + chunk * kRouteChunk, kRouteChunk,
                     out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    chunk = (chunk + 1) % kRouteChunks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRouteChunk));
}
BENCHMARK(BM_HashRingOwnerBatch);

/// F(k) per chunk as the engines evaluate it: the routing table's 4
/// entries (the 4 hottest keys, each moved off its ring owner) probed
/// first, the ring for the misses. ns/key = time per iteration / 1024.
void BM_RouteBatch(benchmark::State& state) {
  AssignmentFunction assignment(ConsistentHashRing(3, 128), 4);
  const ZipfDistribution zipf(1'000'000, 1.2, true, 13);
  for (std::uint64_t rank = 0; rank < 4; ++rank) {
    const KeyId key = zipf.key_at_rank(rank);
    assignment.apply(key, (assignment.hash_dest(key) + 1) % 3);
  }
  const std::vector<KeyId>& keys = zipf_route_keys();
  std::vector<InstanceId> out(kRouteChunk);
  std::size_t chunk = 0;
  for (auto _ : state) {
    assignment.route_batch(keys.data() + chunk * kRouteChunk, kRouteChunk,
                           out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    chunk = (chunk + 1) % kRouteChunks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRouteChunk));
}
BENCHMARK(BM_RouteBatch);

}  // namespace
}  // namespace skewless

BENCHMARK_MAIN();
