// The benchmark's workloads and one episode of each: build the controller
// and engine over an input drawn beforehand (set-up), push every interval
// through the engine's own run() as fast as backpressure allows (the
// run), then check the outputs against what the benchmark computes from
// its own generated input.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "probes.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Socket engine (forked worker processes) instead of worker threads.
  bool net = false;
  /// No controller: consistent hashing only (the scaling reference row).
  bool hash_only = false;
  skewless::InstanceId workers = 3;
  /// The paper's fluctuation protocol: f, applied every 3 intervals
  /// against a reference ring of `workers` instances (0 = no shifts).
  double fluctuation = 0.0;
  std::uint64_t keys = 1'000'000;
  std::uint64_t tuples_per_interval = 1'000'000;
  int intervals = 8;
  std::size_t batch = 1024;
};

/// Key populations: ZipfFluctuatingSource seeds, each fixing which keys
/// are hot, the reference ring, and which keys each shift swaps. A run
/// cycles through all of them; --seed draws only the arrival order.
inline constexpr std::array<std::uint64_t, 3> kPopulations = {1, 2, 3};

/// The workloads BENCHMARK.json lists, plus the reference rows.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Draws every interval of `spec`'s input for key population
/// `population` from a ZipfFluctuatingSource, timing each call.
[[nodiscard]] std::unique_ptr<PregeneratedSource> generate_input(
    const WorkloadSpec& spec, std::uint64_t population);

struct EpisodeResult {
  /// Building the controller and engine (the socket engine forks and
  /// handshakes its workers here); the input is drawn before.
  double setup_s = 0.0;
  double run_s = 0.0;
  double driver_cpu_s = 0.0;
  std::uint64_t generated = 0;
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;

  /// Empty when every output check passed.
  std::vector<std::string> failures;
  std::uint64_t checksum = 0;
  std::uint64_t plan_digest = 0;

  // Engine reports, one entry per interval (boundary).
  std::vector<double> stall_ms;
  std::vector<double> merge_ms;
  std::vector<double> queue_wait_ms;
  /// wall_ms − stall_ms: routing the interval's tuples.
  std::vector<double> ingest_ms;
  std::vector<double> realized_theta;
  std::vector<double> report_theta;
  double migrated_mb = 0.0;
  double stats_mb = 0.0;

  // Planner / controller.
  std::vector<double> plan_ms;
  std::vector<double> plan_theta;
  std::size_t moves = 0;
  std::size_t table_entries = 0;
  std::uint64_t heavy_churn = 0;

  // Workers (one entry per worker thread / process).
  std::vector<double> worker_cpu_s;
  std::vector<std::uint64_t> worker_tuples;
  double process_s = 0.0;
  std::uint64_t states_created = 0;
  std::uint64_t states_deserialized = 0;
  /// Traced episodes only (empty / 0 otherwise).
  LatencyHistogram latency;
  /// Width of the interval known to hold the engine's private epoch.
  double epoch_bound_ms = 0.0;

  // Socket engine only.
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
  std::uint64_t recoveries = 0;
};

/// Builds the controller and engine over `input` as an episode does,
/// shuts them down unused, and returns the seconds the build took.
[[nodiscard]] double setup_only(const WorkloadSpec& spec,
                                PregeneratedSource& input);

/// Runs one episode of `spec` on `input` (replayed from its first
/// interval), with each interval's tuples shuffled by `order_seed` (the
/// engines' run() seed). `traced` turns on the per-tuple latency and
/// process() timers.
[[nodiscard]] EpisodeResult run_episode(const WorkloadSpec& spec,
                                        PregeneratedSource& input,
                                        std::uint64_t order_seed, bool traced);

}  // namespace perfbench
