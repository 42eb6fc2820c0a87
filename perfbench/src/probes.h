// Measurement wrappers the benchmark puts around the library's public
// seams. Nothing here changes what the wrapped object computes: each
// wrapper forwards to the real WordCountLogic / MixedPlanner /
// ZipfFluctuatingSource and only records when and how long.
//
//  * LatencyHistogram — log-bucketed (32 sub-buckets per power of two,
//    exact below 32 us) so a percentile is read to within ~3 %.
//  * ProbeRegion — one MAP_SHARED anonymous mapping per episode holding a
//    slot per worker thread (threaded engine) or worker process (socket
//    engine, whose workers fork after the mapping exists). Each slot has
//    exactly one writer, so the data path takes no lock and no atomic
//    read-modify-write.
//  * ProbedLogic — the OperatorLogic wrapper: tuples per worker and
//    states created and deserialized in every episode; traced episodes
//    only, since each needs clock reads on every tuple: latency from the
//    engine's route stamp to process(), and time inside process().
//  * TimedPlanner — times Planner::plan and keeps each plan's moves for
//    the output checks.
//  * PregeneratedSource — the load generator, kept apart from the system
//    under test: it draws every interval from the wrapped source once
//    per run, before any episode (timing each next_interval call), and
//    replays them to every episode's engine, so a slow generator step (a
//    distribution shift swaps keys for up to ~1.3 s) never stalls the
//    measured run nor the engine's set-up.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <ctime>
#include <limits>
#include <memory>
#include <vector>

#include "core/plan.h"
#include "engine/operator.h"
#include "engine/workload_source.h"

namespace perfbench {

using skewless::KeyId;

// ---------------------------------------------------------------------------
// Log-bucketed histogram of non-negative integer values (microseconds).

inline constexpr int kSubBits = 5;
inline constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
inline constexpr std::size_t kHistBuckets = (64 - kSubBits + 1) * kSubBuckets;

[[nodiscard]] inline std::size_t bucket_of(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - kSubBits;
  return static_cast<std::size_t>(shift + 1) * kSubBuckets +
         static_cast<std::size_t>((v >> shift) & (kSubBuckets - 1));
}

/// Lowest value that lands in bucket `b`, and the bucket's width.
[[nodiscard]] std::uint64_t bucket_low(std::size_t b);
[[nodiscard]] std::uint64_t bucket_width(std::size_t b);

struct LatencyHistogram {
  std::vector<std::uint64_t> counts = std::vector<std::uint64_t>(kHistBuckets);
  std::uint64_t total = 0;

  void add_counts(const std::uint64_t* bucket_counts);
  void add(std::uint64_t value) {
    ++counts[bucket_of(value)];
    ++total;
  }
  /// q-quantile (nearest rank, q in (0, 1]) reported as the midpoint of
  /// the bucket holding that rank; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
};

// ---------------------------------------------------------------------------
// Per-worker probe slots in shared memory.

inline constexpr std::size_t kMaxSlots = 32;

struct alignas(64) ProbeSlot {
  /// CPU-time clock of the owning thread (threaded engine) or process
  /// (socket engine), readable from the driver while the owner lives.
  clockid_t cpu_clock = 0;
  bool has_clock = false;
  std::uint64_t tuples = 0;
  std::uint64_t process_ns = 0;
  std::uint64_t states_created = 0;
  std::uint64_t states_deserialized = 0;
  /// min over this slot's tuples of (process time - route stamp), in
  /// absolute steady-clock microseconds: an upper bound on the engine's
  /// private epoch, since no tuple is processed before it is stamped.
  std::int64_t min_raw_us = std::numeric_limits<std::int64_t>::max();
  std::uint64_t hist[kHistBuckets] = {};
};

struct ProbeRegion {
  static_assert(std::atomic<std::int64_t>::is_always_lock_free);
  static_assert(std::atomic<std::uint32_t>::is_always_lock_free);
  /// Process-unique id of this mapping (thread slot caches key on it).
  std::uint64_t id = 0;
  /// The process that mapped the region; every other writer is a forked
  /// socket-engine worker.
  pid_t creator_pid = 0;
  /// Latency origin: a steady-clock reading taken just before the engine
  /// was constructed, so it is never later than the engine's epoch.
  std::atomic<std::int64_t> epoch_us{0};
  std::atomic<std::uint32_t> next_slot{0};
  std::atomic<std::uint32_t> overflowed{0};
  ProbeSlot slots[kMaxSlots];
};

/// Owns one zeroed ProbeRegion mapping (MAP_SHARED | MAP_ANONYMOUS).
class SharedProbe {
 public:
  SharedProbe();
  ~SharedProbe();
  SharedProbe(const SharedProbe&) = delete;
  SharedProbe& operator=(const SharedProbe&) = delete;

  [[nodiscard]] ProbeRegion& region() { return *region_; }
  [[nodiscard]] const ProbeRegion& region() const { return *region_; }
  [[nodiscard]] std::size_t slots_used() const;

  /// The calling thread's slot, claimed on first use.
  [[nodiscard]] ProbeSlot& slot_for_this_thread() const;

 private:
  ProbeRegion* region_ = nullptr;
};

/// Wall-clock nanoseconds and microseconds on the engines' steady clock.
[[nodiscard]] std::int64_t steady_ns();
[[nodiscard]] inline std::int64_t steady_us() { return steady_ns() / 1000; }

/// Seconds of CPU time on `clock` (0 if unreadable).
[[nodiscard]] double cpu_seconds(clockid_t clock);
[[nodiscard]] double this_thread_cpu_seconds();

// ---------------------------------------------------------------------------
// Wrappers.

class ProbedLogic final : public skewless::OperatorLogic {
 public:
  ProbedLogic(std::shared_ptr<const skewless::OperatorLogic> inner,
              const SharedProbe& probe, bool traced)
      : inner_(std::move(inner)), probe_(probe), traced_(traced) {}

  [[nodiscard]] std::unique_ptr<skewless::KeyState> make_state()
      const override;
  [[nodiscard]] std::unique_ptr<skewless::KeyState> deserialize_state(
      skewless::ByteReader& in) const override;
  skewless::Cost process(const skewless::Tuple& tuple,
                         skewless::KeyState& state,
                         skewless::Collector& out) const override;

 private:
  std::shared_ptr<const skewless::OperatorLogic> inner_;
  const SharedProbe& probe_;
  bool traced_;
};

/// What the checks and metrics keep of each plan the planner returned.
struct PlanRecord {
  std::vector<skewless::KeyMove> moves;
  std::size_t table_size = 0;
  double achieved_theta = 0.0;
  double plan_ms = 0.0;
};

class TimedPlanner final : public skewless::Planner {
 public:
  explicit TimedPlanner(skewless::PlannerPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] skewless::RebalancePlan plan(
      const skewless::PartitionSnapshot& snap,
      const skewless::PlannerConfig& config) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const std::vector<PlanRecord>& records() const {
    return records_;
  }

 private:
  skewless::PlannerPtr inner_;
  std::vector<PlanRecord> records_;
};

/// One generated interval, kept sparse: the keys with a non-zero count.
struct SparseInterval {
  std::vector<KeyId> keys;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
};

class PregeneratedSource final : public skewless::WorkloadSource {
 public:
  /// Draws `intervals` intervals from `inner` now.
  PregeneratedSource(skewless::WorkloadSource& inner, int intervals);

  /// Starts the replay over from the first interval.
  void rewind() { replayed_ = 0; }

  [[nodiscard]] std::size_t num_keys() const override { return num_keys_; }
  /// Replays the next pre-drawn interval (all-zero counts once every
  /// interval has been replayed).
  [[nodiscard]] skewless::IntervalWorkload next_interval() override;

  /// Neither engine's run() exposes its interval boundaries, so each
  /// return of next_interval() closes the open "interval" span and opens
  /// the next (the last one is closed by close_interval_span()).
  void set_mark_intervals(bool on) { mark_intervals_ = on; }
  void close_interval_span();

  [[nodiscard]] const std::vector<SparseInterval>& intervals() const {
    return intervals_;
  }
  /// Wall time of each wrapped next_interval() call, in ms.
  [[nodiscard]] const std::vector<double>& call_ms() const { return call_ms_; }

 private:
  std::size_t num_keys_;
  std::vector<SparseInterval> intervals_;
  std::vector<double> call_ms_;
  std::size_t replayed_ = 0;
  bool mark_intervals_ = false;
  int open_interval_span_ = -1;
};

}  // namespace perfbench
