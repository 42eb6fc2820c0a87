// The engine core: every decision the threaded engine and the socket
// engine share, defined once.
//
// Both engines run the paper's rebalance protocol (Fig. 5) and must
// produce byte-identical runs: the same plan-history digest, the same θ
// bit patterns and the same state checksums. They get there by sharing
// this core rather than by keeping two copies in step:
//   * WorkerFold — the per-batch worker fold (operator, per-key
//     aggregation, slab fold). Its scratch map's rehash trajectory fixes
//     the order keys enter a slab, so one definition is what keeps the
//     slabs identical batch for batch;
//   * BoundaryTally — the boundary's absorb of the sealed worker slabs in
//     worker-index order, and the report numbers derived from them (θ,
//     mean latency, merge time, statistics memory);
//   * EngineCore — the interval loop (expansion and shuffle of a workload
//     source with the seeded RNG, ingest → begin boundary → expand next →
//     finish boundary), the routing path (F(k) per chunk, the pending
//     per-worker batches), the tuple stamps and expiry watermark, the
//     controller's plan step and the report's wall/stall/throughput tail.
// What differs per engine is the transport: how a full batch reaches a
// worker, how a sealed slab comes back, and how state migrates.
//
// Routing. route() walks the tuples in chunks of kRouteChunk: one batched
// F(k) evaluation and one stamp() per chunk, then each tuple joins its
// worker's pending batch, and a full batch goes to the transport's
// send_batch(). A stamp thus predates its tuple's enqueue by at most one
// chunk's routing time. A send may retire a dead worker (the socket
// engine's degrade); route() then re-evaluates the rest of the chunk, so
// no tuple joins a retired worker's batch. It stops once healthy() fails.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/consistent_hash.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/operator.h"
#include "engine/state.h"
#include "engine/tuple.h"
#include "engine/workload_source.h"
#include "sketch/sharded_worker_slab.h"
#include "sketch/slab_sink.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

/// Microseconds on the steady clock.
[[nodiscard]] Micros steady_now_us();

/// One closed interval, as either engine reports it.
struct IntervalReport {
  IntervalId interval = 0;
  std::uint64_t emitted = 0;
  std::uint64_t processed = 0;
  double wall_ms = 0.0;
  double throughput_tps = 0.0;
  double avg_latency_ms = 0.0;
  double max_theta = 0.0;
  bool migrated = false;
  std::size_t moves = 0;
  Bytes migration_bytes = 0.0;
  /// Serialized state payload shipped during migration: always on the
  /// socket engine, only with ThreadedConfig::serialize_migration on the
  /// threaded one.
  Bytes migration_wire_bytes = 0.0;
  Micros generation_micros = 0;
  /// Resident bytes of ALL statistics structures: the provider
  /// (controller's in controller mode, the engine monitor in hash-only
  /// mode) plus the per-worker accumulators — sketch slabs (both buffers
  /// of each pair in double-buffered mode), the shared per-key maps and
  /// drain scratch in exact mode, the decoded summaries on the socket
  /// engine. This is the end-to-end number the exact-vs-sketch memory
  /// trade-off is about.
  std::size_t stats_memory_bytes = 0;
  /// Time the driver's tuple ingestion was blocked by this interval's
  /// boundary: everything between the last tuple of this interval and
  /// being ready to route the next one, minus the overlap window in
  /// which run() expands the next interval's tuples. Threaded inline
  /// merge: the whole quiesce + absorb + roll + plan sequence. Threaded
  /// async merge: the seal pushes plus whatever merge/plan work had not
  /// finished by harvest time. Socket engine: seal broadcast + summary
  /// wait + absorb + plan + migration barrier.
  double stall_ms = 0.0;
  /// Time absorbing worker statistics into the provider — slab absorbs
  /// (decode included on the socket engine) in sketch mode, the per-key
  /// replay under the drain locks in exact mode.
  double merge_ms = 0.0;
  /// Socket engine only (zero on the threaded engine): bytes moved on
  /// the data / ctrl sockets during this interval (both directions,
  /// including frame headers).
  std::uint64_t data_wire_bytes = 0;
  std::uint64_t ctrl_wire_bytes = 0;
  /// Socket engine only: the part of ctrl_wire_bytes that was this
  /// boundary's checkpoint payloads (the workers' deltas).
  std::uint64_t checkpoint_wire_bytes = 0;
  /// Socket engine only: cumulative successful crash recoveries at this
  /// interval's close.
  std::uint64_t recoveries = 0;
  /// Socket engine only: true once any worker has been retired.
  bool degraded = false;
};

/// The per-batch fold every worker runs, on a thread or in a process:
/// each tuple goes through the operator against its key's state, and the
/// batch is aggregated per key into one scratch map, so each distinct key
/// pays one slab or map update per batch. The scratch map folds into a
/// slab in iteration order, which depends on the map's bucket history —
/// local_buckets()/restore() carry that history across a checkpoint.
class WorkerFold final : private Collector {
 public:
  using KeyAggMap = std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg>;

  /// `engine_epoch_us` is the steady-clock origin of the tuples' emit
  /// stamps (EngineCore::stamp).
  WorkerFold(const OperatorLogic& logic, Micros engine_epoch_us);
  WorkerFold(const WorkerFold&) = delete;
  WorkerFold& operator=(const WorkerFold&) = delete;

  /// Runs `batch` through the operator against `store` and aggregates it
  /// into local() and the batch scalars.
  void process(const std::vector<Tuple>& batch, StateStore& store);
  /// Adds the last batch's scalar counters to `into`.
  void add_scalars(WorkerSketchSlab::IntervalScalars& into) const;
  /// Folds the last batch into `slab`: per-key aggregation and scalars.
  void fold_into(ShardedWorkerSlab& slab) const;

  [[nodiscard]] const KeyAggMap& local() const { return local_; }
  /// Tuples the operator emitted so far.
  [[nodiscard]] std::uint64_t outputs() const { return outputs_; }
  [[nodiscard]] std::size_t local_buckets() const {
    return local_.bucket_count();
  }
  /// Restores a checkpointed emission count and scratch-map bucket count.
  void restore(std::uint64_t outputs, std::size_t local_buckets);

 private:
  void emit(const Tuple& /*tuple*/) override { ++outputs_; }

  const OperatorLogic& logic_;
  Micros epoch_us_;
  KeyAggMap local_;
  WorkerSketchSlab::IntervalScalars batch_;
  std::uint64_t outputs_ = 0;
};

/// One interval boundary's tally of the workers' closed statistics. Sealed
/// slabs are absorbed in worker-index order — a fixed order, so the merged
/// window is byte-identical whichever worker finished first. Worker w is
/// instance w: the whole slab's cold stream ran there, which is the
/// attribution the compact planning view's cold residuals need.
class BoundaryTally {
 public:
  BoundaryTally() = default;
  explicit BoundaryTally(std::size_t workers) : worker_cost_(workers, 0.0) {}

  /// Counts worker `w`'s interval: its scalars, its total cost and
  /// `memory_bytes` of worker-side statistics.
  void add(std::size_t w, const WorkerSketchSlab::IntervalScalars& scalars,
           Cost cost, std::size_t memory_bytes);
  /// add() for `slab`, then absorbs it into `sink` as instance `w`
  /// (timed as merge time). Callers go in worker-index order.
  void absorb(std::size_t w, const ShardedWorkerSlab& slab,
              SketchSlabSink& sink);
  void add_merge_ms(double ms) { merge_ms_ += ms; }
  void add_memory(std::size_t bytes) { memory_bytes_ += bytes; }

  /// Adds processed, merge_ms and stats_memory_bytes to `report` and sets
  /// avg_latency_ms and max_theta (the realized imbalance
  /// max|c_d - avg|/avg over the per-worker costs).
  void report_into(IntervalReport& report) const;

 private:
  std::vector<double> worker_cost_;
  std::uint64_t processed_ = 0;
  double latency_sum_us_ = 0.0;
  std::uint64_t latency_samples_ = 0;
  double merge_ms_ = 0.0;
  std::size_t memory_bytes_ = 0;
};

/// A plan's moved keys grouped by source worker, and each key's planned
/// destination.
struct MigrationRoutes {
  std::vector<std::vector<KeyId>> by_source;
  std::unordered_map<KeyId, InstanceId> dest_of;
};
[[nodiscard]] MigrationRoutes group_moves(const RebalancePlan& plan,
                                          InstanceId workers);

/// The interval driver both engines derive from. An interval is
/// ingest() (any number of calls) → begin_boundary() → finish_boundary();
/// the engine supplies the transport through send_batch(), seal() and
/// close().
class EngineCore {
 public:
  virtual ~EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  /// Processes `intervals` intervals from `source`: each interval's counts
  /// are expanded into a tuple sequence and shuffled with the RNG seeded
  /// by `seed`, so every engine sees identical tuple sequences. The next
  /// interval's expansion runs between begin_boundary and
  /// finish_boundary, overlapping the boundary's seal/merge wait.
  std::vector<IntervalReport> run(WorkloadSource& source, int intervals,
                                  std::uint64_t seed = 1);

  /// Processes an explicit tuple sequence as one interval and completes
  /// the boundary before returning, so the merged statistics are fully
  /// visible to the caller.
  IntervalReport run_interval(const std::vector<Tuple>& tuples);

  [[nodiscard]] Controller* controller() { return controller_.get(); }
  [[nodiscard]] std::uint64_t total_emitted() const { return total_emitted_; }
  /// Tuples counted by closed boundaries.
  [[nodiscard]] std::uint64_t total_processed() const {
    return total_processed_;
  }

 protected:
  /// Tuples per F(k) evaluation and per stamp() read in route().
  static constexpr std::size_t kRouteChunk = 1024;

  /// Routes by `controller`'s assignment, or by `hash_ring` when it is
  /// null (hash-only mode); sends a pending batch at `batch_size` tuples.
  EngineCore(std::shared_ptr<OperatorLogic> logic,
             std::unique_ptr<Controller> controller, std::size_t batch_size,
             std::optional<ConsistentHashRing> hash_ring = std::nullopt);

  /// Routes tuples into the open interval (opening it on first use).
  IntervalReport ingest(const std::vector<Tuple>& tuples);
  /// Starts the boundary (seal()). Between begin and finish the caller
  /// may do driver-side work that neither routes tuples nor touches
  /// statistics; that time is excluded from wall_ms and stall_ms.
  void begin_boundary();
  /// Completes the boundary (close()) and finalizes wall_ms, stall_ms
  /// and throughput_tps.
  void finish_boundary(IntervalReport& report);

  /// The transport: delivers worker `d`'s batch, emptying `batch` (swap
  /// or clear) first. It may retire a worker if it re-homes that worker's
  /// pending batch onto the survivors.
  virtual void send_batch(InstanceId d, std::vector<Tuple>& batch) = 0;
  /// Sends every non-empty pending batch, in worker order.
  void flush_pending();
  /// Closes the epoch on the workers' side (begin_boundary).
  virtual void seal() = 0;
  /// Collects the epoch, plans and migrates (finish_boundary).
  virtual void close(IntervalReport& report) = 0;
  /// False once the engine can no longer run intervals; every interval
  /// step is then a no-op.
  [[nodiscard]] virtual bool healthy() const { return true; }

  /// Emit stamp for a tuple of the open interval: the steady clock since
  /// the engine epoch, but never before the interval's start. Every
  /// stamp of interval j is >= j's start and > every stamp of j-1.
  [[nodiscard]] Micros stamp() const;
  /// The expiry watermark at the open interval's close: the start of the
  /// oldest of the `lag` (> 0) most recent intervals, the closing one
  /// included, so expiry drops exactly the tuples of older intervals,
  /// whatever the interval length.
  [[nodiscard]] Micros expire_watermark(int lag) const;
  /// Rolls and plans the closed interval through the controller, filling
  /// the report's plan fields, max_theta and the provider's memory.
  std::optional<RebalancePlan> plan_boundary(IntervalReport& report);

  std::shared_ptr<OperatorLogic> logic_;
  std::unique_ptr<Controller> controller_;
  /// Steady-clock origin of every emit stamp.
  const Micros epoch_us_;
  IntervalId interval_ = 0;
  /// One pending batch per worker, filled by route().
  std::vector<std::vector<Tuple>> pending_batches_;

 private:
  void open_interval();
  /// Routes `tuples` (see the header comment); returns how many were
  /// routed before the engine became unhealthy.
  std::uint64_t route(const std::vector<Tuple>& tuples);
  /// F(k) for `n` tuples into `out`, in one batched evaluation.
  void evaluate(const Tuple* tuples, std::size_t n, InstanceId* out);
  void flush_batch(std::size_t d);
  [[nodiscard]] std::uint64_t retire_generation() const {
    return controller_ ? controller_->assignment().retire_generation() : 0;
  }

  std::optional<ConsistentHashRing> hash_ring_;
  const std::size_t batch_size_;
  std::vector<KeyId> route_keys_;  // route() scratch
  std::vector<InstanceId> route_dests_;

  /// Start stamp of every interval opened so far, indexed by interval.
  std::vector<Micros> interval_starts_;
  Micros open_start_ = 0;
  bool interval_open_ = false;
  double open_wall_ms_ = 0.0;
  double open_stall_ms_ = 0.0;
  std::uint64_t total_emitted_ = 0;
  std::uint64_t total_processed_ = 0;
};

}  // namespace skewless
