// Real multi-threaded single-operator engine: a driver (spout + router +
// controller host) feeding N worker threads over bounded queues.
//
// This driver exists to prove the protocol end to end with real threads,
// real queues and real state objects — the examples and integration tests
// run on it. The figure benches use the deterministic SimEngine instead.
//
// Migration protocol (Fig. 5), mapped onto queue FIFO ordering:
//   1. the controller decides a plan at an interval boundary;
//   2. the driver routes no tuples while it pushes one Extract control
//      message per source worker — every tuple sent earlier is ahead of
//      the Extract in that worker's FIFO queue, so extraction sees the
//      fully up-to-date state;
//   3. workers reply with the extracted KeyState objects through the
//      migration mailbox;
//   4. the driver pushes Install messages to the destination workers and
//      only then resumes routing with the new assignment — any tuple
//      routed afterwards sits behind the Install in the destination's
//      FIFO queue, so it can never observe a missing state.
// Keys not involved in ∆(F, F') keep flowing the whole time.
//
// Statistics contract (worker ↔ driver). Every worker runs the shared
// WorkerFold (engine/engine_core.h) per batch; the stats mode decides
// where the batch's per-key aggregation goes:
//   * exact mode — merged into a mutex-guarded shared map, which the
//     driver swaps out at interval boundaries and replays into the
//     provider. O(|K|) hash traffic crosses threads each interval.
//   * sketch mode — folded into the worker's thread-local slab
//     (Count-Min sketches + Misra-Gries candidates + exact hot-key map
//     for the current heavy set). The boundary absorbs the slabs through
//     the shared BoundaryTally in worker-index order — the same fold and
//     the same absorb as the socket engine, which is why the two engines
//     are byte-identical by construction. No per-key hash traffic
//     crosses threads on the data path.
//
// Seal protocol (sketch mode, ThreadedConfig::async_merge — the
// asynchronous boundary merge): each worker owns a PAIR of slabs. At the
// boundary the driver pushes one lightweight SealMsg per worker and
// immediately returns to ingesting — the stall shrinks from the full
// quiesce-and-merge to the seal pushes. Each worker, on reaching its
// SealMsg (FIFO: after every batch of the closing epoch), stamps the
// active slab with the epoch, release-publishes it through
// SlabPair::sealed_epoch, swaps onto the other buffer, and then waits for
// the NEW heavy set (epoch-stamped, published after the merge path rolls
// the window) before touching the next epoch's batches — which is what
// keeps double-buffered runs byte-identical to the inline merge: every
// slab accumulates under exactly the heavy set the inline schedule would
// have installed. A driver-side merge thread absorbs the sealed slabs in
// worker-index order while the next interval's tuples are generated; the
// merge input is exactly the sealed epoch regardless of scheduling, so
// the merged window state is schedule-independent too. With async_merge
// off the inline protocol (gap-free quiescence wait + driver-side absorb)
// runs instead and is the determinism baseline the double-buffer path is
// tested against.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "common/queue.h"
#include "common/types.h"
#include "core/controller.h"
#include "engine/engine_core.h"
#include "engine/operator.h"
#include "engine/state.h"
#include "engine/tuple.h"
#include "sketch/sharded_worker_slab.h"
#include "sketch/sketch_stats_window.h"
#include "sketch/slab_sink.h"
#include "sketch/worker_sketch_slab.h"

namespace skewless {

struct ThreadedConfig {
  InstanceId num_workers = 4;
  /// Tuples per Batch message (amortizes queue locking).
  std::size_t batch_size = 256;
  /// Batches a worker queue holds before the driver blocks (backpressure).
  std::size_t queue_capacity = 64;
  /// Window expiry watermark lag, in intervals (0 = no expiry messages).
  int expire_lag_intervals = 0;
  /// If true, migrated states round-trip through the byte codec
  /// (KeyState::serialize -> OperatorLogic::deserialize_state), as a
  /// distributed deployment would ship them. Costs CPU, proves fidelity,
  /// and fills IntervalReport::migration_wire_bytes.
  bool serialize_migration = false;
  /// Storage for the engine-side statistics monitor that hash-only mode
  /// keeps (there is no controller to hold one). In controller mode the
  /// controller's provider — configured via ControllerConfig — is the
  /// single statistics store and this field is unused.
  StatsMode stats_mode = StatsMode::kExact;
  /// Tuning for stats_mode == kSketch.
  SketchStatsConfig sketch = {};
  /// Sketch mode only: double-buffer each worker's slab and absorb the
  /// sealed buffers on a merge thread that overlaps the next interval's
  /// tuple flow (see the seal protocol in the header comment). Off =
  /// the inline boundary merge (full quiescence wait + driver-side
  /// absorb), kept as the byte-identical determinism baseline and the
  /// stall_ms A/B reference. Exact mode ignores this flag.
  bool async_merge = true;
  /// Pin worker w to the w-th CPU of the topology-aware pin order (one
  /// CPU per distinct physical core first, SMT siblings only after every
  /// core carries a worker — see cpu_topology()) where the platform
  /// supports it (pthread_setaffinity_np), so each worker's slab pair
  /// stays resident in its owner's private L2 instead of migrating
  /// between cores with the thread, and two workers never share a core's
  /// execution ports while whole cores sit idle. The merge thread takes
  /// the slot after the last worker. No-op elsewhere; see
  /// ThreadedEngine::pinned_workers() for how many pins took effect.
  bool pin_workers = false;
};

class ThreadedEngine final : public EngineCore {
 public:
  /// Controller mode: the controller's AssignmentFunction routes tuples
  /// and its planner rebalances at interval boundaries.
  ThreadedEngine(ThreadedConfig config, std::shared_ptr<OperatorLogic> logic,
                 std::unique_ptr<Controller> controller);

  /// Hash-only mode (the "Storm" baseline): consistent hashing, no
  /// controller, no migration.
  ThreadedEngine(ThreadedConfig config, std::shared_ptr<OperatorLogic> logic,
                 InstanceId num_workers_for_ring, std::uint64_t ring_seed);

  ~ThreadedEngine() override;

  /// Stops and joins the workers; further run() calls are invalid.
  /// Called automatically by the destructor.
  void shutdown();

  /// Valid after shutdown(): combined order-insensitive checksum over all
  /// workers' states — equal across runs regardless of key placement.
  [[nodiscard]] std::uint64_t state_checksum() const;

  /// Valid after shutdown(): number of distinct keys with live state.
  [[nodiscard]] std::size_t total_state_entries() const;

  /// The per-key statistics view: the controller's provider in
  /// controller mode, the engine-side monitor (rolled once per
  /// interval, per ThreadedConfig::stats_mode) in hash-only mode.
  [[nodiscard]] const StatsProvider& state_tracker() const {
    return controller_ ? controller_->stats() : *monitor_;
  }

  /// Number of workers whose core pin (ThreadedConfig::pin_workers) took
  /// effect — 0 when pinning is off or unsupported on this platform.
  [[nodiscard]] InstanceId pinned_workers() const { return pinned_workers_; }

  /// Tuples the operator emitted. Valid between intervals and after
  /// shutdown(): a closed boundary orders every worker's writes before it.
  [[nodiscard]] std::uint64_t total_output_tuples() const;

 private:
  struct BatchMsg {
    std::vector<Tuple> tuples;
  };
  struct ExtractMsg {
    std::vector<KeyId> keys;
  };
  struct InstallMsg {
    std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>> states;
  };
  struct ExpireMsg {
    Micros watermark;
  };
  /// Interval-boundary seal (sketch mode, async_merge): the worker
  /// stamps + publishes its active slab as `epoch`'s sealed buffer,
  /// swaps onto the other one, and installs the epoch's new heavy set
  /// before processing anything that follows. FIFO ordering guarantees
  /// every batch of the closing epoch is ahead of the seal.
  struct SealMsg {
    std::uint64_t epoch;
  };
  struct StopMsg {};
  using WorkerMsg = std::variant<BatchMsg, ExtractMsg, InstallMsg, ExpireMsg,
                                 SealMsg, StopMsg>;

  struct ExtractedState {
    KeyId key = 0;
    InstanceId from = 0;
    std::unique_ptr<KeyState> state;  // nullptr if the key had no state yet
  };

  /// Per-worker statistics shared with the driver. The channel depends
  /// on the stats mode:
  ///
  ///  * EXACT — the per_key map AND the scalar counters, merged under
  ///    the mutex per batch (one uncontended lock) and swapped out by
  ///    the driver at interval boundaries against a cleared scratch map
  ///    that keeps its buckets, so steady-state intervals do no
  ///    hash-table allocation on the hot path.
  ///  * SKETCH — the worker writes its WorkerSketchSlab (per-key AND
  ///    scalar counters — see WorkerSketchSlab::IntervalScalars) with NO
  ///    lock at all: the merge path only reads a slab after it was
  ///    published — by the quiescence wait (inline merge: done_msgs
  ///    observed equal, with acquire ordering, to the driver's push
  ///    count) or by the seal (async merge: sealed_epoch acquired) —
  ///    which orders every worker write before the read. No per-key
  ///    hash traffic and no lock on the data path.
  struct WorkerStats {
    std::mutex mu;
    WorkerFold::KeyAggMap per_key;
    WorkerSketchSlab::IntervalScalars scalars;
    /// Messages fully handled by the worker, incremented with release
    /// ordering only AFTER all the message's effects (state mutations,
    /// slab writes, stats updates) are complete. The driver is the only
    /// producer, so `done_msgs == pushed_msgs_[w]` observed with acquire
    /// is gap-free quiescence: a popped-but-unfinished message keeps the
    /// counts unequal. (A busy *flag* set after pop() would leave a
    /// window where the queue is empty and the flag not yet raised.)
    std::atomic<std::uint64_t> done_msgs{0};
  };

  /// Double-buffered slab pair (sketch mode). The worker writes the
  /// active buffer exclusively; sealed_epoch release-publishes the other
  /// one to the merge path. Which buffer is sealed at epoch e is a pure
  /// function of e (buffer (e-1)&1 — the worker starts on buffer 0 and
  /// alternates), so neither side needs to share an index. With
  /// async_merge off only buffer 0 exists and is never sealed.
  struct SlabPair {
    std::unique_ptr<ShardedWorkerSlab> bufs[2];
    std::atomic<std::uint64_t> sealed_epoch{0};
  };

  void start_workers();
  void worker_loop(InstanceId id);
  void merge_loop();
  /// Pushes `msg` onto worker `d`'s queue — blocking while it is full,
  /// unless `force` — and counts it for the quiescence wait.
  void push_msg(InstanceId d, WorkerMsg msg, bool force = false);
  void send_batch(InstanceId d, std::vector<Tuple>& batch) override;
  /// Returns the serialized payload size (0 when serialization is off).
  Bytes execute_migration(const RebalancePlan& plan);
  /// Inline boundary: tallies every quiescent worker's statistics into
  /// the provider (slab absorb in sketch mode, per-key replay in exact
  /// mode).
  BoundaryTally drain_worker_stats();
  /// Absorbs every worker's sealed slab for `epoch` in worker-index
  /// order (waiting for stragglers to seal) into `tally`. Runs on the
  /// merge thread.
  void merge_sealed_slabs(std::uint64_t epoch, BoundaryTally& tally);
  /// Pushes the sketch window's post-roll heavy set into every worker
  /// slab (inline merge only; workers must be quiescent).
  void refresh_worker_heavy_sets();
  /// Epoch-stamped release-publish of the post-roll heavy set; sealed
  /// workers waiting at their SealMsg barrier install it and resume.
  void publish_heavy_set(std::uint64_t epoch);
  /// Async merge pushes the seals and hands the epoch to the merge
  /// thread; inline/exact modes do nothing yet.
  void seal() override;
  /// Harvests the merge (async: waiting if it has not caught up; inline:
  /// quiesce + drain), rolls/plans/migrates, publishes the heavy set and
  /// queues the expiry watermark.
  void close(IntervalReport& report) override;
  [[nodiscard]] bool async_merge_on() const {
    return sketch_sink_ != nullptr && config_.async_merge;
  }

  ThreadedConfig config_;
  InstanceId num_workers_;

  std::vector<std::unique_ptr<BoundedMpmcQueue<WorkerMsg>>> queues_;
  std::vector<std::unique_ptr<StateStore>> stores_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;
  std::vector<std::unique_ptr<WorkerFold>> folds_;
  /// Messages the driver has pushed to each worker (driver-owned; the
  /// quiescence wait compares it against WorkerStats::done_msgs).
  /// StopMsg is deliberately uncounted — nothing waits after shutdown.
  std::vector<std::uint64_t> pushed_msgs_;
  /// Driver-side scratch maps swapped against WorkerStats::per_key at
  /// each drain (cleared with buckets retained — no per-interval rebuild).
  std::vector<WorkerFold::KeyAggMap> drain_scratch_;
  std::unique_ptr<StatsProvider> monitor_;  // hash-only mode, else null
  /// The provider as a slab sink when stats_mode == kSketch (whether
  /// owned by the controller or by monitor_; the shard count is
  /// invisible to the engine, which is the point);
  /// null in exact mode. Non-null switches the worker↔driver statistics
  /// contract to thread-local slabs + boundary merge.
  SketchSlabSink* sketch_sink_ = nullptr;
  /// One slab pair per worker (sketch mode only, else empty). Inline
  /// merge uses buffer 0 only.
  std::vector<std::unique_ptr<SlabPair>> slabs_;
  BoundedMpmcQueue<ExtractedState> migration_mailbox_;
  std::vector<std::thread> workers_;
  /// CPU the driver ran start_workers() on (-1 if unknown); the merge
  /// thread prefers allocations from this CPU's NUMA node.
  int driver_cpu_ = -1;

  // --- Seal/merge protocol state (sketch mode + async_merge only) ---
  /// The post-roll heavy set of epoch heavy_epoch_. Written by whoever
  /// completes the roll (merge thread in hash-only mode, driver in
  /// controller mode) BEFORE the release-store of heavy_epoch_; workers
  /// read it after their acquire-load, so the handoff is race-free.
  /// Both barrier waits below use condition variables, NOT yield spins:
  /// on a loaded (or single-core) machine a spinning waiter keeps
  /// burning scheduler slices the merge path needs, which is exactly the
  /// overlap this protocol exists to create.
  std::vector<KeyId> heavy_published_;
  std::atomic<std::uint64_t> heavy_epoch_{0};
  std::mutex heavy_mu_;
  std::condition_variable heavy_cv_;
  /// Signalled by workers after each seal publication; the merge thread
  /// sleeps here until the next sealed slab is available.
  std::mutex seal_mu_;
  std::condition_variable seal_cv_;
  /// Set once at shutdown; breaks workers out of the heavy-set barrier
  /// and the merge thread out of its seal waits.
  std::atomic<bool> stopping_{false};
  std::thread merge_thread_;
  std::mutex merge_mu_;
  std::condition_variable merge_cv_;
  std::uint64_t merge_requested_ = 0;  // guarded by merge_mu_
  std::uint64_t merge_completed_ = 0;  // guarded by merge_mu_
  bool merge_stop_ = false;            // guarded by merge_mu_
  BoundaryTally boundary_tally_;       // guarded by merge_mu_

  InstanceId pinned_workers_ = 0;
  bool stopped_ = false;
};

}  // namespace skewless
