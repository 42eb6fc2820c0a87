#include "engine/threaded_engine.h"

#include <algorithm>

#include "common/assert.h"
#include "common/clock.h"
#include "common/cpu_topology.h"
#include "common/log.h"

#if defined(__linux__) && defined(_GNU_SOURCE)
#include <pthread.h>
#include <sched.h>
#define SKEWLESS_HAS_THREAD_AFFINITY 1
#endif

namespace skewless {
namespace {

/// Pins `thread` to the `slot`-th CPU of the topology-aware pin order:
/// one CPU per distinct physical core first, SMT siblings only after
/// every core already carries a worker — two workers sharing a core's
/// execution ports is strictly worse than one per core while cores
/// remain free. Returns whether the pin took effect.
bool pin_thread_to_slot(std::thread& thread, unsigned slot) {
#if defined(SKEWLESS_HAS_THREAD_AFFINITY)
  const std::vector<int>& order = cpu_topology().pin_order;
  if (order.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(order[slot % order.size()]), &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  (void)thread;
  (void)slot;
  return false;
#endif
}

}  // namespace

ThreadedEngine::ThreadedEngine(ThreadedConfig config,
                               std::shared_ptr<OperatorLogic> logic,
                               std::unique_ptr<Controller> controller)
    : EngineCore(std::move(logic), std::move(controller), config.batch_size),
      config_(config),
      num_workers_(controller_->num_instances()),
      migration_mailbox_(1 << 20) {
  // No separate monitor in controller mode: the controller's provider
  // already sees every drained observation, and doubling it would
  // double exactly the stats memory the sketch mode exists to shrink.
  sketch_sink_ = controller_->slab_sink();
  start_workers();
}

ThreadedEngine::ThreadedEngine(ThreadedConfig config,
                               std::shared_ptr<OperatorLogic> logic,
                               InstanceId num_workers, std::uint64_t ring_seed)
    : EngineCore(std::move(logic), nullptr, config.batch_size,
                 ConsistentHashRing(num_workers, 128, ring_seed)),
      config_(config),
      num_workers_(num_workers),
      migration_mailbox_(1 << 20) {
  // The key domain is discovered from the stream; the monitor grows on
  // demand (the exact provider via resize_keys, the sketch natively).
  monitor_ = make_stats_provider(config_.stats_mode, 0, 1, config_.sketch);
  sketch_sink_ = dynamic_cast<SketchSlabSink*>(monitor_.get());
  start_workers();
}

ThreadedEngine::~ThreadedEngine() { shutdown(); }

void ThreadedEngine::start_workers() {
  SKW_EXPECTS(num_workers_ > 0);
  const auto n = static_cast<std::size_t>(num_workers_);
  queues_.reserve(n);
  stores_.reserve(n);
  stats_.reserve(n);
  drain_scratch_.resize(n);
  pushed_msgs_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(
        std::make_unique<BoundedMpmcQueue<WorkerMsg>>(config_.queue_capacity));
    stores_.push_back(std::make_unique<StateStore>());
    stats_.push_back(std::make_unique<WorkerStats>());
    folds_.push_back(std::make_unique<WorkerFold>(*logic_, epoch_us_));
    stats_.back()->per_key.reserve(256);
    drain_scratch_[i].reserve(256);
  }
  if (sketch_sink_ != nullptr) {
    // Sketch mode: thread-local slabs per worker, built against the
    // sink's own config so the Count-Min families match cell-for-cell.
    // The second buffer of each pair exists only under the asynchronous
    // merge — the inline path never seals, so it never swaps.
    slabs_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto pair = std::make_unique<SlabPair>();
      pair->bufs[0] = std::make_unique<ShardedWorkerSlab>(
          sketch_sink_->slab_config(), sketch_sink_->slab_shards());
      if (config_.async_merge) {
        pair->bufs[1] = std::make_unique<ShardedWorkerSlab>(
            sketch_sink_->slab_config(), sketch_sink_->slab_shards());
      }
      slabs_.push_back(std::move(pair));
    }
  }
#if defined(SKEWLESS_HAS_THREAD_AFFINITY)
  // Where the driver runs now — the merge thread binds its allocations
  // near this CPU's NUMA node, since the window it merges into was
  // allocated by the driver.
  driver_cpu_ = sched_getcpu();
#endif
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<InstanceId>(i)); });
    if (config_.pin_workers &&
        pin_thread_to_slot(workers_.back(), static_cast<unsigned>(i))) {
      ++pinned_workers_;
    }
  }
  if (async_merge_on()) {
    merge_thread_ = std::thread([this] { merge_loop(); });
    if (config_.pin_workers) {
      // The slot after the workers: the next free physical core, or the
      // first SMT sibling once the cores are full.
      pin_thread_to_slot(merge_thread_, static_cast<unsigned>(n));
    }
  }
}

void ThreadedEngine::worker_loop(InstanceId id) {
  const auto idx = static_cast<std::size_t>(id);
  StateStore& store = *stores_[idx];
  WorkerStats& stats = *stats_[idx];
  WorkerFold& fold = *folds_[idx];
  // Sketch mode: the worker starts on buffer 0 of its pair and (async
  // merge only) alternates at every seal.
  ShardedWorkerSlab* slab =
      slabs_.empty() ? nullptr : slabs_[idx]->bufs[0].get();
  // First-touch NUMA placement: the slab buffers were mapped (untouched)
  // on the driver thread; this worker commits each buffer's pages the
  // first time it is about to write it, so they land on the worker's
  // node. Done INSIDE message processing — never at loop top — so the
  // done_msgs release/acquire protocol orders the prefault writes before
  // any driver/merge read of the cells.
  bool prefaulted[2] = {false, false};
  std::size_t active_buf = 0;

  while (true) {
    auto msg = queues_[idx]->pop();
    if (!msg.has_value()) return;  // queue closed
    // Publish completion only after every effect of the message is done
    // — the release pairs with the driver's acquire in its quiescence
    // wait, ordering all slab/state writes before any driver read.
    struct DoneGuard {
      std::atomic<std::uint64_t>& counter;
      ~DoneGuard() { counter.fetch_add(1, std::memory_order_release); }
    } done_guard{stats.done_msgs};

    if (auto* batch = std::get_if<BatchMsg>(&*msg)) {
      fold.process(batch->tuples, store);
      if (slab != nullptr) {
        // Sketch mode: fold the batch into this worker's thread-local
        // slab — no lock anywhere, scalars included (they ride the slab
        // and are published by the seal / quiescence protocol). The
        // batched fold vector-hashes all cold probes in one call and
        // prefetches a few entries ahead (see add_batch).
        if (!prefaulted[active_buf]) {
          slab->prefault();
          prefaulted[active_buf] = true;
        }
        fold.fold_into(*slab);
      } else {
        // Exact mode — one lock per batch: the merge and every counter
        // update share a single critical section.
        std::lock_guard lock(stats.mu);
        for (const auto& [key, cb] : fold.local()) {
          auto& entry = stats.per_key[key];
          entry.cost += cb.cost;
          entry.state_bytes += cb.state_bytes;
          entry.frequency += cb.frequency;
        }
        fold.add_scalars(stats.scalars);
      }
    } else if (auto* extract = std::get_if<ExtractMsg>(&*msg)) {
      for (const KeyId key : extract->keys) {
        ExtractedState out;
        out.key = key;
        out.from = id;
        out.state = store.extract(key);
        const bool pushed = migration_mailbox_.push(std::move(out));
        SKW_ASSERT(pushed);
      }
    } else if (auto* install = std::get_if<InstallMsg>(&*msg)) {
      for (auto& [key, state] : install->states) {
        store.install(key, std::move(state));
      }
    } else if (auto* expire = std::get_if<ExpireMsg>(&*msg)) {
      store.expire_before(expire->watermark);
    } else if (auto* seal = std::get_if<SealMsg>(&*msg)) {
      // Epoch boundary (async merge): stamp + release-publish the active
      // buffer, swap onto the peer (cleared by the merge path before the
      // previous epoch's heavy set was published, which we waited for),
      // and install the closing epoch's post-roll heavy set before any
      // next-epoch batch — the acquire on heavy_epoch_ pairs with the
      // publisher's release, ordering the merge path's writes (peer
      // clear, heavy_published_) before ours.
      SKW_ASSERT(slab != nullptr);
      SlabPair& pair = *slabs_[idx];
      slab->set_epoch(seal->epoch);
      pair.sealed_epoch.store(seal->epoch, std::memory_order_release);
      {
        // Pair the store with the merge thread's wait: the empty
        // critical section makes the notify visible to a waiter that
        // checked the predicate just before the store.
        std::lock_guard lock(seal_mu_);
      }
      seal_cv_.notify_all();
      active_buf = static_cast<std::size_t>(seal->epoch & 1);
      slab = pair.bufs[active_buf].get();
      if (heavy_epoch_.load(std::memory_order_acquire) < seal->epoch) {
        // Sleep (never spin — the merge path needs the cycles) until the
        // closing epoch's roll publishes the new heavy set.
        std::unique_lock lock(heavy_mu_);
        heavy_cv_.wait(lock, [&] {
          return heavy_epoch_.load(std::memory_order_acquire) >=
                     seal->epoch ||
                 stopping_.load(std::memory_order_acquire);
        });
      }
      if (heavy_epoch_.load(std::memory_order_acquire) >= seal->epoch) {
        slab->set_heavy_keys(heavy_published_);
      }
    } else {
      SKW_ASSERT(std::holds_alternative<StopMsg>(*msg));
      return;
    }
  }
}

void ThreadedEngine::push_msg(InstanceId d, WorkerMsg msg, bool force) {
  auto& queue = *queues_[static_cast<std::size_t>(d)];
  const bool ok =
      force ? queue.force_push(std::move(msg)) : queue.push(std::move(msg));
  // A dropped-but-counted message would deadlock the quiescence wait;
  // push only fails after shutdown() closed the queue.
  SKW_ASSERT(ok);
  ++pushed_msgs_[static_cast<std::size_t>(d)];
}

void ThreadedEngine::send_batch(InstanceId d, std::vector<Tuple>& batch) {
  BatchMsg msg;
  msg.tuples.swap(batch);
  push_msg(d, std::move(msg));
}

BoundaryTally ThreadedEngine::drain_worker_stats() {
  BoundaryTally tally(stats_.size());
  for (std::size_t w = 0; w < stats_.size(); ++w) {
    if (sketch_sink_ != nullptr) {
      // The quiescence wait in close() ordered all slab writes before
      // this read; no lock is needed (the scalars ride the slab too).
      ShardedWorkerSlab& slab = *slabs_[w]->bufs[0];
      tally.absorb(w, slab, *sketch_sink_);
      slab.clear();
      continue;
    }
    WorkerStats& ws = *stats_[w];
    auto& drained = drain_scratch_[w];
    WorkerSketchSlab::IntervalScalars scalars;
    {
      // Single short critical section per worker: grab the scalar
      // counters and swap out the per-key map, handing back last
      // interval's cleared, pre-bucketed map.
      std::lock_guard lock(ws.mu);
      drained.swap(ws.per_key);
      scalars = ws.scalars;
      ws.scalars = {};
    }
    // Exact mode: account the worker-side map at its fullest (nodes are
    // freed by the clear below), then replay it into the provider.
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
    const std::size_t memory =
        drained.size() *
            (sizeof(WorkerFold::KeyAggMap::value_type) + kNodeOverhead) +
        (drained.bucket_count() + ws.per_key.bucket_count()) * sizeof(void*);
    Cost cost = 0.0;
    WallTimer merge_timer;
    for (const auto& [key, cb] : drained) {
      cost += cb.cost;
      const auto dest = static_cast<InstanceId>(w);
      if (controller_) {
        controller_->record(key, cb.cost, cb.state_bytes, cb.frequency, dest);
      } else {
        if (monitor_->mode() == StatsMode::kExact &&
            key >= monitor_->num_keys()) {
          monitor_->resize_keys(static_cast<std::size_t>(key) + 1);
        }
        monitor_->record(key, cb.cost, cb.state_bytes, cb.frequency, dest);
      }
    }
    tally.add_merge_ms(merge_timer.elapsed_millis());
    tally.add(w, scalars, cost, memory);
    // clear() keeps the bucket array; the next swap hands it back to the
    // worker so steady-state intervals do no hash-table allocation.
    drained.clear();
  }
  return tally;
}

void ThreadedEngine::merge_sealed_slabs(std::uint64_t epoch,
                                        BoundaryTally& tally) {
  for (std::size_t w = 0; w < slabs_.size(); ++w) {
    SlabPair& pair = *slabs_[w];
    // The seal is the last message of the epoch in worker w's FIFO, so
    // sealed_epoch reaching `epoch` (acquire, pairing with the worker's
    // release) is per-worker quiescence: every batch of the epoch is
    // folded into the sealed buffer before this read. Sleep on the seal
    // signal rather than spinning — on a busy machine the spin would
    // steal exactly the cycles the straggler worker needs to drain.
    if (pair.sealed_epoch.load(std::memory_order_acquire) < epoch) {
      std::unique_lock lock(seal_mu_);
      seal_cv_.wait(lock, [&] {
        return pair.sealed_epoch.load(std::memory_order_acquire) >= epoch ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    if (pair.sealed_epoch.load(std::memory_order_acquire) < epoch) return;
    ShardedWorkerSlab& slab = *pair.bufs[(epoch - 1) & 1];
    SKW_ASSERT(slab.epoch() == epoch);
    tally.absorb(w, slab, *sketch_sink_);
    slab.clear();
    // The worker's active peer cannot be measured while it accumulates;
    // the just-cleared buffer (same capacities, empty contents) stands
    // in for it so the double-buffer footprint is still accounted.
    tally.add_memory(slab.memory_bytes());
  }
}

void ThreadedEngine::merge_loop() {
  // Prefer allocations near the driver's NUMA node: the window this
  // thread absorbs into (and everything it grows) was allocated by the
  // driver, so keeping the merge path's memory on that node avoids
  // remote-node traffic on every absorb. Graceful no-op without libnuma
  // or on single-node hosts.
  bind_current_thread_to_node_of_cpu(driver_cpu_);
  std::uint64_t epoch = 1;
  while (true) {
    {
      std::unique_lock lock(merge_mu_);
      merge_cv_.wait(lock,
                     [&] { return merge_requested_ >= epoch || merge_stop_; });
      if (merge_requested_ < epoch) return;  // stopping, nothing pending
    }
    BoundaryTally tally(slabs_.size());
    merge_sealed_slabs(epoch, tally);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!controller_) {
      // Hash-only mode: the merge thread owns the monitor's roll and the
      // heavy-set publication — the sealed workers resume as soon as the
      // roll lands, with no driver involvement at all.
      monitor_->roll();
      tally.add_memory(monitor_->memory_bytes());
      publish_heavy_set(epoch);
    }
    {
      std::lock_guard lock(merge_mu_);
      boundary_tally_ = std::move(tally);
      merge_completed_ = epoch;
    }
    merge_cv_.notify_all();
    ++epoch;
  }
}

void ThreadedEngine::refresh_worker_heavy_sets() {
  if (sketch_sink_ == nullptr) return;
  const std::vector<KeyId> keys = sketch_sink_->heavy_keys();
  for (auto& pair : slabs_) pair->bufs[0]->set_heavy_keys(keys);
}

void ThreadedEngine::publish_heavy_set(std::uint64_t epoch) {
  heavy_published_ = sketch_sink_->heavy_keys();
  heavy_epoch_.store(epoch, std::memory_order_release);
  {
    std::lock_guard lock(heavy_mu_);
  }
  heavy_cv_.notify_all();
}

Bytes ThreadedEngine::execute_migration(const RebalancePlan& plan) {
  MigrationRoutes routes = group_moves(plan, num_workers_);
  std::size_t expected = 0;
  for (InstanceId d = 0; d < num_workers_; ++d) {
    auto& keys = routes.by_source[static_cast<std::size_t>(d)];
    if (keys.empty()) continue;
    expected += keys.size();
    push_msg(d, ExtractMsg{std::move(keys)});
  }

  // Collect the extracted states (workers reach the Extract message after
  // finishing every tuple routed before the migration — FIFO ordering).
  std::vector<std::vector<std::pair<KeyId, std::unique_ptr<KeyState>>>>
      by_dest(static_cast<std::size_t>(num_workers_));
  Bytes wire_bytes = 0.0;
  for (std::size_t i = 0; i < expected; ++i) {
    auto extracted = migration_mailbox_.pop();
    SKW_ASSERT(extracted.has_value());
    if (extracted->state == nullptr) continue;  // key had no state yet
    std::unique_ptr<KeyState> state = std::move(extracted->state);
    if (config_.serialize_migration) {
      // Round-trip through the byte codec, exactly as a cross-node
      // migration would ship it.
      ByteWriter writer;
      state->serialize(writer);
      wire_bytes += static_cast<Bytes>(writer.size());
      const auto payload = writer.take();
      ByteReader reader(payload);
      auto restored = logic_->deserialize_state(reader);
      SKW_ASSERT(reader.exhausted());
      SKW_ASSERT(restored->checksum() == state->checksum());
      state = std::move(restored);
    }
    const InstanceId to = routes.dest_of.at(extracted->key);
    by_dest[static_cast<std::size_t>(to)].emplace_back(
        extracted->key, std::move(state));
  }

  // Install at the destinations; tuples routed after this call sit behind
  // the Install message in the destination queue.
  for (InstanceId d = 0; d < num_workers_; ++d) {
    auto& states = by_dest[static_cast<std::size_t>(d)];
    if (states.empty()) continue;
    push_msg(d, InstallMsg{std::move(states)});
  }
  return wire_bytes;
}

void ThreadedEngine::seal() {
  if (!async_merge_on()) return;
  // Seal the epoch: one lightweight message per worker (FIFO puts it
  // behind every batch of the closing interval), then hand the epoch to
  // the merge thread. Ingestion is free to continue immediately —
  // next-interval batches queue behind the seals and land in the
  // workers' swapped-in buffers.
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  for (InstanceId d = 0; d < num_workers_; ++d) {
    // Forced: the seal is a control message — blocking behind a full data
    // queue here would BE the boundary stall this protocol removes (the
    // driver runs ahead of the workers, so the queues are routinely at
    // capacity when the interval closes).
    push_msg(d, SealMsg{epoch}, /*force=*/true);
  }
  {
    std::lock_guard lock(merge_mu_);
    merge_requested_ = epoch;
  }
  merge_cv_.notify_all();
}

void ThreadedEngine::close(IntervalReport& report) {
  const auto epoch = static_cast<std::uint64_t>(interval_) + 1;
  BoundaryTally tally;
  if (async_merge_on()) {
    std::unique_lock lock(merge_mu_);
    merge_cv_.wait(lock, [&] { return merge_completed_ >= epoch; });
    tally = std::move(boundary_tally_);
  } else {
    // Inline boundary: wait for every pushed message to be fully
    // processed so the interval's statistics are complete before
    // planning. Counting completions instead of polling queue emptiness
    // is what makes this gap-free: a message a worker has popped but not
    // finished keeps done_msgs behind pushed_msgs_.
    for (InstanceId d = 0; d < num_workers_; ++d) {
      const auto di = static_cast<std::size_t>(d);
      while (stats_[di]->done_msgs.load(std::memory_order_acquire) !=
             pushed_msgs_[di]) {
        std::this_thread::yield();
      }
    }
    tally = drain_worker_stats();
    if (monitor_) {
      monitor_->roll();
      tally.add_memory(monitor_->memory_bytes());
    }
  }
  tally.report_into(report);
  std::optional<RebalancePlan> plan;
  if (controller_) plan = plan_boundary(report);
  // The roll just promoted/demoted: hand the post-roll heavy set to the
  // workers before any migration message needs processing. Async: the
  // epoch-stamped publish unblocks the sealed workers (hash-only mode
  // published from the merge thread). Inline: written straight into the
  // quiescent workers' slabs, which they read only while processing a
  // batch pushed (queue-synchronized) after this write.
  if (!async_merge_on()) {
    refresh_worker_heavy_sets();
  } else if (controller_) {
    publish_heavy_set(epoch);
  }
  if (plan) report.migration_wire_bytes = execute_migration(*plan);
  if (controller_ && config_.expire_lag_intervals > 0) {
    const Micros watermark = expire_watermark(config_.expire_lag_intervals);
    for (InstanceId d = 0; d < num_workers_; ++d) {
      push_msg(d, ExpireMsg{watermark});
    }
  }
}

std::uint64_t ThreadedEngine::total_output_tuples() const {
  std::uint64_t total = 0;
  for (const auto& fold : folds_) total += fold->outputs();
  return total;
}

void ThreadedEngine::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  // Wake any worker parked at the heavy-set barrier (a worker that
  // checks the predicate later sees stopping_ already set).
  {
    std::lock_guard lock(heavy_mu_);
  }
  heavy_cv_.notify_all();
  flush_pending();
  for (auto& q : queues_) q->push(WorkerMsg(StopMsg{}));
  for (auto& q : queues_) q->close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (merge_thread_.joinable()) {
    // Workers are gone; release the merge thread from any seal wait and
    // from its epoch wait.
    {
      std::lock_guard lock(seal_mu_);
    }
    seal_cv_.notify_all();
    {
      std::lock_guard lock(merge_mu_);
      merge_stop_ = true;
    }
    merge_cv_.notify_all();
    merge_thread_.join();
  }
}

std::uint64_t ThreadedEngine::state_checksum() const {
  SKW_EXPECTS(stopped_);
  std::uint64_t acc = 0;
  for (const auto& store : stores_) acc += store->checksum();
  return acc;
}

std::size_t ThreadedEngine::total_state_entries() const {
  SKW_EXPECTS(stopped_);
  std::size_t n = 0;
  for (const auto& store : stores_) n += store->size();
  return n;
}

}  // namespace skewless
