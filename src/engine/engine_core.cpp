#include "engine/engine_core.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/assert.h"
#include "common/clock.h"
#include "common/rng.h"

namespace skewless {
namespace {

/// Expands one interval's per-key counts into tuples and shuffles them
/// so hot keys are interleaved like a stream. Consumes `rng` in a fixed
/// order: the byte-identity contract starts with identical sequences.
void expand_interval(WorkloadSource& source, Xoshiro256& rng,
                     std::vector<Tuple>& tuples) {
  const IntervalWorkload load = source.next_interval();
  tuples.clear();
  tuples.reserve(static_cast<std::size_t>(load.total()));
  for (std::size_t k = 0; k < load.counts.size(); ++k) {
    for (std::uint64_t c = 0; c < load.counts[k]; ++c) {
      Tuple t;
      t.key = static_cast<KeyId>(k);
      t.value = static_cast<std::int64_t>(c);
      tuples.push_back(t);
    }
  }
  for (std::size_t j = tuples.size(); j > 1; --j) {
    std::swap(tuples[j - 1], tuples[rng.next_below(j)]);
  }
}

}  // namespace

Micros steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WorkerFold::WorkerFold(const OperatorLogic& logic, Micros engine_epoch_us)
    : logic_(logic), epoch_us_(engine_epoch_us) {
  local_.reserve(256);
}

void WorkerFold::process(const std::vector<Tuple>& batch, StateStore& store) {
  const Micros now = steady_now_us();
  batch_ = {};
  // clear() keeps the bucket array, so steady state allocates nothing.
  local_.clear();
  for (const Tuple& t : batch) {
    KeyState& state =
        store.get_or_create(t.key, [&] { return logic_.make_state(); });
    const Bytes before = state.bytes();
    const Cost cost = logic_.process(t, state, *this);
    const Bytes delta = std::max(0.0, state.bytes() - before);
    auto& entry = local_[t.key];
    entry.cost += cost;
    entry.state_bytes += delta;
    ++entry.frequency;
    batch_.latency_sum_us +=
        static_cast<double>(now - epoch_us_ - t.emit_micros);
    ++batch_.latency_samples;
  }
  batch_.processed = batch.size();
}

void WorkerFold::add_scalars(WorkerSketchSlab::IntervalScalars& into) const {
  into.processed += batch_.processed;
  into.latency_sum_us += batch_.latency_sum_us;
  into.latency_samples += batch_.latency_samples;
}

void WorkerFold::fold_into(ShardedWorkerSlab& slab) const {
  slab.add_batch(local_);
  add_scalars(slab.scalars());
}

void WorkerFold::restore(std::uint64_t outputs, std::size_t local_buckets) {
  outputs_ = outputs;
  if (local_buckets > local_.bucket_count()) local_.rehash(local_buckets);
}

void BoundaryTally::add(std::size_t w,
                        const WorkerSketchSlab::IntervalScalars& scalars,
                        Cost cost, std::size_t memory_bytes) {
  processed_ += scalars.processed;
  latency_sum_us_ += scalars.latency_sum_us;
  latency_samples_ += scalars.latency_samples;
  worker_cost_[w] = cost;
  memory_bytes_ += memory_bytes;
}

void BoundaryTally::absorb(std::size_t w, const ShardedWorkerSlab& slab,
                           SketchSlabSink& sink) {
  add(w, slab.scalars(), slab.total_cost(), slab.memory_bytes());
  WallTimer timer;
  sink.absorb_slab(slab, static_cast<InstanceId>(w));
  merge_ms_ += timer.elapsed_millis();
}

void BoundaryTally::report_into(IntervalReport& report) const {
  report.processed += processed_;
  report.avg_latency_ms =
      latency_samples_ > 0
          ? latency_sum_us_ / static_cast<double>(latency_samples_) / 1000.0
          : 0.0;
  double total = 0.0;
  for (const double c : worker_cost_) total += c;
  double worst = 0.0;
  if (total > 0.0) {
    const double avg = total / static_cast<double>(worker_cost_.size());
    for (const double c : worker_cost_) {
      worst = std::max(worst, std::abs(c - avg) / avg);
    }
  }
  report.max_theta = worst;
  report.merge_ms += merge_ms_;
  report.stats_memory_bytes += memory_bytes_;
}

MigrationRoutes group_moves(const RebalancePlan& plan, InstanceId workers) {
  MigrationRoutes routes;
  routes.by_source.resize(static_cast<std::size_t>(workers));
  routes.dest_of.reserve(plan.moves.size());
  for (const KeyMove& mv : plan.moves) {
    routes.by_source[static_cast<std::size_t>(mv.from)].push_back(mv.key);
    routes.dest_of.emplace(mv.key, mv.to);
  }
  return routes;
}

EngineCore::EngineCore(std::shared_ptr<OperatorLogic> logic,
                       std::unique_ptr<Controller> controller,
                       std::size_t batch_size,
                       std::optional<ConsistentHashRing> hash_ring)
    : logic_(std::move(logic)),
      controller_(std::move(controller)),
      epoch_us_(steady_now_us()),
      hash_ring_(std::move(hash_ring)),
      batch_size_(batch_size),
      route_keys_(kRouteChunk),
      route_dests_(kRouteChunk) {
  SKW_EXPECTS(logic_ != nullptr);
  SKW_EXPECTS((controller_ != nullptr) != hash_ring_.has_value());
  SKW_EXPECTS(batch_size_ > 0);
  const InstanceId workers = controller_ ? controller_->num_instances()
                                         : hash_ring_->num_instances();
  pending_batches_.resize(static_cast<std::size_t>(workers));
}

void EngineCore::evaluate(const Tuple* tuples, std::size_t n,
                          InstanceId* out) {
  for (std::size_t j = 0; j < n; ++j) route_keys_[j] = tuples[j].key;
  if (controller_) {
    controller_->assignment().route_batch(route_keys_.data(), n, out);
  } else {
    hash_ring_->owner_batch(route_keys_.data(), n, out);
  }
}

std::uint64_t EngineCore::route(const std::vector<Tuple>& tuples) {
  for (std::size_t base = 0; base < tuples.size(); base += kRouteChunk) {
    const std::size_t n = std::min(kRouteChunk, tuples.size() - base);
    const Tuple* chunk = tuples.data() + base;
    InstanceId* const dests = route_dests_.data();
    evaluate(chunk, n, dests);
    std::uint64_t generation = retire_generation();
    const Micros now = stamp();
    for (std::size_t j = 0; j < n; ++j) {
      const auto d = static_cast<std::size_t>(dests[j]);
      auto& batch = pending_batches_[d];
      batch.push_back(chunk[j]);
      batch.back().emit_micros = now;
      if (batch.size() < batch_size_) continue;
      flush_batch(d);
      if (!healthy()) return base + j;
      if (retire_generation() != generation) {
        // The send retired a worker: re-evaluate F for the rest of the
        // chunk so none of it lands in the retired worker's batch.
        generation = retire_generation();
        evaluate(chunk + j + 1, n - j - 1, dests + j + 1);
      }
    }
  }
  flush_pending();
  return tuples.size();
}

void EngineCore::flush_batch(std::size_t d) {
  auto& batch = pending_batches_[d];
  if (batch.empty()) return;
  send_batch(static_cast<InstanceId>(d), batch);
  // A batch the transport swapped away would otherwise regrow from zero
  // capacity through ~log2(batch_size) reallocations.
  batch.reserve(batch_size_);
}

void EngineCore::flush_pending() {
  for (std::size_t d = 0; d < pending_batches_.size(); ++d) flush_batch(d);
}

void EngineCore::open_interval() {
  if (interval_open_) return;
  interval_open_ = true;
  open_wall_ms_ = 0.0;
  // Every stamp of the previous interval is <= max(now, its start), so
  // one microsecond past both is strictly after all of them.
  const Micros floor = interval_starts_.empty() ? 0 : interval_starts_.back();
  open_start_ = std::max(steady_now_us() - epoch_us_, floor) + 1;
  interval_starts_.push_back(open_start_);
}

Micros EngineCore::stamp() const {
  return std::max(steady_now_us() - epoch_us_, open_start_);
}

Micros EngineCore::expire_watermark(int lag) const {
  SKW_EXPECTS(lag > 0);
  const IntervalId oldest_kept = interval_ + 1 - lag;
  return oldest_kept > 0
             ? interval_starts_[static_cast<std::size_t>(oldest_kept)]
             : 0;
}

IntervalReport EngineCore::ingest(const std::vector<Tuple>& tuples) {
  IntervalReport report;
  report.interval = interval_;
  if (!healthy()) return report;
  open_interval();
  WallTimer timer;
  report.emitted = route(tuples);
  total_emitted_ += report.emitted;
  open_wall_ms_ += timer.elapsed_millis();
  report.wall_ms = open_wall_ms_;
  return report;
}

void EngineCore::begin_boundary() {
  if (!healthy()) return;
  open_interval();  // an interval without ingest still seals and rolls
  WallTimer timer;
  seal();
  open_stall_ms_ = timer.elapsed_millis();
}

void EngineCore::finish_boundary(IntervalReport& report) {
  if (!healthy()) return;
  WallTimer timer;
  close(report);
  if (!healthy()) return;
  report.stall_ms = open_stall_ms_ + timer.elapsed_millis();
  report.wall_ms = open_wall_ms_ + report.stall_ms;
  report.throughput_tps = report.wall_ms > 0.0
                              ? static_cast<double>(report.processed) /
                                    (report.wall_ms / 1000.0)
                              : 0.0;
  if (controller_) controller_->note_boundary(report.merge_ms, report.stall_ms);
  total_processed_ += report.processed;
  interval_open_ = false;
  open_stall_ms_ = 0.0;
  ++interval_;
}

std::optional<RebalancePlan> EngineCore::plan_boundary(
    IntervalReport& report) {
  std::optional<RebalancePlan> plan = controller_->end_interval();
  if (plan) {
    report.migrated = true;
    report.moves = plan->moves.size();
    report.migration_bytes = plan->migration_bytes;
    report.generation_micros = plan->generation_micros;
  }
  report.max_theta = controller_->last_observed_theta();
  report.stats_memory_bytes += controller_->stats_memory_bytes();
  return plan;
}

IntervalReport EngineCore::run_interval(const std::vector<Tuple>& tuples) {
  IntervalReport report = ingest(tuples);
  begin_boundary();
  finish_boundary(report);
  return report;
}

std::vector<IntervalReport> EngineCore::run(WorkloadSource& source,
                                            int intervals,
                                            std::uint64_t seed) {
  std::vector<IntervalReport> reports;
  reports.reserve(static_cast<std::size_t>(std::max(intervals, 0)));
  Xoshiro256 rng(seed);
  std::vector<Tuple> tuples;
  std::vector<Tuple> next;
  if (intervals > 0) expand_interval(source, rng, tuples);
  for (int i = 0; i < intervals && healthy(); ++i) {
    IntervalReport report = ingest(tuples);
    begin_boundary();
    // Overlap window: the next interval's tuples are generated while the
    // workers finish the sealed epoch and the boundary merges it.
    if (i + 1 < intervals) expand_interval(source, rng, next);
    finish_boundary(report);
    reports.push_back(report);
    std::swap(tuples, next);
  }
  return reports;
}

}  // namespace skewless
