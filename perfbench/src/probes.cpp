#include "probes.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <new>
#include <stdexcept>

#include "trace.h"

namespace perfbench {
namespace {

struct SlotCache {
  std::uint64_t region_id = 0;
  ProbeSlot* slot = nullptr;
};
thread_local SlotCache tl_slot;
/// Where a thread writes once every shared slot is taken (the run is
/// then failed through ProbeRegion::overflowed; this only keeps the
/// writes defined).
thread_local ProbeSlot tl_overflow_slot;

std::atomic<std::uint64_t> g_next_region_id{1};

void reset_slot_cache_in_child() { tl_slot = SlotCache{}; }

}  // namespace

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double this_thread_cpu_seconds() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

// --- histogram -------------------------------------------------------------

std::uint64_t bucket_low(std::size_t b) {
  if (b < kSubBuckets) return b;
  const std::size_t shift = b / kSubBuckets - 1;
  return (kSubBuckets + b % kSubBuckets) << shift;
}

std::uint64_t bucket_width(std::size_t b) {
  return b < kSubBuckets ? 1 : std::uint64_t{1} << (b / kSubBuckets - 1);
}

void LatencyHistogram::add_counts(const std::uint64_t* bucket_counts) {
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    counts[b] += bucket_counts[b];
    total += bucket_counts[b];
  }
}

double LatencyHistogram::quantile(double q) const {
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      return static_cast<double>(bucket_low(b)) +
             static_cast<double>(bucket_width(b) - 1) / 2.0;
    }
  }
  return static_cast<double>(bucket_low(kHistBuckets - 1));
}

// --- shared probe region ---------------------------------------------------

SharedProbe::SharedProbe() {
  static const int atfork_registered =
      pthread_atfork(nullptr, nullptr, &reset_slot_cache_in_child);
  if (atfork_registered != 0) throw std::runtime_error("pthread_atfork failed");
  void* mem = mmap(nullptr, sizeof(ProbeRegion), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("mmap of probe region failed");
  region_ = new (mem) ProbeRegion();
  region_->id = g_next_region_id.fetch_add(1);
  region_->creator_pid = getpid();
}

SharedProbe::~SharedProbe() {
  region_->~ProbeRegion();
  munmap(region_, sizeof(ProbeRegion));
}

std::size_t SharedProbe::slots_used() const {
  const auto n = region_->next_slot.load(std::memory_order_acquire);
  return std::min<std::size_t>(n, kMaxSlots);
}

ProbeSlot& SharedProbe::slot_for_this_thread() const {
  if (tl_slot.region_id == region_->id) return *tl_slot.slot;
  const std::uint32_t idx =
      region_->next_slot.fetch_add(1, std::memory_order_acq_rel);
  ProbeSlot* slot = &tl_overflow_slot;
  if (idx < kMaxSlots) {
    slot = &region_->slots[idx];
  } else {
    region_->overflowed.store(1, std::memory_order_relaxed);
  }
  // A forked socket-engine worker is single-threaded: its process clock
  // is its worker CPU. A threaded-engine worker gets its thread clock.
  clockid_t clock{};
  const int rc = getpid() == region_->creator_pid
                     ? pthread_getcpuclockid(pthread_self(), &clock)
                     : clock_getcpuclockid(getpid(), &clock);
  slot->cpu_clock = clock;
  slot->has_clock = rc == 0;
  tl_slot = SlotCache{region_->id, slot};
  return *slot;
}

// --- wrappers --------------------------------------------------------------

std::unique_ptr<skewless::KeyState> ProbedLogic::make_state() const {
  ++probe_.slot_for_this_thread().states_created;
  return inner_->make_state();
}

std::unique_ptr<skewless::KeyState> ProbedLogic::deserialize_state(
    skewless::ByteReader& in) const {
  ++probe_.slot_for_this_thread().states_deserialized;
  return inner_->deserialize_state(in);
}

skewless::Cost ProbedLogic::process(const skewless::Tuple& tuple,
                                    skewless::KeyState& state,
                                    skewless::Collector& out) const {
  ProbeSlot& slot = probe_.slot_for_this_thread();
  ++slot.tuples;
  if (!traced_) return inner_->process(tuple, state, out);
  const std::int64_t start = steady_ns();
  const std::int64_t raw_us = start / 1000 - tuple.emit_micros;
  if (raw_us < slot.min_raw_us) slot.min_raw_us = raw_us;
  const std::int64_t latency_us =
      raw_us - probe_.region().epoch_us.load(std::memory_order_relaxed);
  ++slot.hist[bucket_of(
      latency_us > 0 ? static_cast<std::uint64_t>(latency_us) : 0)];
  const skewless::Cost cost = inner_->process(tuple, state, out);
  slot.process_ns += static_cast<std::uint64_t>(steady_ns() - start);
  return cost;
}

skewless::RebalancePlan TimedPlanner::plan(
    const skewless::PartitionSnapshot& snap,
    const skewless::PlannerConfig& config) {
  ScopedSpan span("core.plan");
  const std::int64_t start = steady_ns();
  skewless::RebalancePlan plan = inner_->plan(snap, config);
  PlanRecord rec;
  rec.plan_ms = static_cast<double>(steady_ns() - start) / 1e6;
  rec.moves = plan.moves;
  rec.table_size = plan.table_size;
  rec.achieved_theta = plan.achieved_theta;
  records_.push_back(std::move(rec));
  return plan;
}

PregeneratedSource::PregeneratedSource(skewless::WorkloadSource& inner,
                                       int intervals)
    : num_keys_(inner.num_keys()) {
  for (int i = 0; i < intervals; ++i) {
    skewless::IntervalWorkload load;
    {
      ScopedSpan span("workload.next_interval");
      const std::int64_t start = steady_ns();
      load = inner.next_interval();
      call_ms_.push_back(static_cast<double>(steady_ns() - start) / 1e6);
    }
    SparseInterval rec;
    for (std::size_t k = 0; k < load.counts.size(); ++k) {
      if (load.counts[k] == 0) continue;
      rec.keys.push_back(static_cast<KeyId>(k));
      rec.counts.push_back(load.counts[k]);
      rec.total += load.counts[k];
    }
    intervals_.push_back(std::move(rec));
  }
}

skewless::IntervalWorkload PregeneratedSource::next_interval() {
  skewless::IntervalWorkload load;
  load.counts.assign(num_keys_, 0);
  if (replayed_ < intervals_.size()) {
    const SparseInterval& rec = intervals_[replayed_++];
    for (std::size_t i = 0; i < rec.keys.size(); ++i) {
      load.counts[rec.keys[i]] = rec.counts[i];
    }
  }
  if (mark_intervals_) {
    close_interval_span();
    open_interval_span_ = tracer().begin("interval");
  }
  return load;
}

void PregeneratedSource::close_interval_span() {
  tracer().end(open_interval_span_);
  open_interval_span_ = -1;
}

}  // namespace perfbench
