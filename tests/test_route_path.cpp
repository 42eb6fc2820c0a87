// The engines' shared routing path (EngineCore::route): chunked F(k)
// evaluation with a re-route when a send retires a worker mid-chunk, and
// the one-stamp-per-chunk emit-stamp contract, checked on both engines.
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "core/planners.h"
#include "engine/engine_core.h"
#include "engine/threaded_engine.h"
#include "net/net_engine.h"
#include "workload/operators.h"

namespace skewless {
namespace {

bool tsan_enabled() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

std::unique_ptr<Controller> make_controller(InstanceId workers,
                                            std::size_t num_keys,
                                            StatsMode mode) {
  ControllerConfig cfg;
  cfg.planner.theta_max = 0.08;
  cfg.stats_mode = mode;
  cfg.sketch.heavy_capacity = 64;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers, 128, 3), 4),
      std::make_unique<MixedPlanner>(), cfg, num_keys);
}

// --- mid-chunk retire ------------------------------------------------------

// A transport that delivers nothing anywhere: it records which instance
// each tuple (identified by its value) reached, and after its k-th batch
// retires instance `victim` from the assignment, re-homing the victim's
// pending batch the way the socket engine's degrade does.
class RetiringCore final : public EngineCore {
 public:
  RetiringCore(std::size_t tuples, std::size_t retire_after,
               InstanceId victim)
      : EngineCore(std::make_shared<WordCountLogic>(),
                   make_controller(3, 500, StatsMode::kExact),
                   /*batch_size=*/16),
        delivered_to_(tuples, kNilInstance),
        deliveries_(tuples, 0),
        retire_after_(retire_after),
        victim_(victim) {}

  std::vector<InstanceId> delivered_to_;
  std::vector<int> deliveries_;
  std::size_t retired_deliveries_ = 0;
  bool retired_ = false;

 private:
  void send_batch(InstanceId d, std::vector<Tuple>& batch) override {
    const bool dead = controller()->assignment().is_retired(d);
    for (const Tuple& t : batch) {
      const auto id = static_cast<std::size_t>(t.value);
      ++deliveries_[id];
      delivered_to_[id] = d;
      if (dead) ++retired_deliveries_;
    }
    batch.clear();  // delivered: a re-home below must not send it again
    if (++batches_ != retire_after_) return;
    controller()->retire_instance(victim_);
    retired_ = true;
    auto& orphans = pending_batches_[static_cast<std::size_t>(victim_)];
    for (const Tuple& t : orphans) {
      pending_batches_[static_cast<std::size_t>(
                           controller()->assignment()(t.key))]
          .push_back(t);
    }
    orphans.clear();
  }
  void seal() override { flush_pending(); }
  void close(IntervalReport& /*report*/) override {}

  std::size_t batches_ = 0;
  std::size_t retire_after_;
  InstanceId victim_;
};

TEST(RoutePath, MidChunkRetireReroutesTheRestOfTheChunk) {
  constexpr std::size_t kTuples = 5'000;
  std::vector<Tuple> tuples(kTuples);
  for (std::size_t i = 0; i < kTuples; ++i) {
    tuples[i].key = static_cast<KeyId>((i * 7919) % 500);
    tuples[i].value = static_cast<std::int64_t>(i);
  }
  // Retire after the first batch, mid-way through the first chunk, and in
  // a later chunk; the victim is sometimes the batch's own destination.
  for (const std::size_t k : {1u, 5u, 100u}) {
    for (InstanceId victim = 0; victim < 3; ++victim) {
      RetiringCore core(kTuples, k, victim);
      const IntervalReport report = core.run_interval(tuples);
      EXPECT_EQ(report.emitted, kTuples);
      ASSERT_TRUE(core.retired_) << "k=" << k;
      EXPECT_EQ(core.retired_deliveries_, 0u)
          << "k=" << k << " victim=" << victim;
      std::vector<std::size_t> per_dest(3, 0);
      for (std::size_t i = 0; i < kTuples; ++i) {
        ASSERT_EQ(core.deliveries_[i], 1) << "tuple " << i << " k=" << k;
        ++per_dest[static_cast<std::size_t>(core.delivered_to_[i])];
      }
      EXPECT_EQ(per_dest[0] + per_dest[1] + per_dest[2], kTuples);
    }
  }
}

// --- emit-stamp contract ---------------------------------------------------

constexpr int kIntervals = 4;
constexpr std::size_t kSlots = 8;

// One worker's view of the stamps, written only by that worker (a thread
// of the threaded engine or a forked process of the socket engine).
struct StampSlot {
  Micros last = 0;
  std::uint64_t decreases = 0;
  std::uint64_t tuples = 0;
  Micros min[kIntervals];
  Micros max[kIntervals];
  /// Distinct expiry watermarks in arrival order: with a lag of one
  /// interval, the j-th (j > 0) is interval j's recorded start; the
  /// first is 0, since no interval precedes interval 0.
  Micros watermarks[kIntervals];
  int num_watermarks = 0;
};

struct StampRegion {
  std::uint64_t id = 0;
  std::atomic<std::uint32_t> next{0};
  StampSlot slots[kSlots];
};

// Shared anonymous mapping, so forked workers' records reach the test.
class SharedStamps {
 public:
  SharedStamps() {
    void* p = ::mmap(nullptr, sizeof(StampRegion), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(p, MAP_FAILED);
    region_ = new (p) StampRegion();
    static std::uint64_t next_id = 0;
    region_->id = ++next_id;
    for (StampSlot& s : region_->slots) {
      std::fill(std::begin(s.min), std::end(s.min),
                std::numeric_limits<Micros>::max());
      std::fill(std::begin(s.max), std::end(s.max),
                std::numeric_limits<Micros>::min());
    }
  }
  ~SharedStamps() { ::munmap(region_, sizeof(StampRegion)); }
  SharedStamps(const SharedStamps&) = delete;
  SharedStamps& operator=(const SharedStamps&) = delete;

  [[nodiscard]] StampRegion& region() const { return *region_; }

  /// The calling worker's slot, claimed on first use.
  [[nodiscard]] StampSlot& mine() const {
    thread_local std::uint64_t cached_id = 0;
    thread_local StampSlot* cached = nullptr;
    if (cached_id != region_->id) {
      const std::uint32_t i = region_->next.fetch_add(1);
      EXPECT_LT(i, kSlots);
      cached = &region_->slots[i % kSlots];
      cached_id = region_->id;
    }
    return *cached;
  }

 private:
  StampRegion* region_ = nullptr;
};

class StampState final : public KeyState {
 public:
  explicit StampState(const SharedStamps& stamps) : stamps_(stamps) {}
  [[nodiscard]] Bytes bytes() const override { return 8.0; }
  [[nodiscard]] std::uint64_t checksum() const override { return count_; }
  void serialize(ByteWriter& out) const override { out.u64(count_); }
  void expire_before(Micros watermark) override {
    StampSlot& slot = stamps_.mine();
    const int n = slot.num_watermarks;
    if (n > 0 && slot.watermarks[n - 1] == watermark) return;
    if (n < kIntervals) slot.watermarks[n] = watermark;
    ++slot.num_watermarks;
  }
  std::uint64_t count_ = 0;

 private:
  const SharedStamps& stamps_;
};

class StampLogic final : public OperatorLogic {
 public:
  explicit StampLogic(const SharedStamps& stamps) : stamps_(stamps) {}
  [[nodiscard]] std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<StampState>(stamps_);
  }
  [[nodiscard]] std::unique_ptr<KeyState> deserialize_state(
      ByteReader& in) const override {
    auto state = std::make_unique<StampState>(stamps_);
    state->count_ = in.u64();
    return state;
  }
  Cost process(const Tuple& tuple, KeyState& state,
               Collector& /*out*/) const override {
    ++static_cast<StampState&>(state).count_;
    StampSlot& slot = stamps_.mine();
    if (tuple.emit_micros < slot.last) ++slot.decreases;
    slot.last = tuple.emit_micros;
    const auto j = static_cast<std::size_t>(tuple.value);
    slot.min[j] = std::min(slot.min[j], tuple.emit_micros);
    slot.max[j] = std::max(slot.max[j], tuple.emit_micros);
    ++slot.tuples;
    return 1.0;
  }

 private:
  const SharedStamps& stamps_;
};

std::vector<Tuple> interval_tuples(int interval) {
  std::vector<Tuple> tuples(6'000);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].key = static_cast<KeyId>((i * 31 + 7) % 400);
    tuples[i].value = interval;
  }
  return tuples;
}

// Per worker, stamps never decrease in processing order; every stamp of
// interval j is >= j's recorded start and > every stamp of j-1.
void expect_stamp_contract(const SharedStamps& stamps) {
  const StampRegion& region = stamps.region();
  const std::size_t used = std::min<std::size_t>(region.next.load(), kSlots);
  ASSERT_GT(used, 1u);
  std::vector<Micros> lo(kIntervals, std::numeric_limits<Micros>::max());
  std::vector<Micros> hi(kIntervals, std::numeric_limits<Micros>::min());
  const Micros* starts = nullptr;
  std::uint64_t tuples = 0;
  for (std::size_t w = 0; w < used; ++w) {
    const StampSlot& slot = region.slots[w];
    EXPECT_EQ(slot.decreases, 0u) << "worker slot " << w;
    tuples += slot.tuples;
    for (int j = 0; j < kIntervals; ++j) {
      lo[static_cast<std::size_t>(j)] =
          std::min(lo[static_cast<std::size_t>(j)], slot.min[j]);
      hi[static_cast<std::size_t>(j)] =
          std::max(hi[static_cast<std::size_t>(j)], slot.max[j]);
    }
    if (slot.num_watermarks == kIntervals) starts = slot.watermarks;
  }
  EXPECT_EQ(tuples, std::uint64_t{kIntervals} * 6'000u);
  ASSERT_NE(starts, nullptr) << "no worker saw every interval's watermark";
  for (int j = 0; j < kIntervals; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    EXPECT_GE(lo[ju], starts[j]) << "interval " << j;
    if (j > 0) {
      EXPECT_GT(lo[ju], hi[ju - 1]) << "interval " << j;
    }
  }
}

TEST(RoutePath, ThreadedStampsFollowTheContract) {
  SharedStamps stamps;
  ThreadedConfig cfg;
  cfg.num_workers = 3;
  cfg.batch_size = 64;
  cfg.expire_lag_intervals = 1;
  ThreadedEngine engine(cfg, std::make_shared<StampLogic>(stamps),
                        make_controller(3, 400, StatsMode::kSketch));
  for (int j = 0; j < kIntervals; ++j) engine.run_interval(interval_tuples(j));
  engine.shutdown();
  expect_stamp_contract(stamps);
}

TEST(RoutePath, NetStampsFollowTheContract) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  SharedStamps stamps;
  NetConfig cfg;
  cfg.batch_size = 64;
  cfg.expire_lag_intervals = 1;
  NetEngine engine(cfg, std::make_shared<StampLogic>(stamps),
                   make_controller(3, 400, StatsMode::kSketch));
  for (int j = 0; j < kIntervals; ++j) engine.run_interval(interval_tuples(j));
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  expect_stamp_contract(stamps);
}

}  // namespace
}  // namespace skewless
