// The socket engine's fault-tolerance layer: the recovery data
// structures (materialized checkpoint store, replay buffer, exit
// classification, fault plans) unit-tested directly, then the recovery
// PROTOCOL end to end — the headline contract being that a worker killed
// at ANY epoch yields a run byte-identical to the crash-free one (same
// plan-history digest, same θ bit patterns, same state checksums), and
// that a worker that exhausts its retry budget degrades away with every
// tuple still counted exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "common/hash.h"
#include "core/controller.h"
#include "core/planners.h"
#include "net/fault_injector.h"
#include "net/net_engine.h"
#include "net/recovery.h"
#include "workload/operators.h"
#include "workload/synthetic.h"

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

// Every worker the engine ever forked must be reaped by shutdown — a
// zombie left behind means an exit path skipped its waitpid.
void expect_no_children() {
  const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(r == -1 && errno == ECHILD)
      << "unreaped child process (waitpid returned " << r << ")";
}

class NoZombieEnvironment : public ::testing::Environment {
 public:
  void TearDown() override { expect_no_children(); }
};

const ::testing::Environment* const kNoZombieEnv =
    ::testing::AddGlobalTestEnvironment(new NoZombieEnvironment);

// --- recovery data structures ---------------------------------------------

/// Drives a worker-side StateStore of SelfJoin states through epochs and
/// keeps a driver-side CheckpointStore in step with its deltas, exactly
/// as the socket engine's seal does.
class StoreHarness {
 public:
  explicit StoreHarness(std::size_t window) : logic_(1.0, 0.0, window) {}

  /// Appends `tuples` tuples spread over keys [0, keys), then checkpoints.
  void epoch(std::size_t keys, std::size_t tuples) {
    for (std::size_t i = 0; i < tuples; ++i) {
      Tuple t;
      t.key = static_cast<KeyId>(i % keys);
      t.value = static_cast<std::int64_t>(i);
      t.emit_micros = clock_++;
      KeyState& state =
          worker_.get_or_create(t.key, [&] { return logic_.make_state(); });
      (void)logic_.process(t, state, sink_);
    }
    checkpoint();
  }

  /// Expires every state's content before the current clock, then
  /// checkpoints.
  void expire_all() {
    worker_.expire_before(clock_);
    checkpoint();
  }

  [[nodiscard]] const CheckpointStore& driver() const { return driver_; }
  [[nodiscard]] std::uint64_t epochs() const { return epoch_; }

  /// Serialized bytes of the worker's live state.
  [[nodiscard]] std::size_t live_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, state] : worker_.states()) {
      ByteWriter w;
      state->serialize(w);
      total += w.size();
    }
    return total;
  }

  /// True when the driver's store holds exactly the worker's states.
  [[nodiscard]] bool in_step() const {
    if (driver_.size() != worker_.size()) return false;
    for (const auto& [key, state] : worker_.states()) {
      ByteWriter w;
      state->serialize(w);
      const auto it = driver_.states().find(key);
      if (it == driver_.states().end() || it->second != w.bytes()) {
        return false;
      }
    }
    return true;
  }

 private:
  struct NullCollector final : Collector {
    void emit(const Tuple&) override {}
  };

  void checkpoint() {
    CheckpointCounters c;
    c.epoch = ++epoch_;
    c.processed = static_cast<std::uint64_t>(clock_);
    ByteWriter out;
    encode_checkpoint_delta(out, c, worker_, {});
    ByteReader in(out.bytes(), ByteReader::Untrusted{});
    CheckpointDelta delta;
    ASSERT_TRUE(decode_checkpoint_delta(in, delta));
    ASSERT_TRUE(driver_.apply(delta));
    worker_.mark_checkpoint();
  }

  SelfJoinLogic logic_;
  NullCollector sink_;
  StateStore worker_;
  CheckpointStore driver_;
  Micros clock_ = 0;
  std::uint64_t epoch_ = 0;
};

// The store holds one copy of the live state: with a bounded window its
// memory stops growing however many epochs pass, and it shrinks back
// when the state does.
TEST(CheckpointStore, MemoryFollowsLiveStateNotEpochs) {
  StoreHarness h(/*window=*/64);
  constexpr std::size_t kKeys = 40;
  // Per key: the map entry plus a blob's slack (capacity grows by half).
  const auto bound = [&] {
    return 2 * h.live_bytes() + kKeys * (sizeof(KeyId) + 64);
  };
  std::size_t high_water_early = 0;
  for (int e = 0; e < 60; ++e) {
    h.epoch(kKeys, 300);
    ASSERT_TRUE(h.in_step()) << "epoch " << e;
    EXPECT_LE(h.driver().memory_bytes(), bound()) << "epoch " << e;
    if (e < 20) {
      high_water_early = std::max(high_water_early, h.driver().memory_bytes());
    } else {
      EXPECT_LE(h.driver().memory_bytes(), high_water_early) << "epoch " << e;
    }
  }
  const std::size_t full = h.driver().memory_bytes();
  h.expire_all();
  ASSERT_TRUE(h.in_step());
  EXPECT_LT(h.driver().memory_bytes() * 8, full);
}

// Every delta lands in the one store, and a restore ships the latest
// epoch: its counters and its states, none older.
TEST(CheckpointStore, LatestEpochIsRestored) {
  StoreHarness h(/*window=*/8);
  for (int e = 0; e < 5; ++e) h.epoch(/*keys=*/6, /*tuples=*/20 + e);
  ASSERT_TRUE(h.in_step());
  ByteWriter out;
  h.driver().encode_restore(out);
  ByteReader in(out.bytes(), ByteReader::Untrusted{});
  CheckpointCounters c;
  std::vector<KeyStateView> states;
  ASSERT_TRUE(decode_restore(in, c, states));
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(c.epoch, 5u);
  EXPECT_EQ(c.epoch, h.epochs());
  EXPECT_EQ(c.processed, h.driver().counters().processed);
  ASSERT_EQ(states.size(), 6u);
  for (const KeyStateView& v : states) {
    const auto& blob = h.driver().states().at(v.key);
    EXPECT_EQ(std::vector<std::uint8_t>(v.blob, v.blob + v.size), blob);
  }
}

TEST(ReplayBuffer, RecordsVerbatimAndOverflowIsSticky) {
  ReplayBuffer buf(/*max_bytes=*/100);
  const std::vector<std::uint8_t> a(40, 0xAA);
  const std::vector<std::uint8_t> b(40, 0xBB);
  EXPECT_TRUE(buf.record(3, a.data(), a.size()));
  EXPECT_TRUE(buf.record(3, b.data(), b.size()));
  EXPECT_EQ(buf.bytes(), 80u);
  ASSERT_EQ(buf.batches().size(), 2u);
  EXPECT_EQ(buf.batches()[0].epoch, 3u);
  EXPECT_EQ(buf.batches()[0].payload, a);
  EXPECT_EQ(buf.batches()[1].payload, b);

  // Past the budget: nothing recorded, overflow latches...
  EXPECT_FALSE(buf.record(3, a.data(), a.size()));
  EXPECT_TRUE(buf.overflowed());
  EXPECT_EQ(buf.batches().size(), 2u);
  // ...even for a record that would fit on its own.
  const std::uint8_t tiny = 0;
  EXPECT_FALSE(buf.record(3, &tiny, 1));

  // clear() resets the latch (checkpoint landed — epoch is durable).
  buf.clear();
  EXPECT_FALSE(buf.overflowed());
  EXPECT_EQ(buf.bytes(), 0u);
  EXPECT_TRUE(buf.record(4, &tiny, 1));
}

TEST(WorkerExit, DescribesCodesAndSignals) {
  // Build real wait statuses by encoding them the way the kernel does.
  const auto exited = [](int code) { return (code & 0xff) << 8; };
  EXPECT_NE(describe_worker_exit(exited(kWorkerExitOk)).find("clean"),
            std::string::npos);
  for (const int code :
       {kWorkerExitChannel, kWorkerExitHandshake, kWorkerExitProtocol,
        kWorkerExitCorruptFrame, kWorkerExitFault}) {
    const std::string d = describe_worker_exit(exited(code));
    EXPECT_EQ(d.find("clean"), std::string::npos) << d;
    EXPECT_FALSE(d.empty());
  }
  // Distinct codes must read differently — that is the whole point.
  EXPECT_NE(describe_worker_exit(exited(kWorkerExitProtocol)),
            describe_worker_exit(exited(kWorkerExitCorruptFrame)));
  const std::string killed = describe_worker_exit(SIGKILL);  // signal 9
  EXPECT_NE(killed.find("signal"), std::string::npos) << killed;
}

// --- fault plans ----------------------------------------------------------

TEST(FaultPlanParse, AcceptsFullGrammar) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan(
      "kill:w=1,epoch=3;wedge:w=0,epoch=5,sticky;garble:w=2,epoch=1", plan,
      error))
      << error;
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[0].worker, 1u);
  EXPECT_EQ(plan.events[0].epoch, 3u);
  EXPECT_FALSE(plan.events[0].sticky);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kWedge);
  EXPECT_TRUE(plan.events[1].sticky);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kGarble);
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  for (const char* bad :
       {"", "kill", "explode:w=0,epoch=1", "kill:w=0", "kill:epoch=1",
        "kill:w=x,epoch=1", "kill:w=0,epoch=0", "kill:w=0,epoch=1,bogus",
        "kill:w=0 epoch=1"}) {
    error.clear();
    EXPECT_FALSE(parse_fault_plan(bad, plan, error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultPlan, OneShotArmsOnlyForIncarnationZero) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_plan("wedge:w=1,epoch=2;drop:w=1,epoch=4,sticky",
                               plan, error))
      << error;
  EXPECT_NE(plan.match(1, 2, 0), nullptr);
  EXPECT_EQ(plan.match(1, 2, 1), nullptr);  // one-shot: respawn runs clean
  EXPECT_EQ(plan.match(0, 2, 0), nullptr);  // wrong worker
  EXPECT_EQ(plan.match(1, 3, 0), nullptr);  // wrong epoch
  EXPECT_NE(plan.match(1, 4, 0), nullptr);  // sticky: every incarnation
  EXPECT_NE(plan.match(1, 4, 7), nullptr);
}

TEST(FaultPlan, RandomizedPlanIsSeedDeterministic) {
  const FaultPlan a = randomized_fault_plan(42, 4, 6, 8);
  const FaultPlan b = randomized_fault_plan(42, 4, 6, 8);
  const FaultPlan c = randomized_fault_plan(43, 4, 6, 8);
  ASSERT_EQ(a.events.size(), 8u);
  ASSERT_EQ(b.events.size(), 8u);
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].worker, b.events[i].worker);
    EXPECT_EQ(a.events[i].epoch, b.events[i].epoch);
    EXPECT_FALSE(a.events[i].sticky);
    ASSERT_LT(a.events[i].worker, 4u);
    ASSERT_GE(a.events[i].epoch, 1u);
    ASSERT_LE(a.events[i].epoch, 6u);
    differs |= a.events[i].worker != c.events[i].worker ||
               a.events[i].epoch != c.events[i].epoch;
  }
  EXPECT_TRUE(differs);  // a different seed draws a different plan
}

// --- the recovery protocol end to end -------------------------------------

std::unique_ptr<Controller> fault_controller(InstanceId workers,
                                             std::size_t num_keys) {
  ControllerConfig ccfg;
  ccfg.planner.theta_max = 0.08;
  ccfg.stats_mode = StatsMode::kSketch;
  ccfg.sketch.heavy_capacity = 128;
  return std::make_unique<Controller>(
      AssignmentFunction(ConsistentHashRing(workers), 0),
      std::make_unique<MixedPlanner>(), ccfg, num_keys);
}

/// Everything the byte-identity contract covers, harvested from one run.
struct RunDigest {
  std::uint64_t plan_digest = 0;
  std::uint64_t state_checksum = 0;
  std::size_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::vector<std::uint64_t> theta_bits;  // exact double bit patterns
  std::uint64_t recoveries = 0;
  bool degraded = false;
  bool ok = false;
  std::string error;
};

constexpr InstanceId kWorkers = 3;
constexpr int kIntervals = 3;
constexpr int kLongIntervals = 6;

/// Harvests the digest of a finished run, shutting the engine down.
RunDigest digest_of(NetEngine& engine,
                    const std::vector<IntervalReport>& reports) {
  RunDigest d;
  for (const auto& r : reports) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(r.max_theta));
    std::memcpy(&bits, &r.max_theta, sizeof(bits));
    d.theta_bits.push_back(bits);
  }
  d.plan_digest = engine.controller()->plan_history_digest();
  engine.shutdown();
  d.ok = engine.ok();
  d.error = engine.error();
  d.state_checksum = engine.state_checksum();
  d.state_entries = engine.total_state_entries();
  d.processed = engine.total_processed();
  d.outputs = engine.total_output_tuples();
  d.recoveries = engine.recoveries();
  d.degraded = engine.degraded();
  return d;
}

RunDigest run_with_plan(const FaultPlan& fault, int timeout_ms = 2'000,
                        int max_attempts = 3) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 8'000;
  opts.seed = 5;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.recovery_enabled = true;
  ncfg.fault = fault;
  ncfg.ctrl_timeout_ms = timeout_ms;
  ncfg.heartbeat_interval_ms = 50;
  ncfg.respawn_max_attempts = max_attempts;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   fault_controller(kWorkers, source.num_keys()));
  const auto reports = engine.run(source, kIntervals, /*seed=*/11);
  return digest_of(engine, reports);
}

void expect_byte_identical(const RunDigest& got, const RunDigest& clean,
                           const std::string& label) {
  ASSERT_TRUE(got.ok) << label << ": " << got.error;
  EXPECT_EQ(got.plan_digest, clean.plan_digest) << label;
  EXPECT_EQ(got.state_checksum, clean.state_checksum) << label;
  EXPECT_EQ(got.state_entries, clean.state_entries) << label;
  EXPECT_EQ(got.processed, clean.processed) << label;
  EXPECT_EQ(got.outputs, clean.outputs) << label;
  ASSERT_EQ(got.theta_bits.size(), clean.theta_bits.size()) << label;
  for (std::size_t i = 0; i < clean.theta_bits.size(); ++i) {
    EXPECT_EQ(got.theta_bits[i], clean.theta_bits[i])
        << label << " θ interval " << i;
  }
}

// The headline: SIGKILL one worker at EVERY epoch in turn; each recovered
// run must be byte-identical to the crash-free run.
TEST(NetRecovery, KillAtEveryEpochIsByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);
  ASSERT_FALSE(clean.degraded);
  ASSERT_EQ(clean.processed, std::uint64_t(kIntervals) * 8'000u);

  for (std::uint64_t epoch = 1; epoch <= kIntervals; ++epoch) {
    FaultPlan plan;
    plan.events.push_back(
        FaultEvent{FaultKind::kKill, /*worker=*/1, epoch, /*sticky=*/false});
    const RunDigest got = run_with_plan(plan);
    expect_byte_identical(got, clean, "kill@" + std::to_string(epoch));
    EXPECT_EQ(got.recoveries, 1u) << epoch;
    EXPECT_FALSE(got.degraded) << epoch;
  }
  expect_no_children();
}

// A wedged worker (alive but silent) is only detectable by the receive
// deadline; the respawn then replays the epoch to the same bytes.
TEST(NetRecovery, WedgeDetectedByDeadlineAndRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kWedge, 0, 2, false});
  const RunDigest got = run_with_plan(plan, /*timeout_ms=*/600);
  expect_byte_identical(got, clean, "wedge@2");
  EXPECT_EQ(got.recoveries, 1u);
  EXPECT_FALSE(got.degraded);
  expect_no_children();
}

// Garbage bytes where the boundary summary belongs: corrupt-frame
// detection recovers the worker instead of failing the engine.
TEST(NetRecovery, GarbledSummaryRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kGarble, 2, 2, false});
  const RunDigest got = run_with_plan(plan);
  expect_byte_identical(got, clean, "garble@2");
  EXPECT_EQ(got.recoveries, 1u);
  expect_no_children();
}

// A worker that closes both channels and exits mid-epoch (clean EOF).
TEST(NetRecovery, DroppedWorkerRecovered) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kDrop, 1, 1, false});
  const RunDigest got = run_with_plan(plan);
  expect_byte_identical(got, clean, "drop@1");
  EXPECT_EQ(got.recoveries, 1u);
  expect_no_children();
}

// Seeded random fault coordinates (the fuzz-flavored sweep): whatever the
// plan draws, the recovered run matches the clean one byte for byte.
TEST(NetRecovery, RandomizedFaultPlanStaysByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const RunDigest clean = run_with_plan(FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;

  for (const std::uint64_t seed : {0x5eedull, 77ull}) {
    const FaultPlan plan =
        randomized_fault_plan(seed, kWorkers, kIntervals, /*count=*/2);
    ASSERT_EQ(plan.events.size(), 2u);
    const RunDigest got = run_with_plan(plan, /*timeout_ms=*/600);
    expect_byte_identical(got, clean, "seed " + std::to_string(seed));
    EXPECT_GE(got.recoveries, 1u);
  }
  expect_no_children();
}

// Retry-budget exhaustion: a STICKY wedge re-fires in every incarnation,
// so recovery can never complete the epoch; after max_attempts the worker
// is degraded away and the run still finishes with every tuple counted.
TEST(NetRecovery, StickyWedgeExhaustsBudgetAndDegrades) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kWedge, 1, 2, /*sticky=*/true});
  const RunDigest got =
      run_with_plan(plan, /*timeout_ms=*/400, /*max_attempts=*/2);
  ASSERT_TRUE(got.ok) << got.error;  // degradation is survival, not failure
  EXPECT_TRUE(got.degraded);
  // Mass conservation: every emitted tuple processed exactly once, the
  // dead worker's share re-homed onto the survivors.
  EXPECT_EQ(got.processed, std::uint64_t(kIntervals) * 8'000u);
  EXPECT_EQ(got.outputs, std::uint64_t(kIntervals) * 8'000u);
  EXPECT_GT(got.state_entries, 0u);
  expect_no_children();
}

// With recovery off the engine is the legacy fail-stop one: the same kill
// must surface as an engine error, not a recovery.
TEST(NetRecovery, RecoveryDisabledFailsStop) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'500;
  opts.skew = 1.2;
  opts.tuples_per_interval = 8'000;
  opts.seed = 5;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.recovery_enabled = false;
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultKind::kKill, 1, 1, false});
  ncfg.fault = plan;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   fault_controller(kWorkers, source.num_keys()));
  (void)engine.run(source, kIntervals, /*seed=*/11);
  EXPECT_FALSE(engine.ok());
  EXPECT_FALSE(engine.error().empty());
  engine.shutdown();
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.recoveries(), 0u);
  expect_no_children();
}

// Over a run, each worker's store holds its latest epoch and one copy of
// its live state, not a history of checkpoints.
TEST(NetRecovery, CheckpointStoreHoldsLatestEpochAcrossEpochs) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 500;
  opts.skew = 1.1;
  opts.tuples_per_interval = 2'000;
  opts.seed = 9;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   fault_controller(2, source.num_keys()));
  (void)engine.run(source, /*intervals=*/6, /*seed=*/7);
  ASSERT_TRUE(engine.ok()) << engine.error();
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  std::size_t entries = 0;
  std::size_t live = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    const CheckpointStore& store = engine.checkpoint_store(w);
    EXPECT_EQ(store.counters().epoch, 6u) << w;
    entries += store.size();
    std::size_t bytes = 0;
    for (const auto& [key, blob] : store.states()) bytes += blob.size();
    EXPECT_LE(store.memory_bytes(), 2 * bytes + store.size() * 64) << w;
    live += bytes;
  }
  EXPECT_EQ(entries, engine.total_state_entries());
  // WordCountState keeps every tuple: 6 × 2000 tuples of 16 bytes, plus
  // a 20-byte header per key.
  EXPECT_EQ(live, 6u * 2'000u * 16u + 20u * entries);
  expect_no_children();
}

/// A longer run in which every checkpoint shape shows up: the Zipf mix
/// shifts every two intervals (re-plans extract and install state), the
/// self-join window expires one interval behind (drop-front splices),
/// and the window cap drops from the front as tuples arrive.
RunDigest run_long(const std::shared_ptr<OperatorLogic>& logic,
                   const FaultPlan& fault, std::size_t* moves = nullptr) {
  ZipfFluctuatingSource::Options opts;
  opts.num_keys = 1'200;
  opts.skew = 1.2;
  opts.tuples_per_interval = 6'000;
  opts.fluctuation = 1.0;
  opts.fluctuate_every = 2;
  opts.seed = 21;
  ZipfFluctuatingSource source(opts);

  NetConfig ncfg;
  ncfg.batch_size = 64;
  ncfg.expire_lag_intervals = 1;
  ncfg.fault = fault;
  ncfg.ctrl_timeout_ms = 2'000;
  ncfg.heartbeat_interval_ms = 50;
  NetEngine engine(ncfg, logic, fault_controller(kWorkers, source.num_keys()));
  const auto reports = engine.run(source, kLongIntervals, /*seed=*/13);
  if (moves != nullptr) {
    *moves = 0;
    for (const auto& r : reports) *moves += r.moves;
  }
  // The driver's materialized checkpoint must hold exactly the states the
  // worker checksummed at its last seal. (Byte-identity alone cannot see
  // a mis-spliced window once expiry has dropped it.)
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const CheckpointStore& store = engine.checkpoint_store(w);
    std::uint64_t sum = 0;
    for (const auto& [key, blob] : store.states()) {
      ByteReader in(blob, ByteReader::Untrusted{});
      const std::unique_ptr<KeyState> state = logic->deserialize_state(in);
      EXPECT_TRUE(state != nullptr && in.ok() && in.exhausted()) << key;
      if (state != nullptr) sum += mix64(key ^ state->checksum());
    }
    EXPECT_EQ(store.counters().epoch, std::uint64_t{kLongIntervals}) << w;
    EXPECT_EQ(sum, store.counters().state_checksum) << "worker " << w;
  }
  return digest_of(engine, reports);
}

// Kill a worker at every epoch of the longer run: the restore ships the
// materialized checkpoint, the respawned worker's next delta is against
// it, and the run stays byte-identical to the crash-free one.
TEST(NetRecovery, KillAtEveryEpochOfLongSelfJoinRunIsByteIdentical) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const auto logic = std::make_shared<SelfJoinLogic>(1.0, 0.02, 48);
  std::size_t moves = 0;
  const RunDigest clean = run_long(logic, FaultPlan{}, &moves);
  ASSERT_TRUE(clean.ok) << clean.error;
  ASSERT_EQ(clean.recoveries, 0u);
  ASSERT_EQ(clean.processed, std::uint64_t(kLongIntervals) * 6'000u);
  ASSERT_GT(moves, 0u) << "the run must migrate state";

  for (std::uint64_t epoch = 1; epoch <= kLongIntervals; ++epoch) {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{FaultKind::kKill,
                                     /*worker=*/static_cast<std::uint32_t>(
                                         epoch % kWorkers),
                                     epoch,
                                     /*sticky=*/false});
    const RunDigest got = run_long(logic, plan);
    expect_byte_identical(got, clean, "kill@" + std::to_string(epoch));
    EXPECT_EQ(got.recoveries, 1u) << epoch;
    EXPECT_FALSE(got.degraded) << epoch;
  }
  expect_no_children();
}

/// A per-key running count whose state implements no delta: every
/// checkpoint ships it in full.
class PlainCountState final : public KeyState {
 public:
  Bytes bytes() const override { return 16.0; }
  std::uint64_t checksum() const override {
    return mix64(count_ * 31 + static_cast<std::uint64_t>(sum_));
  }
  void serialize(ByteWriter& out) const override {
    out.u64(count_);
    out.i64(sum_);
  }
  void add(std::int64_t v) {
    ++count_;
    sum_ += v;
  }
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
};

class PlainCountLogic final : public OperatorLogic {
 public:
  std::unique_ptr<KeyState> make_state() const override {
    return std::make_unique<PlainCountState>();
  }
  std::unique_ptr<KeyState> deserialize_state(ByteReader& in) const override {
    auto s = std::make_unique<PlainCountState>();
    s->count_ = in.u64();
    s->sum_ = in.i64();
    return s;
  }
  Cost process(const Tuple& t, KeyState& state, Collector& out) const override {
    static_cast<PlainCountState&>(state).add(t.value);
    out.emit(t);
    return 1.0;
  }
};

// A state without delta support recovers through the full-blob fallback.
TEST(NetRecovery, StateWithoutDeltaRecoversThroughFullBlobs) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  const auto logic = std::make_shared<PlainCountLogic>();
  const RunDigest clean = run_long(logic, FaultPlan{});
  ASSERT_TRUE(clean.ok) << clean.error;
  for (const std::uint64_t epoch : {1ull, 3ull, 6ull}) {
    FaultPlan plan;
    plan.events.push_back(FaultEvent{FaultKind::kKill, /*worker=*/0, epoch,
                                     /*sticky=*/false});
    const RunDigest got = run_long(logic, plan);
    expect_byte_identical(got, clean, "kill@" + std::to_string(epoch));
    EXPECT_EQ(got.recoveries, 1u) << epoch;
  }
  expect_no_children();
}

// An epoch that touches a few keys checkpoints a few keys' changes, not
// the whole state.
TEST(NetRecovery, FewKeyEpochCheckpointIsFarSmallerThanFullState) {
  if (tsan_enabled()) GTEST_SKIP() << "fork-based engine under TSan";
  NetConfig ncfg;
  ncfg.batch_size = 64;
  NetEngine engine(ncfg, std::make_shared<WordCountLogic>(),
                   fault_controller(kWorkers, 4'000));
  std::vector<Tuple> wide;
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    Tuple t;
    t.key = static_cast<KeyId>(i % 4'000);
    t.value = static_cast<std::int64_t>(i);
    wide.push_back(t);
  }
  const IntervalReport first = engine.run_interval(wide);
  std::vector<Tuple> narrow;
  for (std::uint64_t i = 0; i < 30; ++i) {
    Tuple t;
    t.key = static_cast<KeyId>(i % 3);
    t.value = 1;
    narrow.push_back(t);
  }
  const IntervalReport second = engine.run_interval(narrow);
  ASSERT_TRUE(engine.ok()) << engine.error();
  // The first checkpoint is every state in full: 40k buffered tuples.
  EXPECT_GE(first.checkpoint_wire_bytes, 40'000u * 16u);
  EXPECT_GT(second.checkpoint_wire_bytes, 0u);
  EXPECT_LT(second.checkpoint_wire_bytes * 100, first.checkpoint_wire_bytes)
      << second.checkpoint_wire_bytes << " vs " << first.checkpoint_wire_bytes;
  engine.shutdown();
  ASSERT_TRUE(engine.ok()) << engine.error();
  expect_no_children();
}

}  // namespace
}  // namespace skewless
