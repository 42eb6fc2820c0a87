// The incremental-checkpoint contract of the operator states: after
// mark_checkpoint(), checkpoint_delta() must describe serialize() exactly
// as head ‖ marked[keep_from, keep_to) ‖ tail, or as unchanged. Random
// add / expire / mark sequences check it byte for byte, and check that
// the spliced bytes deserialize to a state with the same checksum.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/serde.h"
#include "engine/state.h"
#include "workload/operators.h"

namespace skewless {
namespace {

std::vector<std::uint8_t> serialized(const KeyState& state) {
  ByteWriter w;
  state.serialize(w);
  return w.take();
}

/// Which splice shapes a sequence produced.
struct Coverage {
  int unchanged = 0;
  int appended = 0;      // a tail and no front drop
  int front_drops = 0;   // kept range starts past the head
  int nothing_kept = 0;  // every marked entry expired
};

/// Checks `state`'s delta against `marked` (its bytes at the last mark)
/// and returns the bytes the delta rebuilds.
std::vector<std::uint8_t> rebuild(const KeyState& state,
                                  const std::vector<std::uint8_t>& marked,
                                  const std::string& at, Coverage& cov) {
  ByteWriter out;
  StateSplice splice;
  const StateDelta d = state.checkpoint_delta(out, splice);
  const std::vector<std::uint8_t> now = serialized(state);
  switch (d) {
    case StateDelta::kFull:
      ADD_FAILURE() << at << ": a marked state answered kFull";
      return now;
    case StateDelta::kUnchanged:
      EXPECT_EQ(out.size(), 0u) << at;
      EXPECT_EQ(now, marked) << at;
      ++cov.unchanged;
      return marked;
    case StateDelta::kSplice:
      break;
  }
  EXPECT_LE(splice.keep_from, splice.keep_to) << at;
  EXPECT_LE(splice.keep_to, marked.size()) << at;
  EXPECT_LE(splice.head_bytes, out.size()) << at;
  if (splice.keep_from > splice.keep_to || splice.keep_to > marked.size() ||
      splice.head_bytes > out.size()) {
    return now;
  }
  cov.appended += splice.keep_from == splice.head_bytes &&
                  out.size() > splice.head_bytes;
  cov.front_drops += splice.keep_from > splice.head_bytes;
  cov.nothing_kept += splice.keep_from == splice.keep_to;
  const auto& delta = out.bytes();
  std::vector<std::uint8_t> built(delta.begin(),
                                  delta.begin() + static_cast<std::ptrdiff_t>(
                                                      splice.head_bytes));
  built.insert(built.end(),
               marked.begin() + static_cast<std::ptrdiff_t>(splice.keep_from),
               marked.begin() + static_cast<std::ptrdiff_t>(splice.keep_to));
  built.insert(built.end(),
               delta.begin() + static_cast<std::ptrdiff_t>(splice.head_bytes),
               delta.end());
  EXPECT_EQ(built, now) << at;
  return built;
}

/// Drives `state` through random steps: `mutate(rng, clock)` changes it,
/// and every few steps the delta is checked and the state re-marked.
template <typename Mutate>
void run_sequences(KeyState& state, const OperatorLogic& logic,
                   std::uint64_t seed, Mutate mutate) {
  std::mt19937_64 rng(seed);
  Micros clock = 0;
  ByteWriter probe;
  StateSplice splice;
  EXPECT_EQ(state.checkpoint_delta(probe, splice), StateDelta::kFull)
      << "an unmarked state must answer kFull";
  state.mark_checkpoint();
  std::vector<std::uint8_t> marked = serialized(state);
  Coverage cov;
  for (int step = 0; step < 3'000; ++step) {
    const std::string at = "seed " + std::to_string(seed) + " step " +
                           std::to_string(step);
    if (rng() % 5 != 0) mutate(rng, clock);
    if (rng() % 4 != 0) continue;
    const std::vector<std::uint8_t> built = rebuild(state, marked, at, cov);
    ByteReader in(built, ByteReader::Untrusted{});
    const std::unique_ptr<KeyState> copy = logic.deserialize_state(in);
    ASSERT_TRUE(copy != nullptr && in.ok() && in.exhausted()) << at;
    EXPECT_EQ(copy->checksum(), state.checksum()) << at;
    EXPECT_EQ(copy->checkpoint_delta(probe, splice), StateDelta::kFull)
        << at << ": a deserialized state is unmarked";
    if (rng() % 3 != 0) {
      state.mark_checkpoint();
      marked = serialized(state);
      EXPECT_EQ(state.checkpoint_delta(probe, splice), StateDelta::kUnchanged)
          << at;
    }
  }
  EXPECT_GT(cov.unchanged, 0) << seed;
  EXPECT_GT(cov.appended, 0) << seed;
  EXPECT_GT(cov.front_drops, 0) << seed;
  EXPECT_GT(cov.nothing_kept, 0) << seed;
}

TEST(StateDelta, WordCountSpliceRebuildsSerializeExactly) {
  const WordCountLogic logic;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xfeedull}) {
    WordCountState state;
    run_sequences(state, logic, seed, [&](std::mt19937_64& rng, Micros& clock) {
      const auto op = rng() % 8;
      if (op < 6) {
        const int adds = 1 + static_cast<int>(rng() % 5);
        for (int i = 0; i < adds; ++i) {
          clock += static_cast<Micros>(rng() % 3);
          state.add(clock, static_cast<std::int64_t>(rng() % 100) - 50);
        }
      } else {
        // Expire some, none or all of the buffer, added-since-mark
        // tuples included.
        state.expire_before(clock - static_cast<Micros>(rng() % 40));
      }
    });
  }
}

TEST(StateDelta, SelfJoinSpliceRebuildsSerializeExactly) {
  // A small window cap makes process() drop from the front on most
  // tuples, interleaving with explicit expiry.
  const SelfJoinLogic logic(1.0, 0.02, /*max_window_tuples=*/12);
  struct NullCollector final : Collector {
    void emit(const Tuple&) override {}
  } sink;
  for (const std::uint64_t seed : {4ull, 5ull, 6ull, 0xbeefull}) {
    SelfJoinState state;
    run_sequences(state, logic, seed, [&](std::mt19937_64& rng, Micros& clock) {
      const auto op = rng() % 8;
      if (op < 6) {
        const int adds = 1 + static_cast<int>(rng() % 6);
        for (int i = 0; i < adds; ++i) {
          clock += static_cast<Micros>(rng() % 3);
          Tuple t;
          t.key = 1;
          t.value = static_cast<std::int64_t>(rng() % 100);
          t.emit_micros = clock;
          (void)logic.process(t, state, sink);
        }
      } else {
        state.expire_before(clock - static_cast<Micros>(rng() % 30));
      }
    });
  }
}

// A state that implements neither method ships in full: the default is
// the contract every existing or custom state already satisfies.
TEST(StateDelta, DefaultStateHasNoDelta) {
  struct PlainState final : KeyState {
    Bytes bytes() const override { return 8.0; }
    std::uint64_t checksum() const override { return 42; }
    void serialize(ByteWriter& out) const override { out.u64(42); }
  } state;
  state.mark_checkpoint();
  ByteWriter out;
  StateSplice splice;
  EXPECT_EQ(state.checkpoint_delta(out, splice), StateDelta::kFull);
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace skewless
