// Randomized robustness suite for the wire layer, run under the `fuzz`
// CTest label: every decoder that parses peer bytes is fed (a) every
// truncation prefix and (b) hundreds of seeded single/multi-byte
// corruptions of valid encodings. The contract under test is uniform —
// a decoder either accepts the input or returns false with the reader's
// sticky error flag set; it NEVER aborts, over-allocates, or reads out
// of bounds (ASan enforces the last one on the CI debug-asan leg).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "engine/state.h"
#include "net/frame.h"
#include "net/recovery.h"
#include "net/wire.h"
#include "sketch/worker_sketch_slab.h"
#include "workload/operators.h"

namespace skewless {
namespace {

/// A worker store and the driver's checkpoint of it at its last mark,
/// plus the next delta: states appended to, expired, untouched,
/// extracted and created since the mark, so the delta carries splice,
/// full and removal records.
struct DeltaFixture {
  CheckpointStore driver;
  StateStore worker;
  std::vector<std::uint8_t> delta;
};

DeltaFixture make_delta_fixture() {
  DeltaFixture f;
  const WordCountLogic logic;
  for (KeyId key = 0; key < 10; ++key) {
    auto& s = static_cast<WordCountState&>(
        f.worker.get_or_create(key, [&] { return logic.make_state(); }));
    for (int j = 0; j < 3 + static_cast<int>(key); ++j) {
      s.add(100 * j, j - static_cast<int>(key));
    }
  }
  CheckpointCounters c;
  c.epoch = 1;
  ByteWriter first;
  encode_checkpoint_delta(first, c, f.worker, {});
  ByteReader in(first.bytes(), ByteReader::Untrusted{});
  CheckpointDelta decoded;
  EXPECT_TRUE(decode_checkpoint_delta(in, decoded));
  EXPECT_TRUE(f.driver.apply(decoded));
  f.worker.mark_checkpoint();

  for (KeyId key = 0; key < 6; ++key) {
    auto* s = static_cast<WordCountState*>(f.worker.find(key));
    s->add(10'000 + static_cast<Micros>(key), 7);
  }
  f.worker.find(4)->expire_before(150);
  std::vector<KeyId> removed = {7, 8};
  for (const KeyId key : removed) (void)f.worker.extract(key);
  for (KeyId key = 20; key < 22; ++key) {
    auto& s = static_cast<WordCountState&>(
        f.worker.get_or_create(key, [&] { return logic.make_state(); }));
    s.add(5, 5);
  }
  c.epoch = 2;
  c.processed = 99;
  ByteWriter next;
  encode_checkpoint_delta(next, c, f.worker, removed);
  f.delta = next.bytes();
  return f;
}

/// Order-free image of a store: counters plus sorted (key, blob) pairs.
using StoreImage =
    std::pair<std::vector<std::uint64_t>,
              std::vector<std::pair<KeyId, std::vector<std::uint8_t>>>>;

StoreImage image_of(const CheckpointStore& store) {
  const CheckpointCounters& c = store.counters();
  StoreImage img;
  img.first = {c.epoch, c.processed, c.outputs, c.local_buckets,
               c.state_checksum};
  img.second.assign(store.states().begin(), store.states().end());
  std::sort(img.second.begin(), img.second.end());
  return img;
}

/// One valid encoding of every payload kind, by index. Returning a fresh
/// copy per call keeps corruption runs independent.
std::vector<std::vector<std::uint8_t>> valid_payloads() {
  std::vector<std::vector<std::uint8_t>> out;
  {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      Tuple t;
      t.key = static_cast<KeyId>(i * 2654435761u);
      t.value = i - 20;
      t.emit_micros = i * 777;
      t.stream = static_cast<std::uint32_t>(i & 1);
      tuples.push_back(t);
    }
    ByteWriter w;
    encode_tuple_batch(w, tuples);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_hello(w, HelloPayload{2, 6});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_seal(w, SealPayload{314});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_key_list(w, {1, 2, 3, 0xdeadbeefULL, 5, 6, 7});
    out.push_back(w.bytes());
  }
  {
    std::vector<WireKeyState> states;
    for (int i = 0; i < 6; ++i) {
      WireKeyState s;
      s.key = static_cast<KeyId>(i);
      s.blob.assign(static_cast<std::size_t>(3 + i * 5), std::uint8_t(0xa0 + i));
      states.push_back(std::move(s));
    }
    ByteWriter w;
    encode_key_states(w, states);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_expire(w, Micros{987654321});
    out.push_back(w.bytes());
  }
  {
    PlanPayload plan;
    plan.seq = 55;
    for (int i = 0; i < 9; ++i) {
      KeyMove m;
      m.key = static_cast<KeyId>(i * 101);
      m.from = i % 3;
      m.to = (i + 2) % 3;
      m.state_bytes = 64.0 * i;
      plan.moves.push_back(m);
    }
    ByteWriter w;
    encode_plan(w, plan);
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_ack(w, AckPayload{12345});
    out.push_back(w.bytes());
  }
  {
    ByteWriter w;
    encode_fin(w, FinPayload{1, 2, 3, 4});
    out.push_back(w.bytes());
  }
  {
    CheckpointCounters c;
    c.epoch = 6;
    c.processed = 6'000;
    c.outputs = 5'900;
    c.local_buckets = 512;
    c.state_checksum = 0x1122334455667788ULL;
    ByteWriter w;
    encode_restore_header(w, c, 5);
    for (int i = 0; i < 5; ++i) {
      const std::vector<std::uint8_t> blob(static_cast<std::size_t>(4 + i * 7),
                                           std::uint8_t(0xc0 + i));
      encode_key_state(w, static_cast<KeyId>(i * 31), blob.data(),
                       blob.size());
    }
    out.push_back(w.bytes());
  }
  out.push_back(make_delta_fixture().delta);
  {
    ByteWriter w;
    encode_heartbeat(w, HeartbeatPayload{17});
    out.push_back(w.bytes());
  }
  return out;
}

/// Runs every payload decoder over `bytes`; the assertion is simply that
/// none of them aborts (gtest would report the crash) and the reader's
/// flag agrees with the return value.
void decode_all(const std::vector<std::uint8_t>& bytes) {
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<Tuple> tuples;
    const bool ok = decode_tuple_batch(r, tuples);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HelloPayload hello;
    (void)decode_hello(r, hello);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    SealPayload seal;
    (void)decode_seal(r, seal);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<KeyId> keys;
    const bool ok = decode_key_list(r, keys);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    std::vector<WireKeyState> states;
    const bool ok = decode_key_states(r, states);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    Micros watermark = 0;
    (void)decode_expire(r, watermark);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    PlanPayload plan;
    const bool ok = decode_plan(r, plan);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    AckPayload ack;
    (void)decode_ack(r, ack);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    FinPayload fin;
    (void)decode_fin(r, fin);
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    CheckpointCounters c;
    std::vector<KeyStateView> states;
    const bool ok = decode_restore(r, c, states);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    CheckpointDelta delta;
    const bool ok = decode_checkpoint_delta(r, delta);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
  }
  {
    ByteReader r(bytes, ByteReader::Untrusted{});
    HeartbeatPayload hb;
    (void)decode_heartbeat(r, hb);
  }
}

// Every truncation prefix of every valid payload, through every decoder.
// A prefix fed to the decoder that PRODUCED it must be rejected (except
// the full length); fed to any other decoder it must merely not crash.
TEST(NetFuzz, TruncationPrefixesNeverAbort) {
  const auto payloads = valid_payloads();
  for (std::size_t p = 0; p < payloads.size(); ++p) {
    const auto& full = payloads[p];
    for (std::size_t keep = 0; keep <= full.size(); ++keep) {
      decode_all(std::vector<std::uint8_t>(full.begin(),
                                           full.begin() + keep));
    }
  }
}

// Seeded random corruptions: flip 1..8 bytes of a valid payload and run
// every decoder. Accept-or-reject are both fine; crashing is not.
TEST(NetFuzz, RandomCorruptionsNeverAbort) {
  const auto payloads = valid_payloads();
  std::mt19937_64 rng(0xfeedface);
  for (int round = 0; round < 400; ++round) {
    auto bytes = payloads[round % payloads.size()];
    if (bytes.empty()) continue;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    decode_all(bytes);
  }
}

// Random garbage (not derived from any encoder) through every decoder.
TEST(NetFuzz, PureGarbageNeverAborts) {
  std::mt19937_64 rng(0xbadc0de);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(rng() % 300);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    decode_all(bytes);
  }
}

// Frame headers: every truncation and corruption of a valid header must
// decode false with a non-empty reason — never abort, never accept a
// payload size beyond the cap.
TEST(NetFuzz, FrameHeaderCorruptionsRejectCleanly) {
  std::mt19937_64 rng(0x5eed);
  for (int round = 0; round < 500; ++round) {
    ByteWriter w;
    encode_frame_header(w, static_cast<FrameType>(
                               kMinFrameType + rng() % kMaxFrameType),
                        rng(), static_cast<std::uint32_t>(rng()));
    auto bytes = w.bytes();
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    FrameHeader header;
    std::string error;
    if (!decode_frame_header(bytes.data(), bytes.size(), header, error)) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_LE(header.payload_size, kMaxFramePayload);
    }
  }
}

// Boundary summaries: the slab decoder guards geometry, counts, value
// ranges and the raw cell block. Corrupt/truncated summaries must fail
// without aborting OR poisoning the target slab into a crash — a target
// that rejected an input must still absorb a clean one afterwards.
TEST(NetFuzz, SlabSummaryCorruptionsRejectOrRoundTrip) {
  SketchStatsConfig cfg;
  cfg.heavy_capacity = 32;
  cfg.epsilon = 0.01;

  WorkerSketchSlab source(cfg);
  std::unordered_map<KeyId, WorkerSketchSlab::KeyAgg> batch;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto& agg = batch[i * 7919];
    agg.cost = 1.0 + static_cast<double>(i % 11);
    agg.state_bytes = 8.0 * (i % 5);
    agg.frequency = 1;
  }
  source.add_batch(batch);
  source.set_epoch(4);
  ByteWriter w;
  source.serialize(w);
  const auto& valid = w.bytes();

  std::mt19937_64 rng(0xabcdef);
  WorkerSketchSlab target(cfg);
  for (int round = 0; round < 300; ++round) {
    std::vector<std::uint8_t> bytes = valid;
    if (round % 3 == 0) {
      bytes.resize(rng() % valid.size());  // truncation
    } else {
      const int flips = 1 + static_cast<int>(rng() % 6);
      for (int f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
    }
    ByteReader r(bytes, ByteReader::Untrusted{});
    const bool ok = target.deserialize_from(r);
    if (!ok) {
      EXPECT_FALSE(r.ok());
    }
    // The target must remain usable either way: a clean decode succeeds.
    ByteReader clean(valid, ByteReader::Untrusted{});
    ASSERT_TRUE(target.deserialize_from(clean)) << "round " << round;
    ByteWriter again;
    target.serialize(again);
    ASSERT_EQ(again.size(), valid.size());
    EXPECT_EQ(0, std::memcmp(again.bytes().data(), valid.data(),
                             valid.size()));
  }
}

// Checkpoint deltas at the driver: a delta is validated whole before any
// of it lands. Truncated or corrupted payloads either fail to decode or,
// if they decode, apply completely or not at all — a rejected delta
// leaves the stored checkpoint byte for byte as it was.
TEST(NetFuzz, RejectedDeltaLeavesStoredCheckpointUnchanged) {
  const DeltaFixture f = make_delta_fixture();
  const StoreImage before = image_of(f.driver);

  // The clean delta applies and reproduces the worker's serialized store.
  {
    CheckpointStore store = f.driver;
    ByteReader in(f.delta, ByteReader::Untrusted{});
    CheckpointDelta delta;
    ASSERT_TRUE(decode_checkpoint_delta(in, delta));
    ASSERT_TRUE(in.exhausted());
    ASSERT_TRUE(store.apply(delta));
    ASSERT_EQ(store.size(), f.worker.size());
    for (const auto& [key, state] : f.worker.states()) {
      ByteWriter w;
      state->serialize(w);
      ASSERT_EQ(store.states().count(key), 1u) << key;
      EXPECT_EQ(store.states().at(key), w.bytes()) << key;
    }
    EXPECT_EQ(store.counters().epoch, 2u);
    EXPECT_EQ(store.counters().processed, 99u);
  }

  std::size_t rejected = 0;
  const auto apply_bytes = [&](const std::vector<std::uint8_t>& bytes) {
    ByteReader in(bytes, ByteReader::Untrusted{});
    CheckpointDelta delta;
    if (!decode_checkpoint_delta(in, delta) || !in.exhausted()) return;
    CheckpointStore store = f.driver;
    if (store.apply(delta)) return;  // a corrupted blob byte is opaque
    ++rejected;
    EXPECT_EQ(image_of(store), before);
  };
  for (std::size_t keep = 0; keep < f.delta.size(); ++keep) {
    apply_bytes(std::vector<std::uint8_t>(f.delta.begin(),
                                          f.delta.begin() + keep));
  }
  std::mt19937_64 rng(0xde17a);
  for (int round = 0; round < 600; ++round) {
    auto bytes = f.delta;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      bytes[rng() % bytes.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    }
    apply_bytes(bytes);
  }
  EXPECT_GT(rejected, 0u);

  // Records that decode but do not fit the stored checkpoint.
  ByteReader in(f.delta, ByteReader::Untrusted{});
  CheckpointDelta valid;
  ASSERT_TRUE(decode_checkpoint_delta(in, valid));
  std::size_t splices = 0;
  const auto expect_rejected = [&](const CheckpointDelta& bad,
                                   const std::string& what) {
    CheckpointStore store = f.driver;
    EXPECT_FALSE(store.apply(bad)) << what;
    EXPECT_EQ(image_of(store), before) << what;
  };
  for (std::size_t i = 0; i < valid.records.size(); ++i) {
    const CheckpointDelta::Record& r = valid.records[i];
    if (r.kind != DeltaRecordKind::kSplice) continue;
    ++splices;
    const std::uint64_t blob_size = f.driver.states().at(r.key).size();
    const std::string at = "record " + std::to_string(i);
    CheckpointDelta bad = valid;
    bad.records[i].keep_to = blob_size + 1;
    expect_rejected(bad, at + ": keep_to past the blob");
    bad = valid;
    bad.records[i].keep_from = r.keep_to + 1;
    expect_rejected(bad, at + ": keep_from past keep_to");
    bad = valid;
    bad.records[i].keep_to = std::numeric_limits<std::uint64_t>::max();
    expect_rejected(bad, at + ": keep_to at the u64 limit");
    bad = valid;
    bad.records[i].key = 0xabcdefULL;  // no stored blob to splice
    expect_rejected(bad, at + ": unknown key");
    bad = valid;
    bad.records.push_back(bad.records[i]);
    expect_rejected(bad, at + ": key twice");
  }
  EXPECT_GE(splices, 4u);
  CheckpointDelta bad = valid;
  ++bad.state_entries;
  expect_rejected(bad, "state count off by one");
  // The key the duplicate check's hash set reserves as its free mark.
  bad = valid;
  CheckpointDelta::Record removal;
  removal.key = ~KeyId{0};
  removal.kind = DeltaRecordKind::kRemoved;
  bad.records.push_back(removal);
  bad.records.push_back(removal);
  expect_rejected(bad, "the all-ones key twice");
  bad.records.pop_back();
  CheckpointStore store = f.driver;
  EXPECT_TRUE(store.apply(bad)) << "the all-ones key once is a valid no-op";
}

}  // namespace
}  // namespace skewless
