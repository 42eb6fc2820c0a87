#include "net/wire.h"

namespace skewless {

namespace {

/// Field-wise tuple size on the wire (the struct itself has padding).
constexpr std::size_t kTupleWireBytes = 8 + 8 + 8 + 4;

}  // namespace

void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples) {
  out.u32(static_cast<std::uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) {
    out.u64(t.key);
    out.i64(t.value);
    out.i64(t.emit_micros);
    out.u32(t.stream);
  }
}

bool decode_tuple_batch(ByteReader& in, std::vector<Tuple>& tuples) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, kTupleWireBytes)) return false;
  tuples.clear();
  tuples.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Tuple t;
    t.key = in.u64();
    t.value = in.i64();
    t.emit_micros = in.i64();
    t.stream = in.u32();
    tuples.push_back(t);
  }
  return in.ok();
}

void encode_hello(ByteWriter& out, const HelloPayload& hello) {
  out.u32(hello.worker_id);
  out.u32(hello.num_workers);
}

bool decode_hello(ByteReader& in, HelloPayload& hello) {
  hello.worker_id = in.u32();
  hello.num_workers = in.u32();
  return in.ok();
}

void encode_seal(ByteWriter& out, const SealPayload& seal) {
  out.u64(seal.batches);
}

bool decode_seal(ByteReader& in, SealPayload& seal) {
  seal.batches = in.u64();
  return in.ok();
}

void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys) {
  out.u32(static_cast<std::uint32_t>(keys.size()));
  for (const KeyId key : keys) out.u64(key);
}

bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys) {
  const std::uint32_t n = in.u32();
  if (!in.fits(n, sizeof(KeyId))) return false;
  keys.clear();
  keys.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) keys.push_back(in.u64());
  return in.ok();
}

void encode_key_states(ByteWriter& out,
                       const std::vector<WireKeyState>& states) {
  out.u32(static_cast<std::uint32_t>(states.size()));
  for (const WireKeyState& s : states) {
    encode_key_state(out, s.key, s.blob.data(), s.blob.size());
  }
}

bool decode_key_states(ByteReader& in, std::vector<WireKeyState>& states) {
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMinEntryBytes = 8 + 4;
  if (!in.fits(n, kMinEntryBytes)) return false;
  states.clear();
  states.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WireKeyState s;
    s.key = in.u64();
    const std::uint32_t blob_size = in.u32();
    if (!in.fits(blob_size, 1)) return false;
    s.blob.resize(blob_size);
    if (blob_size > 0 && !in.read_into(s.blob.data(), blob_size)) {
      return false;
    }
    states.push_back(std::move(s));
  }
  return in.ok();
}

void encode_expire(ByteWriter& out, Micros watermark) { out.i64(watermark); }

bool decode_expire(ByteReader& in, Micros& watermark) {
  watermark = in.i64();
  return in.ok();
}

void encode_plan(ByteWriter& out, const PlanPayload& plan) {
  out.u64(plan.seq);
  out.u32(static_cast<std::uint32_t>(plan.moves.size()));
  for (const KeyMove& mv : plan.moves) {
    out.u64(mv.key);
    out.u32(static_cast<std::uint32_t>(mv.from));
    out.u32(static_cast<std::uint32_t>(mv.to));
    out.f64(mv.state_bytes);
  }
}

bool decode_plan(ByteReader& in, PlanPayload& plan) {
  plan.seq = in.u64();
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMoveWireBytes = 8 + 4 + 4 + 8;
  if (!in.fits(n, kMoveWireBytes)) return false;
  plan.moves.clear();
  plan.moves.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyMove mv;
    mv.key = in.u64();
    mv.from = static_cast<InstanceId>(in.u32());
    mv.to = static_cast<InstanceId>(in.u32());
    mv.state_bytes = in.f64();
    plan.moves.push_back(mv);
  }
  return in.ok();
}

void encode_ack(ByteWriter& out, const AckPayload& ack) { out.u64(ack.seq); }

bool decode_ack(ByteReader& in, AckPayload& ack) {
  ack.seq = in.u64();
  return in.ok();
}

namespace {

void write_counters(ByteWriter& out, const CheckpointCounters& c) {
  out.u64(c.epoch);
  out.u64(c.processed);
  out.u64(c.outputs);
  out.u64(c.local_buckets);
  out.u64(c.state_checksum);
}

bool read_counters(ByteReader& in, CheckpointCounters& c) {
  c.epoch = in.u64();
  c.processed = in.u64();
  c.outputs = in.u64();
  c.local_buckets = in.u64();
  c.state_checksum = in.u64();
  return in.ok();
}

/// A splice record's fixed fields beyond a full record's length prefix:
/// the keep range and the tail length. A splice that keeps no more than
/// this many old bytes ships in full instead.
constexpr std::uint64_t kSpliceExtraBytes = 8 + 8 + 4;

}  // namespace

void encode_restore_header(ByteWriter& out, const CheckpointCounters& c,
                           std::uint32_t states) {
  write_counters(out, c);
  out.u32(states);
}

void encode_key_state(ByteWriter& out, KeyId key, const std::uint8_t* blob,
                      std::size_t size) {
  out.u64(key);
  out.u32(static_cast<std::uint32_t>(size));
  out.append(blob, size);
}

bool decode_restore(ByteReader& in, CheckpointCounters& c,
                    std::vector<KeyStateView>& states) {
  if (!read_counters(in, c)) return false;
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMinEntryBytes = 8 + 4;
  if (!in.fits(n, kMinEntryBytes)) return false;
  states.clear();
  states.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    KeyStateView v;
    v.key = in.u64();
    v.size = in.u32();
    v.blob = in.view(v.size);
    if (!in.ok()) return false;
    states.push_back(v);
  }
  return in.ok();
}

void encode_checkpoint_delta(ByteWriter& out, const CheckpointCounters& c,
                             const StateStore& store,
                             const std::vector<KeyId>& removed) {
  write_counters(out, c);
  out.u64(store.size());
  const std::size_t count_at = out.size();
  out.u32(0);  // record count, patched at the end
  std::uint32_t records = 0;
  for (const KeyId key : removed) {
    if (store.states().count(key) > 0) continue;  // reinstalled: full below
    out.u64(key);
    out.u8(static_cast<std::uint8_t>(DeltaRecordKind::kRemoved));
    ++records;
  }
  StateSplice splice;
  for (const auto& [key, state] : store.states()) {
    // Written as a splice; rewound when the state is unchanged, and
    // rewritten in full when it has no splice worth sending.
    const std::size_t record_at = out.size();
    out.u64(key);
    out.u8(static_cast<std::uint8_t>(DeltaRecordKind::kSplice));
    const std::size_t fields_at = out.size();
    out.u64(0);
    out.u64(0);
    out.u32(0);
    out.u32(0);
    const std::size_t bytes_at = out.size();
    const StateDelta d = state->checkpoint_delta(out, splice);
    if (d == StateDelta::kUnchanged) {
      out.truncate(record_at);
      continue;
    }
    ++records;
    const std::uint64_t written = out.size() - bytes_at;
    if (d == StateDelta::kSplice && splice.head_bytes <= written &&
        splice.keep_to - splice.keep_from > kSpliceExtraBytes) {
      out.patch_u64(fields_at, splice.keep_from);
      out.patch_u64(fields_at + 8, splice.keep_to);
      out.patch_u32(fields_at + 16,
                    static_cast<std::uint32_t>(splice.head_bytes));
      out.patch_u32(fields_at + 20,
                    static_cast<std::uint32_t>(written - splice.head_bytes));
      continue;
    }
    out.truncate(record_at);
    out.u64(key);
    out.u8(static_cast<std::uint8_t>(DeltaRecordKind::kFull));
    const std::size_t size_at = out.size();
    out.u32(0);
    state->serialize(out);
    out.patch_u32(size_at,
                  static_cast<std::uint32_t>(out.size() - size_at - 4));
  }
  out.patch_u32(count_at, records);
}

bool decode_checkpoint_delta(ByteReader& in, CheckpointDelta& delta) {
  if (!read_counters(in, delta.counters)) return false;
  delta.state_entries = in.u64();
  const std::uint32_t n = in.u32();
  constexpr std::size_t kMinRecordBytes = 8 + 1;  // a kRemoved record
  if (!in.fits(n, kMinRecordBytes)) return false;
  delta.records.clear();
  delta.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CheckpointDelta::Record r;
    r.key = in.u64();
    const std::uint8_t kind = in.u8();
    switch (kind) {
      case static_cast<std::uint8_t>(DeltaRecordKind::kFull):
        r.kind = DeltaRecordKind::kFull;
        r.head_size = in.u32();
        r.head = in.view(r.head_size);
        break;
      case static_cast<std::uint8_t>(DeltaRecordKind::kSplice):
        r.kind = DeltaRecordKind::kSplice;
        r.keep_from = in.u64();
        r.keep_to = in.u64();
        r.head_size = in.u32();
        r.tail_size = in.u32();
        r.head = in.view(r.head_size);
        r.tail = in.view(r.tail_size);
        if (r.keep_from > r.keep_to) in.fail();
        break;
      case static_cast<std::uint8_t>(DeltaRecordKind::kRemoved):
        r.kind = DeltaRecordKind::kRemoved;
        break;
      default:
        in.fail();
        break;
    }
    if (!in.ok()) return false;
    delta.records.push_back(r);
  }
  return in.ok();
}

void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb) {
  out.u64(hb.epoch_batches);
}

bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb) {
  hb.epoch_batches = in.u64();
  return in.ok();
}

void encode_fin(ByteWriter& out, const FinPayload& fin) {
  out.u64(fin.state_checksum);
  out.u64(fin.state_entries);
  out.u64(fin.processed);
  out.u64(fin.outputs);
}

bool decode_fin(ByteReader& in, FinPayload& fin) {
  fin.state_checksum = in.u64();
  fin.state_entries = in.u64();
  fin.processed = in.u64();
  fin.outputs = in.u64();
  return in.ok();
}

}  // namespace skewless
