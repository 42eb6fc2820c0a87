// Payload encodings for every frame type (net/frame.h). Encoders write
// into a reusable ByteWriter; decoders take a CHECKED ByteReader and
// return false (reader error flag set) on truncation, impossible counts
// or out-of-range values — the connection owner then drops the peer.
//
// The boundary-summary payload (kSummary) is WorkerSketchSlab's own
// serialize()/deserialize_from() and lives with the slab; everything
// else is here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serde.h"
#include "common/types.h"
#include "core/plan.h"
#include "engine/state.h"
#include "engine/tuple.h"

namespace skewless {

// --- kBatch ---------------------------------------------------------------
void encode_tuple_batch(ByteWriter& out, const std::vector<Tuple>& tuples);
[[nodiscard]] bool decode_tuple_batch(ByteReader& in,
                                      std::vector<Tuple>& tuples);

// --- kHello ---------------------------------------------------------------
struct HelloPayload {
  std::uint32_t worker_id = 0;
  std::uint32_t num_workers = 0;
};
void encode_hello(ByteWriter& out, const HelloPayload& hello);
[[nodiscard]] bool decode_hello(ByteReader& in, HelloPayload& hello);

// --- kSeal ----------------------------------------------------------------
/// The seal rides the CONTROL channel while the epoch's batches ride the
/// data channel, so cross-channel ordering is re-established by content:
/// `batches` is how many kBatch frames the driver sent this worker this
/// epoch, and the worker defers the seal until it has processed exactly
/// that many.
struct SealPayload {
  std::uint64_t batches = 0;
};
void encode_seal(ByteWriter& out, const SealPayload& seal);
[[nodiscard]] bool decode_seal(ByteReader& in, SealPayload& seal);

// --- kHeavySet / kExtract (key lists) ------------------------------------
void encode_key_list(ByteWriter& out, const std::vector<KeyId>& keys);
[[nodiscard]] bool decode_key_list(ByteReader& in, std::vector<KeyId>& keys);

// --- kMigrated / kInstall -------------------------------------------------
/// One migrated key: the serialized KeyState blob, still opaque bytes.
/// The driver forwards blobs from kMigrated straight into kInstall
/// without ever materializing a state object — the controller routes
/// migrations, it does not process them.
struct WireKeyState {
  KeyId key = 0;
  std::vector<std::uint8_t> blob;
};
void encode_key_states(ByteWriter& out, const std::vector<WireKeyState>& states);
[[nodiscard]] bool decode_key_states(ByteReader& in,
                                     std::vector<WireKeyState>& states);

// --- kExpire --------------------------------------------------------------
void encode_expire(ByteWriter& out, Micros watermark);
[[nodiscard]] bool decode_expire(ByteReader& in, Micros& watermark);

// --- kPlan ----------------------------------------------------------------
/// Sparse plan broadcast: sequence number plus the moves (the O(N_D)
/// payload the compact planning work bounded). Workers apply nothing
/// from it today — migration arrives as explicit Extract/Install — but
/// acknowledging it (kPlanAck echoes `seq`) is the control-latency probe
/// the bench gates on: a plan must reach a worker and return while the
/// data channel is saturated.
struct PlanPayload {
  std::uint64_t seq = 0;
  std::vector<KeyMove> moves;
};
void encode_plan(ByteWriter& out, const PlanPayload& plan);
[[nodiscard]] bool decode_plan(ByteReader& in, PlanPayload& plan);

// --- kPlanAck / kInstallAck ----------------------------------------------
struct AckPayload {
  std::uint64_t seq = 0;
};
void encode_ack(ByteWriter& out, const AckPayload& ack);
[[nodiscard]] bool decode_ack(ByteReader& in, AckPayload& ack);

// --- kCheckpoint / kRestore -----------------------------------------------
/// The counters of a worker's durable snapshot: everything besides its
/// key states that a respawned worker needs to resume the sealed epoch's
/// successor deterministically. `local_buckets` is the worker's
/// per-batch scratch-map bucket count: fold order into the slab depends
/// on that map's rehash history, so the restore re-establishes it before
/// replaying (the byte-identity contract under recovery).
struct CheckpointCounters {
  std::uint64_t epoch = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
  std::uint64_t local_buckets = 0;
  std::uint64_t state_checksum = 0;
};

/// One key's serialized state inside a received payload: a view into the
/// payload buffer, valid while that buffer is neither freed nor reused.
struct KeyStateView {
  KeyId key = 0;
  const std::uint8_t* blob = nullptr;
  std::uint32_t size = 0;
};

/// kRestore (driver -> worker): the driver's materialized checkpoint of
/// the worker, adjusted for migrations since (the "effective"
/// checkpoint) — the counters, a u32 state count, then per state
/// {u64 key, u32 size, blob}. The driver writes the states itself
/// (encode_key_state), straight from its store.
void encode_restore_header(ByteWriter& out, const CheckpointCounters& c,
                           std::uint32_t states);
void encode_key_state(ByteWriter& out, KeyId key, const std::uint8_t* blob,
                      std::size_t size);
[[nodiscard]] bool decode_restore(ByteReader& in, CheckpointCounters& c,
                                  std::vector<KeyStateView>& states);

/// kCheckpoint (worker -> driver): the post-seal snapshot as a DELTA
/// against the previous one (or against the restore that respawned the
/// worker): the counters, the number of key states the worker holds
/// after it, and one record per key whose serialized bytes changed:
///   kFull    {u32 size, blob}                    new, replaced, or a
///                                                state without deltas
///   kSplice  {u64 keep_from, u64 keep_to, u32 head, u32 tail, bytes}
///            new blob = head ‖ old[keep_from, keep_to) ‖ tail
///   kRemoved {}                                  extracted since
/// Unchanged keys send nothing. The blobs stay opaque to the driver.
enum class DeltaRecordKind : std::uint8_t {
  kFull = 0,
  kSplice = 1,
  kRemoved = 2,
};

struct CheckpointDelta {
  struct Record {
    KeyId key = 0;
    DeltaRecordKind kind = DeltaRecordKind::kFull;
    std::uint64_t keep_from = 0;
    std::uint64_t keep_to = 0;
    /// kFull: the blob is the head and the tail is empty.
    const std::uint8_t* head = nullptr;
    std::uint32_t head_size = 0;
    const std::uint8_t* tail = nullptr;
    std::uint32_t tail_size = 0;
  };
  CheckpointCounters counters;
  std::uint64_t state_entries = 0;
  /// Views into the decoded payload buffer.
  std::vector<Record> records;
};

/// Encodes `store`'s delta since its last StateStore::mark_checkpoint()
/// straight into `out`. `removed` lists keys extracted since the mark; a
/// removed key back in the store (reinstalled) is sent in full instead.
void encode_checkpoint_delta(ByteWriter& out, const CheckpointCounters& c,
                             const StateStore& store,
                             const std::vector<KeyId>& removed);
[[nodiscard]] bool decode_checkpoint_delta(ByteReader& in,
                                           CheckpointDelta& delta);

// --- kHeartbeat -----------------------------------------------------------
/// Epoch-progress liveness beat: how many batches of the open epoch the
/// worker has processed. Any heartbeat resets the driver's per-worker
/// receive deadline, so a slow-but-alive worker is never mistaken for a
/// wedged one.
struct HeartbeatPayload {
  std::uint64_t epoch_batches = 0;
};
void encode_heartbeat(ByteWriter& out, const HeartbeatPayload& hb);
[[nodiscard]] bool decode_heartbeat(ByteReader& in, HeartbeatPayload& hb);

// --- kFin -----------------------------------------------------------------
struct FinPayload {
  std::uint64_t state_checksum = 0;
  std::uint64_t state_entries = 0;
  std::uint64_t processed = 0;
  std::uint64_t outputs = 0;
};
void encode_fin(ByteWriter& out, const FinPayload& fin);
[[nodiscard]] bool decode_fin(ByteReader& in, FinPayload& fin);

}  // namespace skewless
