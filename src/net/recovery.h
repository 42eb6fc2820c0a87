// Driver-side recovery state for the socket engine: the per-worker
// materialized checkpoint, the bounded replay buffer of the open
// epoch's routed batches, and worker exit-status classification. These
// are plain data structures (unit-tested directly); the recovery
// PROTOCOL — detect, respawn, restore, replay — lives in NetEngine.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/wire.h"

namespace skewless {

// Worker process exit codes (worker_main). The driver logs which one it
// reaped, so a protocol violation, a corrupt frame and a clean stop are
// distinguishable post-mortem instead of all reading as "worker died".
inline constexpr int kWorkerExitOk = 0;
inline constexpr int kWorkerExitChannel = 1;
inline constexpr int kWorkerExitHandshake = 2;
inline constexpr int kWorkerExitProtocol = 3;
inline constexpr int kWorkerExitCorruptFrame = 4;
inline constexpr int kWorkerExitFault = 5;  // injected fault (tests)

/// Human-readable classification of a waitpid status: which exit code
/// (named) or which signal ended the worker.
[[nodiscard]] std::string describe_worker_exit(int wait_status);

/// The driver's materialized checkpoint of one worker: the counters of
/// its last durable epoch and every key's serialized state as opaque
/// bytes. Each epoch's kCheckpoint delta splices into it in place, so it
/// holds one copy of the worker's live state whatever the number of
/// epochs, and a restore ships it as it stands.
class CheckpointStore {
 public:
  /// Validates every record of `delta` against the stored blobs, then
  /// applies them all. Returns false, with the store unchanged, when a
  /// key appears twice, a splice names an unknown key or keeps bytes
  /// past its blob's end, or the resulting state count differs from the
  /// delta's. Removing an absent key is a no-op: the worker cannot tell
  /// a key created since its last checkpoint from one in it.
  [[nodiscard]] bool apply(const CheckpointDelta& delta);

  /// Drops `key`'s state (migrated away since the checkpoint).
  void erase(KeyId key) { states_.erase(key); }
  /// Sets `key`'s state (installed since the checkpoint), replacing any.
  void put(KeyId key, std::vector<std::uint8_t> blob) {
    states_[key] = std::move(blob);
  }

  /// Writes the counters and every state as a kRestore payload.
  void encode_restore(ByteWriter& out) const;

  void clear() {
    states_.clear();
    counters_ = CheckpointCounters{};
  }

  [[nodiscard]] const CheckpointCounters& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::unordered_map<KeyId, std::vector<std::uint8_t>>&
  states() const {
    return states_;
  }
  [[nodiscard]] std::size_t size() const { return states_.size(); }

  /// Resident bytes of the stored blobs (allocated capacity) plus each
  /// key's map entry.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  CheckpointCounters counters_;
  std::unordered_map<KeyId, std::vector<std::uint8_t>> states_;
  /// apply() scratch: each record's stored blob (nullptr if absent), and
  /// the hash set of the delta's keys for the duplicate check.
  std::vector<std::vector<std::uint8_t>*> targets_;
  std::vector<KeyId> seen_;
};

/// Bounded record of the open epoch's routed batches for one worker —
/// the verbatim serialized kBatch payloads, so a replay re-sends the
/// exact bytes (same tuples, same emit timestamps, same order) and the
/// respawned worker's fold is bit-identical to the lost one's. Cleared
/// when the epoch's checkpoint lands (the batches are then reflected in
/// durable state). Overflow is sticky: past the byte budget the buffer
/// stops recording, and a crash before the next checkpoint becomes
/// unrecoverable (the engine fails instead of replaying a hole).
class ReplayBuffer {
 public:
  struct RecordedBatch {
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> payload;
  };

  explicit ReplayBuffer(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns false (and records nothing) once the budget is exceeded.
  bool record(std::uint64_t epoch, const std::uint8_t* payload,
              std::size_t size) {
    if (overflowed_ || bytes_ + size > max_bytes_) {
      overflowed_ = true;
      return false;
    }
    RecordedBatch batch;
    batch.epoch = epoch;
    batch.payload.assign(payload, payload + size);
    bytes_ += size;
    batches_.push_back(std::move(batch));
    return true;
  }

  void clear() {
    batches_.clear();
    bytes_ = 0;
    overflowed_ = false;
  }

  [[nodiscard]] const std::vector<RecordedBatch>& batches() const {
    return batches_;
  }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  std::vector<RecordedBatch> batches_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  bool overflowed_ = false;
};

}  // namespace skewless
