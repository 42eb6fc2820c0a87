// Per-key operator state for the threaded engine.
//
// A stateful operator binds one KeyState to every active key (Section II:
// "a state is associated with an active key in the corresponding task").
// When a rebalance plan moves a key, its KeyState object migrates with it
// — the StateStore supports extraction/installation for exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "common/serde.h"

namespace skewless {

/// How a state's serialize() bytes now relate to the bytes it serialized
/// at its last mark_checkpoint() (KeyState::checkpoint_delta).
enum class StateDelta : std::uint8_t {
  kFull,       // no description: the caller ships serialize() in full
  kUnchanged,  // serialize() would write exactly the marked bytes
  kSplice,     // serialize() == head ‖ marked[keep_from, keep_to) ‖ tail
};

/// Layout of a kSplice delta. The state appends head then tail to the
/// caller's writer, back to back; the first head_bytes are the head.
struct StateSplice {
  std::uint64_t head_bytes = 0;
  std::uint64_t keep_from = 0;
  std::uint64_t keep_to = 0;
};

class KeyState {
 public:
  virtual ~KeyState() = default;

  /// Current state footprint in bytes (drives S_i(k, w) statistics and
  /// migration cost accounting).
  [[nodiscard]] virtual Bytes bytes() const = 0;

  /// Order-insensitive content checksum; tests use it to prove that
  /// migrated and non-migrated runs compute identical states.
  [[nodiscard]] virtual std::uint64_t checksum() const = 0;

  /// Writes the full state content for migration over the wire. The
  /// owning OperatorLogic's deserialize_state() must reconstruct an
  /// equivalent state (equal checksum) from the bytes.
  virtual void serialize(ByteWriter& out) const = 0;

  /// Drops window content older than the watermark (no-op for
  /// non-windowed states).
  virtual void expire_before(Micros /*watermark*/) {}

  // --- incremental checkpoints (optional) ---
  // A socket-engine worker checkpoints every epoch. A state that can say
  // what changed since the last checkpoint lets the worker ship only
  // that; the default ships serialize() in full, so a state that
  // implements neither method stays correct.

  /// Takes the current serialize() bytes as the baseline of the next
  /// checkpoint_delta().
  virtual void mark_checkpoint() {}

  /// Describes serialize() against the bytes at the last
  /// mark_checkpoint(). kSplice: appends the head, then the tail, to
  /// `out` and fills `splice` (keep_from <= keep_to <= the marked size).
  /// kUnchanged and kFull write nothing. A state never marked — fresh,
  /// deserialized or installed — must answer kFull.
  [[nodiscard]] virtual StateDelta checkpoint_delta(
      ByteWriter& /*out*/, StateSplice& /*splice*/) const {
    return StateDelta::kFull;
  }
};

/// Owning map from key to state, local to one task instance. Accessed
/// only from the owning worker thread while the engine runs.
class StateStore {
 public:
  /// Returns the state for `key`, creating it via `factory` on first use.
  template <typename Factory>
  KeyState& get_or_create(KeyId key, Factory&& factory) {
    auto it = states_.find(key);
    if (it == states_.end()) {
      it = states_.emplace(key, factory()).first;
      SKW_ASSERT(it->second != nullptr);
    }
    return *it->second;
  }

  [[nodiscard]] KeyState* find(KeyId key) {
    const auto it = states_.find(key);
    return it == states_.end() ? nullptr : it->second.get();
  }

  /// Removes and returns the state for `key` (nullptr if absent) — the
  /// extraction half of a migration.
  [[nodiscard]] std::unique_ptr<KeyState> extract(KeyId key) {
    const auto it = states_.find(key);
    if (it == states_.end()) return nullptr;
    auto state = std::move(it->second);
    states_.erase(it);
    return state;
  }

  /// Installs a migrated state. The key must not already be present —
  /// the pause protocol guarantees the destination never created one.
  void install(KeyId key, std::unique_ptr<KeyState> state) {
    SKW_EXPECTS(state != nullptr);
    const auto [it, inserted] = states_.emplace(key, std::move(state));
    SKW_EXPECTS(inserted);
    (void)it;
  }

  /// Installs a state, replacing any existing one. Only the net worker's
  /// checkpoint-restore path uses this: a restore payload is peer input,
  /// and reinstalling over a half-built store must not abort. Migration
  /// installs keep the strict install() contract.
  void install_or_replace(KeyId key, std::unique_ptr<KeyState> state) {
    SKW_EXPECTS(state != nullptr);
    states_[key] = std::move(state);
  }

  void clear() { states_.clear(); }

  /// Marks every state as checkpointed (KeyState::mark_checkpoint).
  void mark_checkpoint() {
    for (auto& [key, state] : states_) state->mark_checkpoint();
  }

  void expire_before(Micros watermark) {
    for (auto& [key, state] : states_) state->expire_before(watermark);
  }

  [[nodiscard]] std::size_t size() const { return states_.size(); }

  [[nodiscard]] Bytes total_bytes() const {
    Bytes total = 0.0;
    for (const auto& [key, state] : states_) total += state->bytes();
    return total;
  }

  /// Sum of per-key checksums mixed with the key (order-insensitive).
  [[nodiscard]] std::uint64_t checksum() const;

  [[nodiscard]] const std::unordered_map<KeyId, std::unique_ptr<KeyState>>&
  states() const {
    return states_;
  }

 private:
  std::unordered_map<KeyId, std::unique_ptr<KeyState>> states_;
};

}  // namespace skewless
