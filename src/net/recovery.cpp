#include "net/recovery.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include <sys/wait.h>

#include "common/rng.h"

namespace skewless {

namespace {

/// Returns a blob's capacity once it shrank to a quarter of it, so the
/// store's footprint follows the live state.
void fit_capacity(std::vector<std::uint8_t>& blob) {
  if (blob.capacity() > 4 * blob.size() + 64) blob.shrink_to_fit();
}

/// blob := head ‖ blob[keep_from, keep_to) ‖ tail, moving the kept bytes
/// at most once. A blob that only grew at its end (the head has the
/// marked head's length) is overwritten in front and appended to, so the
/// vector's doubling growth amortizes the tails of every epoch.
void splice_in_place(std::vector<std::uint8_t>& blob,
                     const CheckpointDelta::Record& r) {
  const std::size_t keep = r.keep_to - r.keep_from;
  if (r.head_size == r.keep_from) {
    blob.resize(r.keep_to);
  } else {
    const std::size_t kept_end = r.head_size + keep;
    if (kept_end > blob.size()) blob.resize(kept_end);
    if (keep > 0) {
      std::memmove(blob.data() + r.head_size, blob.data() + r.keep_from, keep);
    }
    blob.resize(kept_end);
  }
  if (r.head_size > 0) std::memcpy(blob.data(), r.head, r.head_size);
  blob.insert(blob.end(), r.tail, r.tail + r.tail_size);
  fit_capacity(blob);
}

}  // namespace

bool CheckpointStore::apply(const CheckpointDelta& delta) {
  const std::size_t n = delta.records.size();
  targets_.assign(n, nullptr);
  // Duplicate check: an open-addressing set of the delta's keys, at most
  // half full. ~0 marks a free slot; the key ~0 itself has its own flag.
  constexpr KeyId kFree = ~KeyId{0};
  seen_.assign(std::bit_ceil(std::max<std::size_t>(16, 2 * n)), kFree);
  const std::size_t mask = seen_.size() - 1;
  bool seen_free_key = false;
  const auto first_sighting = [&](KeyId key) {
    if (key == kFree) return !std::exchange(seen_free_key, true);
    for (std::size_t slot = mix64(key) & mask;; slot = (slot + 1) & mask) {
      if (seen_[slot] == key) return false;
      if (seen_[slot] == kFree) {
        seen_[slot] = key;
        return true;
      }
    }
  };
  std::uint64_t entries = states_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const CheckpointDelta::Record& r = delta.records[i];
    if (!first_sighting(r.key)) return false;
    const auto it = states_.find(r.key);
    std::vector<std::uint8_t>* blob =
        it == states_.end() ? nullptr : &it->second;
    targets_[i] = blob;
    switch (r.kind) {
      case DeltaRecordKind::kFull:
        if (blob == nullptr) ++entries;
        break;
      case DeltaRecordKind::kSplice: {
        if (blob == nullptr || r.keep_from > r.keep_to ||
            r.keep_to > blob->size()) {
          return false;
        }
        // The restore re-encodes every blob with a u32 length.
        const std::uint64_t size = std::uint64_t{r.head_size} +
                                   (r.keep_to - r.keep_from) + r.tail_size;
        if (size > std::numeric_limits<std::uint32_t>::max()) return false;
        break;
      }
      case DeltaRecordKind::kRemoved:
        if (blob != nullptr) --entries;
        break;
    }
  }
  if (entries != delta.state_entries) return false;
  // Valid as a whole: apply. Map nodes are stable under insertion, and
  // no two records share a key, so every target stays valid.
  for (std::size_t i = 0; i < n; ++i) {
    const CheckpointDelta::Record& r = delta.records[i];
    switch (r.kind) {
      case DeltaRecordKind::kFull:
        if (targets_[i] != nullptr) {
          std::vector<std::uint8_t>& blob = *targets_[i];
          // Grown the way splices grow it, so a state that is sent in
          // full every epoch is not reallocated every epoch.
          if (r.head_size > blob.capacity()) {
            blob.reserve(
                std::max<std::size_t>(r.head_size, 2 * blob.capacity()));
          }
          blob.assign(r.head, r.head + r.head_size);
          fit_capacity(blob);
        } else {
          states_.emplace(r.key, std::vector<std::uint8_t>(
                                     r.head, r.head + r.head_size));
        }
        break;
      case DeltaRecordKind::kSplice:
        splice_in_place(*targets_[i], r);
        break;
      case DeltaRecordKind::kRemoved:
        if (targets_[i] != nullptr) states_.erase(r.key);
        break;
    }
  }
  counters_ = delta.counters;
  return true;
}

void CheckpointStore::encode_restore(ByteWriter& out) const {
  encode_restore_header(out, counters_,
                        static_cast<std::uint32_t>(states_.size()));
  for (const auto& [key, blob] : states_) {
    encode_key_state(out, key, blob.data(), blob.size());
  }
}

std::size_t CheckpointStore::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, blob] : states_) {
    total += sizeof(key) + sizeof(blob) + blob.capacity();
  }
  return total;
}

std::string describe_worker_exit(int wait_status) {
  if (WIFEXITED(wait_status)) {
    const int code = WEXITSTATUS(wait_status);
    const char* what = "unknown exit code";
    switch (code) {
      case kWorkerExitOk: what = "clean Fin"; break;
      case kWorkerExitChannel: what = "channel I/O failure"; break;
      case kWorkerExitHandshake: what = "handshake failure"; break;
      case kWorkerExitProtocol: what = "protocol error"; break;
      case kWorkerExitCorruptFrame: what = "corrupt frame"; break;
      case kWorkerExitFault: what = "injected fault"; break;
      default: break;
    }
    return "exited " + std::to_string(code) + " (" + what + ")";
  }
  if (WIFSIGNALED(wait_status)) {
    const int sig = WTERMSIG(wait_status);
    const char* name = ::strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  return "unrecognized wait status " + std::to_string(wait_status);
}

}  // namespace skewless
