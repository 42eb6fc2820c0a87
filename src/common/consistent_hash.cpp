#include "common/consistent_hash.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"
#include "common/hash.h"

namespace skewless {

ConsistentHashRing::ConsistentHashRing(InstanceId num_instances,
                                       int virtual_nodes, std::uint64_t seed)
    : num_instances_(0), virtual_nodes_(virtual_nodes), seed_(seed) {
  SKW_EXPECTS(num_instances > 0);
  SKW_EXPECTS(virtual_nodes > 0);
  ring_.reserve(static_cast<std::size_t>(num_instances) *
                static_cast<std::size_t>(virtual_nodes));
  for (; num_instances_ < num_instances; ++num_instances_) {
    insert_instance_points(num_instances_);
  }
  rebuild();
}

void ConsistentHashRing::insert_instance_points(InstanceId id) {
  for (int v = 0; v < virtual_nodes_; ++v) {
    const std::uint64_t pos =
        hash64(static_cast<std::uint64_t>(id) * 0x9e3779b1ULL +
                   static_cast<std::uint64_t>(v),
               seed_);
    ring_.push_back(RingPoint{pos, id});
  }
}

void ConsistentHashRing::rebuild() {
  std::sort(ring_.begin(), ring_.end());
  // 2^bits buckets with bits = bit_width(n - 1) + 2: between 4 and 8
  // buckets per ring point.
  const int bits = static_cast<int>(std::bit_width(ring_.size() - 1)) + 2;
  shift_ = 64 - bits;
  index_.resize(std::size_t{1} << bits);
  std::size_t i = 0;
  for (std::size_t b = 0; b < index_.size(); ++b) {
    const std::uint64_t start = static_cast<std::uint64_t>(b) << shift_;
    while (i < ring_.size() && ring_[i].position < start) ++i;
    index_[b] = static_cast<std::uint32_t>(i);
  }
}

InstanceId ConsistentHashRing::owner(KeyId key) const {
  SKW_EXPECTS(!ring_.empty());
  return owner_of_hash(hash64(key, seed_ ^ 0xabcdef12345ULL));
}

void ConsistentHashRing::owner_batch(const KeyId* keys, std::size_t n,
                                     InstanceId* out) const {
  SKW_EXPECTS(!ring_.empty());
  // Each block is hashed in one independent-iteration pass first, so
  // the per-key bucket lookups then run over hot hashes with no hash
  // latency on their critical path. Blocks of kBlock keep the scratch on
  // the stack: a thread-lifetime heap scratch, first allocated mid-run
  // among the driver's interval buffers, measurably raised the driver's
  // peak RSS.
  constexpr std::size_t kBlock = 256;
  const std::uint64_t seed = seed_ ^ 0xabcdef12345ULL;
  std::uint64_t hashes[kBlock];
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    for (std::size_t i = 0; i < m; ++i) {
      hashes[i] = hash64(keys[base + i], seed);
    }
    for (std::size_t i = 0; i < m; ++i) {
      out[base + i] = owner_of_hash(hashes[i]);
    }
  }
}

void ConsistentHashRing::add_instance() {
  insert_instance_points(num_instances_);
  ++num_instances_;
  rebuild();
}

void ConsistentHashRing::remove_last_instance() {
  SKW_EXPECTS(num_instances_ > 1);
  const InstanceId victim = num_instances_ - 1;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [victim](const RingPoint& p) {
                               return p.instance == victim;
                             }),
              ring_.end());
  --num_instances_;
  rebuild();
}

}  // namespace skewless
