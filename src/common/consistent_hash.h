// Consistent-hash ring (Karger et al., STOC'97) — the paper's default
// placement function h : K -> D (Section II, "we use the consistent
// hashing [14] as our basic hash function").
//
// Instances are placed on a 64-bit ring at `virtual_nodes` pseudo-random
// positions each; a key maps to the owner of the first ring position at or
// after its hash. Adding/removing an instance therefore moves only ~1/N of
// the keys — exactly the property the scale-out experiment (Fig. 15)
// relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace skewless {

class ConsistentHashRing {
 public:
  /// Builds a ring over instances [0, num_instances) with the given number
  /// of virtual nodes per instance. `seed` derives the ring positions so
  /// that independent rings can be constructed for tests.
  explicit ConsistentHashRing(InstanceId num_instances,
                              int virtual_nodes = 128,
                              std::uint64_t seed = 0x5eed);

  /// Maps a key to its owning instance. Expected O(1): the bucket index
  /// lands on the first ring point of the hash's bucket and the scan
  /// passes fewer than one point on average (at most the points sharing
  /// the bucket).
  [[nodiscard]] InstanceId owner(KeyId key) const;

  /// Batched owner(): hashes a block of keys in one pass, then does the
  /// same expected-O(1) bucket lookup per key. out[i] == owner(keys[i]) exactly.
  void owner_batch(const KeyId* keys, std::size_t n, InstanceId* out) const;

  /// Adds one instance (id = current num_instances()). O(NV log(NV)): the
  /// ring is re-sorted and its bucket index rebuilt once.
  void add_instance();

  /// Removes the instance with the highest id. Keys it owned redistribute
  /// to their ring successors. O(NV log(NV)), like add_instance().
  void remove_last_instance();

  [[nodiscard]] InstanceId num_instances() const { return num_instances_; }
  [[nodiscard]] int virtual_nodes() const { return virtual_nodes_; }

 private:
  struct RingPoint {
    std::uint64_t position;
    InstanceId instance;
    friend bool operator<(const RingPoint& a, const RingPoint& b) {
      return a.position < b.position ||
             (a.position == b.position && a.instance < b.instance);
    }
  };

  /// Appends instance `id`'s virtual nodes, unsorted.
  void insert_instance_points(InstanceId id);
  /// Sorts the ring and rebuilds index_: once per ring change.
  void rebuild();
  /// Owner of the first ring point at or after position `h`, wrapping to
  /// the first point: the point std::lower_bound over the positions
  /// finds, reached from h's bucket by a short forward scan.
  [[nodiscard]] InstanceId owner_of_hash(std::uint64_t h) const {
    std::size_t i = index_[h >> shift_];
    while (i < ring_.size() && ring_[i].position < h) ++i;
    return ring_[i == ring_.size() ? 0 : i].instance;
  }

  std::vector<RingPoint> ring_;  // sorted by position
  /// index_[b] = index of the first ring point whose position is at or
  /// after bucket b's start (b = top bits of the position). 4–8 buckets
  /// per point, so a bucket rarely holds more than one point.
  std::vector<std::uint32_t> index_;
  int shift_ = 63;
  InstanceId num_instances_;
  int virtual_nodes_;
  std::uint64_t seed_;
};

}  // namespace skewless
