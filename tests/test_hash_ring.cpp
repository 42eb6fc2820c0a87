#include "common/consistent_hash.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/hash.h"

namespace skewless {
namespace {

TEST(Fnv1a, KnownVectors) {
  // Reference values for FNV-1a 64-bit.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash64, SeedChangesOutput) {
  EXPECT_NE(hash64(42, 0), hash64(42, 1));
  EXPECT_EQ(hash64(42, 7), hash64(42, 7));
}

TEST(ConsistentHashRing, OwnersInRange) {
  const ConsistentHashRing ring(7);
  for (KeyId k = 0; k < 10'000; ++k) {
    const InstanceId d = ring.owner(k);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 7);
  }
}

TEST(ConsistentHashRing, Deterministic) {
  const ConsistentHashRing a(5, 128, 99);
  const ConsistentHashRing b(5, 128, 99);
  for (KeyId k = 0; k < 1000; ++k) EXPECT_EQ(a.owner(k), b.owner(k));
}

TEST(ConsistentHashRing, DifferentSeedsGiveDifferentPlacements) {
  const ConsistentHashRing a(5, 128, 1);
  const ConsistentHashRing b(5, 128, 2);
  int differing = 0;
  for (KeyId k = 0; k < 1000; ++k) {
    if (a.owner(k) != b.owner(k)) ++differing;
  }
  EXPECT_GT(differing, 500);
}

TEST(ConsistentHashRing, RoughBalanceOverManyKeys) {
  const InstanceId nd = 10;
  const ConsistentHashRing ring(nd, 256);
  std::vector<int> counts(static_cast<std::size_t>(nd), 0);
  const int keys = 100'000;
  for (KeyId k = 0; k < static_cast<KeyId>(keys); ++k) {
    ++counts[static_cast<std::size_t>(ring.owner(k))];
  }
  const double expected = static_cast<double>(keys) / nd;
  for (const int c : counts) {
    EXPECT_GT(c, expected * 0.6);
    EXPECT_LT(c, expected * 1.4);
  }
}

TEST(ConsistentHashRing, AddInstanceMovesOnlyFraction) {
  ConsistentHashRing ring(10, 128, 5);
  const int keys = 50'000;
  std::vector<InstanceId> before(keys);
  for (int k = 0; k < keys; ++k) before[static_cast<std::size_t>(k)] =
      ring.owner(static_cast<KeyId>(k));

  ring.add_instance();
  int moved = 0;
  int moved_to_new = 0;
  for (int k = 0; k < keys; ++k) {
    const InstanceId after = ring.owner(static_cast<KeyId>(k));
    if (after != before[static_cast<std::size_t>(k)]) {
      ++moved;
      if (after == 10) ++moved_to_new;
    }
  }
  // Consistent hashing: every moved key moves to the new instance, and
  // roughly 1/11 of keys move.
  EXPECT_EQ(moved, moved_to_new);
  EXPECT_GT(moved, keys / 22);
  EXPECT_LT(moved, keys / 5);
}

TEST(ConsistentHashRing, RemoveLastInstanceRestoresPriorPlacement) {
  ConsistentHashRing ring(10, 128, 5);
  const int keys = 10'000;
  std::vector<InstanceId> before(keys);
  for (int k = 0; k < keys; ++k) before[static_cast<std::size_t>(k)] =
      ring.owner(static_cast<KeyId>(k));
  ring.add_instance();
  ring.remove_last_instance();
  for (int k = 0; k < keys; ++k) {
    EXPECT_EQ(ring.owner(static_cast<KeyId>(k)),
              before[static_cast<std::size_t>(k)]);
  }
}

TEST(ConsistentHashRing, SingleInstanceOwnsEverything) {
  const ConsistentHashRing ring(1);
  for (KeyId k = 0; k < 100; ++k) EXPECT_EQ(ring.owner(k), 0);
}

constexpr KeyId kDigestKeys = 1'000'000;

std::uint64_t owner_digest(const ConsistentHashRing& ring) {
  std::uint64_t acc = 0;
  for (KeyId k = 0; k < kDigestKeys; ++k) {
    acc = mix64(acc ^ static_cast<std::uint64_t>(ring.owner(k)));
  }
  return acc;
}

// Expects owner_batch == owner on every key of [0, kDigestKeys).
void expect_batch_matches_owner(const ConsistentHashRing& ring) {
  std::vector<KeyId> keys(kDigestKeys);
  for (KeyId k = 0; k < kDigestKeys; ++k) keys[k] = k;
  std::vector<InstanceId> out(keys.size());
  ring.owner_batch(keys.data(), keys.size(), out.data());
  std::size_t mismatches = 0;
  for (KeyId k = 0; k < kDigestKeys; ++k) {
    if (out[k] != ring.owner(k)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

// Golden owner(k) digests over k in [0, 1M), recorded from the
// binary-search ring (std::lower_bound over the sorted positions, first
// point on a wrap). The bucket index must place every key identically.
TEST(ConsistentHashRing, OwnerMatchesBinarySearchGoldens) {
  EXPECT_EQ(owner_digest(ConsistentHashRing(3, 128, 0x5eed)),
            0x2a714b8cfe33905dULL);
  EXPECT_EQ(owner_digest(ConsistentHashRing(10, 128, 7)),
            0x6d773e7429d98890ULL);
  EXPECT_EQ(owner_digest(ConsistentHashRing(40, 16, 1)),
            0x32f5111af26ec563ULL);
  expect_batch_matches_owner(ConsistentHashRing(40, 16, 1));
}

TEST(ConsistentHashRing, IndexFollowsAddAndRemove) {
  ConsistentHashRing ring(10, 128, 7);
  ring.add_instance();
  EXPECT_EQ(owner_digest(ring), 0xeaa04466b580057cULL);
  expect_batch_matches_owner(ring);
  ring.remove_last_instance();
  EXPECT_EQ(owner_digest(ring), 0x6d773e7429d98890ULL);
  expect_batch_matches_owner(ring);
  ring.remove_last_instance();
  EXPECT_EQ(owner_digest(ring), 0xee29ed8f4edf8a7bULL);
  expect_batch_matches_owner(ring);
}

class RingBalanceParam : public ::testing::TestWithParam<InstanceId> {};

TEST_P(RingBalanceParam, EveryInstanceOwnsSomeKeys) {
  const InstanceId nd = GetParam();
  const ConsistentHashRing ring(nd, 128);
  std::map<InstanceId, int> counts;
  for (KeyId k = 0; k < 20'000; ++k) ++counts[ring.owner(k)];
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(nd));
}

INSTANTIATE_TEST_SUITE_P(VaryInstances, RingBalanceParam,
                         ::testing::Values(2, 3, 5, 10, 20, 40));

}  // namespace
}  // namespace skewless
