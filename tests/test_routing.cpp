#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "core/assignment.h"
#include "core/routing_table.h"

namespace skewless {
namespace {

TEST(RoutingTable, LookupMissReturnsNullopt) {
  const RoutingTable table;
  EXPECT_FALSE(table.lookup(42).has_value());
}

TEST(RoutingTable, SetAndLookup) {
  RoutingTable table;
  EXPECT_TRUE(table.set(1, 3));
  EXPECT_EQ(table.lookup(1).value(), 3);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, UpdateExistingEntryDoesNotGrow) {
  RoutingTable table(1);
  EXPECT_TRUE(table.set(1, 0));
  EXPECT_TRUE(table.set(1, 2));  // update always allowed
  EXPECT_EQ(table.lookup(1).value(), 2);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, BoundRejectsNewEntriesWhenFull) {
  RoutingTable table(2);
  EXPECT_TRUE(table.set(1, 0));
  EXPECT_TRUE(table.set(2, 0));
  EXPECT_FALSE(table.set(3, 0));
  EXPECT_EQ(table.size(), 2u);
  table.erase(1);
  EXPECT_TRUE(table.set(3, 0));
}

TEST(RoutingTable, UnboundedWhenMaxZero) {
  RoutingTable table(0);
  EXPECT_FALSE(table.bounded());
  for (KeyId k = 0; k < 10'000; ++k) EXPECT_TRUE(table.set(k, 0));
  EXPECT_EQ(table.size(), 10'000u);
}

TEST(RoutingTable, EraseMissingReturnsFalse) {
  RoutingTable table;
  EXPECT_FALSE(table.erase(9));
}

TEST(RoutingTable, EntriesSortedByKey) {
  RoutingTable table;
  table.set(5, 1);
  table.set(1, 2);
  table.set(3, 0);
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, 1u);
  EXPECT_EQ(entries[1].first, 3u);
  EXPECT_EQ(entries[2].first, 5u);
}

TEST(RoutingTable, AssignReplacesContents) {
  RoutingTable table;
  table.set(1, 1);
  table.assign({{7, 0}, {8, 1}});
  EXPECT_FALSE(table.lookup(1).has_value());
  EXPECT_EQ(table.lookup(7).value(), 0);
  EXPECT_EQ(table.size(), 2u);
}

TEST(AssignmentFunction, TableOverridesHash) {
  AssignmentFunction f(ConsistentHashRing(4, 128, 1), 100);
  const KeyId key = 12345;
  const InstanceId hash_dest = f.hash_dest(key);
  EXPECT_EQ(f(key), hash_dest);
  const InstanceId other = (hash_dest + 1) % 4;
  f.table().set(key, other);
  EXPECT_EQ(f(key), other);
  EXPECT_EQ(f.hash_dest(key), hash_dest);  // hash unchanged
}

// override_batch skips the map for keys its membership filter rules out.
// Every kind of mutation — insert, update, erase (stale filter bits),
// growth past the filter's sizing, clear and assign — must leave it
// exactly equal to point lookups against a reference map.
TEST(RoutingTable, OverrideBatchStaysExactUnderMutation) {
  RoutingTable table(/*max_entries=*/0);
  std::map<KeyId, InstanceId> ref;
  std::mt19937_64 rng(0x7ab1e);
  std::vector<KeyId> keys(4'096);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<KeyId>(i * 2'654'435'761ULL % 20'011);
  }
  std::vector<InstanceId> out(keys.size());
  const auto check = [&](int step) {
    ASSERT_EQ(table.size(), ref.size()) << step;
    std::fill(out.begin(), out.end(), InstanceId{-1});
    table.override_batch(keys.data(), keys.size(), out.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it = ref.find(keys[i]);
      ASSERT_EQ(out[i], it == ref.end() ? InstanceId{-1} : it->second)
          << "key " << keys[i] << " step " << step;
    }
  };
  for (int step = 0; step < 3'000; ++step) {
    const KeyId key = keys[rng() % keys.size()];
    const auto dest = static_cast<InstanceId>(rng() % 7);
    const auto op = rng() % 100;
    if (op < 40) {
      table.set_unchecked(key, dest);
      ref[key] = dest;
    } else if (op < 60) {
      ASSERT_TRUE(table.set(key, dest));
      ref[key] = dest;
    } else if (op < 97) {
      EXPECT_EQ(table.erase(key), ref.erase(key) > 0) << step;
    } else if (op < 98) {
      table.clear();
      ref.clear();
    } else {
      std::vector<std::pair<KeyId, InstanceId>> entries;
      ref.clear();
      const std::size_t n = rng() % 3'000;
      for (std::size_t i = 0; i < n; ++i) {
        entries.emplace_back(keys[rng() % keys.size()],
                             static_cast<InstanceId>(rng() % 7));
        ref[entries.back().first] = entries.back().second;
      }
      table.assign(std::move(entries));
    }
    if (step % 7 == 0) check(step);
  }
  check(-1);
}

TEST(AssignmentFunction, MaterializeMatchesPointEvaluation) {
  AssignmentFunction f(ConsistentHashRing(5, 128, 2), 0);
  f.table().set(3, 4);
  f.table().set(17, 0);
  const auto dense = f.materialize(100);
  for (KeyId k = 0; k < 100; ++k) {
    EXPECT_EQ(dense[static_cast<std::size_t>(k)], f(k));
  }
}

TEST(AssignmentFunction, RouteBatchMatchesPointEvaluation) {
  AssignmentFunction f(ConsistentHashRing(5, 128, 2), 0);
  f.table().set(3, 4);
  f.table().set(17, 0);
  f.table().set(4'000, f.hash_dest(4'000));  // an entry equal to h(k)
  std::vector<KeyId> keys(5'000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<KeyId>((i * 7) % 4'099);
  }
  std::vector<InstanceId> out(keys.size());
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) f.retire(4);  // degraded: retired destinations re-home
    f.route_batch(keys.data(), keys.size(), out.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], f(keys[i])) << "key " << keys[i] << " pass " << pass;
    }
  }
}

TEST(AssignmentFunction, InstallCreatesMinimalTable) {
  AssignmentFunction f(ConsistentHashRing(3, 128, 3), 0);
  auto assignment = f.materialize_hash(50);
  // Redirect two keys away from their hash destination.
  assignment[10] = (assignment[10] + 1) % 3;
  assignment[20] = (assignment[20] + 2) % 3;
  f.install(assignment);
  EXPECT_EQ(f.table().size(), 2u);
  const auto dense = f.materialize(50);
  EXPECT_EQ(dense, assignment);
}

TEST(AssignmentFunction, InstallIdentityYieldsEmptyTable) {
  AssignmentFunction f(ConsistentHashRing(3, 128, 4), 0);
  f.table().set(1, 0);
  f.install(f.materialize_hash(30));
  EXPECT_EQ(f.table().size(), 0u);
}

TEST(AssignmentDelta, FindsChangedKeys) {
  const std::vector<InstanceId> before = {0, 1, 2, 0};
  const std::vector<InstanceId> after = {0, 2, 2, 1};
  const auto delta = assignment_delta(before, after);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], 1u);
  EXPECT_EQ(delta[1], 3u);
}

TEST(AssignmentDelta, EmptyWhenIdentical) {
  const std::vector<InstanceId> a = {0, 1};
  EXPECT_TRUE(assignment_delta(a, a).empty());
}

}  // namespace
}  // namespace skewless
