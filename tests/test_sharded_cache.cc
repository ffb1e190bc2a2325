// util/sharded_cache.h: the budget split, first-writer-wins and
// capacity-reject rules, hash-collision confirmation, shard-count
// clamping, stats lifetime, and exact counters under a thread hammer.

#include "util/sharded_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace aqv {
namespace {

using IntCache = ShardedCache<int, int>;

/// A hash landing in shard `shard` of a `shards`-way cache (top bits),
/// with `low` telling keys of the same shard apart.
uint64_t HashIn(size_t shard, size_t shards, uint64_t low) {
  unsigned bits = 0;
  while ((size_t{1} << bits) < shards) ++bits;
  return bits == 0 ? low : (uint64_t{shard} << (64 - bits)) | low;
}

TEST(ShardedCacheTest, BudgetIsTheCeilOfMaxOverShards) {
  // 10 entries over 4 shards: ceil(10 / 4) = 3 per shard, 12 in total.
  IntCache cache(/*max_entries=*/10, /*num_shards=*/4);
  EXPECT_EQ(cache.max_entries(), 10u);
  for (size_t shard = 0; shard < 4; ++shard) {
    for (int k = 0; k < 5; ++k) {
      int key = static_cast<int>(shard) * 100 + k;
      cache.Insert(HashIn(shard, 4, static_cast<uint64_t>(k)), key, key);
    }
  }
  EXPECT_EQ(cache.size(), 12u);
  EXPECT_EQ(cache.stats().inserts, 12u);
  EXPECT_EQ(cache.stats().capacity_rejects, 8u);

  // An exact split leaves no rounding slack: 8 over 4 is 2 per shard.
  IntCache exact(/*max_entries=*/8, /*num_shards=*/4);
  for (int k = 0; k < 3; ++k) {
    exact.Insert(HashIn(2, 4, static_cast<uint64_t>(k)), k, k);
  }
  EXPECT_EQ(exact.size(), 2u);
  EXPECT_EQ(exact.stats().capacity_rejects, 1u);

  // A zero budget caches nothing.
  IntCache none(/*max_entries=*/0, /*num_shards=*/1);
  EXPECT_EQ(none.Insert(7, 7, 70), 70);
  EXPECT_EQ(none.size(), 0u);
}

TEST(ShardedCacheTest, RefusedInsertStillReturnsItsValue) {
  IntCache cache(/*max_entries=*/1, /*num_shards=*/1);
  EXPECT_EQ(cache.Insert(1, 1, 10), 10);
  EXPECT_EQ(cache.Insert(2, 2, 20), 20);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.capacity_rejects, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup(2, 2), std::nullopt);
  EXPECT_EQ(cache.Lookup(1, 1), std::optional<int>(10));
}

TEST(ShardedCacheTest, FirstWriterWins) {
  ShardedCache<std::string, std::string> cache(/*max_entries=*/4,
                                               /*num_shards=*/1);
  EXPECT_EQ(cache.Insert(9, "k", "first"), "first");
  EXPECT_EQ(cache.Insert(9, "k", "second"), "first");
  EXPECT_EQ(cache.Lookup(9, std::string("k")),
            std::optional<std::string>("first"));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.capacity_rejects, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCacheTest, CollidingKeysAreConfirmedAndCounted) {
  ShardedCache<std::string, int> cache(/*max_entries=*/8, /*num_shards=*/2);
  const uint64_t same = 42;
  cache.Insert(same, "a", 1);
  cache.Insert(same, "b", 2);
  EXPECT_EQ(cache.size(), 2u);

  // The first entry in the bucket matches: nothing fails confirmation.
  EXPECT_EQ(cache.Lookup(same, std::string("a")), std::optional<int>(1));
  EXPECT_EQ(cache.stats().confirm_failures, 0u);
  // "b" sits behind "a": one non-matching entry scanned.
  EXPECT_EQ(cache.Lookup(same, std::string("b")), std::optional<int>(2));
  EXPECT_EQ(cache.stats().confirm_failures, 1u);
  // An absent key with the same hash scans both.
  EXPECT_EQ(cache.Lookup(same, std::string("c")), std::nullopt);
  EXPECT_EQ(cache.stats().confirm_failures, 3u);
  // Insert's own re-probe counts none.
  EXPECT_EQ(cache.Insert(same, "b", 99), 2);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.confirm_failures, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.lookups(), 3u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 3.0);
}

TEST(ShardedCacheTest, ProbesNeedOnlyCompareEqualToTheKey) {
  // The oracle's decision key: a tuple of encodings, probed by std::tie.
  using Pair = std::tuple<std::vector<uint64_t>, std::vector<uint64_t>>;
  ShardedCache<Pair, bool> cache(/*max_entries=*/4, /*num_shards=*/1);
  std::vector<uint64_t> sub = {1, 2, 3};
  std::vector<uint64_t> super = {4, 5};
  cache.Insert(5, Pair(sub, super), true);
  EXPECT_EQ(cache.Lookup(5, std::tie(sub, super)), std::optional<bool>(true));
  EXPECT_EQ(cache.Lookup(5, std::tie(super, sub)), std::nullopt);
}

TEST(ShardedCacheTest, ShardCountIsClampedAndRoundedUpToAPowerOfTwo) {
  const std::vector<std::pair<size_t, size_t>> cases = {
      {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8},
      {200, 256}, {256, 256}, {257, 256}, {100000, 256}};
  for (const auto& [requested, expected] : cases) {
    IntCache cache(/*max_entries=*/16, requested);
    EXPECT_EQ(cache.num_shards(), expected) << requested;
  }
}

TEST(ShardedCacheTest, ClearKeepsStatsAndResetStatsZeroesThem) {
  IntCache cache(/*max_entries=*/16, /*num_shards=*/4);
  for (int k = 0; k < 5; ++k) {
    cache.Insert(HashIn(static_cast<size_t>(k) % 4, 4, 1), k, k);
  }
  EXPECT_EQ(cache.Lookup(HashIn(1, 4, 1), 1), std::optional<int>(1));
  EXPECT_EQ(cache.Lookup(HashIn(1, 4, 1), 7), std::nullopt);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  CacheStats kept = cache.stats();
  EXPECT_EQ(kept.inserts, 5u);
  EXPECT_EQ(kept.hits, 1u);
  EXPECT_EQ(kept.misses, 1u);
  EXPECT_EQ(kept.confirm_failures, 1u);
  EXPECT_EQ(cache.Lookup(HashIn(1, 4, 1), 1), std::nullopt);

  // Entries refill after Clear; ResetStats zeroes every counter only.
  cache.Insert(3, 3, 3);
  cache.ResetStats();
  CacheStats zero = cache.stats();
  EXPECT_EQ(zero.hits, 0u);
  EXPECT_EQ(zero.misses, 0u);
  EXPECT_EQ(zero.inserts, 0u);
  EXPECT_EQ(zero.capacity_rejects, 0u);
  EXPECT_EQ(zero.confirm_failures, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // The difference of two snapshots is counter-wise.
  CacheStats before = cache.stats();
  cache.Lookup(3, 3);
  CacheStats delta = cache.stats() - before;
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.lookups(), 1u);
}

TEST(ShardedCacheTest, EightThreadHammerKeepsSingleKeyTotalsExact) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  ShardedCache<std::string, int> cache(/*max_entries=*/64, /*num_shards=*/4);
  const std::string key = "the-one-key";
  const uint64_t hash = 0x9e3779b97f4a7c15ULL;
  std::vector<uint64_t> hits(kThreads, 0);
  std::vector<uint64_t> misses(kThreads, 0);
  std::vector<int> seen(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        std::optional<int> v = cache.Lookup(hash, key);
        if (v) {
          ++hits[t];
        } else {
          ++misses[t];
          v = cache.Insert(hash, key, t);
        }
        // Every thread converges on the single resident value.
        if (seen[t] == -1) seen[t] = *v;
        if (*v != seen[t]) seen[t] = -2;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  uint64_t total_hits = 0;
  uint64_t total_misses = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_hits += hits[t];
    total_misses += misses[t];
  }
  CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups(), uint64_t{kThreads} * kRounds);
  EXPECT_EQ(s.hits, total_hits);
  EXPECT_EQ(s.misses, total_misses);
  EXPECT_GE(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.capacity_rejects, 0u);
  EXPECT_EQ(s.confirm_failures, 0u);
  EXPECT_EQ(cache.size(), 1u);
  std::optional<int> resident = cache.Lookup(hash, key);
  ASSERT_TRUE(resident.has_value());
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], *resident) << t;
}

}  // namespace
}  // namespace aqv
