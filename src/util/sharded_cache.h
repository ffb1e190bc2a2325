/// \file
/// ShardedCache<Key, Value>: the one sharded, budgeted, counted hash map
/// behind the library's memos — the containment oracle's form and
/// decision caches (containment/oracle.h) and the rewriting-plan cache
/// (service/plan_cache.h).
///
/// Entries sit in buckets keyed by a caller-supplied, well-mixed 64-bit
/// hash and are confirmed by exact key equality, so a hash collision costs
/// a miss, never a wrong value. The top bits of the hash pick one of
/// `num_shards` shards (clamped to [1, 256] and rounded up to a power of
/// two); each shard has its own mutex and a ceil(max_entries / num_shards)
/// slice of the entry budget. Nothing is evicted: past a shard's slice,
/// Insert hands its value back uncached and counts a capacity reject. The
/// first insert of a key wins.
///
/// Thread safety: any number of threads may Lookup and Insert
/// concurrently. Values are returned by copy, so nothing handed out dies
/// with Clear(). Counters are relaxed atomics: exact under one thread and
/// never torn under many, though a stats() snapshot may straddle an
/// in-flight call.

#ifndef AQV_UTIL_SHARDED_CACHE_H_
#define AQV_UTIL_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aqv {

/// Counters of one ShardedCache (a plain-value snapshot).
struct CacheStats {
  /// Lookups answered from the cache.
  uint64_t hits = 0;
  /// Lookups that found no entry with an equal key.
  uint64_t misses = 0;
  /// Entries added to the cache.
  uint64_t inserts = 0;
  /// Values not cached because the shard's entry budget was full.
  uint64_t capacity_rejects = 0;
  /// Entries a lookup scanned whose hash matched but whose key did not
  /// (true 64-bit collisions or distinct keys sharing a bucket): the
  /// soundness guard firing.
  uint64_t confirm_failures = 0;

  uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / lookups();
  }
};

/// Counter-wise difference (for per-request deltas of a shared cache).
inline CacheStats operator-(const CacheStats& after, const CacheStats& before) {
  CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.inserts = after.inserts - before.inserts;
  d.capacity_rejects = after.capacity_rejects - before.capacity_rejects;
  d.confirm_failures = after.confirm_failures - before.confirm_failures;
  return d;
}

/// \brief Sharded map from (64-bit hash, exact key) to a value. `Key` must
/// support `==`; Lookup probes may be any type comparable with it.
template <class Key, class Value>
class ShardedCache {
 public:
  /// `max_entries` bounds the entries across all shards (the per-shard
  /// slices round up, so the total may exceed it by under one per shard).
  ShardedCache(size_t max_entries, size_t num_shards)
      : max_entries_(max_entries) {
    size_t shards = 1;
    while (shards < num_shards && shards < kMaxShards) {
      shards <<= 1;
      ++shard_bits_;
    }
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    per_shard_budget_ = max_entries / shards + (max_entries % shards != 0);
  }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// The value cached under a key equal to `probe` in bucket `hash`, or
  /// nullopt. Counts a hit or a miss, plus one confirm failure per
  /// non-matching entry scanned.
  template <class Probe>
  std::optional<Value> Lookup(uint64_t hash, const Probe& probe) {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.buckets.find(hash);
    if (it != shard.buckets.end()) {
      for (const Entry& e : it->second) {
        if (e.key == probe) {
          shard.hits.fetch_add(1, std::memory_order_relaxed);
          return e.value;
        }
        shard.confirm_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  /// Caches `value` under `key` and returns it. If an equal key is already
  /// cached, that entry's value is returned instead (first insert wins;
  /// the scan counts no confirm failures). If the shard is at budget,
  /// `value` is returned uncached and a capacity reject is counted.
  Value Insert(uint64_t hash, Key key, Value value) {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.buckets.find(hash);
    if (it != shard.buckets.end()) {
      for (const Entry& e : it->second) {
        if (e.key == key) return e.value;
      }
    }
    if (shard.entries >= per_shard_budget_) {
      shard.capacity_rejects.fetch_add(1, std::memory_order_relaxed);
      return value;
    }
    shard.buckets[hash].push_back(Entry{std::move(key), value});
    ++shard.entries;
    shard.inserts.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  /// Sum of the per-shard counters.
  CacheStats stats() const {
    CacheStats s;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      s.hits += shard->hits.load(std::memory_order_relaxed);
      s.misses += shard->misses.load(std::memory_order_relaxed);
      s.inserts += shard->inserts.load(std::memory_order_relaxed);
      s.capacity_rejects +=
          shard->capacity_rejects.load(std::memory_order_relaxed);
      s.confirm_failures +=
          shard->confirm_failures.load(std::memory_order_relaxed);
    }
    return s;
  }

  /// Zeroes the counters; entries stay.
  void ResetStats() {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      shard->hits.store(0, std::memory_order_relaxed);
      shard->misses.store(0, std::memory_order_relaxed);
      shard->inserts.store(0, std::memory_order_relaxed);
      shard->capacity_rejects.store(0, std::memory_order_relaxed);
      shard->confirm_failures.store(0, std::memory_order_relaxed);
    }
  }

  /// Number of cached entries across all shards.
  size_t size() const {
    size_t total = 0;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->entries;
    }
    return total;
  }

  size_t max_entries() const { return max_entries_; }
  size_t num_shards() const { return shards_.size(); }

  /// Drops every entry; the counters are kept (ResetStats clears those).
  void Clear() {
    for (const std::unique_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->buckets.clear();
      shard->entries = 0;
    }
  }

 private:
  static constexpr size_t kMaxShards = 256;

  struct Entry {
    Key key;
    Value value;
  };

  /// One lock domain, heap-allocated because the mutex pins it.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> buckets;
    size_t entries = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> inserts{0};
    std::atomic<uint64_t> capacity_rejects{0};
    std::atomic<uint64_t> confirm_failures{0};
  };

  Shard& ShardFor(uint64_t hash) const {
    // Top bits: the low bits already pick the bucket inside the shard.
    return *shards_[shard_bits_ == 0 ? 0 : hash >> (64 - shard_bits_)];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t max_entries_;
  size_t per_shard_budget_ = 0;
  unsigned shard_bits_ = 0;
};

}  // namespace aqv

#endif  // AQV_UTIL_SHARDED_CACHE_H_
