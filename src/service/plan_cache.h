/// \file
/// Server-lifetime rewriting-plan cache: memoizes the *rendered outcome* of
/// a rewrite command — the exact payload text the frontend writes to the
/// wire, plus the engine counters of the run that produced it — keyed by
/// the complete problem statement. A key embeds the engine name, a digest
/// of every numeric engine option, and the verbatim rendered text of the
/// query and of every view in scope, so:
///
///   - a hit is byte-identical to recomputation: deterministic engines are
///     pure functions of (engine, options, query text, views text), which
///     is exactly the key — two sessions whose problems render identically
///     get identical payloads whether served from cache or computed;
///   - schema mutations invalidate implicitly: adding, dropping (reset),
///     or reloading views changes the views text, hence the key, hence
///     stale plans can never be returned — they merely age out of the
///     budget.
///
/// Thread safety: one util/sharded_cache.h instance, like both of the
/// ContainmentOracle's caches — the key hash picks the shard, each shard
/// has its own mutex and slice of the entry budget; any number of
/// sessions may Lookup/Insert concurrently.
///
/// This cache complements (not replaces) the ContainmentOracle: the oracle
/// memoizes the NP-hard containment subproblems across *all* traffic; the
/// plan cache short-circuits the entire engine search for exact repeats —
/// the dominant pattern of a dashboard or retry loop re-issuing one query.

#ifndef AQV_SERVICE_PLAN_CACHE_H_
#define AQV_SERVICE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "rewriting/engine.h"
#include "util/sharded_cache.h"

namespace aqv {

/// Hit/miss counters of one RewritePlanCache (plain-value snapshot).
/// `misses` counts lookups that fell through to a real engine run.
using PlanCacheStats = CacheStats;

/// One memoized rewrite outcome (RewritePlanCache::Plan).
struct RewritePlan {
  /// The exact command payload (everything before the "ok" terminator)
  /// the populating run rendered.
  std::string rendered;
  /// Engine counters of the populating run, replayed into the session's
  /// last-rewrite stats so `show stats` stays meaningful on hits.
  RewriteStats stats;
};

/// \brief Sharded map from a rendered problem statement to its verified
/// rewriting payload.
class RewritePlanCache : private ShardedCache<std::string, RewritePlan> {
 public:
  using Plan = RewritePlan;

  /// `max_entries` bounds total cached plans across all shards; past a
  /// shard's slice, Insert becomes a counted no-op. `num_shards` is
  /// clamped to [1, 256] and rounded up to a power of two.
  explicit RewritePlanCache(size_t max_entries = size_t{1} << 16,
                            size_t num_shards = 8)
      : ShardedCache(max_entries, num_shards) {}

  /// Builds the canonical cache key for a problem statement. `views_text`
  /// must render every view in scope (order-sensitive — the session's
  /// definition order is deterministic); `options_digest` must cover every
  /// option that can change engine output (see Session's digest builder).
  static std::string MakeKey(const std::string& engine,
                             const std::string& options_digest,
                             const std::string& query_text,
                             const std::string& views_text);

  /// The cached plan for `key`, or nullopt (counting a hit or miss).
  std::optional<Plan> Lookup(const std::string& key) {
    return ShardedCache::Lookup(KeyHash(key), key);
  }

  /// Caches `plan` under `key` unless the shard is at budget or the key is
  /// already present (first writer wins; identical keys imply identical
  /// plans, so dropping the duplicate is sound).
  void Insert(const std::string& key, Plan plan) {
    ShardedCache::Insert(KeyHash(key), key, std::move(plan));
  }

  /// Counters, entry count and Clear() (stats kept) of the one cache.
  using ShardedCache::Clear;
  using ShardedCache::max_entries;
  using ShardedCache::num_shards;
  using ShardedCache::ResetStats;
  using ShardedCache::size;
  using ShardedCache::stats;

 private:
  /// The key's one hash: it picks the shard (top bits) and the bucket.
  static uint64_t KeyHash(const std::string& key) {
    return std::hash<std::string>{}(key);
  }
};

}  // namespace aqv

#endif  // AQV_SERVICE_PLAN_CACHE_H_
