/// \file
/// Memoized containment oracle: the shared cache every rewriting engine
/// routes its IsContainedIn / AreEquivalent calls through. Entries are
/// keyed by 64-bit hashes of the (sub, super) *catalog-independent
/// canonical encodings* (GlobalCanonicalEncoding in cq/query.h) and
/// confirmed by exact encoding comparison, so a cache hit is always sound
/// — hash collisions degrade to misses, never to wrong answers. Because
/// the encodings name predicates and constants by their process-global
/// interned ids (cq/global_symbols.h) rather than catalog-local dense ids,
/// entries carry no catalog pointer and survive the catalogs that produced
/// them: one server-lifetime oracle soundly serves every short-lived
/// per-connection catalog, and structurally-identical queries parsed into
/// different catalogs hit each other's entries. Wire an oracle into a
/// pipeline by setting ContainmentOptions::oracle; every call site that
/// threads those options (minimization, candidate verification,
/// subsumption pruning, the engine searches) then shares one cache.
///
/// Thread safety: both caches are util/sharded_cache.h instances built
/// with the same (max_entries, num_shards), so any number of threads may
/// call IsContainedIn on one shared oracle concurrently (the service layer
/// in src/service/ does exactly that). Stats are the decision cache's
/// relaxed-atomic counters: exact under a single thread, and never torn
/// (only momentarily inconsistent relative to each other) under many.

#ifndef AQV_CONTAINMENT_ORACLE_H_
#define AQV_CONTAINMENT_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "containment/containment.h"
#include "cq/query.h"
#include "util/sharded_cache.h"
#include "util/status.h"

namespace aqv {

/// Hit/miss/budget counters of one ContainmentOracle: its decision
/// cache's. `misses` counts lookups that fell through to a real
/// containment decision; `inserts` excludes capacity rejections and
/// non-OK decisions, which are never cached.
using OracleStats = CacheStats;

/// \brief Memoizes containment decisions across a rewriting session — or a
/// whole server lifetime — safely shareable across threads and across
/// catalogs.
///
/// The key of a (sub, super) pair combines the hashes of the two
/// catalog-independent canonical encodings; each bucket holds the
/// encodings of the pairs that produced it, so renamings, body
/// reorderings, *and re-parses into fresh catalogs* of an already-decided
/// pair hit without a new homomorphism search. Only OK results are cached
/// — kResourceExhausted under one budget must stay retryable under
/// another.
///
/// Sharding (util/sharded_cache.h): the top key bits pick the shard in
/// both caches. With `num_shards == 1` (the default) behavior — decisions,
/// stats totals, capacity behavior — is identical to the pre-sharding
/// single-threaded oracle. With N shards the entry budget is split evenly
/// (ceil(max_entries / N) per shard), so capacity_rejects can differ
/// across shard counts once a shard fills; decisions never differ (the
/// cache is pure).
///
/// Lifetime: entries reference no catalog (symbols appear as process-global
/// interned ids), so catalogs may be created and destroyed freely while an
/// oracle lives — the former catalogs-must-outlive-the-oracle contract is
/// gone. Soundness across catalogs: equal canonical encodings imply the
/// queries are isomorphic under the meaning-preserving symbol bijection
/// ((name, arity) for predicates, source text for constants), and
/// containment is invariant under that bijection.
class ContainmentOracle {
 public:
  /// `max_entries` bounds each cache's growth across all shards; past a
  /// shard's slice of it, results are still computed and returned but no
  /// longer cached (capacity_rejects counts them). `num_shards` is clamped
  /// to [1, 256] and rounded up to a power of two.
  explicit ContainmentOracle(size_t max_entries = size_t{1} << 20,
                             size_t num_shards = 1);

  ContainmentOracle(const ContainmentOracle&) = delete;
  ContainmentOracle& operator=(const ContainmentOracle&) = delete;

  /// Memoized `sub ⊑ super`. `options.oracle` is ignored here (the raw
  /// decision always runs uncached; no recursion). Equivalence and the
  /// union variants need no oracle entry points: the free functions route
  /// through here whenever ContainmentOptions::oracle is set. Safe to call
  /// from any number of threads concurrently.
  [[nodiscard]] Result<bool> IsContainedIn(const Query& sub, const Query& super,
                             const ContainmentOptions& options);

  /// Snapshot of the decision cache's counters. Exact when no lookup is in
  /// flight; under concurrency each counter is itself exact, but the
  /// snapshot may straddle an in-flight lookup.
  OracleStats stats() const { return decisions_.stats(); }
  /// Zeroes the counters (entries stay).
  void ResetStats() { decisions_.ResetStats(); }

  /// Number of cached decisions (summed across shards).
  size_t size() const { return decisions_.size(); }
  size_t max_entries() const { return decisions_.max_entries(); }
  size_t num_shards() const { return decisions_.num_shards(); }

  /// Drops all forms and decisions (stats are kept; ResetStats clears
  /// those).
  void Clear();

 private:
  /// One canonicalization memo, keyed by the verbatim (raw) encoding of
  /// the exact input query: its canonical encoding and the canonical
  /// hash, cached so hits pay neither re-canonicalization nor re-hash.
  struct FormEntry {
    std::vector<uint64_t> canon;
    uint64_t canon_hash;
  };

  /// Decision key: the catalog-independent canonical encodings of the
  /// (sub, super) pair — plain word-vector equality, no catalog pointer.
  /// Probed with a std::tie of the two encodings, so a lookup copies
  /// neither.
  using PairEncoding =
      std::tuple<std::vector<uint64_t>, std::vector<uint64_t>>;

  /// Canonical encoding (plus its hash) of `q`, served from the form cache
  /// when the exact same query (verbatim raw-encoding match, across any
  /// catalog) was canonicalized before — the common case for the fixed
  /// outer query and for recurring expansions. Shared ownership: the
  /// entry outlives Clear() and, past the shard's budget, the cache.
  std::shared_ptr<const FormEntry> FormOf(const Query& q);

  ShardedCache<std::vector<uint64_t>, std::shared_ptr<const FormEntry>>
      forms_;
  ShardedCache<PairEncoding, bool> decisions_;
};

}  // namespace aqv

#endif  // AQV_CONTAINMENT_ORACLE_H_
