#include "containment/oracle.h"

#include <utility>

namespace aqv {

namespace {

uint64_t PairKey(uint64_t sub_fp, uint64_t super_fp) {
  // Asymmetric combine: (a, b) and (b, a) are distinct directions.
  uint64_t h = sub_fp * 0x9e3779b97f4a7c15ULL;
  h ^= super_fp + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

ContainmentOracle::ContainmentOracle(size_t max_entries, size_t num_shards)
    : forms_(max_entries, num_shards), decisions_(max_entries, num_shards) {}

std::shared_ptr<const ContainmentOracle::FormEntry> ContainmentOracle::FormOf(
    const Query& q) {
  // Keyed by the cheap order-sensitive hash of the *raw* catalog-
  // independent encoding; a verbatim encoding match is required before a
  // cached canonical encoding is reused, so hash collisions cost a
  // recanonicalization, never a wrong form. The raw encoding identifies
  // the query across catalogs — no catalog pointer is consulted.
  std::vector<uint64_t> raw = GlobalRawEncoding(q);
  uint64_t raw_hash = HashWords(raw);
  if (std::optional<std::shared_ptr<const FormEntry>> hit =
          forms_.Lookup(raw_hash, raw)) {
    return *std::move(hit);
  }
  // Canonicalization is the expensive step — run it outside any lock. If
  // another thread inserted the same raw query meanwhile, Insert returns
  // its entry rather than growing the bucket.
  std::vector<uint64_t> canon = GlobalCanonicalEncoding(q);
  uint64_t canon_hash = HashWords(canon);
  // Not make_shared: on aqvbench plan_cold (4-core VM, 2 workers) the fused
  // block cost about 20% of throughput, most likely because every copy's
  // count update then lands on the cache line other workers read `canon`
  // and `canon_hash` from.
  return forms_.Insert(raw_hash, std::move(raw),
                       std::shared_ptr<const FormEntry>(
                           new FormEntry{std::move(canon), canon_hash}));
}

Result<bool> ContainmentOracle::IsContainedIn(
    const Query& sub, const Query& super, const ContainmentOptions& options) {
  std::shared_ptr<const FormEntry> sub_form = FormOf(sub);
  std::shared_ptr<const FormEntry> super_form = FormOf(super);
  uint64_t key = PairKey(sub_form->canon_hash, super_form->canon_hash);
  if (std::optional<bool> hit =
          decisions_.Lookup(key, std::tie(sub_form->canon, super_form->canon))) {
    return *hit;
  }

  // The raw decision — the NP-hard part — runs with no lock held.
  ContainmentOptions raw = options;
  raw.oracle = nullptr;
  Result<bool> decided = aqv::IsContainedIn(sub, super, raw);
  if (!decided.ok()) return decided;  // errors (budget overruns) not cached

  // Copies, not moves: the encodings may live in (and stay in) the form
  // cache. A concurrent insert of the same pair wins; it holds the same
  // pure decision.
  return decisions_.Insert(key, PairEncoding(sub_form->canon, super_form->canon),
                           decided.value());
}

void ContainmentOracle::Clear() {
  forms_.Clear();
  decisions_.Clear();
}

}  // namespace aqv
