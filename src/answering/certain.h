#ifndef AQV_ANSWERING_CERTAIN_H_
#define AQV_ANSWERING_CERTAIN_H_

#include <cstdint>

#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "rewriting/inverse_rules.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Evaluates a (maximally-contained) union rewriting over view
/// extents. Under sound-view (open-world) semantics, the result is the set
/// of certain answers when the union is maximally contained — the standard
/// LAV answering pipeline fed by Bucket/MiniCon output.
///
/// `q` is the original query the union rewrites: it types the result
/// (head predicate and arity), so an *empty* union — no contained
/// rewriting, hence no derivable certain answers — evaluates to a
/// correctly-typed empty relation instead of an error. Non-empty unions
/// must match q's head arity (kInvalidArgument otherwise).
[[nodiscard]] Result<Relation> EvaluateRewritingUnion(const Query& q,
                                        const UnionQuery& rewritings,
                                        const Database& view_extents,
                                        const EvalOptions& options = {},
                                        EvalStats* stats = nullptr);

/// \brief Certain answers via the inverse-rules route: reconstruct base
/// facts with Skolem placeholders, evaluate `q` on them, drop every answer
/// carrying a Skolem value.
[[nodiscard]] Result<Relation> CertainAnswersViaInverseRules(const Query& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options = {},
                                               EvalStats* stats = nullptr);

/// Union-query variant (Duschka-Genesereth generalizes disjunct-wise: the
/// certain answers of a UCQ over sound views are its answers over the
/// Skolem-reconstructed base facts, minus Skolem-carrying rows).
[[nodiscard]] Result<Relation> CertainAnswersViaInverseRules(const UnionQuery& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options = {},
                                               EvalStats* stats = nullptr);

/// Options for the brute-force possible-world enumerator.
struct WorldEnumOptions {
  /// Fresh constants added to the universe beyond the extents' active
  /// domain (unknown values may be outside it).
  int extra_constants = 1;
  /// Cap on candidate tuples in the world lattice (2^tuples worlds).
  int max_world_tuples = 22;
  EvalOptions eval;
};

/// \brief Reference implementation of certain answers by exhaustive
/// enumeration: intersect q(D) over every database D, built from base-
/// predicate tuples over a finite universe, that is *consistent* with the
/// extents (every view's result over D contains its extent — sound views).
///
/// The universe is the extents' active domain plus `extra_constants` fresh
/// values; this finite-universe semantics coincides with true open-world
/// certain answers whenever enough fresh values are provided for the views'
/// existential variables (the tiny cross-check instances in the tests).
/// Exponential; guarded by max_world_tuples.
[[nodiscard]] Result<Relation> BruteForceCertainAnswers(const Query& q, const ViewSet& views,
                                          const Database& view_extents,
                                          const WorldEnumOptions& options = {});

}  // namespace aqv

#endif  // AQV_ANSWERING_CERTAIN_H_
