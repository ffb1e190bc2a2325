#ifndef AQV_ANSWERING_DATALOG_H_
#define AQV_ANSWERING_DATALOG_H_

#include <vector>

#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "eval/value.h"
#include "rewriting/inverse_rules.h"
#include "util/status.h"

namespace aqv {

/// A positive datalog program: CQ-shaped rules with intensional heads.
struct DatalogProgram {
  std::vector<Query> rules;
};

/// \brief Naive-iteration fixpoint evaluation of a positive datalog program
/// over `edb`. Each round evaluates every rule against the accumulated
/// database and inserts new head tuples; stops when a round adds nothing.
///
/// Recursion is supported (rounds are bounded by `max_rounds` as a guard);
/// the inverse-rules programs this library generates are non-recursive and
/// converge in one round.
[[nodiscard]] Result<Database> EvaluateDatalogProgram(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options = {},
                                        int max_rounds = 10'000);

/// \brief Applies an inverse-rules program to view extents, reconstructing
/// base-relation facts. Unknown values materialize as Skolem Values interned
/// in `*skolems` (shared across rules so equal Skolem terms join).
///
/// The result contains only the derived base relations; feed it to
/// EvaluateQuery and drop Skolem-carrying rows for certain answers (see
/// certain.h).
[[nodiscard]] Result<Database> ApplyInverseRules(const InverseRuleSet& rules,
                                   const Database& view_extents,
                                   SkolemTable* skolems,
                                   const EvalOptions& options = {});

}  // namespace aqv

#endif  // AQV_ANSWERING_DATALOG_H_
