// LAV data integration: a mediator answers a global-schema query from
// autonomous sources described as views, without ever touching the (hidden)
// base data. Demonstrates the equivalent-vs-contained regimes on the travel
// scenario:
//
//   - with the pre-joined `goodflights` source, LMSS finds an equivalent
//     rewriting and the mediator returns exactly the query's answers;
//   - without it, only strictly-contained rewritings exist; the mediator
//     returns the certain answers, a sound subset.
//
//   $ ./data_integration [seed [db_size]]

#include <cstdio>
#include <cstdlib>

#include "answering/certain.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "rewriting/lmss.h"
#include "rewriting/minicon.h"
#include "workload/scenarios.h"

using namespace aqv;

int main(int argc, char** argv) {
  uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  int db_size = argc > 2 ? std::atoi(argv[2]) : 400;

  Scenario s = MakeTravelScenario(seed, db_size).value();
  std::printf("scenario: %s\n", s.description.c_str());
  std::printf("query:    %s\n", s.query.ToString().c_str());
  for (const View& v : s.views.views()) {
    std::printf("source:   %s\n", v.definition.ToString().c_str());
  }

  // The mediator only ever sees these extents.
  Database extents = MaterializeViews(s.views, s.base).value();
  Relation direct = EvaluateQuery(s.query, s.base).value();
  std::printf("\n(base data: %llu tuples; true answer count: %zu)\n",
              static_cast<unsigned long long>(s.base.TotalTuples()),
              direct.size());

  // Regime 1: all sources.
  LmssResult lmss = FindEquivalentRewritings(s.query, s.views).value();
  std::printf("\n-- with all sources --\n");
  if (lmss.exists) {
    std::printf("equivalent rewriting: %s\n",
                lmss.rewritings[0].ToString().c_str());
    Relation ans = EvaluateQuery(lmss.rewritings[0], extents).value();
    std::printf("mediator answers: %zu (complete: %s)\n", ans.size(),
                Relation::SameSet(ans, direct) ? "yes" : "no");
  } else {
    std::printf("no equivalent rewriting\n");
  }

  // Regime 2: drop the pre-joined source.
  ViewSet reduced;
  for (const View& v : s.views.views()) {
    if (v.name() != "goodflights") {
      if (!reduced.Add(v.definition).ok()) return 1;
    }
  }
  Database reduced_extents = MaterializeViews(reduced, s.base).value();
  std::printf("\n-- without the goodflights source --\n");
  bool exists = ExistsEquivalentRewriting(s.query, reduced).value();
  std::printf("equivalent rewriting exists: %s\n", exists ? "yes" : "no");

  MiniConResult mc = MiniConRewrite(s.query, reduced).value();
  std::printf("maximally-contained union (%d disjuncts):\n",
              mc.rewritings.size());
  for (const Query& rw : mc.rewritings.disjuncts) {
    std::printf("  %s\n", rw.ToString().c_str());
  }
  if (!mc.rewritings.empty()) {
    Relation certain =
        EvaluateRewritingUnion(s.query, mc.rewritings, reduced_extents).value();
    size_t sound = 0;
    for (auto& row : certain.Rows()) {
      sound += direct.Contains(row) ? 1 : 0;
    }
    std::printf(
        "certain answers: %zu of %zu true answers (all sound: %s)\n",
        certain.size(), direct.size(),
        sound == certain.size() ? "yes" : "NO (bug!)");
  } else {
    std::printf("no contained rewriting: the mediator must answer empty\n");
  }
  return 0;
}
