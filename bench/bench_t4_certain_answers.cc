/// T4 — Certain-answer computation cost across the two maximally-contained
/// routes, on LAV scenarios with growing data:
///   (a) MiniCon union rewriting, then evaluate over extents;
///   (b) inverse rules: reconstruct skolemized base facts, evaluate, filter.
/// Counters confirm both routes return the same number of certain answers
/// (`agree` must be 1) — the cross-implementation agreement that backs the
/// correctness claims, timed at realistic sizes.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "answering/certain.h"
#include "eval/materialize.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/minicon.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

struct T4Setup {
  Scenario scenario;
  ViewSet reduced;  // without the pre-joined source: contained-only regime
  Database extents;
};

T4Setup MakeSetup(int db_size) {
  T4Setup setup{bench::Unwrap(MakeTravelScenario(23, db_size), "scenario"),
                ViewSet(), Database()};
  for (const View& v : setup.scenario.views.views()) {
    if (v.name() != "goodflights") {
      Status st = setup.reduced.Add(v.definition);
      if (!st.ok()) {
        std::fprintf(stderr, "T4 setup: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
  }
  setup.extents = bench::Unwrap(
      MaterializeViews(setup.reduced, setup.scenario.base), "materialize");
  return setup;
}

void BM_T4_MiniConRoute(benchmark::State& state) {
  T4Setup setup = MakeSetup(static_cast<int>(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    MiniConResult mc = bench::Unwrap(
        MiniConRewrite(setup.scenario.query, setup.reduced), "minicon");
    if (mc.rewritings.empty()) {
      answers = 0;
      continue;
    }
    Relation r = bench::Unwrap(
        EvaluateRewritingUnion(setup.scenario.query, mc.rewritings, setup.extents), "eval");
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_T4_InverseRulesRoute(benchmark::State& state) {
  T4Setup setup = MakeSetup(static_cast<int>(state.range(0)));
  size_t answers = 0;
  for (auto _ : state) {
    InverseRuleSet ir =
        bench::Unwrap(BuildInverseRules(setup.reduced), "inverse rules");
    Relation r = bench::Unwrap(
        CertainAnswersViaInverseRules(setup.scenario.query, ir, setup.extents),
        "eval");
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_T4_Agreement(benchmark::State& state) {
  T4Setup setup = MakeSetup(static_cast<int>(state.range(0)));
  double agree = 0;
  for (auto _ : state) {
    MiniConResult mc = bench::Unwrap(
        MiniConRewrite(setup.scenario.query, setup.reduced), "minicon");
    InverseRuleSet ir =
        bench::Unwrap(BuildInverseRules(setup.reduced), "inverse rules");
    Relation via_ir = bench::Unwrap(
        CertainAnswersViaInverseRules(setup.scenario.query, ir, setup.extents),
        "ir eval");
    if (mc.rewritings.empty()) {
      agree = via_ir.empty() ? 1.0 : 0.0;
      continue;
    }
    Relation via_mc = bench::Unwrap(
        EvaluateRewritingUnion(setup.scenario.query, mc.rewritings, setup.extents), "mc eval");
    agree = Relation::SameSet(via_mc, via_ir) ? 1.0 : 0.0;
    benchmark::DoNotOptimize(via_mc);
  }
  state.counters["agree"] = agree;  // must be 1
}

void T4Args(benchmark::internal::Benchmark* b) {
  for (int size : {100, 1'000, 10'000}) b->Args({size});
}

BENCHMARK(BM_T4_MiniConRoute)->Apply(T4Args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T4_InverseRulesRoute)
    ->Apply(T4Args)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_T4_Agreement)->Apply(T4Args)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("T4", "certain answers: MiniCon route vs inverse-rules "
                           "route, travel scenario (arg: base size)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
