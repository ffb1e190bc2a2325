#include <gtest/gtest.h>

#include "answering/certain.h"
#include "containment/containment.h"
#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "rewriting/bucket.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/lmss.h"
#include "rewriting/minicon.h"
#include "views/expansion.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

/// Warehouse: parse -> LMSS -> execute rewriting over extents -> compare
/// against direct evaluation over base tables. The full materialized-view
/// optimization story.
TEST(Integration, WarehouseEquivalentRewritingRoundTrip) {
  Scenario s = MakeWarehouseScenario(1, 400).value();
  LmssOptions opts;
  opts.max_rewritings = 4;
  LmssResult res =
      FindEquivalentRewritings(s.query, s.views, opts).value();
  ASSERT_TRUE(res.exists);

  Database extents = MaterializeViews(s.views, s.base).value();
  Relation direct = EvaluateQuery(s.query, s.base).value();
  ASSERT_GT(direct.size(), 0u);
  for (const Query& rw : res.rewritings) {
    Relation via_views = EvaluateQuery(rw, extents).value();
    EXPECT_TRUE(Relation::SameSet(direct, via_views))
        << "rewriting " << rw.ToString() << " disagrees with base";
  }
}

/// Travel with the pre-joined source: equivalent rewriting exists; without
/// it: contained rewritings only, answers still sound and here complete
/// (the information survives in the route+service sources... it does not:
/// the airline is hidden in `routes`, so answers can be strictly fewer).
TEST(Integration, TravelEquivalentAndContainedRegimes) {
  Scenario s = MakeTravelScenario(2, 300).value();
  EXPECT_TRUE(ExistsEquivalentRewriting(s.query, s.views).value());

  // Drop `goodflights`: rebuild a view set with the other three sources.
  ViewSet reduced;
  for (const View& v : s.views.views()) {
    if (v.name() != "goodflights") {
      ASSERT_TRUE(reduced.Add(v.definition).ok());
    }
  }
  EXPECT_FALSE(ExistsEquivalentRewriting(s.query, reduced).value());

  // Maximally-contained answering with the reduced sources.
  MiniConResult mc = MiniConRewrite(s.query, reduced).value();
  Database extents = MaterializeViews(reduced, s.base).value();
  Relation direct = EvaluateQuery(s.query, s.base).value();
  if (!mc.rewritings.empty()) {
    Relation certain = EvaluateRewritingUnion(s.query, mc.rewritings, extents).value();
    for (auto& row : certain.Rows()) {
      EXPECT_TRUE(direct.Contains(row));  // soundness
    }
  }
}

/// Bibliography: MiniCon union == Bucket union == inverse-rules answers.
TEST(Integration, BibliographyThreeWayAgreement) {
  Scenario s = MakeBibliographyScenario(3, 120).value();
  Database extents = MaterializeViews(s.views, s.base).value();

  MiniConResult mc = MiniConRewrite(s.query, s.views).value();
  BucketResult bk = BucketRewrite(s.query, s.views).value();
  InverseRuleSet ir = BuildInverseRules(s.views).value();

  Relation ir_ans = CertainAnswersViaInverseRules(s.query, ir, extents).value();
  if (mc.rewritings.empty()) {
    EXPECT_TRUE(bk.rewritings.empty());
    EXPECT_EQ(ir_ans.size(), 0u);
    return;
  }
  Relation mc_ans = EvaluateRewritingUnion(s.query, mc.rewritings, extents).value();
  Relation bk_ans = EvaluateRewritingUnion(s.query, bk.rewritings, extents).value();
  EXPECT_TRUE(Relation::SameSet(mc_ans, bk_ans));
  EXPECT_TRUE(Relation::SameSet(mc_ans, ir_ans));

  Relation direct = EvaluateQuery(s.query, s.base).value();
  for (auto& row : mc_ans.Rows()) {
    EXPECT_TRUE(direct.Contains(row));
  }
}

/// The LMSS running theme: rewriting length never exceeds the (minimized)
/// query's subgoal count, across a grid of hand-built cases.
TEST(Integration, LengthBoundAcrossGrid) {
  Catalog cat;
  struct Case {
    const char* query;
    const char* views;
  };
  const Case cases[] = {
      {"q1(X, Y) :- a(X, Z), b(Z, Y).",
       "v1(A, B) :- a(A, B).\nv2(B, C) :- b(B, C)."},
      {"q2(X) :- a(X, Y), b(Y, X).",
       "v3(A, B) :- a(A, B).\nv4(B, C) :- b(B, C)."},
      {"q3(X, W) :- a(X, Y), b(Y, Z), c(Z, W).",
       "v5(A, C) :- a(A, B), b(B, C).\nv6(C, D) :- c(C, D)."},
      {"q4(X) :- a(X, Y), a(Y, Z).",
       "v7(A, B) :- a(A, B)."},
  };
  for (const Case& c : cases) {
    Query q = ParseQuery(c.query, &cat).value();
    ViewSet vs = ViewSet::Parse(c.views, &cat).value();
    LmssOptions opts;
    opts.max_rewritings = 50;
    LmssResult res = FindEquivalentRewritings(q, vs, opts).value();
    for (const Query& rw : res.rewritings) {
      EXPECT_LE(rw.body().size(), res.minimized_query.body().size())
          << rw.ToString();
    }
  }
}

/// Program text in, answers out: the whole stack driven only through the
/// public parse/rewrite/evaluate API, no internal constructors.
TEST(Integration, TextToAnswersPipeline) {
  Catalog cat;
  ViewSet views = ViewSet::Parse(R"(
    parentof(P, C) :- parent(P, C).
    grandp(G, C) :- parent(G, P), parent(P, C).
  )",
                                 &cat)
                      .value();
  Query q =
      ParseQuery("q(G, C) :- parent(G, P), parent(P, C).", &cat).value();

  Database base(&cat);
  PredId parent = cat.FindPredicate("parent").value();
  base.Add(parent, {1, 2});
  base.Add(parent, {2, 3});
  base.Add(parent, {2, 4});

  LmssResult res = FindEquivalentRewritings(q, views).value();
  ASSERT_TRUE(res.exists);
  Database extents = MaterializeViews(views, base).value();
  Relation via = EvaluateQuery(res.rewritings[0], extents).value();
  Relation direct = EvaluateQuery(q, base).value();
  EXPECT_TRUE(Relation::SameSet(via, direct));
  ASSERT_EQ(direct.size(), 2u);
  EXPECT_TRUE(direct.Contains({1, 3}));
  EXPECT_TRUE(direct.Contains({1, 4}));
}

/// Comparison predicates through the full pipeline.
TEST(Integration, ComparisonQueryEndToEnd) {
  Catalog cat;
  ViewSet views =
      ViewSet::Parse("vcheap(I, P) :- price(I, P), P < 100.", &cat).value();
  Query q =
      ParseQuery("q(I) :- price(I, P), P < 100.", &cat).value();
  LmssResult res = FindEquivalentRewritings(q, views).value();
  ASSERT_TRUE(res.exists);

  Database base(&cat);
  PredId price = cat.FindPredicate("price").value();
  base.Add(price, {1, 50});
  base.Add(price, {2, 150});
  base.Add(price, {3, 99});
  Database extents = MaterializeViews(views, base).value();
  Relation via = EvaluateQuery(res.rewritings[0], extents).value();
  Relation direct = EvaluateQuery(q, base).value();
  EXPECT_TRUE(Relation::SameSet(via, direct));
  EXPECT_EQ(direct.size(), 2u);
}

}  // namespace
}  // namespace aqv
