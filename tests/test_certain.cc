#include <gtest/gtest.h>

#include "answering/certain.h"
#include "cq/parser.h"
#include "eval/materialize.h"
#include "rewriting/bucket.h"
#include "rewriting/minicon.h"

namespace aqv {
namespace {

class CertainTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }

  ViewSet Views(const std::string& text) {
    auto r = ViewSet::Parse(text, &cat_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }
};

TEST_F(CertainTest, InverseRulesRecoverJoinableAnswers) {
  // v exposes both endpoints of r; certain answers = extent itself.
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("v(X, Y) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v").value(), {1, 2});
  extents.Add(cat_.FindPredicate("v").value(), {3, 4});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().size(), 2u);
}

TEST_F(CertainTest, SkolemAnswersAreDropped) {
  // v hides Y; asking for (X, Y) pairs can never be certain about Y.
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("vh(X) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh").value(), {1});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().empty());
}

TEST_F(CertainTest, ProjectedQueryStillCertain) {
  // Same hidden column, but the query only asks for X.
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("vh2(X) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh2").value(), {1});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({1}));
}

TEST_F(CertainTest, SkolemJoinRecoversAcrossAtoms) {
  // The hidden join variable still joins inside one view.
  Query q = Parse("q(X, Z) :- r(X, Y), s(Y, Z).");
  ViewSet vs = Views("vj(X, Z) :- r(X, Y), s(Y, Z).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vj").value(), {1, 9});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({1, 9}));
}

TEST_F(CertainTest, NoCrossViewSkolemJoins) {
  // Different views get different Skolems: no spurious certain answers.
  Query q = Parse("q(X, Z) :- r(X, Y), s(Y, Z).");
  ViewSet vs = Views("vr(X) :- r(X, Y).\nvs(Z) :- s(Y, Z).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vr").value(), {1});
  extents.Add(cat_.FindPredicate("vs").value(), {9});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().empty());
}

TEST_F(CertainTest, RewritingUnionEvaluation) {
  Query q = Parse("q(X) :- e(X, Y), t(Y).");
  ViewSet vs = Views("v1(A) :- e(A, B), t(B).");
  auto mc = MiniConRewrite(q, vs);
  ASSERT_TRUE(mc.ok());
  ASSERT_EQ(mc.value().rewritings.size(), 1);
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v1").value(), {7});
  auto ans = EvaluateRewritingUnion(q, mc.value().rewritings, extents);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({7}));
}

TEST_F(CertainTest, EmptyUnionIsTypedEmptyResult) {
  // No contained rewriting ⇒ no derivable certain answers: an empty
  // relation of the query's own head type, not an error (regression: this
  // used to return kInvalidArgument and force every caller to
  // special-case empty unions).
  Query q = Parse("q(X, Y) :- r(X, Y).");
  UnionQuery empty;
  Database extents(&cat_);
  auto ans = EvaluateRewritingUnion(q, empty, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(ans.value().empty());
  EXPECT_EQ(ans.value().arity(), 2);
  EXPECT_EQ(ans.value().pred(), q.head().pred);
}

TEST_F(CertainTest, UnionDisjunctArityMismatchIsAnError) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  UnionQuery wrong;
  wrong.disjuncts.push_back(Parse("w(X) :- r(X, Y)."));
  Database extents(&cat_);
  auto ans = EvaluateRewritingUnion(q, wrong, extents);
  ASSERT_FALSE(ans.ok());
  EXPECT_EQ(ans.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CertainTest, NullaryQueryCertainAnswerAddedOnce) {
  // Boolean query: the certain answer is the single empty row, present
  // exactly once (regression: the arity-0 path used to add it twice
  // before SortDedup).
  Query q = Parse("q() :- r(X, Y).");
  ViewSet vs = Views("vb(X, Y) :- r(X, Y).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vb").value(), {1, 2});
  auto ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().arity(), 0);
  EXPECT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().Contains({}));

  // And with an empty extent the boolean query is not certain.
  Database no_extent(&cat_);
  auto none = CertainAnswersViaInverseRules(q, ir, no_extent);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST_F(CertainTest, UnionQueryInverseRulesRoute) {
  // Certain answers of a UCQ: both disjuncts contribute.
  UnionQuery u;
  u.disjuncts.push_back(Parse("q(X) :- r(X, Y)."));
  u.disjuncts.push_back(Parse("q(X) :- s(X)."));
  ViewSet vs = Views(
      "vr2(X, Y) :- r(X, Y).\n"
      "vs2(X) :- s(X).");
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vr2").value(), {1, 2});
  extents.Add(cat_.FindPredicate("vs2").value(), {7});
  auto ans = CertainAnswersViaInverseRules(u, ir, extents);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_EQ(ans.value().size(), 2u);
  EXPECT_TRUE(ans.value().Contains({1}));
  EXPECT_TRUE(ans.value().Contains({7}));
}

TEST_F(CertainTest, PipelineMatchesInverseRulesOnMaterializedExtents) {
  // End-to-end: base DB -> extents -> MiniCon answers == IR answers, and
  // both under-approximate q over the base (soundness of certain answers).
  Query q = Parse("q(X, Z) :- e(X, Y), f(Y, Z).");
  ViewSet vs = Views(
      "va(A, B) :- e(A, B).\n"
      "vb(B, C) :- f(B, C).\n"
      "vc(A, C) :- e(A, B), f(B, C).");
  Database base(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  PredId f = cat_.FindPredicate("f").value();
  base.Add(e, {1, 2});
  base.Add(e, {4, 5});
  base.Add(f, {2, 3});
  base.Add(f, {5, 6});
  base.Add(f, {7, 8});
  Database extents = MaterializeViews(vs, base).value();

  auto mc = MiniConRewrite(q, vs);
  ASSERT_TRUE(mc.ok());
  auto mc_ans = EvaluateRewritingUnion(q, mc.value().rewritings, extents);
  ASSERT_TRUE(mc_ans.ok());

  InverseRuleSet ir = BuildInverseRules(vs).value();
  auto ir_ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ir_ans.ok());

  EXPECT_TRUE(Relation::SameSet(mc_ans.value(), ir_ans.value()))
      << "MiniCon:\n" << mc_ans.value().ToString(cat_)
      << "IR:\n" << ir_ans.value().ToString(cat_);

  auto direct = EvaluateQuery(q, base);
  ASSERT_TRUE(direct.ok());
  for (auto& row : mc_ans.value().Rows()) {
    EXPECT_TRUE(direct.value().Contains(row));
  }
  // Here views preserve all the information, so equality holds.
  EXPECT_TRUE(Relation::SameSet(mc_ans.value(), direct.value()));
}

TEST_F(CertainTest, BruteForceAgreesOnTinyInstance) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("v(A, B) :- r(A, B).");
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("v").value(), {1, 2});

  InverseRuleSet ir = BuildInverseRules(vs).value();
  auto ir_ans = CertainAnswersViaInverseRules(q, ir, extents);
  ASSERT_TRUE(ir_ans.ok());

  WorldEnumOptions opts;
  opts.extra_constants = 1;
  opts.max_world_tuples = 18;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  EXPECT_TRUE(Relation::SameSet(ir_ans.value(), bf.value()))
      << "IR:\n" << ir_ans.value().ToString(cat_)
      << "BF:\n" << bf.value().ToString(cat_);
}

TEST_F(CertainTest, BruteForceDropsUncertainHiddenColumn) {
  Query q = Parse("q(X, Y) :- r(X, Y).");
  ViewSet vs = Views("vh3(A) :- r(A, B).");
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vh3").value(), {1});
  WorldEnumOptions opts;
  opts.extra_constants = 2;  // B could be either fresh value
  opts.max_world_tuples = 18;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_TRUE(bf.ok()) << bf.status().ToString();
  EXPECT_TRUE(bf.value().empty());
}

TEST_F(CertainTest, BruteForceCapSurfaces) {
  Query q = Parse("q(X) :- r(X, Y).");
  ViewSet vs = Views("vbig(A, B) :- r(A, B).");
  Database extents(&cat_);
  for (int i = 0; i < 5; ++i) {
    extents.Add(cat_.FindPredicate("vbig").value(), {i, i + 1});
  }
  WorldEnumOptions opts;
  opts.max_world_tuples = 4;
  auto bf = BruteForceCertainAnswers(q, vs, extents, opts);
  ASSERT_FALSE(bf.ok());
  EXPECT_EQ(bf.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace aqv
