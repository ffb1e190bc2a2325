#include <gtest/gtest.h>

#include "answering/datalog.h"
#include "cq/parser.h"

namespace aqv {
namespace {

class DatalogTest : public ::testing::Test {
 protected:
  Catalog cat_;
  Query Parse(const std::string& s) { return ParseQuery(s, &cat_).value(); }
};

TEST_F(DatalogTest, NonRecursiveSinglePass) {
  DatalogProgram prog;
  prog.rules.push_back(Parse("derived(X, Z) :- e(X, Y), e(Y, Z)."));
  Database edb(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  edb.Add(e, {1, 2});
  edb.Add(e, {2, 3});
  auto out = EvaluateDatalogProgram(prog, edb);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  PredId derived = cat_.FindPredicate("derived").value();
  const Relation* rel = out.value().Find(derived);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->Contains({1, 3}));
}

TEST_F(DatalogTest, TransitiveClosureConverges) {
  DatalogProgram prog;
  prog.rules.push_back(Parse("tc(X, Y) :- e(X, Y)."));
  prog.rules.push_back(Parse("tc(X, Z) :- tc(X, Y), e(Y, Z)."));
  Database edb(&cat_);
  PredId e = cat_.FindPredicate("e").value();
  for (int i = 0; i < 6; ++i) edb.Add(e, {i, i + 1});
  auto out = EvaluateDatalogProgram(prog, edb);
  ASSERT_TRUE(out.ok());
  PredId tc = cat_.FindPredicate("tc").value();
  const Relation* rel = out.value().Find(tc);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 21u);  // 7 choose 2
  EXPECT_TRUE(rel->Contains({0, 6}));
}

TEST_F(DatalogTest, CycleClosureTerminates) {
  DatalogProgram prog;
  prog.rules.push_back(Parse("tc2(X, Y) :- c(X, Y)."));
  prog.rules.push_back(Parse("tc2(X, Z) :- tc2(X, Y), c(Y, Z)."));
  Database edb(&cat_);
  PredId c = cat_.FindPredicate("c").value();
  edb.Add(c, {0, 1});
  edb.Add(c, {1, 2});
  edb.Add(c, {2, 0});
  auto out = EvaluateDatalogProgram(prog, edb);
  ASSERT_TRUE(out.ok());
  const Relation* rel =
      out.value().Find(cat_.FindPredicate("tc2").value());
  EXPECT_EQ(rel->size(), 9u);  // complete on the 3-cycle
}

TEST_F(DatalogTest, MaxRoundsGuard) {
  DatalogProgram prog;
  prog.rules.push_back(Parse("grow(X, Y) :- g(X, Y)."));
  prog.rules.push_back(Parse("grow(X, Z) :- grow(X, Y), g(Y, Z)."));
  Database edb(&cat_);
  PredId g = cat_.FindPredicate("g").value();
  for (int i = 0; i < 30; ++i) edb.Add(g, {i, i + 1});
  auto out = EvaluateDatalogProgram(prog, edb, {}, /*max_rounds=*/2);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(DatalogTest, ApplyInverseRulesReconstructsFacts) {
  ViewSet vs = ViewSet::Parse("v(X, Z) :- r(X, Y), s(Y, Z).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId v = cat_.FindPredicate("v").value();
  extents.Add(v, {1, 9});
  extents.Add(v, {2, 8});
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  PredId r = cat_.FindPredicate("r").value();
  PredId s = cat_.FindPredicate("s").value();
  const Relation* rr = out.value().Find(r);
  const Relation* ss = out.value().Find(s);
  ASSERT_NE(rr, nullptr);
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(rr->size(), 2u);
  EXPECT_EQ(ss->size(), 2u);
  // The Skolem witness for tuple (1,9) joins r and s.
  EXPECT_EQ(skolems.size(), 2u);
  Value y1 = rr->Contains({1, skolems.Intern(0, {1, 9})})
                 ? skolems.Intern(0, {1, 9})
                 : -1;
  ASSERT_TRUE(IsSkolem(y1));
  EXPECT_TRUE(ss->Contains({y1, 9}));
}

TEST_F(DatalogTest, InverseRulesRepeatedHeadVarFilters) {
  ViewSet vs = ViewSet::Parse("vd(X, X) :- r(X, X).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId vd = cat_.FindPredicate("vd").value();
  extents.Add(vd, {1, 1});
  extents.Add(vd, {1, 2});  // does not match the v(X,X) pattern
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->size(), 1u);
  EXPECT_TRUE(rr->Contains({1, 1}));
}

TEST_F(DatalogTest, InverseRulesConstantFilter) {
  ViewSet vs = ViewSet::Parse("vc(X, 3) :- r(X, 3).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  PredId vc = cat_.FindPredicate("vc").value();
  extents.Add(vc, {1, 3});
  extents.Add(vc, {2, 4});  // filtered: second column must be 3
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  EXPECT_EQ(rr->size(), 1u);
  EXPECT_TRUE(rr->Contains({1, 3}));
}

TEST_F(DatalogTest, SkolemsSharedAcrossRulesOfOneView) {
  // Both r and s receive the SAME skolem value for a given view tuple.
  ViewSet vs =
      ViewSet::Parse("vv(X) :- r(X, Y), s(Y, X).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  extents.Add(cat_.FindPredicate("vv").value(), {5});
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  const Relation* ss = out.value().Find(cat_.FindPredicate("s").value());
  ASSERT_EQ(rr->size(), 1u);
  ASSERT_EQ(ss->size(), 1u);
  EXPECT_EQ(skolems.size(), 1u);
  EXPECT_EQ(rr->at(0, 1), ss->at(0, 0));  // same witness value
}

TEST_F(DatalogTest, EmptyExtentsYieldEmptyDerivations) {
  ViewSet vs = ViewSet::Parse("ve(X) :- r(X, Y).", &cat_).value();
  InverseRuleSet ir = BuildInverseRules(vs).value();
  Database extents(&cat_);
  SkolemTable skolems;
  auto out = ApplyInverseRules(ir, extents, &skolems);
  ASSERT_TRUE(out.ok());
  const Relation* rr = out.value().Find(cat_.FindPredicate("r").value());
  ASSERT_NE(rr, nullptr);
  EXPECT_TRUE(rr->empty());
}

}  // namespace
}  // namespace aqv
