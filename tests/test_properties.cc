#include <gtest/gtest.h>

#include "answering/certain.h"
#include "containment/containment.h"
#include "containment/minimize.h"
#include "cq/canonical_db.h"
#include "cq/parser.h"
#include "eval/evaluator.h"
#include "eval/materialize.h"
#include "eval/value.h"
#include "rewriting/bucket.h"
#include "rewriting/inverse_rules.h"
#include "rewriting/lmss.h"
#include "rewriting/minicon.h"
#include "util/rng.h"
#include "views/expansion.h"
#include "workload/datagen.h"
#include "workload/generators.h"

namespace aqv {
namespace {

// ---------------------------------------------------------------------------
// Property sweeps over random CQs, parameterized by seed.
// ---------------------------------------------------------------------------

class RandomCqProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  Catalog cat_;
  Rng rng_{GetParam()};

  Query RandomQ(const std::string& name, int subgoals = 4, int vars = 4) {
    RandomQuerySpec spec;
    spec.num_subgoals = subgoals;
    spec.num_vars = vars;
    spec.num_predicates = 3;
    spec.head_arity = 2;
    spec.constant_prob = 0.1;
    spec.head_name = name;
    return MakeRandomQuery(&cat_, &rng_, spec).value();
  }
};

TEST_P(RandomCqProperties, ContainmentIsReflexive) {
  for (int i = 0; i < 8; ++i) {
    Query q = RandomQ("refl" + std::to_string(i));
    auto r = IsContainedIn(q, q);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value()) << q.ToString();
  }
}

TEST_P(RandomCqProperties, ContainmentIsTransitive) {
  // Build chains where containment holds by construction: q, then q with
  // extra atoms (narrower), then narrower still.
  for (int i = 0; i < 6; ++i) {
    Query wide = RandomQ("tw" + std::to_string(i), 3, 4);
    Query mid = wide;
    mid.AddBodyAtom(wide.body()[0]);  // duplicate: equivalent
    Query narrow = mid;
    // Narrow by replacing a fresh variable use with a repeated variable.
    Atom extra = narrow.body()[0];
    narrow.AddBodyAtom(extra);
    ASSERT_TRUE(IsContainedIn(narrow, mid).value());
    ASSERT_TRUE(IsContainedIn(mid, wide).value());
    EXPECT_TRUE(IsContainedIn(narrow, wide).value());
  }
}

TEST_P(RandomCqProperties, MinimizationPreservesEquivalence) {
  for (int i = 0; i < 8; ++i) {
    Query q = RandomQ("min" + std::to_string(i), 5, 4);
    Query m = Minimize(q).value();
    EXPECT_LE(m.body().size(), q.body().size());
    auto eq = AreEquivalent(q, m);
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(eq.value()) << "q: " << q.ToString() << "\nm: " << m.ToString();
    // Idempotence.
    Query m2 = Minimize(m).value();
    EXPECT_EQ(m.body().size(), m2.body().size());
  }
}

TEST_P(RandomCqProperties, ContainmentAgreesWithCanonicalDbEvaluation) {
  // Chandra-Merlin: A ⊑ B iff frozen-head(A) ∈ B(canonical_db(A)).
  // Cross-validates the containment core against the evaluation engine.
  for (int i = 0; i < 10; ++i) {
    Query a = RandomQ("ca" + std::to_string(i), 3, 3);
    Query b = RandomQ("cb" + std::to_string(i), 3, 3);
    if (a.head().arity() != b.head().arity()) continue;
    auto contained = IsContainedIn(a, b);
    ASSERT_TRUE(contained.ok());

    FrozenQuery fz = FreezeQuery(a, &cat_);
    Database db(&cat_);
    for (const Atom& atom : fz.frozen.body()) {
      std::vector<Value> row;
      for (Term t : atom.args) {
        row.push_back(ValueOfConstant(cat_, t.constant()));
      }
      db.Add(atom.pred, row);
    }
    Relation result = EvaluateQuery(b, db).value();
    std::vector<Value> head_row;
    for (Term t : fz.frozen.head().args) {
      head_row.push_back(ValueOfConstant(cat_, t.constant()));
    }
    bool in_result = b.head().arity() == 0 ? result.size() == 1
                                           : result.Contains(head_row);
    EXPECT_EQ(contained.value(), in_result)
        << "a: " << a.ToString() << "\nb: " << b.ToString();
  }
}

TEST_P(RandomCqProperties, ContainmentImpliesAnswerSubset) {
  // Monotone semantics: A ⊑ B implies A(D) ⊆ B(D) on random instances.
  Rng data_rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 6; ++i) {
    Query a = RandomQ("sa" + std::to_string(i), 3, 3);
    Query b = RandomQ("sb" + std::to_string(i), 3, 3);
    if (a.head().arity() != b.head().arity()) continue;
    bool contained = IsContainedIn(a, b).value();
    if (!contained) continue;
    DataGenSpec spec;
    spec.tuples_per_relation = 40;
    spec.domain_size = 5;
    Database db =
        MakeRandomDatabase(&cat_, ExtensionalPredicates(cat_), &data_rng,
                           spec);
    Relation ra = EvaluateQuery(a, db).value();
    Relation rb = EvaluateQuery(b, db).value();
    for (auto& row : ra.Rows()) {
      EXPECT_TRUE(rb.Contains(row))
          << "containment violated on data\na: " << a.ToString()
          << "\nb: " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCqProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Rewriting properties over random chain workloads.
// ---------------------------------------------------------------------------

class ChainRewritingProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  Catalog cat_;
  Rng rng_{GetParam()};
};

TEST_P(ChainRewritingProperties, LmssWitnessesAlwaysEquivalent) {
  ChainViewSpec vspec;
  vspec.chain.length = 4;
  vspec.num_views = 8;
  vspec.min_length = 1;
  vspec.max_length = 2;
  vspec.policy = DistinguishedPolicy::kEnds;
  Query q = MakeChainQuery(&cat_, vspec.chain).value();
  ViewSet vs = MakeChainViews(&cat_, &rng_, vspec).value();
  LmssOptions opts;
  opts.max_rewritings = 20;
  LmssResult res = FindEquivalentRewritings(q, vs, opts).value();
  for (const Query& rw : res.rewritings) {
    ExpansionResult e = ExpandRewriting(rw, vs).value();
    ASSERT_TRUE(e.satisfiable);
    EXPECT_TRUE(AreEquivalent(e.query, res.minimized_query).value())
        << rw.ToString();
    EXPECT_LE(rw.body().size(), res.minimized_query.body().size());
  }
}

TEST_P(ChainRewritingProperties, MiniConEqualsBucketAsUnions) {
  ChainViewSpec vspec;
  vspec.chain.length = 3;
  vspec.num_views = 6;
  vspec.min_length = 1;
  vspec.max_length = 2;
  vspec.policy = rng_.NextBool(0.5) ? DistinguishedPolicy::kEnds
                                    : DistinguishedPolicy::kAll;
  Query q = MakeChainQuery(&cat_, vspec.chain).value();
  ViewSet vs = MakeChainViews(&cat_, &rng_, vspec).value();

  UnionQuery mc = MiniConRewrite(q, vs).value().rewritings;
  UnionQuery bk = BucketRewrite(q, vs).value().rewritings;
  UnionQuery mc_exp = ExpandUnion(mc, vs).value();
  UnionQuery bk_exp = ExpandUnion(bk, vs).value();
  if (mc_exp.empty() || bk_exp.empty()) {
    EXPECT_EQ(mc_exp.empty(), bk_exp.empty());
    return;
  }
  EXPECT_TRUE(UnionIsContainedInUnion(mc_exp, bk_exp).value());
  EXPECT_TRUE(UnionIsContainedInUnion(bk_exp, mc_exp).value());
}

TEST_P(ChainRewritingProperties, RewritingAnswersMatchDirectAnswers) {
  // For every LMSS rewriting: evaluating it over materialized extents
  // equals evaluating q over the base, on random data.
  ChainViewSpec vspec;
  vspec.chain.length = 3;
  vspec.num_views = 6;
  vspec.min_length = 1;
  vspec.max_length = 2;
  vspec.policy = DistinguishedPolicy::kEnds;
  Query q = MakeChainQuery(&cat_, vspec.chain).value();
  ViewSet vs = MakeChainViews(&cat_, &rng_, vspec).value();
  LmssOptions opts;
  opts.max_rewritings = 5;
  LmssResult res = FindEquivalentRewritings(q, vs, opts).value();
  if (!res.exists) return;

  DataGenSpec dspec;
  dspec.tuples_per_relation = 60;
  dspec.domain_size = 8;
  Database base = MakeRandomDatabase(&cat_, ExtensionalPredicates(cat_),
                                     &rng_, dspec);
  Database extents = MaterializeViews(vs, base).value();
  Relation direct = EvaluateQuery(q, base).value();
  for (const Query& rw : res.rewritings) {
    Relation via = EvaluateQuery(rw, extents).value();
    EXPECT_TRUE(Relation::SameSet(direct, via)) << rw.ToString();
  }
}

TEST_P(ChainRewritingProperties, ContainedRewritingsAreSoundOnData) {
  ChainViewSpec vspec;
  vspec.chain.length = 3;
  vspec.num_views = 5;
  vspec.min_length = 1;
  vspec.max_length = 3;
  vspec.policy = DistinguishedPolicy::kRandom;
  Query q = MakeChainQuery(&cat_, vspec.chain).value();
  ViewSet vs = MakeChainViews(&cat_, &rng_, vspec).value();
  UnionQuery mc = MiniConRewrite(q, vs).value().rewritings;
  if (mc.empty()) return;

  DataGenSpec dspec;
  dspec.tuples_per_relation = 50;
  dspec.domain_size = 6;
  Database base = MakeRandomDatabase(&cat_, ExtensionalPredicates(cat_),
                                     &rng_, dspec);
  Database extents = MaterializeViews(vs, base).value();
  Relation certain = EvaluateRewritingUnion(q, mc, extents).value();
  Relation direct = EvaluateQuery(q, base).value();
  for (auto& row : certain.Rows()) {
    EXPECT_TRUE(direct.Contains(row));
  }
}

TEST_P(ChainRewritingProperties, InverseRulesMatchMiniConAnswers) {
  ChainViewSpec vspec;
  vspec.chain.length = 3;
  vspec.num_views = 5;
  vspec.min_length = 1;
  vspec.max_length = 2;
  vspec.policy = DistinguishedPolicy::kEnds;
  Query q = MakeChainQuery(&cat_, vspec.chain).value();
  ViewSet vs = MakeChainViews(&cat_, &rng_, vspec).value();

  DataGenSpec dspec;
  dspec.tuples_per_relation = 40;
  dspec.domain_size = 6;
  Database base = MakeRandomDatabase(&cat_, ExtensionalPredicates(cat_),
                                     &rng_, dspec);
  Database extents = MaterializeViews(vs, base).value();

  InverseRuleSet ir = BuildInverseRules(vs).value();
  Relation ir_ans = CertainAnswersViaInverseRules(q, ir, extents).value();

  UnionQuery mc = MiniConRewrite(q, vs).value().rewritings;
  if (mc.empty()) {
    EXPECT_EQ(ir_ans.size(), 0u);
    return;
  }
  Relation mc_ans = EvaluateRewritingUnion(q, mc, extents).value();
  EXPECT_TRUE(Relation::SameSet(mc_ans, ir_ans));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainRewritingProperties,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ---------------------------------------------------------------------------
// Star workload properties.
// ---------------------------------------------------------------------------

class StarRewritingProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  Catalog cat_;
  Rng rng_{GetParam()};
};

TEST_P(StarRewritingProperties, MiniConEqualsBucketOnStars) {
  StarViewSpec vspec;
  vspec.star.rays = 3;
  vspec.num_views = 5;
  vspec.min_rays = 1;
  vspec.max_rays = 2;
  vspec.policy = DistinguishedPolicy::kAll;
  Query q = MakeStarQuery(&cat_, vspec.star).value();
  ViewSet vs = MakeStarViews(&cat_, &rng_, vspec).value();

  UnionQuery mc = MiniConRewrite(q, vs).value().rewritings;
  UnionQuery bk = BucketRewrite(q, vs).value().rewritings;
  UnionQuery mc_exp = ExpandUnion(mc, vs).value();
  UnionQuery bk_exp = ExpandUnion(bk, vs).value();
  if (mc_exp.empty() || bk_exp.empty()) {
    EXPECT_EQ(mc_exp.empty(), bk_exp.empty());
    return;
  }
  EXPECT_TRUE(UnionIsContainedInUnion(mc_exp, bk_exp).value());
  EXPECT_TRUE(UnionIsContainedInUnion(bk_exp, mc_exp).value());
}

TEST_P(StarRewritingProperties, EquivalentRewritingRoundTripOnStars) {
  StarViewSpec vspec;
  vspec.star.rays = 3;
  vspec.num_views = 6;
  vspec.min_rays = 1;
  vspec.max_rays = 3;
  vspec.policy = DistinguishedPolicy::kAll;
  Query q = MakeStarQuery(&cat_, vspec.star).value();
  ViewSet vs = MakeStarViews(&cat_, &rng_, vspec).value();
  LmssResult res = FindEquivalentRewritings(q, vs).value();
  if (!res.exists) return;
  DataGenSpec dspec;
  dspec.tuples_per_relation = 40;
  dspec.domain_size = 5;
  Database base = MakeRandomDatabase(&cat_, ExtensionalPredicates(cat_),
                                     &rng_, dspec);
  Database extents = MaterializeViews(vs, base).value();
  Relation direct = EvaluateQuery(q, base).value();
  Relation via = EvaluateQuery(res.rewritings[0], extents).value();
  EXPECT_TRUE(Relation::SameSet(direct, via));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarRewritingProperties,
                         ::testing::Values(21, 42, 63, 84));

}  // namespace
}  // namespace aqv
