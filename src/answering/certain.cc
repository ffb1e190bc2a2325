#include "answering/certain.h"

#include <set>
#include <string>

#include "answering/datalog.h"

namespace aqv {

Result<Relation> EvaluateRewritingUnion(const Query& q,
                                        const UnionQuery& rewritings,
                                        const Database& view_extents,
                                        const EvalOptions& options,
                                        EvalStats* stats) {
  if (rewritings.empty()) {
    // No contained rewriting: no certain answer is derivable, which is an
    // empty result of the query's own type, not an error.
    return Relation(q.head().pred, q.head().arity());
  }
  for (const Query& d : rewritings.disjuncts) {
    if (d.head().arity() != q.head().arity()) {
      return Status::InvalidArgument(
          "rewriting disjunct arity " + std::to_string(d.head().arity()) +
          " does not match the query's head arity " +
          std::to_string(q.head().arity()));
    }
  }
  return EvaluateUnion(rewritings, view_extents, options, stats);
}

namespace {

/// Skolem-filtering projection shared by both inverse-rules routes.
Relation DropSkolemRows(const Relation& raw) {
  Relation out(raw.pred(), raw.arity());
  if (raw.arity() == 0) {
    // A nullary answer carries no values, hence no Skolems: it is certain
    // iff derivable at all.
    if (raw.size() == 1) out.Add({});
    return out;
  }
  for (size_t i = 0; i < raw.size(); ++i) {
    bool has_skolem = false;
    for (int c = 0; c < raw.arity(); ++c) {
      if (IsSkolem(raw.at(i, c))) {
        has_skolem = true;
        break;
      }
    }
    if (!has_skolem) out.AppendRowFrom(raw, i);
  }
  out.SortDedup();
  return out;
}

}  // namespace

Result<Relation> CertainAnswersViaInverseRules(const Query& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options,
                                               EvalStats* stats) {
  UnionQuery u;
  u.disjuncts.push_back(q);
  return CertainAnswersViaInverseRules(u, rules, view_extents, options, stats);
}

Result<Relation> CertainAnswersViaInverseRules(const UnionQuery& q,
                                               const InverseRuleSet& rules,
                                               const Database& view_extents,
                                               const EvalOptions& options,
                                               EvalStats* stats) {
  if (q.empty()) {
    return Status::InvalidArgument("empty union query");
  }
  SkolemTable skolems;
  AQV_ASSIGN_OR_RETURN(
      Database derived,
      ApplyInverseRules(rules, view_extents, &skolems, options));
  AQV_ASSIGN_OR_RETURN(Relation raw,
                       EvaluateUnion(q, derived, options, stats));
  return DropSkolemRows(raw);
}

namespace {

/// Collects the active domain of the extents plus constants used by the
/// views and query.
std::vector<Value> Universe(const Query& q, const ViewSet& views,
                            const Database& extents, int extra) {
  std::set<Value> dom;
  for (PredId p : extents.Predicates()) {
    const Relation* rel = extents.Find(p);
    for (size_t i = 0; i < rel->size(); ++i) {
      for (int c = 0; c < rel->arity(); ++c) dom.insert(rel->at(i, c));
    }
  }
  const Catalog& cat = *q.catalog();
  auto add_query_consts = [&](const Query& query) {
    for (const Atom& a : query.body()) {
      for (Term t : a.args) {
        if (t.is_const()) dom.insert(ValueOfConstant(cat, t.constant()));
      }
    }
  };
  add_query_consts(q);
  for (const View& v : views.views()) add_query_consts(v.definition);
  // Fresh values clearly outside the active domain.
  Value fresh = 1'000'000'007;
  for (int i = 0; i < extra; ++i) {
    while (dom.count(fresh)) ++fresh;
    dom.insert(fresh);
    ++fresh;
  }
  return std::vector<Value>(dom.begin(), dom.end());
}

/// Base predicates mentioned by the views (the world's schema).
std::vector<PredId> BasePredicates(const ViewSet& views) {
  std::set<PredId> preds;
  for (const View& v : views.views()) {
    for (const Atom& a : v.definition.body()) preds.insert(a.pred);
  }
  return std::vector<PredId>(preds.begin(), preds.end());
}

}  // namespace

Result<Relation> BruteForceCertainAnswers(const Query& q, const ViewSet& views,
                                          const Database& view_extents,
                                          const WorldEnumOptions& options) {
  const Catalog& cat = *q.catalog();
  std::vector<Value> universe =
      Universe(q, views, view_extents, options.extra_constants);
  std::vector<PredId> base_preds = BasePredicates(views);

  // The lattice of candidate tuples: every base predicate crossed with
  // universe^arity.
  struct CandidateTuple {
    PredId pred;
    std::vector<Value> row;
  };
  std::vector<CandidateTuple> tuples;
  for (PredId p : base_preds) {
    int arity = cat.pred(p).arity;
    std::vector<int> idx(arity, 0);
    for (;;) {
      CandidateTuple t;
      t.pred = p;
      for (int i = 0; i < arity; ++i) t.row.push_back(universe[idx[i]]);
      tuples.push_back(std::move(t));
      int pos = arity - 1;
      while (pos >= 0 && ++idx[pos] == static_cast<int>(universe.size())) {
        idx[pos--] = 0;
      }
      if (pos < 0) break;
    }
  }
  if (static_cast<int>(tuples.size()) > options.max_world_tuples) {
    return Status::ResourceExhausted(
        "world lattice has " + std::to_string(tuples.size()) +
        " candidate tuples; max_world_tuples=" +
        std::to_string(options.max_world_tuples));
  }

  bool first = true;
  std::set<std::vector<Value>> certain;
  bool certain_nullary = false;
  uint64_t num_worlds = uint64_t{1} << tuples.size();
  for (uint64_t world = 0; world < num_worlds; ++world) {
    Database db(q.catalog());
    for (PredId p : base_preds) db.GetOrCreate(p);
    for (size_t i = 0; i < tuples.size(); ++i) {
      if ((world >> i) & 1) db.Add(tuples[i].pred, tuples[i].row);
    }
    // Consistency: every view's result over this world contains its extent.
    bool consistent = true;
    for (const View& v : views.views()) {
      AQV_ASSIGN_OR_RETURN(Relation result,
                           EvaluateQuery(v.definition, db, options.eval));
      const Relation* extent = view_extents.Find(v.pred);
      if (extent == nullptr) continue;
      for (size_t i = 0; i < extent->size() && consistent; ++i) {
        if (!result.Contains(extent->RowCopy(i))) consistent = false;
      }
      if (extent->arity() == 0 && extent->size() == 1 && result.empty()) {
        consistent = false;
      }
      if (!consistent) break;
    }
    if (!consistent) continue;

    AQV_ASSIGN_OR_RETURN(Relation answers,
                         EvaluateQuery(q, db, options.eval));
    if (q.head().arity() == 0) {
      bool holds = answers.size() == 1;
      certain_nullary = first ? holds : (certain_nullary && holds);
      first = false;
      continue;
    }
    std::set<std::vector<Value>> rows;
    for (auto& r : answers.Rows()) rows.insert(std::move(r));
    if (first) {
      certain = std::move(rows);
      first = false;
    } else {
      std::set<std::vector<Value>> inter;
      for (const auto& r : certain) {
        if (rows.count(r)) inter.insert(r);
      }
      certain = std::move(inter);
    }
    if (!certain_nullary && certain.empty() && !first &&
        q.head().arity() != 0) {
      break;  // intersection can only shrink
    }
  }

  Relation out(q.head().pred, q.head().arity());
  if (q.head().arity() == 0) {
    if (!first && certain_nullary) out.Add({});
    return out;
  }
  for (const auto& r : certain) out.Add(r);
  out.SortDedup();
  return out;
}

}  // namespace aqv
