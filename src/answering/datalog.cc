#include "answering/datalog.h"

#include <set>

namespace aqv {

Result<Database> EvaluateDatalogProgram(const DatalogProgram& program,
                                        const Database& edb,
                                        const EvalOptions& options,
                                        int max_rounds) {
  Database db = edb;
  // Known-tuple sets per head predicate for O(log n) dedup on insert.
  std::map<PredId, std::set<std::vector<Value>>> known;
  for (const Query& rule : program.rules) {
    PredId head = rule.head().pred;
    const Relation* existing = db.Find(head);
    if (existing != nullptr) {
      for (auto& row : existing->Rows()) known[head].insert(row);
    } else {
      known[head];  // ensure entry
    }
  }

  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (const Query& rule : program.rules) {
      AQV_ASSIGN_OR_RETURN(Relation derived, EvaluateQuery(rule, db, options));
      PredId head = rule.head().pred;
      auto& seen = known[head];
      for (auto& row : derived.Rows()) {
        if (seen.insert(row).second) {
          db.Add(head, row);
          changed = true;
        }
      }
    }
    if (!changed) return db;
  }
  return Status::ResourceExhausted("datalog fixpoint exceeded max_rounds");
}

Result<Database> ApplyInverseRules(const InverseRuleSet& rules,
                                   const Database& view_extents,
                                   SkolemTable* skolems,
                                   const EvalOptions& options) {
  (void)options;
  Database out(view_extents.catalog());
  const Catalog& cat = *view_extents.catalog();
  std::map<PredId, std::set<std::vector<Value>>> seen;

  for (const InverseRule& rule : rules.rules) {
    const Relation* extent = view_extents.Find(rule.view_atom.pred);
    if (extent == nullptr || extent->empty()) {
      out.GetOrCreate(rule.head_pred);  // derived relation exists, empty
      continue;
    }
    int arity = rule.view_atom.arity();
    std::vector<const Value*> cols(static_cast<size_t>(arity));
    for (int c = 0; c < arity; ++c) cols[c] = extent->ColumnData(c);
    std::vector<Value> binding;  // per view-definition variable
    std::vector<Value> tuple_buf(static_cast<size_t>(arity));
    for (size_t r = 0; r < extent->size(); ++r) {
      for (int c = 0; c < arity; ++c) tuple_buf[c] = cols[c][r];
      const Value* tuple = arity == 0 ? nullptr : tuple_buf.data();
      // Match the view head pattern against the tuple.
      binding.assign(rule.var_names.size(), 0);
      std::vector<bool> is_bound(rule.var_names.size(), false);
      bool ok = true;
      for (int i = 0; i < arity && ok; ++i) {
        Term t = rule.view_atom.args[i];
        if (t.is_const()) {
          ok = tuple[i] == ValueOfConstant(cat, t.constant());
        } else if (is_bound[t.var()]) {
          ok = binding[t.var()] == tuple[i];
        } else {
          binding[t.var()] = tuple[i];
          is_bound[t.var()] = true;
        }
      }
      if (!ok) continue;
      // Emit the head tuple.
      std::vector<Value> params;
      params.reserve(rule.skolem_params.size());
      for (VarId v : rule.skolem_params) params.push_back(binding[v]);
      std::vector<Value> head_row;
      head_row.reserve(rule.head_args.size());
      for (const InverseArg& a : rule.head_args) {
        if (a.is_skolem()) {
          head_row.push_back(skolems->Intern(a.skolem_fn, params));
        } else if (a.term.is_const()) {
          head_row.push_back(ValueOfConstant(cat, a.term.constant()));
        } else {
          head_row.push_back(binding[a.term.var()]);
        }
      }
      if (seen[rule.head_pred].insert(head_row).second) {
        out.Add(rule.head_pred, head_row);
      }
    }
  }
  return out;
}

}  // namespace aqv
