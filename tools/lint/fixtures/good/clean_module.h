// lint-path: src/eval/clean_module.h
// A fully conforming header: canonical guard, DAG-legal includes,
// [[nodiscard]] on every Status/Result declaration, scoped lock holders,
// seeded randomness only.

#ifndef AQV_EVAL_CLEAN_MODULE_H_
#define AQV_EVAL_CLEAN_MODULE_H_

#include <mutex>
#include <string>

#include "cq/query.h"
#include "eval/relation.h"
#include "views/view.h"  // a lower module: eval sits above views
#include "util/rng.h"
#include "util/status.h"

namespace aqv {

[[nodiscard]] Status CheckInvariants(const Query& q);

[[nodiscard]] Result<Relation> EvaluateSomething(const Query& q,
                                                 SeededRng* rng);

// Multi-line annotation placement: attribute on the line above also counts.
[[nodiscard]]
Result<bool> SlowPath(const Query& q);

class Widget {
 public:
  [[nodiscard]] Status Refresh();

  // A scoped holder is the sanctioned way to take the relation mutex.
  int ReadCount() const {
    std::lock_guard<std::mutex> hold(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  int count_ = 0;
};

}  // namespace aqv

#endif  // AQV_EVAL_CLEAN_MODULE_H_
