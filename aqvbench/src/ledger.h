// The traced run: the layer ledger, measured from outside the program.
// The same traffic is replayed through the TCP server, and after each
// response the ledger re-executes the command through each layer's public
// entry point (Session::Execute, RewritePlanCache::MakeKey, RunEngine,
// AnswerQuery, MaterializeViews, EvaluateUnion, SessionStore, ParseQuery /
// ParseFact) on a RewriteService task, with a span around every call.

#ifndef AQVBENCH_LEDGER_H_
#define AQVBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "traffic.h"
#include "util/status.h"

namespace aqvbench {

struct LedgerResult {
  /// Every per-layer metric, in a fixed order, on every workload (0 where
  /// the workload never enters the layer).
  std::vector<Metric> metrics;
  /// Timed commands of the traced pass, and responses compared (probe
  /// Session against the server, then the mirror check).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t compared = 0;
  bool correct = false;
  std::string first_mismatch;
  uint64_t spans = 0;
};

/// Runs an untraced, a traced and another untraced pass of `traffic` (each
/// a fresh server replaying the whole stream, cut at `deadline_s`), writes the traced pass's spans as CSV
/// to `spans_path`, and derives the per-layer metrics from the traced pass;
/// the overhead compares it with the mean of the untraced passes.
[[nodiscard]] aqv::Result<LedgerResult> RunLedger(const Traffic& traffic, double deadline_s,
                                                  const std::string& data_root,
                                                  const std::string& spans_path);

}  // namespace aqvbench

#endif  // AQVBENCH_LEDGER_H_
