// Seeded traffic of the three benchmark workloads. Every command line the
// server receives is built here from workload/generator.h scenarios and the
// run seed alone: the same (workload, seed, scale) gives a byte-identical
// stream, and the stream hash printed with every result proves it.

#ifndef AQVBENCH_TRAFFIC_H_
#define AQVBENCH_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace aqvbench {

/// Command classes; each end-to-end latency metric covers one class.
enum class CmdClass { kWrite = 0, kRewrite, kExplain, kAnswer, kSave, kOther };
constexpr int kNumClasses = 6;

/// view/fact/query/reset -> write; rewrite, explain, answer and save are
/// classes of their own; anything else -> other. `explain` is kept out of
/// the rewrite class: on plan_cold it would put half of that class in the
/// slow engines and the median in the gap between the two groups.
CmdClass ClassOf(std::string_view line);
const char* ClassName(CmdClass c);

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// One workload's generated traffic.
struct Traffic {
  std::string workload;
  uint64_t seed = 0;
  /// Per connection: lines replayed during set-up (initial load and the
  /// warm-up that fills caches), then the timed stream. A connection's
  /// timed stream continues its set-up stream on the same session.
  std::vector<std::vector<std::string>> setup;
  std::vector<std::vector<std::string>> timed;
  /// Per connection: the store directory its `save` lines name (empty when
  /// the workload never saves).
  std::vector<std::string> store_dirs;
  /// Workload parameters, as a JSON object (provenance).
  std::string params_json;
  /// Classes whose p99 the run prints: only where the class has thousands
  /// of samples of real work, so that the tail is not scheduler jitter.
  std::vector<CmdClass> tail_classes;

  int connections() const { return static_cast<int>(timed.size()); }
};

/// Builds the traffic of `workload`. Each timed stream is a fixed amount of
/// work: at `scale` 1 it takes about 10 seconds on the reference machine
/// (a measured run passes seconds / 10; the self-test a tiny fraction).
/// `data_root` is the directory under which per-connection store
/// directories are named; it must not contain whitespace.
[[nodiscard]] aqv::Result<Traffic> BuildTraffic(const std::string& workload,
                                                uint64_t seed, double scale,
                                                const std::string& data_root);

/// What the traffic verification prints.
struct StreamSummary {
  /// FNV-1a over every generated line (set-up and timed, all connections).
  uint64_t hash = 0;
  /// Generated lines per class (set-up and timed).
  std::array<uint64_t, kNumClasses> generated{};
  /// Issued timed lines per class (the prefix each connection completed).
  std::array<uint64_t, kNumClasses> issued{};
  /// Timed `rewrite` lines issued, and the share of them whose problem
  /// statement (engine, query, views in scope) appeared earlier: in any
  /// set-up stream, or earlier in the timed streams (connections in order).
  uint64_t rewrites = 0;
  double rewrite_repeat_share = 0.0;
};

/// Summarizes `traffic`; `issued[c]` is how many timed lines connection c
/// completed.
StreamSummary Summarize(const Traffic& traffic, const std::vector<size_t>& issued);

}  // namespace aqvbench

#endif  // AQVBENCH_TRAFFIC_H_
