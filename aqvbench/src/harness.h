// The closed-loop TCP harness: starts an in-process FrontendServer, replays
// each connection's set-up stream, times the closed loop over the timed
// streams, and afterwards checks every response byte for byte against an
// in-process mirror Session (and, for stores, what `open` recovers).

#ifndef AQVBENCH_HARNESS_H_
#define AQVBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "containment/oracle.h"
#include "frontend/server.h"
#include "service/plan_cache.h"
#include "traffic.h"
#include "util/status.h"

namespace aqvbench {

/// Service workers of the server; connections never exceed it, so the
/// closed loop never queues behind another connection's command.
constexpr int kServiceWorkers = 2;

aqv::ServerOptions BenchServerOptions();

/// Sees every command a connection completed (set-up and timed), in the
/// connection's own client thread, right after its response arrived. The
/// traced run hooks the layer ledger in here.
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  /// `response` is the raw wire response; [start, end] the TCP round trip.
  virtual void OnCommand(int conn, const std::string& line, const std::string& response,
                         Clock::time_point start, Clock::time_point end, bool timed) = 0;
};

/// Interned responses of one connection (repeats are stored once).
class ResponsePool {
 public:
  uint32_t Intern(const std::string& response);
  const std::string& Get(uint32_t id) const { return texts_[id]; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> texts_;
};

/// What one connection did in the measured server instance.
struct ConnLog {
  ResponsePool pool;
  std::vector<uint32_t> setup_responses;
  std::vector<uint32_t> timed_responses;
  /// Per timed command: latency and class.
  std::vector<double> latency_ms;
  std::vector<CmdClass> classes;
  /// `err` terminators among the timed responses.
  uint64_t errors = 0;
};

struct PhaseResult {
  std::vector<ConnLog> conns;
  /// Wall time of each set-up repetition, seconds.
  std::vector<double> setup_s;
  /// Timed phase: wall seconds, commands completed, commands per second,
  /// and whether the deadline cut a stream short.
  double wall_s = 0.0;
  bool hit_deadline = false;
  uint64_t commands = 0;
  double throughput = 0.0;
  /// VmHWM at the end of the timed phase.
  double rss_mb = 0.0;
  /// The server's shared caches over the timed phase.
  aqv::PlanCacheStats plan_cache;
  size_t plan_cache_entries = 0;
  aqv::OracleStats oracle;

  std::vector<size_t> Issued() const;
};

/// Runs `setup_reps` set-ups (each a fresh server, after `data_root` is
/// emptied), keeps the last, then drives every timed stream to its end, or
/// until `deadline_s` seconds have passed, and stops the server.
[[nodiscard]] aqv::Result<PhaseResult> RunServerPhase(const Traffic& traffic,
                                                      double deadline_s, int setup_reps,
                                                      const std::string& data_root,
                                                      CommandObserver* observer);

/// The output check, outside the timed phase: replays each connection's
/// issued stream through a MirrorChecker (frontend/differential.h), which
/// byte-compares every response with an inline mirror Session and checks
/// answers against the direct route; `save` responses are compared with the
/// mirror's state summary. For connections with a store, opens the
/// directory in a fresh Session and requires it to hold exactly the
/// mirror's final state. Returns the number of responses compared, or the
/// first mismatch as an error.
[[nodiscard]] aqv::Result<uint64_t> CheckOutputs(const Traffic& traffic,
                                                 const PhaseResult& phase);

}  // namespace aqvbench

#endif  // AQVBENCH_HARNESS_H_
