// The concurrent batch-rewriting service end to end: synthesize a mixed
// scenario × engine batch, run it on a worker pool sharing one sharded
// containment oracle, and read the aggregate ServiceStats — then the same
// thing job by job through Submit and its typed Ticket (TryWait/Wait).
//
//   $ ./example_service
//
// See docs/OPERATIONS.md for tuning worker/shard counts and interpreting
// the stats this prints.

#include <cstdio>
#include <optional>
#include <utility>

#include "service/batch.h"
#include "service/service.h"
#include "workload/registry.h"

using namespace aqv;

int main() {
  // 1. A mixed batch: every packaged scenario × every rewriting engine ×
  //    two fresh instances — 24 independent rewriting problems.
  auto batch_result = MakeBatchFromScenarios(ScenarioNames(), EngineNames(),
                                             /*repeats=*/2, /*seed=*/7,
                                             /*db_size=*/50);
  if (!batch_result.ok()) {
    std::printf("batch synthesis failed: %s\n",
                batch_result.status().ToString().c_str());
    return 1;
  }
  ScenarioRequestBatch batch = std::move(batch_result).value();
  std::printf("batch: %zu requests (%zu scenarios x %zu engines x 2)\n\n",
              batch.size(), ScenarioNames().size(), EngineNames().size());

  // 2. A service: 4 workers sharing one 8-shard containment oracle.
  ServiceOptions options;
  options.num_workers = 4;
  options.oracle_shards = 8;
  RewriteService service(options);

  auto result = service.RewriteBatch(ToServiceRequests(batch));
  if (!result.ok()) {
    std::printf("batch failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // 3. Per-request outcomes: engine, rewriting count, latency.
  std::printf("%-28s %-8s %12s %10s\n", "request", "status", "rewritings",
              "ms");
  for (size_t i = 0; i < result.value().responses.size(); ++i) {
    const ServiceResponse& r = result.value().responses[i];
    std::printf("%-28s %-8s %12zu %10.3f\n", batch.labels[i].c_str(),
                r.status.ok() ? "ok" : "error",
                r.status.ok() ? r.response.rewritings.size() : size_t{0},
                r.latency_ms);
  }

  // 4. The aggregate: throughput, tail latency, and how much containment
  //    work the shared oracle absorbed.
  const ServiceStats& s = result.value().stats;
  std::printf("\nServiceStats\n");
  std::printf("  requests     %llu (%llu ok, %llu failed)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.ok),
              static_cast<unsigned long long>(s.failed));
  std::printf("  wall         %.2f ms  (%.0f requests/s, %d workers)\n",
              s.wall_ms, s.throughput_rps, s.num_workers);
  std::printf("  latency      p50 %.3f ms   p95 %.3f ms   max %.3f ms\n",
              s.p50_ms, s.p95_ms, s.max_ms);
  std::printf("  oracle       %llu lookups, %.1f%% hits (%zu shards)\n",
              static_cast<unsigned long long>(s.oracle.lookups()),
              100.0 * s.oracle.hit_rate(), s.oracle_shards);

  // 5. Streaming: submit one job, poll its ticket, then block for the
  //    result. A job is any callable; this one runs an engine against the
  //    service's shared oracle.
  RewriteRequest one = batch.requests[0];
  one.options.oracle = &service.oracle();
  auto ticket = service.Submit([one] { return RunEngine("minicon", one); });
  if (!ticket.ok()) {
    std::printf("submit failed: %s\n", ticket.status().ToString().c_str());
    return 1;
  }
  std::optional<Result<RewriteResponse>> polled = ticket.value().TryWait();
  std::printf("\nstreaming: %s\n",
              polled.has_value() ? "already done" : "in flight");
  Result<RewriteResponse> final =
      polled.has_value() ? std::move(*polled) : ticket.value().Wait();
  if (!final.ok()) {
    std::printf("streaming request failed: %s\n",
                final.status().ToString().c_str());
    return 1;
  }
  std::printf("streaming result: %zu rewritings\n",
              final.value().rewritings.size());
  return 0;
}
