/// \file
/// The concurrent service: a fixed pool of worker threads draining one
/// queue of opaque jobs, plus a sharded thread-safe ContainmentOracle
/// (containment/oracle.h) that the batch helpers wire into every request.
/// Per-request latency has a hard floor — the underlying problems are
/// NP-complete (LMSS95 Thms 3.1/3.3) — so the service buys throughput,
/// not latency: parallel execution across requests plus cross-request
/// containment memoization.
///
/// One job queue, two ways in: Submit(fn) runs any callable on the pool
/// and returns a typed Ticket<R> over its result; SubmitTask(fn) runs a
/// task that delivers its own result (the epoll frontend runs whole
/// parsed commands this way). RewriteBatch and AnswerBatch are thin
/// blocking helpers over Submit: submit a vector, block for all results
/// plus aggregate ServiceStats. Responses are
/// deterministic: a request's payload never depends on worker count,
/// shard count, or scheduling, because the oracle is a pure cache
/// (tests/test_service.cc holds the service to that). The one
/// non-deterministic surface is per-request RewriteStats::oracle deltas,
/// which under concurrency include other workers' traffic — read
/// aggregate oracle numbers from ServiceStats instead.

#ifndef AQV_SERVICE_SERVICE_H_
#define AQV_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "answering/answering.h"
#include "containment/oracle.h"
#include "rewriting/engine.h"
#include "service/mpmc_queue.h"
#include "util/status.h"

namespace aqv {

/// Construction-time knobs of a RewriteService.
struct ServiceOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  int num_workers = 0;
  /// Shards of the service's shared ContainmentOracle (rounded up to a
  /// power of two; more shards = less lock contention, same outputs).
  size_t oracle_shards = 8;
  /// Total entry budget of the shared oracle, split across shards.
  size_t oracle_max_entries = size_t{1} << 20;
};

/// One unit of service work: which engine, applied to which request. The
/// request's `views` pointer (and the Catalog behind it) must stay alive
/// until the response has been collected.
struct ServiceRequest {
  /// Engine registry name ("lmss", "bucket", "minicon", "ucq").
  std::string engine;
  RewriteRequest request;
};

/// Outcome of one ServiceRequest.
struct ServiceResponse {
  /// Position of the request in its RewriteBatch.
  uint64_t ticket = 0;
  /// Echo of ServiceRequest::engine.
  std::string engine;
  /// Engine-level failure (unknown engine, invalid request, budget
  /// overrun). `response` is meaningful only when this is OK.
  Status status;
  RewriteResponse response;
  /// Wall time of the engine call itself (queue wait excluded).
  double latency_ms = 0.0;
};

/// Aggregate numbers over one batch (RewriteBatch) or over the service's
/// lifetime (lifetime_stats).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  /// Batch: submit→last-response wall time. Lifetime: since construction.
  double wall_ms = 0.0;
  /// requests / wall seconds.
  double throughput_rps = 0.0;
  /// Percentiles of per-request engine latency (batch only; zero for
  /// lifetime stats, which do not retain per-request samples).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  /// Shared-oracle counters: the batch's delta, or lifetime totals.
  OracleStats oracle;
  int num_workers = 0;
  size_t oracle_shards = 0;
};

/// A batch's responses (in submission order) plus its aggregate stats.
struct BatchResult {
  std::vector<ServiceResponse> responses;
  ServiceStats stats;
};

/// Outcome of one AnswerBatch request (see answering/answering.h for the
/// request/response semantics).
struct AnswerServiceResponse {
  /// Position of the request in its AnswerBatch.
  uint64_t ticket = 0;
  /// Pipeline-level failure (unknown engine/route, missing inputs, budget
  /// overrun). `response` is meaningful only when this is OK.
  Status status;
  AnswerResponse response;
  /// Wall time of the answering call itself (queue wait excluded).
  double latency_ms = 0.0;
};

/// An answering batch's responses (in submission order) plus stats.
struct AnswerBatchResult {
  std::vector<AnswerServiceResponse> responses;
  ServiceStats stats;
};

/// True nearest-rank percentile of an ascending-sorted sample: the
/// ceil(q*n)-th order statistic for q in (0, 1] (0 for an empty sample).
/// Unlike the rounded interpolation it replaces, p50 of a 2-sample batch
/// is the *smaller* sample — the textbook nearest-rank definition.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// \brief Move-only handle on the result of one RewriteService::Submit job.
///
/// Collect the result exactly once, with Wait or a successful TryWait;
/// collecting twice aborts (like reading an error Result). A ticket may
/// outlive the service that issued it: the destructor runs every accepted
/// job, so an outstanding ticket always becomes ready.
template <typename R>
class Ticket {
 public:
  explicit Ticket(std::future<R> future) : future_(std::move(future)) {}

  /// False once the result has been collected.
  bool valid() const { return future_.valid(); }

  /// Blocks until the job has run, then hands its result over.
  R Wait() {
    CheckValid();
    return future_.get();
  }

  /// Non-blocking poll: the result if the job has run (collecting it),
  /// nullopt while it is still queued or running.
  std::optional<R> TryWait() {
    CheckValid();
    if (future_.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      return std::nullopt;
    }
    return future_.get();
  }

 private:
  void CheckValid() const {
    if (!future_.valid()) {
      internal_status::DieBadAccess("Ticket collected twice", "");
    }
  }

  std::future<R> future_;
};

namespace internal_service {

template <typename R, typename = void>
struct HasOk : std::false_type {};
template <typename R>
struct HasOk<R, std::void_t<decltype(std::declval<const R&>().ok())>>
    : std::true_type {};

template <typename R, typename = void>
struct HasStatusField : std::false_type {};
template <typename R>
struct HasStatusField<R, std::void_t<decltype(std::declval<const R&>().status.ok())>>
    : std::true_type {};

/// Whether a job result counts as `ok` in lifetime_stats: false only when
/// it carries a non-OK status (a Status or Result itself, or a response
/// with a `status` field); any other value is a success.
template <typename R>
bool Succeeded(const R& result) {
  if constexpr (HasOk<R>::value) {
    return result.ok();
  } else if constexpr (HasStatusField<R>::value) {
    return result.status.ok();
  } else {
    return true;
  }
}

}  // namespace internal_service

/// \brief Fixed-pool concurrent service: a generic worker pool plus the
/// shared containment oracle the batch helpers run against.
///
/// Thread safety: all public members may be called from any thread.
/// Shutdown: the destructor drains already-submitted work, then joins the
/// workers — it never abandons an accepted job, so every ticket becomes
/// ready and every SubmitTask body runs.
class RewriteService {
 public:
  explicit RewriteService(ServiceOptions options = {});
  ~RewriteService();

  RewriteService(const RewriteService&) = delete;
  RewriteService& operator=(const RewriteService&) = delete;

  /// Executes `batch` across the pool against the shared oracle; blocks
  /// until every response is in. responses[i] corresponds to batch[i].
  /// Engine-level failures are per-response (`responses[i].status`); the
  /// call itself only fails if the service is shutting down.
  [[nodiscard]] Result<BatchResult> RewriteBatch(const std::vector<ServiceRequest>& batch);

  /// Answering twin of RewriteBatch: runs every AnswerRequest through the
  /// pipeline on the same pool and oracle.
  [[nodiscard]] Result<AnswerBatchResult> AnswerBatch(const std::vector<AnswerRequest>& batch);

  /// Runs `fn()` on a pool worker and returns a ticket over its result.
  /// The job counts in lifetime_stats once it has run (`failed` when its
  /// result carries a non-OK status), before the ticket becomes ready.
  /// Whatever `fn` references must outlive the job; it runs with the
  /// oracle (if any) the caller wired in — pass `&oracle()` to share the
  /// service's. Fails only when the service is shutting down.
  template <typename Fn, typename R = std::invoke_result_t<Fn&>>
  [[nodiscard]] Result<Ticket<R>> Submit(Fn fn) {
    static_assert(!std::is_void_v<R>,
                  "Submit needs a result; use SubmitTask for a task that "
                  "delivers its own");
    struct State {
      Fn fn;
      std::promise<R> promise;
    };
    auto state = std::make_shared<State>(State{std::move(fn), {}});
    Ticket<R> ticket(state->promise.get_future());
    AQV_RETURN_NOT_OK(Enqueue([this, state] {
      R result = state->fn();
      Count(internal_service::Succeeded(result));
      state->promise.set_value(std::move(result));
    }));
    return Result<Ticket<R>>(std::move(ticket));
  }

  /// Fire-and-forget: runs `task` on a pool worker. The task delivers its
  /// own result (the epoll frontend pushes completions to its event
  /// loop) and always counts as `ok`. The only failure is submission
  /// during shutdown; accepted tasks always run (the destructor drains).
  [[nodiscard]] Status SubmitTask(std::function<void()> task);

  /// Totals since construction (percentiles zero; see ServiceStats).
  ServiceStats lifetime_stats() const;

  /// The shared sharded oracle the batch helpers wire into every request.
  ContainmentOracle& oracle() { return oracle_; }
  const ServiceOptions& options() const { return options_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();
  [[nodiscard]] Status Enqueue(std::function<void()> job);
  /// Bumps the lifetime completion counters. Every job calls it *before*
  /// delivering its result: anything sequenced after collecting a result,
  /// like a later pipelined command rendering lifetime_stats(), must
  /// already see the job counted, or exact-count observers would race
  /// the increment.
  void Count(bool ok) {
    if (ok) {
      completed_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      completed_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ServiceOptions options_;
  ContainmentOracle oracle_;
  MpmcQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> completed_ok_{0};
  std::atomic<uint64_t> completed_failed_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aqv

#endif  // AQV_SERVICE_SERVICE_H_
