#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aqv {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // ceil(q*n)-th order statistic, 1-based; clamp guards q outside (0, 1].
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

RewriteService::RewriteService(ServiceOptions options)
    : options_(options),
      oracle_(options.oracle_max_entries, options.oracle_shards),
      start_(std::chrono::steady_clock::now()) {
  int workers = options_.num_workers;
  if (workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RewriteService::~RewriteService() {
  queue_.Close();  // workers drain queued jobs, then exit
  for (std::thread& t : workers_) t.join();
}

void RewriteService::WorkerLoop() {
  std::function<void()> job;
  while (queue_.Pop(&job)) {
    job();
    job = nullptr;  // release the job's captures before blocking again
  }
}

Status RewriteService::Enqueue(std::function<void()> job) {
  if (!queue_.Push(std::move(job))) {
    return Status::Internal("RewriteService is shutting down");
  }
  return Status::OK();
}

Status RewriteService::SubmitTask(std::function<void()> task) {
  // The task body is its own delivery, so it is counted before it runs.
  return Enqueue([this, task = std::move(task)] {
    Count(true);
    task();
  });
}

namespace {

/// The per-kind halves of a batch job, overloaded on the request type:
/// wire the shared oracle into the job's own copy of the request, run it,
/// and echo request fields into the response.
Result<RewriteResponse> Execute(ServiceRequest& job, ContainmentOracle* oracle) {
  job.request.options.oracle = oracle;
  return RunEngine(job.engine, job.request);
}

Result<AnswerResponse> Execute(AnswerRequest& job, ContainmentOracle* oracle) {
  // One wire point suffices: AnswerQuery copies request.options into the
  // planner's engine options itself.
  job.options.oracle = oracle;
  return AnswerQuery(job);
}

void Echo(const ServiceRequest& job, ServiceResponse* resp) {
  resp->engine = job.engine;
}

void Echo(const AnswerRequest& /*job*/, AnswerServiceResponse* /*resp*/) {}

/// The one batch implementation behind RewriteBatch and AnswerBatch:
/// submit every request as a job on the pool, then collect the tickets in
/// submission order and aggregate their stats.
template <typename Out, typename Request>
Result<Out> RunBatch(RewriteService& service,
                     const std::vector<Request>& batch) {
  using Response = typename decltype(Out::responses)::value_type;
  ContainmentOracle& oracle = service.oracle();
  OracleStats oracle_before = oracle.stats();
  auto t0 = std::chrono::steady_clock::now();

  std::vector<Ticket<Response>> tickets;
  tickets.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<Ticket<Response>> ticket = service.Submit([&batch, &oracle, i] {
      Request job = batch[i];  // the job wires the oracle into its own copy
      Response resp;
      resp.ticket = i;
      Echo(job, &resp);
      auto start = std::chrono::steady_clock::now();
      auto r = Execute(job, &oracle);
      resp.latency_ms = MsBetween(start, std::chrono::steady_clock::now());
      if (r.ok()) {
        resp.response = std::move(r).value();
      } else {
        resp.status = r.status();
      }
      return resp;
    });
    if (!ticket.ok()) {
      // Shutdown raced the batch: the accepted jobs reference `batch`, so
      // wait them out before failing with the submit error.
      for (Ticket<Response>& t : tickets) static_cast<void>(t.Wait());
      return ticket.status();
    }
    tickets.push_back(std::move(ticket).value());
  }

  Out out;
  out.responses.reserve(batch.size());
  std::vector<double> latencies;
  latencies.reserve(batch.size());
  for (Ticket<Response>& ticket : tickets) {
    Response resp = ticket.Wait();
    latencies.push_back(resp.latency_ms);
    if (resp.status.ok()) {
      ++out.stats.ok;
    } else {
      ++out.stats.failed;
    }
    out.responses.push_back(std::move(resp));
  }

  ServiceStats& stats = out.stats;
  stats.requests = batch.size();
  stats.wall_ms = MsBetween(t0, std::chrono::steady_clock::now());
  if (stats.wall_ms > 0.0) {
    stats.throughput_rps =
        static_cast<double>(batch.size()) / (stats.wall_ms / 1000.0);
  }
  std::sort(latencies.begin(), latencies.end());
  stats.p50_ms = NearestRankPercentile(latencies, 0.50);
  stats.p95_ms = NearestRankPercentile(latencies, 0.95);
  stats.max_ms = latencies.empty() ? 0.0 : latencies.back();
  stats.oracle = oracle.stats() - oracle_before;
  stats.num_workers = service.num_workers();
  stats.oracle_shards = oracle.num_shards();
  return out;
}

}  // namespace

Result<BatchResult> RewriteService::RewriteBatch(
    const std::vector<ServiceRequest>& batch) {
  return RunBatch<BatchResult>(*this, batch);
}

Result<AnswerBatchResult> RewriteService::AnswerBatch(
    const std::vector<AnswerRequest>& batch) {
  return RunBatch<AnswerBatchResult>(*this, batch);
}

ServiceStats RewriteService::lifetime_stats() const {
  ServiceStats s;
  s.ok = completed_ok_.load(std::memory_order_relaxed);
  s.failed = completed_failed_.load(std::memory_order_relaxed);
  s.requests = s.ok + s.failed;
  s.wall_ms = MsBetween(start_, std::chrono::steady_clock::now());
  if (s.wall_ms > 0.0) {
    s.throughput_rps = static_cast<double>(s.requests) / (s.wall_ms / 1000.0);
  }
  s.oracle = oracle_.stats();
  s.num_workers = static_cast<int>(workers_.size());
  s.oracle_shards = oracle_.num_shards();
  return s;
}

}  // namespace aqv
