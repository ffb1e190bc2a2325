#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "eval/relation.h"
#include "frontend/differential.h"
#include "frontend/session.h"

namespace aqvbench {
namespace {

using aqv::Result;
using aqv::Status;

/// One blocking client connection speaking the line protocol in lock-step.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient() { Close(); }
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  [[nodiscard]] Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::Internal("socket: " + std::string(std::strerror(errno)));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Internal("connect: " + std::string(std::strerror(errno)));
    }
    return Status::OK();
  }

  /// Sends `line` and reads its complete response (payload lines and the
  /// `ok` / `err ...` terminator) into `*response`.
  [[nodiscard]] Status RoundTrip(const std::string& line, std::string* response) {
    std::string out = line + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Status::Internal("send: " + std::string(std::strerror(errno)));
      sent += static_cast<size_t>(n);
    }
    size_t line_start = 0;
    for (;;) {
      size_t nl;
      while ((nl = buf_.find('\n', line_start)) != std::string::npos) {
        std::string_view l(buf_.data() + line_start, nl - line_start);
        line_start = nl + 1;
        if (l == "ok" || l.rfind("err ", 0) == 0) {
          response->assign(buf_, 0, line_start);
          buf_.erase(0, line_start);
          return Status::OK();
        }
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Status::Internal("recv: connection closed or timed out");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool IsErr(const std::string& response) {
  size_t last = response.rfind('\n', response.size() - 2);
  size_t start = last == std::string::npos ? 0 : last + 1;
  return response.compare(start, 4, "err ") == 0;
}

void ResetDataRoot(const std::string& data_root) {
  std::error_code ec;
  std::filesystem::remove_all(data_root, ec);
  std::filesystem::create_directories(data_root, ec);
}

/// Runs `fn(c)` on one thread per connection and returns the first error.
template <typename Fn>
Status ForEachConnection(int n, Fn fn) {
  std::vector<Status> results(static_cast<size_t>(n));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] { results[c] = fn(c); });
  }
  for (std::thread& t : threads) t.join();
  for (Status& s : results) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

std::string CountNoun(size_t n, const char* singular, const char* plural) {
  return std::to_string(n) + " " + (n == 1 ? singular : plural);
}

/// The session's whole problem (views, query, facts) in a catalog- and
/// order-independent rendering.
std::string StateText(const aqv::Session& session) {
  std::string text = "views:\n";
  for (const aqv::View& v : session.views().views()) text += v.definition.ToString() + "\n";
  text += "query:\n";
  if (session.query().has_value()) {
    for (const aqv::Query& d : session.query()->disjuncts) text += d.ToString() + "\n";
  }
  std::map<std::string, std::string> facts;
  for (aqv::PredId p : session.base().Predicates()) {
    const aqv::Relation* rel = session.base().Find(p);
    if (rel == nullptr || rel->empty()) continue;
    aqv::Relation sorted = *rel;
    sorted.SortDedup();
    facts[session.catalog().pred(p).name] = sorted.ToString(session.catalog());
  }
  for (const auto& [name, rows] : facts) text += "facts " + name + ":\n" + rows;
  return text;
}

/// The `save` payload a session in `session`'s state prints.
std::string SaveSummary(const aqv::Session& session) {
  return "saved: " + CountNoun(static_cast<size_t>(session.views().size()), "view", "views") +
         ", " + CountNoun(session.base().TotalTuples(), "fact", "facts") + ", query " +
         (session.query().has_value() ? "set" : "unset");
}

}  // namespace

aqv::ServerOptions BenchServerOptions() {
  aqv::ServerOptions options;
  options.service.num_workers = kServiceWorkers;
  options.max_connections = 8;
  // StoreOptions::sync stays true: every acknowledged write is fsynced.
  return options;
}

uint32_t ResponsePool::Intern(const std::string& response) {
  auto [it, inserted] = ids_.emplace(response, static_cast<uint32_t>(texts_.size()));
  if (inserted) texts_.push_back(response);
  return it->second;
}

std::vector<size_t> PhaseResult::Issued() const {
  std::vector<size_t> issued;
  for (const ConnLog& log : conns) issued.push_back(log.timed_responses.size());
  return issued;
}

Result<PhaseResult> RunServerPhase(const Traffic& traffic, double deadline_s, int setup_reps,
                                   const std::string& data_root,
                                   CommandObserver* observer) {
  const int n = traffic.connections();
  PhaseResult result;
  std::unique_ptr<aqv::FrontendServer> server;
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool last = rep + 1 == setup_reps;
    clients.clear();
    server.reset();
    if (!data_root.empty()) ResetDataRoot(data_root);
    result.conns = std::vector<ConnLog>(static_cast<size_t>(n));
    Clock::time_point t0 = Clock::now();
    server = std::make_unique<aqv::FrontendServer>(BenchServerOptions());
    AQV_RETURN_NOT_OK(server->Start());
    for (int c = 0; c < n; ++c) {
      clients.push_back(std::make_unique<TcpClient>());
      AQV_RETURN_NOT_OK(clients.back()->Connect(server->port()));
    }
    AQV_RETURN_NOT_OK(ForEachConnection(n, [&](int c) -> Status {
      std::string response;
      for (const std::string& line : traffic.setup[c]) {
        Clock::time_point s = Clock::now();
        AQV_RETURN_NOT_OK(clients[c]->RoundTrip(line, &response));
        Clock::time_point e = Clock::now();
        if (IsErr(response)) {
          return Status::Internal("set-up command `" + line + "` failed: " + response);
        }
        if (last) {
          result.conns[c].setup_responses.push_back(result.conns[c].pool.Intern(response));
          if (observer != nullptr) observer->OnCommand(c, line, response, s, e, false);
        }
      }
      return Status::OK();
    }));
    result.setup_s.push_back(MsSince(t0, Clock::now()) / 1000.0);
  }

  server->plan_cache().ResetStats();
  server->oracle().ResetStats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(deadline_s));
  std::vector<Clock::time_point> ends(static_cast<size_t>(n), start);
  AQV_RETURN_NOT_OK(ForEachConnection(n, [&](int c) -> Status {
    ConnLog& log = result.conns[c];
    std::string response;
    for (const std::string& line : traffic.timed[c]) {
      if (Clock::now() >= deadline) break;
      Clock::time_point s = Clock::now();
      AQV_RETURN_NOT_OK(clients[c]->RoundTrip(line, &response));
      Clock::time_point e = Clock::now();
      log.latency_ms.push_back(MsSince(s, e));
      log.classes.push_back(ClassOf(line));
      log.timed_responses.push_back(log.pool.Intern(response));
      if (IsErr(response)) ++log.errors;
      if (observer != nullptr) observer->OnCommand(c, line, response, s, e, true);
    }
    ends[c] = Clock::now();
    return Status::OK();
  }));
  result.wall_s = MsSince(start, *std::max_element(ends.begin(), ends.end())) / 1000.0;
  result.rss_mb = PeakRssMb();
  for (int c = 0; c < n; ++c) {
    result.commands += result.conns[c].latency_ms.size();
    if (result.conns[c].latency_ms.size() < traffic.timed[c].size()) result.hit_deadline = true;
  }
  result.throughput = static_cast<double>(result.commands) / result.wall_s;
  result.plan_cache = server->plan_cache().stats();
  result.plan_cache_entries = server->plan_cache().size();
  result.oracle = server->oracle().stats();
  clients.clear();
  server->Stop();
  return result;
}

Result<uint64_t> CheckOutputs(const Traffic& traffic, const PhaseResult& phase) {
  const int n = traffic.connections();
  std::vector<uint64_t> compared(static_cast<size_t>(n), 0);
  AQV_RETURN_NOT_OK(ForEachConnection(n, [&](int c) -> Status {
    aqv::SessionOptions options = BenchServerOptions().session;
    aqv::MirrorChecker mirror(options);
    const ConnLog& log = phase.conns[c];
    auto check = [&](const std::string& line, const std::string& actual,
                     const char* phase_name, size_t index) -> Status {
      std::optional<aqv::Divergence> divergence;
      if (ClassOf(line) == CmdClass::kSave) {
        // The mirror never touches disk; the save payload is a path-free
        // summary of the state both sides hold.
        std::string expected = SaveSummary(mirror.session()) + "\nok\n";
        if (actual != expected) {
          divergence = aqv::Divergence{-1, line, "save-summary", expected, actual};
        }
      }
      if (!divergence) divergence = mirror.Check(line, actual);
      ++compared[c];
      if (!divergence) return Status::OK();
      return Status::Internal("connection " + std::to_string(c) + " " + phase_name +
                              " command #" + std::to_string(index) + " `" + line + "`: " +
                              divergence->kind + "\nserver sent\n" + divergence->actual +
                              "\nexpected\n" + divergence->expected);
    };
    for (size_t i = 0; i < log.setup_responses.size(); ++i) {
      AQV_RETURN_NOT_OK(
          check(traffic.setup[c][i], log.pool.Get(log.setup_responses[i]), "set-up", i));
    }
    for (size_t i = 0; i < log.timed_responses.size(); ++i) {
      AQV_RETURN_NOT_OK(
          check(traffic.timed[c][i], log.pool.Get(log.timed_responses[i]), "timed", i));
    }
    if (traffic.store_dirs[c].empty()) return Status::OK();
    // Every acknowledged write must come back from the directory.
    aqv::ContainmentOracle oracle(/*max_entries=*/size_t{1} << 20, /*num_shards=*/1);
    options.engine.oracle = &oracle;
    aqv::Session recovered(options);
    aqv::CommandResult opened = recovered.Execute("open " + traffic.store_dirs[c]);
    if (!opened.ok()) {
      return Status::Internal("connection " + std::to_string(c) + ": open " +
                              traffic.store_dirs[c] + " failed: " + opened.status.ToString());
    }
    if (StateText(recovered) != StateText(mirror.session())) {
      return Status::Internal("connection " + std::to_string(c) +
                              ": recovered state differs from the acknowledged writes");
    }
    return Status::OK();
  }));
  uint64_t total = 0;
  for (uint64_t k : compared) total += k;
  return total;
}

}  // namespace aqvbench
