#include "ledger.h"

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>

#include "answering/answering.h"
#include "containment/oracle.h"
#include "cq/catalog.h"
#include "cq/parser.h"
#include "eval/materialize.h"
#include "frontend/differential.h"
#include "frontend/session.h"
#include "harness.h"
#include "rewriting/engine.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "storage/store.h"

namespace aqvbench {
namespace {

using aqv::Result;
using aqv::Status;

/// One traced call: name, interval, the span that caused it, and the
/// request (timed command) it belongs to.
struct Span {
  const char* name;
  int conn;
  uint64_t request;
  uint64_t id;
  uint64_t parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// Layer counters of the traced pass, summed over its timed commands.
struct Counters {
  uint64_t engine_runs = 0, candidates = 0, combinations = 0, checks = 0, rewritings = 0;
  uint64_t materializations = 0, materialize_rows = 0;
  uint64_t evaluations = 0, intermediate_rows = 0, probes = 0, index_hits = 0,
           index_builds = 0, answer_rows = 0;
  uint64_t appends = 0, journal_bytes = 0;
  std::vector<double> tcp_gap_ms;
  std::vector<double> dispatch_ratio;
};

std::string Rest(const std::string& line) {
  size_t sp = line.find(' ');
  return sp == std::string::npos ? "" : line.substr(sp + 1);
}

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> words;
  size_t i = 0;
  while (i < text.size()) {
    size_t j = text.find(' ', i);
    if (j == std::string::npos) j = text.size();
    if (j > i) words.push_back(text.substr(i, j - i));
    i = j + 1;
  }
  return words;
}

/// Records spans for one connection. Only one thread touches a connection
/// at a time: its client thread, or the service task it is blocked on.
class Tracer {
 public:
  Tracer(bool enabled, int conn) : enabled_(enabled), conn_(conn) {}

  uint64_t NewId() { return enabled_ ? next_id_++ : 0; }

  void Add(const char* name, uint64_t request, uint64_t id, uint64_t parent,
           Clock::time_point start, Clock::time_point end) {
    if (enabled_) spans_.push_back(Span{name, conn_, request, id, parent, start, end});
  }

  /// Runs `fn` inside a span named `name` under `parent`; returns fn().
  template <typename Fn>
  auto Scoped(const char* name, uint64_t request, uint64_t parent, Fn fn) {
    if (!enabled_) return fn();
    Clock::time_point start = Clock::now();
    auto result = fn();
    spans_.push_back(Span{name, conn_, request, next_id_++, parent, start, Clock::now()});
    return result;
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int conn_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

class Ledger : public CommandObserver {
 public:
  Ledger(const Traffic& traffic, bool record)
      : record_(record),
        service_([] {
          aqv::ServiceOptions options;
          options.num_workers = kServiceWorkers;
          return options;
        }()) {
    for (int c = 0; c < traffic.connections(); ++c) {
      auto conn = std::make_unique<Conn>(record, c);
      aqv::SessionOptions options = BenchServerOptions().session;
      options.enable_load = false;
      options.engine.oracle = &probe_oracle_;
      options.plan_cache = &probe_plans_;
      conn->probe = std::make_unique<aqv::Session>(options);
      conns_.push_back(std::move(conn));
    }
  }

  void OnCommand(int c, const std::string& line, const std::string& response,
                 Clock::time_point start, Clock::time_point end, bool timed) override {
    Conn& conn = *conns_[c];
    Tracer& tr = conn.tracer;
    const bool rec = record_ && timed;
    Tracer& t = rec ? tr : off_;
    const uint64_t request = rec ? ++conn.requests : 0;
    const uint64_t root = t.NewId();
    t.Add("frontend.tcp", request, t.NewId(), root, start, end);
    // The task owns the promise: this thread may return as soon as the
    // future is ready, while set_value is still running on the worker.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    const Clock::time_point submitted = Clock::now();
    Status submit = service_.SubmitTask([&, done] {
      const Clock::time_point started = Clock::now();
      t.Add("service.queue_wait", request, t.NewId(), root, submitted, started);
      const uint64_t task = t.NewId();
      Replay(conn, t, line, response, MsSince(start, end), request, task);
      t.Add("service.task", request, task, root, started, Clock::now());
      done->set_value();
    });
    if (!submit.ok()) {
      NoteMismatch(conn, "service refused a task: " + submit.ToString());
      return;
    }
    finished.wait();
    t.Add("request", request, root, 0, start, Clock::now());
  }

  /// After the traced pass: detach every layer store and time recovery.
  void MeasureRecovery() {
    for (auto& conn : conns_) {
      if (conn->store_dir.empty()) continue;
      conn->store.reset();
      for (int k = 0; k < 5; ++k) {
        Status st = conn->tracer.Scoped("storage.recover", 0, 0, [&]() -> Status {
          AQV_ASSIGN_OR_RETURN(auto store,
                               aqv::SessionStore::Attach(conn->store_dir, {}));
          return store->Recover().status();
        });
        if (!st.ok()) NoteMismatch(*conn, "layer store recovery failed: " + st.ToString());
      }
      std::error_code ec;
      for (const auto& entry : std::filesystem::directory_iterator(conn->store_dir, ec)) {
        if (entry.is_regular_file()) disk_bytes_ += entry.file_size();
      }
      user_bytes_ += conn->user_bytes;
    }
  }

  struct Conn {
    Conn(bool record, int c) : tracer(record, c) {}
    Tracer tracer;
    std::unique_ptr<aqv::Session> probe;
    std::unique_ptr<aqv::Catalog> catalog = std::make_unique<aqv::Catalog>();
    std::unique_ptr<aqv::SessionStore> store;
    std::string store_dir;
    /// Command bytes that built the state the store holds (since reset).
    uint64_t user_bytes = 0;
    uint64_t requests = 0;
    Counters counters;
    uint64_t compared = 0, mismatches = 0;
    std::string first_mismatch;
  };

  const std::vector<std::unique_ptr<Conn>>& conns() const { return conns_; }
  uint64_t disk_bytes() const { return disk_bytes_; }
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  void NoteMismatch(Conn& conn, std::string what) {
    if (conn.mismatches++ == 0) conn.first_mismatch = std::move(what);
  }

  /// Re-executes `line` through the session and each layer it enters.
  void Replay(Conn& conn, Tracer& t, const std::string& line, const std::string& response,
              double rtt_ms, uint64_t request, uint64_t task) {
    const std::string_view word = FirstWord(line);
    const std::string rest = Rest(line);
    // The probe Session saves beside the server's directory.
    const std::string probe_line = word == "save" ? "save " + rest + ".probe" : line;
    const Clock::time_point t0 = Clock::now();
    aqv::CommandResult result =
        t.Scoped("frontend.execute", request, task, [&] { return conn.probe->Execute(probe_line); });
    const double exec_ms = MsSince(t0, Clock::now());
    ++conn.compared;
    if (aqv::RenderWireResponse(result) != response) {
      NoteMismatch(conn, "`" + line + "`: server sent\n" + response + "session rendered\n" +
                             aqv::RenderWireResponse(result));
    }
    Counters* k = t.enabled() ? &conn.counters : nullptr;
    if (k != nullptr) k->tcp_gap_ms.push_back(rtt_ms - exec_ms);
    if (!result.ok()) return;
    if (word == "view" || word == "query") {
      (void)t.Scoped("cq.parse", request, task,
                     [&] { return aqv::ParseQuery(rest, conn.catalog.get()).ok(); });
      Journal(conn, t, line, request, task);
    } else if (word == "fact") {
      (void)t.Scoped("cq.parse", request, task,
                     [&] { return aqv::ParseFact(rest, conn.catalog.get()).ok(); });
      Journal(conn, t, line, request, task);
    } else if (word == "reset") {
      Journal(conn, t, line, request, task);
      conn.store.reset();
      conn.catalog = std::make_unique<aqv::Catalog>();
      conn.user_bytes = 0;
    } else if (word == "rewrite") {
      Rewrite(conn, t, rest, k, request, task);
    } else if (word == "answer") {
      Answer(conn, t, rest, exec_ms, k, request, task);
    } else if (word == "save") {
      Snapshot(conn, t, rest + ".layer", request, task);
    }
  }

  void Journal(Conn& conn, Tracer& t, const std::string& line, uint64_t request,
               uint64_t task) {
    conn.user_bytes += line.size();
    if (conn.store == nullptr) return;
    const uint64_t before = conn.store->journal_bytes();
    Status st = t.Scoped("storage.append", request, task,
                         [&] { return conn.store->Append(line); });
    if (!st.ok()) NoteMismatch(conn, "journal append failed: " + st.ToString());
    if (t.enabled()) {
      ++conn.counters.appends;
      conn.counters.journal_bytes += conn.store->journal_bytes() - before;
    }
  }

  void Snapshot(Conn& conn, Tracer& t, const std::string& dir, uint64_t request,
                uint64_t task) {
    if (conn.store == nullptr) {
      auto attached = t.Scoped("storage.attach", request, task,
                               [&] { return aqv::SessionStore::Attach(dir, {}); });
      if (!attached.ok()) {
        NoteMismatch(conn, "layer store attach failed: " + attached.status().ToString());
        return;
      }
      conn.store = std::move(*attached);
      conn.store_dir = dir;
    }
    const aqv::Session& p = *conn.probe;
    aqv::SnapshotInput input;
    input.catalog = &p.catalog();
    input.base = &p.base();
    for (const aqv::View& v : p.views().views()) input.view_rules.push_back(v.definition.ToString());
    if (p.query().has_value()) {
      for (const aqv::Query& d : p.query()->disjuncts) input.query_rules.push_back(d.ToString());
    }
    Status st = t.Scoped("storage.snapshot", request, task,
                         [&] { return conn.store->Snapshot(input); });
    if (!st.ok()) NoteMismatch(conn, "layer snapshot failed: " + st.ToString());
  }

  void Rewrite(Conn& conn, Tracer& t, const std::string& rest, Counters* k,
               uint64_t request, uint64_t task) {
    const aqv::Session& p = *conn.probe;
    std::vector<std::string> words = Words(rest);
    const std::string engine = words.size() == 2 ? words[1] : p.options().default_engine;
    // The key renders the whole problem statement, as the session does.
    std::string key = t.Scoped("plan_cache.key", request, task, [&] {
      std::string query_text, views_text;
      for (const aqv::Query& d : p.query()->disjuncts) query_text += d.ToString() + "\n";
      for (const aqv::View& v : p.views().views()) views_text += v.definition.ToString() + "\n";
      return aqv::RewritePlanCache::MakeKey(engine, "aqvbench", query_text, views_text);
    });
    if (layer_plans_.Lookup(key).has_value()) return;
    aqv::RewriteRequest req;
    req.query = *p.query();
    req.views = &p.views();
    req.options.oracle = &layer_oracle_;
    auto response = t.Scoped("rewriting.engine", request, task,
                             [&] { return aqv::RunEngine(engine, req); });
    if (!response.ok()) {
      NoteMismatch(conn, "RunEngine failed: " + response.status().ToString());
      return;
    }
    layer_plans_.Insert(key, aqv::RewritePlanCache::Plan{"", response->stats});
    if (k != nullptr) {
      ++k->engine_runs;
      k->candidates += response->stats.num_candidates;
      k->combinations += response->stats.combinations;
      k->checks += response->stats.checks;
      k->rewritings += response->rewritings.size();
    }
  }

  void Answer(Conn& conn, Tracer& t, const std::string& rest, double exec_ms, Counters* k,
              uint64_t request, uint64_t task) {
    const aqv::Session& p = *conn.probe;
    aqv::AnswerRequest req;
    req.query = *p.query();
    req.views = &p.views();
    req.base = &p.base();
    req.engine = p.options().default_engine;
    req.route = p.options().default_route;
    req.options.oracle = &layer_oracle_;
    std::vector<std::string> words = Words(rest);
    for (size_t i = 0; i + 1 < words.size(); i += 2) {
      if (words[i] == "route") {
        auto route = aqv::AnswerRouteByName(words[i + 1]);
        if (route.ok()) req.route = *route;
      } else if (words[i] == "with") {
        req.engine = words[i + 1];
      }
    }
    static const std::map<aqv::AnswerRoute, const char*> kSpan = {
        {aqv::AnswerRoute::kDirect, "answering.direct"},
        {aqv::AnswerRoute::kCompleteRewriting, "answering.complete"},
        {aqv::AnswerRoute::kInverseRules, "answering.inverse_rules"},
        {aqv::AnswerRoute::kCostBased, "answering.cost"}};
    const Clock::time_point t0 = Clock::now();
    auto response = t.Scoped(kSpan.at(req.route), request, task, [&] { return aqv::AnswerQuery(req); });
    const double answer_ms = MsSince(t0, Clock::now());
    if (!response.ok()) {
      NoteMismatch(conn, "AnswerQuery failed: " + response.status().ToString());
      return;
    }
    if (k != nullptr && answer_ms > 0) k->dispatch_ratio.push_back(exec_ms / answer_ms);
    aqv::EvalStats stats;
    if (req.route == aqv::AnswerRoute::kDirect) {
      auto rows = t.Scoped("eval.evaluate_base", request, task, [&] {
        return aqv::EvaluateUnion(*p.query(), p.base(), {}, &stats);
      });
      if (k != nullptr && rows.ok()) k->answer_rows += rows->size();
    } else if (req.route != aqv::AnswerRoute::kInverseRules) {
      aqv::EvalStats mstats;
      auto extents = t.Scoped("eval.materialize", request, task, [&] {
        return aqv::MaterializeViews(p.views(), p.base(), {}, &mstats);
      });
      if (!extents.ok()) return;
      if (k != nullptr) {
        ++k->materializations;
        k->materialize_rows += extents->TotalTuples();
      }
      if (req.route != aqv::AnswerRoute::kCompleteRewriting) return;
      auto rows = t.Scoped("eval.evaluate", request, task, [&] {
        return aqv::EvaluateUnion(response->executed, *extents, {}, &stats);
      });
      if (k != nullptr && rows.ok()) k->answer_rows += rows->size();
    }
    if (k != nullptr) {
      ++k->evaluations;
      k->intermediate_rows += stats.intermediate_rows;
      k->probes += stats.probes;
      k->index_hits += stats.index_hits;
      k->index_builds += stats.index_builds;
    }
  }

  bool record_;
  Tracer off_{false, -1};
  // Caches of the probe sessions (shared, like the server's) and of the
  // layer replay (which mirrors the server's hit/miss pattern).
  aqv::ContainmentOracle probe_oracle_{size_t{1} << 20, 8};
  aqv::RewritePlanCache probe_plans_;
  aqv::ContainmentOracle layer_oracle_{size_t{1} << 20, 8};
  aqv::RewritePlanCache layer_plans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t disk_bytes_ = 0, user_bytes_ = 0;
  // Declared last: its workers are joined before the state they touch dies.
  aqv::RewriteService service_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

Status WriteSpans(const Ledger& ledger, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write spans to " + path);
  Clock::time_point base = Clock::time_point::max();
  for (const auto& conn : ledger.conns()) {
    for (const Span& s : conn->tracer.spans()) base = std::min(base, s.start);
  }
  out << "conn,request,span,parent,name,start_us,end_us\n";
  for (const auto& conn : ledger.conns()) {
    for (const Span& s : conn->tracer.spans()) {
      out << s.conn << ',' << s.request << ',' << s.id << ',' << s.parent << ',' << s.name << ','
          << MsSince(base, s.start) * 1000.0 << ',' << MsSince(base, s.end) * 1000.0 << '\n';
    }
  }
  return out.good() ? Status::OK() : Status::Internal("short write to " + path);
}

/// The per-layer metrics of a traced pass (all but the overhead), from its
/// spans, the ledger's counters, the server's cache counters and the
/// output check.
LedgerResult Derive(const Ledger& ledger, const PhaseResult& phase, Result<uint64_t> checked) {
  LedgerResult out;
  out.attempted = phase.commands;
  std::map<std::string, std::vector<double>> ms;
  Counters k;
  for (const auto& conn : ledger.conns()) {
    for (const Span& s : conn->tracer.spans()) ms[s.name].push_back(MsSince(s.start, s.end));
    out.spans += conn->tracer.spans().size();
    out.compared += conn->compared;
    if (conn->mismatches > 0 && out.first_mismatch.empty()) out.first_mismatch = conn->first_mismatch;
    const Counters& c = conn->counters;
    k.engine_runs += c.engine_runs;
    k.candidates += c.candidates;
    k.combinations += c.combinations;
    k.checks += c.checks;
    k.rewritings += c.rewritings;
    k.materializations += c.materializations;
    k.materialize_rows += c.materialize_rows;
    k.evaluations += c.evaluations;
    k.intermediate_rows += c.intermediate_rows;
    k.probes += c.probes;
    k.index_hits += c.index_hits;
    k.index_builds += c.index_builds;
    k.answer_rows += c.answer_rows;
    k.appends += c.appends;
    k.journal_bytes += c.journal_bytes;
    k.tcp_gap_ms.insert(k.tcp_gap_ms.end(), c.tcp_gap_ms.begin(), c.tcp_gap_ms.end());
    k.dispatch_ratio.insert(k.dispatch_ratio.end(), c.dispatch_ratio.begin(),
                            c.dispatch_ratio.end());
  }
  for (const ConnLog& log : phase.conns) out.failed += log.errors;
  if (out.first_mismatch.empty()) {
    if (checked.ok()) {
      out.compared += *checked;
    } else {
      out.first_mismatch = checked.status().ToString();
    }
  }
  out.correct = out.first_mismatch.empty();

  auto p = [&](const char* name, double q) { return Percentile(ms[name], q); };
  const double runs = static_cast<double>(k.engine_runs);
  const double evals = static_cast<double>(k.evaluations);
  out.metrics = {
      {"frontend.tcp_gap_ms_p50", Median(k.tcp_gap_ms), "ms"},
      {"frontend.dispatch_ratio", Median(k.dispatch_ratio), "ratio"},
      {"service.queue_wait_ms_p50", p("service.queue_wait", 0.5), "ms"},
      {"service.queue_wait_ms_p99", p("service.queue_wait", 0.99), "ms"},
      {"plan_cache.key_us_p50", p("plan_cache.key", 0.5) * 1000.0, "us"},
      {"plan_cache.hit_rate", phase.plan_cache.hit_rate(), "share"},
      {"plan_cache.entries", static_cast<double>(phase.plan_cache_entries), "count"},
      {"rewriting.engine_ms_p50", p("rewriting.engine", 0.5), "ms"},
      {"rewriting.engine_ms_p99", p("rewriting.engine", 0.99), "ms"},
      {"rewriting.candidates", Ratio(static_cast<double>(k.candidates), runs), "count"},
      {"rewriting.combinations", Ratio(static_cast<double>(k.combinations), runs), "count"},
      {"rewriting.checks", Ratio(static_cast<double>(k.checks), runs), "count"},
      {"rewriting.rewritings_per_check",
       Ratio(static_cast<double>(k.rewritings), static_cast<double>(k.checks)), "ratio"},
      {"containment.oracle_hit_rate", phase.oracle.hit_rate(), "share"},
      {"containment.oracle_lookups", static_cast<double>(phase.oracle.lookups()), "count"},
      {"containment.oracle_inserts", static_cast<double>(phase.oracle.inserts), "count"},
      {"containment.capacity_rejects", static_cast<double>(phase.oracle.capacity_rejects),
       "count"},
      {"answering.direct_ms_p50", p("answering.direct", 0.5), "ms"},
      {"answering.complete_ms_p50", p("answering.complete", 0.5), "ms"},
      {"answering.cost_ms_p50", p("answering.cost", 0.5), "ms"},
      {"eval.materialize_ms_p50", p("eval.materialize", 0.5), "ms"},
      {"eval.materialize_rows",
       Ratio(static_cast<double>(k.materialize_rows), static_cast<double>(k.materializations)),
       "count"},
      {"eval.evaluate_ms_p50", p("eval.evaluate", 0.5), "ms"},
      {"eval.intermediate_rows", Ratio(static_cast<double>(k.intermediate_rows), evals), "count"},
      {"eval.probes", Ratio(static_cast<double>(k.probes), evals), "count"},
      {"eval.index_hit_rate",
       Ratio(static_cast<double>(k.index_hits), static_cast<double>(k.index_hits + k.index_builds)),
       "share"},
      {"eval.answers_per_intermediate_row",
       Ratio(static_cast<double>(k.answer_rows), static_cast<double>(k.intermediate_rows)),
       "ratio"},
      {"storage.append_us_p50", p("storage.append", 0.5) * 1000.0, "us"},
      {"storage.snapshot_ms_p50", p("storage.snapshot", 0.5), "ms"},
      {"storage.recover_ms_p50", p("storage.recover", 0.5), "ms"},
      {"storage.journal_bytes_per_write",
       Ratio(static_cast<double>(k.journal_bytes), static_cast<double>(k.appends)), "B"},
      {"storage.disk_bytes_per_user_byte",
       Ratio(static_cast<double>(ledger.disk_bytes()), static_cast<double>(ledger.user_bytes())),
       "ratio"},
      {"cq.parse_us_p50", p("cq.parse", 0.5) * 1000.0, "us"},
  };
  return out;
}

}  // namespace

Result<LedgerResult> RunLedger(const Traffic& traffic, double deadline_s,
                               const std::string& data_root, const std::string& spans_path) {
  // Untraced passes before and after the traced one, so that the overhead
  // is not biased by whichever pass warms the allocator first.
  auto untraced = [&]() -> Result<double> {
    Ledger off(traffic, /*record=*/false);
    AQV_ASSIGN_OR_RETURN(PhaseResult phase,
                         RunServerPhase(traffic, deadline_s, 1, data_root, &off));
    return phase.throughput;
  };
  AQV_ASSIGN_OR_RETURN(double untraced_before, untraced());
  // The traced pass's state dies before the last pass starts.
  double traced_throughput = 0.0;
  LedgerResult out;
  {
    Ledger ledger(traffic, /*record=*/true);
    AQV_ASSIGN_OR_RETURN(PhaseResult phase,
                         RunServerPhase(traffic, deadline_s, 1, data_root, &ledger));
    ledger.MeasureRecovery();
    AQV_RETURN_NOT_OK(WriteSpans(ledger, spans_path));
    out = Derive(ledger, phase, CheckOutputs(traffic, phase));
    traced_throughput = phase.throughput;
  }
  AQV_ASSIGN_OR_RETURN(double untraced_after, untraced());
  const double untraced_throughput = (untraced_before + untraced_after) / 2.0;
  out.metrics.push_back(
      {"trace.overhead_pct", (Ratio(untraced_throughput, traced_throughput) - 1.0) * 100.0, "%"});
  return out;
}

}  // namespace aqvbench
