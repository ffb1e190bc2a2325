/// \file
/// Umbrella header of the `frontend` module: the user-facing front door of
/// the repository. A Session owns one answering-queries-using-views problem
/// — catalog, view set, base facts, and the current query — and dispatches
/// parsed text commands (`view`, `query`, `fact`, `load`, `show`,
/// `rewrite`, `answer`, `explain`, `reset`, ...) onto the engine registry
/// (rewriting/engine.h), the cost planner (rewriting/planner.h), and the
/// answering pipeline (answering/answering.h). Every command returns a
/// structured CommandResult, so the session is unit-testable without any
/// I/O; the two thin transports — the `aqvsh` REPL/script runner under
/// examples/ and the TCP line-protocol server in frontend/server.h — only
/// move lines in and rendered results out. The surface syntax of rules and
/// facts is documented in docs/QUERY_LANGUAGE.md, the command set and
/// transports in docs/FRONTEND.md.

#ifndef AQV_FRONTEND_SESSION_H_
#define AQV_FRONTEND_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "answering/answering.h"
#include "cq/catalog.h"
#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "rewriting/engine.h"
#include "rewriting/planner.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "storage/store.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Outcome of one dispatched command: a Status (parse errors, engine
/// and pipeline failures propagate here — the session itself never dies), a
/// human-readable payload, and whether the command asked to end the
/// session.
struct CommandResult {
  Status status;
  /// '\n'-separated payload lines, no trailing newline; empty for commands
  /// with nothing to say (comments, blank lines, quit).
  std::string output;
  /// True for `quit` / `exit`: the transport should close the session.
  bool quit = false;

  bool ok() const { return status.ok(); }
};

/// The transcript rendering of a result: the payload lines, followed by an
/// `error: <status>` line when the command failed. This is exactly what
/// aqvsh prints (payload to stdout, the error line to stderr) and what the
/// docs doctest harness asserts fenced `aqv>` transcripts against.
std::string TranscriptLines(const CommandResult& result);

/// Construction-time knobs of a Session.
struct SessionOptions {
  /// Engine used by `rewrite` / `answer` when no `with <engine>` is given.
  std::string default_engine = "minicon";
  /// Route used by `answer` when no `route <route>` is given.
  AnswerRoute default_route = AnswerRoute::kCompleteRewriting;
  /// Engine knobs (oracle, containment budgets, per-strategy limits)
  /// applied to every rewrite/answer/explain the session runs.
  EngineOptions engine;
  EvalOptions eval;
  /// `explain` / cost-route knobs; `planner.engine` is overwritten with
  /// `engine` so budgets and the oracle are configured in one place.
  PlannerOptions planner;
  /// The worker pool this session runs on, if any. Read only by `show
  /// stats`, which prints its lifetime counters; commands always execute
  /// on the calling thread (pair with `engine.oracle = &service->oracle()`
  /// to share the pool's cache). The pointee must outlive the session.
  RewriteService* service = nullptr;
  /// When set, `rewrite` consults and populates this shared rewriting-plan
  /// cache (service/plan_cache.h): an exact repeat of (engine, options,
  /// query text, views text) — across this or any other session sharing
  /// the cache — is answered byte-identically without an engine run. The
  /// pointee must outlive the session.
  RewritePlanCache* plan_cache = nullptr;
  /// `load` reads files from the process's filesystem; transports serving
  /// remote clients (frontend/server.h) disable it.
  bool enable_load = true;
  /// Nested `load` depth cap (a script loading itself must terminate).
  int max_load_depth = 8;
  /// `save <dir>` / `open <dir>` persist the session through the storage
  /// engine (storage/store.h). Unlike `load`, the TCP server keeps this
  /// on — durable server-side sessions are the point — but an embedder
  /// can turn it off.
  bool enable_persist = true;
  /// Storage-engine knobs (mmap extents, fsync discipline) applied to
  /// every store this session attaches.
  StoreOptions storage;
};

/// \brief One interactive answering-queries-using-views session: owned
/// problem state plus a text-command dispatcher. Not thread-safe — one
/// Session per client; concurrency lives in the shared RewriteService.
class Session {
 public:
  explicit Session(SessionOptions options = {});

  /// Parses and executes one command line. Blank lines and `%`/`#` comment
  /// lines are no-ops. Never throws, never exits: every failure is a
  /// CommandResult whose status is non-OK, and the session survives it.
  CommandResult Execute(std::string_view line);

  /// Executes `text` line by line (one command per line), returning one
  /// result per line processed. Stops after a `quit` command.
  std::vector<CommandResult> ExecuteScript(std::string_view text);

  // Introspection (tests and transports).
  const Catalog& catalog() const { return *catalog_; }
  const ViewSet& views() const { return views_; }
  const Database& base() const { return base_; }
  const std::optional<UnionQuery>& query() const { return query_; }
  const SessionOptions& options() const { return options_; }
  uint64_t commands_executed() const { return commands_; }
  /// The attached database store, or nullptr while detached. Attached by
  /// `save`/`open`; released by `reset` (and by re-targeting save/open).
  const SessionStore* store() const { return store_.get(); }

 private:
  class KindSnapshot;

  CommandResult CmdHelp();
  CommandResult CmdView(const std::string& rest);
  CommandResult CmdQuery(const std::string& rest);
  CommandResult CmdFact(const std::string& rest);
  CommandResult CmdLoad(const std::string& rest);
  CommandResult CmdShow(const std::string& rest);
  CommandResult CmdRewrite(const std::string& rest);
  CommandResult CmdAnswer(const std::string& rest);
  CommandResult CmdExplain();
  CommandResult CmdReset();
  CommandResult CmdSave(const std::string& rest);
  CommandResult CmdOpen(const std::string& rest);

  /// Appends the successful mutation `line` to the attached store's
  /// journal (autosave-on-mutation); a journal failure turns the result
  /// into an error — the mutation applied in memory but is not durable.
  CommandResult Journaled(const std::string& line, CommandResult result);

  /// The session problem rendered for SessionStore::Snapshot.
  SnapshotInput RenderSnapshot() const;

  /// "N views, M facts, query set|unset" — the save/open summary. Counts
  /// only, no paths or generations, so transcripts stay deterministic.
  std::string ProblemSummary() const;

  /// "set a query first" / "add at least one view first" preconditions.
  [[nodiscard]] Status Ready(bool needs_views) const;

  /// Runs `engine_name` on the session problem.
  [[nodiscard]] Result<RewriteResponse> RunRewrite(const std::string& engine_name);

  /// Runs the answering pipeline on the session problem.
  [[nodiscard]] Result<AnswerResponse> RunAnswer(AnswerRoute route,
                                   const std::string& engine_name);

  SessionOptions options_;
  std::unique_ptr<Catalog> catalog_;
  ViewSet views_;
  Database base_;
  std::optional<UnionQuery> query_;
  /// Search counters of the session's most recent engine call (`show
  /// stats` surfaces them).
  RewriteStats last_rewrite_;
  uint64_t commands_ = 0;
  int load_depth_ = 0;
  /// The attached database store (save/open). Owns the directory lock
  /// and the journal descriptor; releasing it (reset, re-targeting)
  /// closes both. Mmap-backed extents live in base_'s relations and
  /// unmap when those are replaced.
  std::unique_ptr<SessionStore> store_;
  /// True while `open` replays the journal tail: replayed mutations must
  /// not be re-journaled, and a replayed `reset` must not detach the
  /// store being opened.
  bool replaying_journal_ = false;
};

}  // namespace aqv

#endif  // AQV_FRONTEND_SESSION_H_
