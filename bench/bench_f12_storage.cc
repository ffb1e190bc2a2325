/// F12 — The storage engine's larger-than-RAM claim: a warehouse base with
/// a 10^6-row fact table (plus a bulk relation the query never touches, so
/// the database file footprint far exceeds the working set) is snapshotted
/// to a database directory, reopened, and the F5 selective point query is
/// answered straight off the persisted extents.
///
/// Each benchmark runs as an Mmap/Columnar pair — the open-time ablation
/// of StoreOptions::use_mmap:
///
///   Mmap      segments served through the read-only mmap backend
///             (eval/mmap_store.h): pages fault in lazily, so open is
///             near-instant and resident memory grows with the *touched*
///             column set, not the file size;
///   Columnar  segments copied onto the heap at open — the eager
///             baseline whose open cost and memory footprint scale with
///             every byte on disk.
///
/// Counters: `file_mb` (on-disk database size), `rss_open_mb` /
/// `rss_answer_mb` (VmRSS growth across open, and across open + warm
/// answer, in a process whose heap never held the build phase; Linux-only,
/// 0 elsewhere), `rss_anon_mb` / `rss_file_mb` (the RssAnon / RssFile
/// split of the open + warm answer growth: heap copies versus mapped file
/// pages), and the evaluator's index counters —
/// the headline expectation is Mmap rss_answer_mb well below file_mb with
/// warm `index_hits` > 0, while Columnar tracks file_mb.

#include <benchmark/benchmark.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cq/parser.h"
#include "eval/evaluator.h"
#include "storage/fs.h"
#include "storage/store.h"
#include "workload/scenarios.h"

namespace aqv {
namespace {

/// The `field` line (e.g. "VmRSS:") of /proc/self/status in MiB (0 where
/// /proc is unavailable).
double StatusMb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;
    }
  }
  return 0.0;
}

double RssMb() { return StatusMb("VmRSS:"); }

void WipeDir(const std::string& dir) {
  auto names = ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    Status removed = RemoveFile(dir + "/" + name);
    (void)removed;
  }
}

/// Directories created by this process, removed at exit (main()).
std::vector<std::string>& CreatedDirs() {
  static auto* dirs = new std::vector<std::string>();
  return *dirs;
}

/// Removes every created database directory when the process exits.
struct DirJanitor {
  ~DirJanitor() {
    for (const std::string& dir : CreatedDirs()) {
      WipeDir(dir);
      ::rmdir(dir.c_str());
    }
  }
} dir_janitor;

struct F12Setup {
  std::string dir;
  StoreOptions options;
  /// The recovered problem: mmap- or heap-backed extents per the ablation
  /// arm. Holding it does NOT hold the directory lock — the store is
  /// dropped after recovery, so BM_F12_OpenRecover can re-attach.
  RecoveredState state;
  Query selective;
  double file_mb = 0;
  double rss_open_mb = 0;
  double rss_answer_mb = 0;
  double rss_anon_mb = 0;
  double rss_file_mb = 0;
};

EvalOptions IndexedOptions() {
  EvalOptions o;
  o.use_cached_indexes = true;
  return o;
}

/// Writes the F12 database directory for `db_size` into `dir` from a
/// forked child that exits when done. The parent never holds the build
/// phase's heap, so the open-side RSS counters measure fresh memory: an
/// eager open that merely reused the freed build heap read as 0 MiB
/// resident growth for a 50 MiB database.
void BuildDatabaseInChild(int db_size, const std::string& dir,
                          const StoreOptions& options) {
  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("F12 fork");
    std::abort();
  }
  if (pid == 0) {
    // _exit, not exit: the child must not run this process's static
    // destructors (the DirJanitor would wipe the directory it just wrote).
    // The build runs in a scope so the store closes before the exit.
    int code = [&] {
      Scenario scenario =
          bench::Unwrap(MakeWarehouseScenario(17, db_size), "scenario");
      // The bulk relation the query never touches: 2x the fact table, so
      // the on-disk footprint dwarfs the queried columns.
      PredId bulk = bench::Unwrap(
          scenario.catalog->GetOrAddPredicate("bulk", 2,
                                              PredKind::kExtensional),
          "bulk pred");
      Relation rel(bulk, 2);
      rel.Reserve(static_cast<size_t>(db_size) * 2);
      for (int64_t i = 0; i < static_cast<int64_t>(db_size) * 2; ++i) {
        rel.Add({i, i * 2 + 1});
      }
      rel.SortDedup();
      scenario.base.Install(std::move(rel));

      SnapshotInput input;
      input.catalog = scenario.catalog.get();
      for (const View& v : scenario.views.views()) {
        input.view_rules.push_back(v.definition.ToString());
      }
      input.base = &scenario.base;
      auto store = bench::Unwrap(SessionStore::Attach(dir, options), "attach");
      Status committed = store->Snapshot(input);
      if (!committed.ok()) {
        std::fprintf(stderr, "F12 snapshot failed: %s\n",
                     committed.ToString().c_str());
        return 1;
      }
      return 0;
    }();
    std::_Exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "F12 database build failed in the child process\n");
    std::abort();
  }
}

std::unique_ptr<F12Setup> MakeSetup(int db_size, bool use_mmap) {
  auto setup = std::make_unique<F12Setup>();
  setup->dir = "bench_f12_" + std::to_string(db_size) +
               (use_mmap ? "_mmap" : "_columnar");
  setup->options.use_mmap = use_mmap;
  setup->options.sync = false;  // measuring open/answer, not fsync
  WipeDir(setup->dir);
  CreatedDirs().push_back(setup->dir);

  BuildDatabaseInChild(db_size, setup->dir, setup->options);
  std::vector<std::string> files =
      bench::Unwrap(ListDir(setup->dir), "list");
  for (const std::string& name : files) {
    setup->file_mb +=
        static_cast<double>(
            bench::Unwrap(FileSize(setup->dir + "/" + name), "size")) /
        (1024.0 * 1024.0);
  }

  // Open phase: attach + recover, then drop the store (keeps the mounted
  // extents, releases the lock).
  double rss0 = RssMb();
  double anon0 = StatusMb("RssAnon:");
  double file0 = StatusMb("RssFile:");
  {
    auto store = bench::Unwrap(
        SessionStore::Attach(setup->dir, setup->options), "reattach");
    setup->state = bench::Unwrap(store->Recover(), "recover");
  }
  setup->rss_open_mb = RssMb() - rss0;

  // The F5 selective point query, parsed against the *recovered* catalog,
  // primed once so the benchmark loop measures the warm steady state.
  setup->selective = bench::Unwrap(
      ParseQuery("qsel(C, R) :- sale(C, P), product(P, 5001), customer(C, R).",
                 setup->state.catalog.get()),
      "selective query");
  bench::Unwrap(
      EvaluateQuery(setup->selective, setup->state.base, IndexedOptions()),
      "prime");
  setup->rss_answer_mb = RssMb() - rss0;
  setup->rss_anon_mb = StatusMb("RssAnon:") - anon0;
  setup->rss_file_mb = StatusMb("RssFile:") - file0;
  return setup;
}

F12Setup& GetSetup(int db_size, bool use_mmap) {
  static auto* cache = new std::map<std::pair<int, bool>,
                                    std::unique_ptr<F12Setup>>();
  std::unique_ptr<F12Setup>& slot = (*cache)[{db_size, use_mmap}];
  if (slot == nullptr) slot = MakeSetup(db_size, use_mmap);
  return *slot;
}

void ExportCounters(benchmark::State& state, const F12Setup& setup) {
  state.counters["file_mb"] = setup.file_mb;
  state.counters["rss_open_mb"] = setup.rss_open_mb;
  state.counters["rss_answer_mb"] = setup.rss_answer_mb;
  state.counters["rss_anon_mb"] = setup.rss_anon_mb;
  state.counters["rss_file_mb"] = setup.rss_file_mb;
  state.counters["base_tuples"] =
      static_cast<double>(setup.state.base.TotalTuples());
}

void BM_F12_OpenRecover(benchmark::State& state) {
  F12Setup& setup = GetSetup(static_cast<int>(state.range(0)),
                             state.range(1) != 0);
  uint64_t rows = 0;
  for (auto _ : state) {
    auto store = bench::Unwrap(
        SessionStore::Attach(setup.dir, setup.options), "attach");
    RecoveredState recovered = bench::Unwrap(store->Recover(), "recover");
    rows = recovered.base.TotalTuples();
    benchmark::DoNotOptimize(recovered);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows) * state.iterations());
  ExportCounters(state, setup);
}

void BM_F12_SelectiveAnswerPersisted(benchmark::State& state) {
  F12Setup& setup = GetSetup(static_cast<int>(state.range(0)),
                             state.range(1) != 0);
  size_t answers = 0;
  EvalStats stats;
  for (auto _ : state) {
    stats = EvalStats();
    Relation r = bench::Unwrap(
        EvaluateQuery(setup.selective, setup.state.base, IndexedOptions(),
                      &stats),
        "eval");
    answers = r.size();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["index_hits"] = static_cast<double>(stats.index_hits);
  state.counters["index_builds"] = static_cast<double>(stats.index_builds);
  ExportCounters(state, setup);
}

/// size x {Columnar=0, Mmap=1}, labeled so reports read
/// BM_F12_.../<size>/Mmap:0|1.
void F12Args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"size", "Mmap"});
  for (int size : {100'000, 1'000'000}) {
    b->Args({size, 1});
    b->Args({size, 0});
  }
}

BENCHMARK(BM_F12_OpenRecover)->Apply(F12Args)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_F12_SelectiveAnswerPersisted)
    ->Apply(F12Args)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace aqv

int main(int argc, char** argv) {
  aqv::bench::Banner("F12", "answering off persisted extents: mmap vs "
                            "eager columnar open (args: fact-table size, "
                            "mmap=0/1)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
