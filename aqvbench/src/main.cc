// aqvbench: the repository benchmark. One workload per process:
//
//   aqvbench --workload plan_cold|serve_hot|ingest_durable --seed N
//            --seconds S --trace 0|1 --work-dir DIR
//            [--git-sha SHA] [--source-sha256 HEX]
//   aqvbench --self-test --work-dir DIR
//
// With --trace 0 it measures the end-to-end metrics over TCP and checks
// every response against a mirror Session; with --trace 1 it runs the layer
// ledger (ledger.h). The last stdout line is the result JSON; the lines
// before it give provenance, traffic verification and every metric with its
// unit. README.md documents the metrics and workloads.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "harness.h"
#include "ledger.h"
#include "traffic.h"

namespace aqvbench {
namespace {

/// A timed phase replays a fixed stream sized for --seconds on the reference
/// machine; it is cut at this multiple of --seconds on a slower one.
constexpr double kDeadlineFactor = 3.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;
/// The traced run makes three passes that each do two to three times an
/// untraced run's work per command, over this leading share of the stream.
constexpr double kTracedScale = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string work_dir = ".bench_build";
  std::string git_sha = "unknown";
  std::string source_sha256 = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "aqvbench: %s\nusage: aqvbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--git-sha <sha>] [--source-sha256 <hex>]\n"
               "       aqvbench --self-test [--work-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else if (flag == "--source-sha256") {
      a.source_sha256 = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!a.self_test && a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  if (a.work_dir.find_first_of(" \t") != std::string::npos) Usage("--work-dir has whitespace");
  return a;
}

[[noreturn]] void Fail(const std::string& why) {
  std::fprintf(stderr, "aqvbench: %s\n", why.c_str());
  std::exit(1);
}

std::string DataRoot(const Args& a) {
  return a.work_dir + "/data/" + a.workload + "-seed" + std::to_string(a.seed) + "-" +
         std::to_string(::getpid());
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ProvenanceJson(const Args& a, const Traffic& t, const std::string& data_root) {
  return std::string("{\"git_sha\": ") + JsonString(a.git_sha) +
         ", \"source_sha256\": " + JsonString(a.source_sha256) +
         ", \"build_type\": " + JsonString(AQVBENCH_BUILD_TYPE) +
         ", \"compiler\": " + JsonString(AQVBENCH_COMPILER) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"workload\": " + JsonString(a.workload) + ", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + JsonNumber(a.seconds) + ", \"traced\": " +
         (a.trace != 0 ? "true" : "false") + ", \"loop\": \"closed, " +
         std::to_string(t.connections()) + " connections, " + std::to_string(kServiceWorkers) +
         " service workers\", \"params\": " + t.params_json +
         ", \"flush_policy\": \"fsync before every acknowledged journaled write and "
         "snapshot (StoreOptions::sync = true)\", \"data_dir\": " +
         JsonString(t.store_dirs[0].empty() ? "(none: the workload never saves)" : data_root) +
         "}";
}

std::string TrafficJson(const StreamSummary& s, const PhaseResult* phase) {
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(s.hash));
  std::string out = std::string("{\"stream_fnv1a\": \"") + hash + "\"";
  for (const char* which : {"generated", "issued"}) {
    const auto& counts = std::strcmp(which, "generated") == 0 ? s.generated : s.issued;
    out += std::string(", \"") + which + "\": {";
    for (int c = 0; c < kNumClasses; ++c) {
      if (c > 0) out += ", ";
      out += std::string("\"") + ClassName(static_cast<CmdClass>(c)) +
             "\": " + std::to_string(counts[c]);
    }
    out += "}";
  }
  out += ", \"rewrites\": " + std::to_string(s.rewrites) +
         ", \"rewrite_repeat_share\": " + JsonNumber(s.rewrite_repeat_share);
  if (phase != nullptr) {
    out += ", \"server_plan_cache_hit_rate\": " + JsonNumber(phase->plan_cache.hit_rate()) +
           ", \"server_plan_cache_lookups\": " + std::to_string(phase->plan_cache.lookups()) +
           ", \"server_oracle_hit_rate\": " + JsonNumber(phase->oracle.hit_rate()) +
           ", \"server_oracle_lookups\": " + std::to_string(phase->oracle.lookups());
  }
  return out + "}";
}

/// Latencies of one class over every connection's timed commands.
std::vector<double> ClassLatencies(const PhaseResult& phase, CmdClass cls) {
  std::vector<double> out;
  for (const ConnLog& log : phase.conns) {
    for (size_t i = 0; i < log.latency_ms.size(); ++i) {
      if (log.classes[i] == cls) out.push_back(log.latency_ms[i]);
    }
  }
  return out;
}

void WriteResultFile(const Args& a, const std::string& body) {
  std::string dir = a.work_dir + "/results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream(dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                std::to_string(a.trace) + ".json")
      << body << "\n";
}

int RunUntraced(const Args& a) {
  const std::string data_root = DataRoot(a);
  const Clock::time_point g0 = Clock::now();
  auto traffic = BuildTraffic(a.workload, a.seed, a.seconds / 10.0, data_root);
  if (!traffic.ok()) Fail(traffic.status().ToString());
  const double generate_s = MsSince(g0, Clock::now()) / 1000.0;
  std::string provenance = ProvenanceJson(a, *traffic, data_root);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  auto phase = RunServerPhase(*traffic, kDeadlineFactor * a.seconds, kSetupReps, data_root,
                              nullptr);
  if (!phase.ok()) Fail(phase.status().ToString());
  if (phase->hit_deadline) std::printf("warning: the deadline cut the timed streams short\n");
  std::vector<size_t> issued = phase->Issued();
  std::string traffic_json = TrafficJson(Summarize(*traffic, issued), &*phase);
  std::printf("traffic %s\n", traffic_json.c_str());

  auto compared = CheckOutputs(*traffic, *phase);
  const bool correct = compared.ok();
  if (correct) {
    std::printf("check ok: %llu responses byte-identical to the mirror%s\n",
                static_cast<unsigned long long>(*compared),
                traffic->store_dirs[0].empty() ? "" : "; recovered stores match");
  } else {
    std::printf("check FAILED: %s\n", compared.status().ToString().c_str());
  }

  uint64_t failed = 0;
  for (const ConnLog& log : phase->conns) failed += log.errors;
  const std::vector<double> rewrite = ClassLatencies(*phase, CmdClass::kRewrite);
  const std::vector<double> answer = ClassLatencies(*phase, CmdClass::kAnswer);
  const std::vector<double> write = ClassLatencies(*phase, CmdClass::kWrite);
  const std::vector<double> save = ClassLatencies(*phase, CmdClass::kSave);
  const std::vector<double> explain = ClassLatencies(*phase, CmdClass::kExplain);

  // Gated metrics: present on every workload (BENCHMARK.json end_to_end).
  std::vector<Metric> gated = {
      {"throughput_cmd_s", phase->throughput, "1/s"},
      {"rewrite_p50_ms", Median(rewrite), "ms"},
      {"answer_p50_ms", Median(answer), "ms"},
      {"write_p50_ms", Median(write), "ms"},
      {"rss_mb", phase->rss_mb, "MB"},
      {"setup_s", Median(phase->setup_s), "s"},
  };
  for (const Metric& m : gated) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Workload-specific metrics: printed where the workload issues the class
  // and the figure is steady; not part of the result line.
  std::vector<Metric> extra;
  extra.push_back({"failed_share",
                   static_cast<double>(failed) / static_cast<double>(phase->commands), "share"});
  for (CmdClass cls : traffic->tail_classes) {
    extra.push_back({std::string(ClassName(cls)) + "_p99_ms",
                     Percentile(ClassLatencies(*phase, cls), 0.99), "ms"});
  }
  if (!explain.empty()) extra.push_back({"explain_p50_ms", Median(explain), "ms"});
  if (!save.empty()) extra.push_back({"save_p50_ms", Median(save), "ms"});
  for (const Metric& m : extra) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("samples rewrite=%zu explain=%zu answer=%zu write=%zu save=%zu setup_reps=%zu "
              "wall_s=%.3f generate_s=%.3f\n",
              rewrite.size(), explain.size(), answer.size(), write.size(), save.size(),
              phase->setup_s.size(), phase->wall_s, generate_s);

  std::vector<Metric> all = gated;
  all.insert(all.end(), extra.begin(), extra.end());
  WriteResultFile(a, "{\"provenance\": " + provenance + ", \"traffic\": " + traffic_json +
                         ", \"correct\": " + (correct ? "true" : "false") +
                         ", \"metrics\": " + MetricsJson(all) + "}");
  std::error_code ec;
  std::filesystem::remove_all(data_root, ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(phase->commands),
              static_cast<unsigned long long>(failed), MetricsJson(gated).c_str());
  return 0;
}

int RunTraced(const Args& a) {
  const std::string data_root = DataRoot(a);
  auto traffic = BuildTraffic(a.workload, a.seed, kTracedScale * a.seconds / 10.0, data_root);
  if (!traffic.ok()) Fail(traffic.status().ToString());
  std::string provenance = ProvenanceJson(a, *traffic, data_root);
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);
  std::error_code ec;
  std::filesystem::create_directories(a.work_dir + "/traces", ec);
  const std::string spans_path = a.work_dir + "/traces/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".spans.csv";
  auto ledger = RunLedger(*traffic, kDeadlineFactor * a.seconds, data_root, spans_path);
  if (!ledger.ok()) Fail(ledger.status().ToString());
  std::printf("spans %llu written to %s\n", static_cast<unsigned long long>(ledger->spans),
              spans_path.c_str());
  if (ledger->correct) {
    std::printf("check ok: %llu responses matched\n",
                static_cast<unsigned long long>(ledger->compared));
  } else {
    std::printf("check FAILED: %s\n", ledger->first_mismatch.c_str());
  }
  for (const Metric& m : ledger->metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  WriteResultFile(a, "{\"provenance\": " + provenance + ", \"spans\": " +
                         JsonString(spans_path) + ", \"correct\": " +
                         (ledger->correct ? "true" : "false") +
                         ", \"metrics\": " + MetricsJson(ledger->metrics) + "}");
  std::filesystem::remove_all(data_root, ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              ledger->correct ? "true" : "false",
              static_cast<unsigned long long>(ledger->attempted),
              static_cast<unsigned long long>(ledger->failed),
              MetricsJson(ledger->metrics).c_str());
  return 0;
}

/// Checks the instruments themselves: peak RSS sees a known allocation,
/// the stream hash is a function of the seed, and the output check catches
/// a tampered response.
int SelfTest(const Args& a) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  {
    const double before = PeakRssMb();
    std::vector<char> block(size_t{96} << 20);
    std::memset(block.data(), 1, block.size());
    const double after = PeakRssMb();
    expect(after - before >= 90.0 && block[block.size() / 2] == 1,
           "rss_mb grows by a 96 MiB touched allocation (" + std::to_string(before) + " -> " +
               std::to_string(after) + " MB)");
  }
  for (const std::string& w : WorkloadNames()) {
    auto t1 = BuildTraffic(w, 7, 0.02, a.work_dir + "/selftest");
    auto t2 = BuildTraffic(w, 7, 0.02, a.work_dir + "/selftest");
    auto t3 = BuildTraffic(w, 8, 0.02, a.work_dir + "/selftest");
    if (!t1.ok() || !t2.ok() || !t3.ok()) {
      expect(false, w + ": traffic builds");
      continue;
    }
    std::vector<size_t> none(2, 0);
    const uint64_t h1 = Summarize(*t1, none).hash, h2 = Summarize(*t2, none).hash,
                   h3 = Summarize(*t3, none).hash;
    expect(h1 == h2, w + ": same seed, same stream hash");
    expect(h1 != h3, w + ": different seed, different stream hash");
  }
  {
    const std::string root = a.work_dir + "/selftest/ingest";
    auto t = BuildTraffic("ingest_durable", 7, 0.05, root);
    auto phase = t.ok() ? RunServerPhase(*t, 0.5, 1, root, nullptr)
                        : aqv::Result<PhaseResult>(t.status());
    expect(phase.ok() && CheckOutputs(*t, *phase).ok(),
           "tiny ingest_durable run passes the output and recovery check");
    if (phase.ok() && !phase->conns[0].timed_responses.empty()) {
      PhaseResult tampered = *phase;
      ConnLog& log = tampered.conns[0];
      log.timed_responses.back() = log.pool.Intern("tampered\nok\n");
      expect(!CheckOutputs(*t, tampered).ok(), "the output check rejects a tampered response");
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(a.work_dir + "/selftest", ec);
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aqvbench

int main(int argc, char** argv) {
  aqvbench::Args args = aqvbench::ParseArgs(argc, argv);
  if (args.self_test) return aqvbench::SelfTest(args);
  return args.trace != 0 ? aqvbench::RunTraced(args) : aqvbench::RunUntraced(args);
}
