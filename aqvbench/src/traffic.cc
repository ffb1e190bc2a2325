#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common.h"
#include "frontend/differential.h"
#include "frontend/replay.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace aqvbench {
namespace {

using aqv::GeneratedScenarioSpec;
using aqv::Result;
using aqv::Status;

/// The generated scenario's command lines (views, facts, query).
Result<std::vector<std::string>> ScenarioLines(const GeneratedScenarioSpec& spec,
                                               aqv::Scenario* keep = nullptr) {
  AQV_ASSIGN_OR_RETURN(aqv::Scenario scenario, aqv::GenerateScenario(spec));
  AQV_ASSIGN_OR_RETURN(std::string script, aqv::ScriptFromScenario(scenario));
  if (keep != nullptr) *keep = std::move(scenario);
  std::vector<std::string> lines;
  for (std::string& line : aqv::SplitScriptLines(script)) {
    if (!line.empty() && line[0] != '%') lines.push_back(std::move(line));  // no comments
  }
  return lines;
}

int Scaled(int n, double scale) {
  return std::max(1, static_cast<int>(std::lround(n * scale)));
}

// --- plan_cold ------------------------------------------------------------
// Many distinct schema-design sessions: each scenario is built, interrogated
// by every rewriting engine, explained, answered once over its three facts
// per predicate, and reset. No problem statement repeats, so every rewrite
// misses the plan cache and runs an engine.
//
// Scenario cost is heavy-tailed (the slowest tenth of scenarios takes about
// half the time), so a few hundred scenarios drawn per seed would make the
// throughput a property of the seed. The scenarios are therefore a fixed
// reference sequence; the seed draws the order of each scenario's probes.
constexpr int kColdViews = 50;
constexpr int kColdFacts = 3;
constexpr int kColdScenarios = 220;  // per connection, at scale 1
constexpr int kColdWarmup = 2;       // per connection
constexpr uint64_t kColdSchemaSeed = 20261017;

GeneratedScenarioSpec ColdSpec(uint64_t stream, int i) {
  GeneratedScenarioSpec spec;
  spec.seed = MixSeed(kColdSchemaSeed, stream, static_cast<uint64_t>(i));
  spec.num_views = kColdViews;
  spec.query_atoms = 3 + (i % 2);
  spec.facts_per_predicate = kColdFacts;
  return spec;
}

Status AppendColdScenario(const GeneratedScenarioSpec& spec, aqv::Rng* rng,
                          std::vector<std::string>* out) {
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> lines, ScenarioLines(spec));
  out->insert(out->end(), lines.begin(), lines.end());
  std::vector<std::string> probes = {"rewrite with lmss", "rewrite with minicon",
                                     "rewrite with bucket", "explain",
                                     "answer route complete"};
  rng->Shuffle(&probes);
  out->insert(out->end(), probes.begin(), probes.end());
  out->push_back("reset");
  return Status::OK();
}

Status BuildPlanCold(uint64_t seed, double scale, Traffic* t) {
  const int scenarios = Scaled(kColdScenarios, scale);
  for (int c = 0; c < 2; ++c) {
    aqv::Rng rng(MixSeed(seed, 50, static_cast<uint64_t>(c)));
    // Warm-up scenarios come from their own stream (c + 2), so no timed
    // problem statement repeats one seen during set-up.
    for (int i = 0; i < kColdWarmup; ++i) {
      AQV_RETURN_NOT_OK(AppendColdScenario(ColdSpec(c + 2, i), &rng, &t->setup[c]));
    }
    for (int i = 0; i < scenarios; ++i) {
      AQV_RETURN_NOT_OK(AppendColdScenario(ColdSpec(c, i), &rng, &t->timed[c]));
    }
  }
  t->tail_classes = {CmdClass::kRewrite};
  t->params_json = "{\"connections\": 2, \"schema_seed\": " + std::to_string(kColdSchemaSeed) +
                   ", \"views_per_scenario\": " + std::to_string(kColdViews) +
                   ", \"query_atoms\": \"3-4\", \"facts_per_predicate\": " +
                   std::to_string(kColdFacts) +
                   ", \"scenarios_per_connection\": " + std::to_string(scenarios) +
                   ", \"warmup_scenarios_per_connection\": " + std::to_string(kColdWarmup) +
                   ", \"probes\": \"rewrite with lmss|minicon|bucket, explain, "
                   "answer route complete (seeded order), reset\"}";
  return Status::OK();
}

// --- serve_hot ------------------------------------------------------------
// Both connections load one shared schema with enough data that answers
// take milliseconds, then repeat a small menu of problem statements: three
// chain queries over the same views, each probed by every engine and every
// answer route. After the warm-up every rewrite is a plan-cache hit.
constexpr int kHotViews = 30;
constexpr int kHotFacts = 250;
constexpr int kHotDomain = 3000;
// The schema is a fixed reference instance: one schema per seed would make
// the answer cost a property of the seed rather than of the program. The
// seed draws the probe sequence.
constexpr uint64_t kHotSchemaSeed = 20261017;
constexpr int kHotBlocks = 1500;  // per connection, at scale 1
const char* const kHotProbes[] = {
    "rewrite with lmss",   "rewrite with minicon",  "rewrite with bucket",
    "answer route direct", "answer route complete", "answer route cost"};

/// "query q(...) :- ..." for the sub-chain [from, to) of a chain query.
std::string SubChainQuery(const aqv::Scenario& s, size_t from, size_t to) {
  const aqv::Query& q = s.query;
  const auto& body = q.body();
  std::string text = "query q(" + q.var_name(body[from].args.front().var()) +
                     ", " + q.var_name(body[to - 1].args.back().var()) + ") :- ";
  for (size_t i = from; i < to; ++i) {
    if (i > from) text += ", ";
    text += body[i].ToString(*s.catalog, q.var_names());
  }
  return text + ".";
}

Status BuildServeHot(uint64_t seed, double scale, Traffic* t) {
  GeneratedScenarioSpec spec;
  spec.seed = kHotSchemaSeed;
  spec.num_views = kHotViews;
  spec.query_atoms = 3;
  spec.facts_per_predicate = kHotFacts;
  spec.domain_size = kHotDomain;
  aqv::Scenario scenario;
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> load, ScenarioLines(spec, &scenario));
  const size_t n = scenario.query.body().size();
  const std::vector<std::string> queries = {SubChainQuery(scenario, 0, n),
                                            SubChainQuery(scenario, 0, n - 1),
                                            SubChainQuery(scenario, 1, n)};
  const int blocks = Scaled(kHotBlocks, scale);
  for (int c = 0; c < 2; ++c) {
    std::vector<std::string>& setup = t->setup[c];
    setup = load;
    for (const std::string& q : queries) {
      setup.push_back(q);
      for (const char* probe : kHotProbes) setup.push_back(probe);
    }
    // Every query is probed by every probe equally often; the seed draws
    // only the order. (Drawing each probe independently let the mix of
    // fast and slow answer routes, and so the answer median, vary by seed.)
    aqv::Rng rng(MixSeed(seed, 200, static_cast<uint64_t>(c)));
    std::vector<size_t> order = {0, 1, 2};
    std::vector<std::string> probes(std::begin(kHotProbes), std::end(kHotProbes));
    for (int b = 0; b < blocks; ++b) {
      if (b % 3 == 0) rng.Shuffle(&order);
      t->timed[c].push_back(queries[order[b % 3]]);
      rng.Shuffle(&probes);
      t->timed[c].insert(t->timed[c].end(), probes.begin(), probes.end());
    }
  }
  t->tail_classes = {CmdClass::kAnswer};
  t->params_json = "{\"connections\": 2, \"schema_seed\": " + std::to_string(kHotSchemaSeed) +
                   ", \"views\": " + std::to_string(kHotViews) +
                   ", \"facts_per_predicate\": " + std::to_string(kHotFacts) +
                   ", \"domain_size\": " + std::to_string(kHotDomain) +
                   ", \"query_variants\": 3, \"blocks_per_connection\": " +
                   std::to_string(blocks) +
                   ", \"block\": \"query (each of the 3 once per 3 blocks) + rewrite with "
                   "lmss|minicon|bucket and answer route direct|complete|cost, each once, "
                   "in seeded order\"}";
  return Status::OK();
}

// --- ingest_durable -------------------------------------------------------
// Each connection streams scenarios into a store-attached session: every
// view/fact/query/reset is journaled (fsync before the acknowledgement),
// small reads are interleaved, and a periodic save compacts the journal
// into a new snapshot. A cycle is one scenario: reset, save (attach), the
// query, its views, then its facts. The scenarios are a fixed reference
// sequence, as in plan_cold (the cost of a read depends on the scenario's
// join sizes); the seed draws the order in which each cycle's facts arrive.
constexpr int kIngestViews = 40;
constexpr int kIngestFacts = 100;
constexpr int kIngestCycles = 42;      // per connection, at scale 1
constexpr int kIngestReadEvery = 20;   // writes between reads
constexpr int kIngestSaveEvery = 250;  // writes between compactions
constexpr uint64_t kIngestSchemaSeed = 20261018;

Status AppendIngestCycle(uint64_t scenario_seed, const std::string& dir, aqv::Rng* rng,
                         std::vector<std::string>* out) {
  GeneratedScenarioSpec spec;
  spec.seed = scenario_seed;
  spec.num_views = kIngestViews;
  spec.query_atoms = 3;
  spec.facts_per_predicate = kIngestFacts;
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> lines, ScenarioLines(spec));
  std::vector<std::string> writes, facts;
  for (const std::string& line : lines) {
    if (FirstWord(line) == "query") writes.insert(writes.begin(), line);
  }
  for (const std::string& line : lines) {
    std::string_view word = FirstWord(line);
    if (word == "view") writes.push_back(line);
    if (word == "fact") facts.push_back(line);
  }
  rng->Shuffle(&facts);
  writes.insert(writes.end(), facts.begin(), facts.end());
  out->push_back("reset");
  out->push_back("save " + dir);
  int reads = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    out->push_back(writes[i]);
    size_t done = i + 1;
    if (done % kIngestSaveEvery == 0) out->push_back("save " + dir);
    if (done % kIngestReadEvery == 0) {
      out->push_back(reads++ % 2 == 0 ? "answer route direct" : "rewrite with minicon");
    }
  }
  out->push_back("save " + dir);
  return Status::OK();
}

Status BuildIngestDurable(uint64_t seed, double scale, const std::string& data_root,
                          Traffic* t) {
  const int cycles = Scaled(kIngestCycles, scale);
  for (int c = 0; c < 2; ++c) {
    const std::string& dir = t->store_dirs[c] = data_root + "/c" + std::to_string(c);
    aqv::Rng rng(MixSeed(seed, 300, static_cast<uint64_t>(c)));
    AQV_RETURN_NOT_OK(AppendIngestCycle(
        MixSeed(kIngestSchemaSeed, static_cast<uint64_t>(c) + 2), dir, &rng, &t->setup[c]));
    for (int i = 0; i < cycles; ++i) {
      AQV_RETURN_NOT_OK(AppendIngestCycle(
          MixSeed(kIngestSchemaSeed, static_cast<uint64_t>(c), static_cast<uint64_t>(i)), dir,
          &rng, &t->timed[c]));
    }
  }
  t->params_json = "{\"connections\": 2, \"schema_seed\": " +
                   std::to_string(kIngestSchemaSeed) + ", \"views_per_cycle\": " +
                   std::to_string(kIngestViews) + ", \"facts_per_predicate\": " +
                   std::to_string(kIngestFacts) + ", \"cycles_per_connection\": " +
                   std::to_string(cycles) + ", \"read_every_writes\": " +
                   std::to_string(kIngestReadEvery) + ", \"save_every_writes\": " +
                   std::to_string(kIngestSaveEvery) +
                   ", \"reads\": \"answer route direct | rewrite with minicon\", "
                   "\"fact_order\": \"seeded shuffle per cycle\"}";
  return Status::OK();
}

/// Tracks one connection's problem statement while a stream is scanned.
struct StatementTracker {
  std::string query;
  std::string views;

  /// Returns the statement key of a `rewrite` line, "" for other lines.
  std::string Step(const std::string& line) {
    std::string_view word = FirstWord(line);
    if (word == "reset") {
      query.clear();
      views.clear();
    } else if (word == "query") {
      query = line;
    } else if (word == "view") {
      views += line;
      views += '\n';
    } else if (word == "rewrite") {
      return line + '\n' + query + '\n' + views;
    }
    return "";
  }
};

}  // namespace

CmdClass ClassOf(std::string_view line) {
  std::string_view word = FirstWord(line);
  if (word == "view" || word == "fact" || word == "query" || word == "reset") {
    return CmdClass::kWrite;
  }
  if (word == "rewrite") return CmdClass::kRewrite;
  if (word == "explain") return CmdClass::kExplain;
  if (word == "answer") return CmdClass::kAnswer;
  if (word == "save") return CmdClass::kSave;
  return CmdClass::kOther;
}

const char* ClassName(CmdClass c) {
  switch (c) {
    case CmdClass::kWrite: return "write";
    case CmdClass::kRewrite: return "rewrite";
    case CmdClass::kExplain: return "explain";
    case CmdClass::kAnswer: return "answer";
    case CmdClass::kSave: return "save";
    case CmdClass::kOther: return "other";
  }
  return "other";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"plan_cold", "serve_hot",
                                                 "ingest_durable"};
  return names;
}

Result<Traffic> BuildTraffic(const std::string& workload, uint64_t seed, double scale,
                             const std::string& data_root) {
  Traffic t;
  t.workload = workload;
  t.seed = seed;
  t.setup.resize(2);
  t.timed.resize(2);
  t.store_dirs.resize(2);
  if (workload == "plan_cold") {
    AQV_RETURN_NOT_OK(BuildPlanCold(seed, scale, &t));
  } else if (workload == "serve_hot") {
    AQV_RETURN_NOT_OK(BuildServeHot(seed, scale, &t));
  } else if (workload == "ingest_durable") {
    AQV_RETURN_NOT_OK(BuildIngestDurable(seed, scale, data_root, &t));
  } else {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  return t;
}

StreamSummary Summarize(const Traffic& traffic, const std::vector<size_t>& issued) {
  StreamSummary s;
  s.hash = Fnv1a(traffic.workload);
  for (int c = 0; c < traffic.connections(); ++c) {
    for (const auto* stream : {&traffic.setup[c], &traffic.timed[c]}) {
      for (const std::string& line : *stream) {
        s.hash = Fnv1a(line, Fnv1a("\n", s.hash));
        ++s.generated[static_cast<int>(ClassOf(line))];
      }
    }
  }
  std::unordered_set<std::string> seen;
  for (int c = 0; c < traffic.connections(); ++c) {
    StatementTracker tracker;
    for (const std::string& line : traffic.setup[c]) {
      std::string key = tracker.Step(line);
      if (!key.empty()) seen.insert(std::move(key));
    }
  }
  uint64_t repeats = 0;
  for (int c = 0; c < traffic.connections(); ++c) {
    StatementTracker tracker;
    for (const std::string& line : traffic.setup[c]) (void)tracker.Step(line);
    const size_t n = std::min(issued[c], traffic.timed[c].size());
    for (size_t i = 0; i < n; ++i) {
      const std::string& line = traffic.timed[c][i];
      ++s.issued[static_cast<int>(ClassOf(line))];
      std::string key = tracker.Step(line);
      if (key.empty()) continue;
      ++s.rewrites;
      if (!seen.insert(std::move(key)).second) ++repeats;
    }
  }
  s.rewrite_repeat_share =
      s.rewrites == 0 ? 0.0 : static_cast<double>(repeats) / static_cast<double>(s.rewrites);
  return s;
}

}  // namespace aqvbench
