// Tests of the parallel optimization pipeline (core/pipeline.h): SCC
// dependency groups come out in valid topological order, every jobs value
// writes the same program, report and workload calls — at whole-program
// quality, callers ordered against their callees' specialized versions —
// and a fault injected into one dependency group quarantines only that
// group while the rest of the program is optimized at full strength. A
// golden test pins the written output of a layered program at jobs=0, 1
// and 4, another what a run past its deadline writes and reports. A second
// run over a shared analysis cache adopts every group, and an edit that
// changes only how a caller calls an unchanged callee group does not
// replay that group's stale entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/modes.h"
#include "common/cancellation.h"
#include "core/analysis_cache.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/pipeline.h"
#include "engine/machine.h"
#include "programs/programs.h"
#include "programs/workload_runner.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore {
namespace {

using core::GuardedPipeline;
using core::LadderLevel;
using core::PipelineOptions;
using core::PredOutcome;
using core::TransformFaultPlan;
using term::PredId;
using term::TermStore;

// Three independent clusters plus a mutually recursive pair, so the call
// graph condenses into several dependency groups including one multi-
// predicate SCC. No edges between clusters: abundant parallelism.
const char kMultiCluster[] = R"(
parent(tom, bob).
parent(tom, liz).
parent(bob, ann).
parent(bob, pat).
parent(pat, jim).
male(tom). male(bob). male(jim).
female(liz). female(ann). female(pat).
grand(X, Z) :- parent(X, Y), parent(Y, Z).
sib(X, Y) :- parent(P, X), parent(P, Y), X \== Y.
uncle(X, Y) :- sib(X, P), male(X), parent(P, Y).
edge(a, b).
edge(b, c).
edge(c, d).
edge(d, a).
path2(X, Y) :- edge(X, Z), edge(Z, Y).
triple(X, Y, Z) :- edge(X, Y), path2(Y, Z).
even(0).
even(X) :- X > 0, Y is X - 1, odd(Y).
odd(X) :- X > 0, Y is X - 1, even(Y).
)";

const std::vector<std::string> kClusterQueries = {
    "grand(X, Z)",  "sib(X, Y)",  "uncle(X, Y)", "path2(X, Y)",
    "triple(X, Y, Z)", "even(6)", "odd(7)"};

const PredOutcome* FindOutcome(const core::PipelineReport& report,
                               const std::string& name) {
  for (const PredOutcome& o : report.preds) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

/// stage_error hook failing `pred_name` at `stage` ("*" = every stage).
/// The closure only reads original PredIds (the pipeline checks faults
/// before renaming) and the store's symbol table, which no one writes
/// while groups plan — safe to call from the pipeline's worker threads.
TransformFaultPlan FaultFor(const TermStore& store,
                            const std::string& pred_name,
                            const std::string& stage) {
  TransformFaultPlan plan;
  plan.stage_error = [&store, pred_name, stage](
                         const PredId& pred,
                         const char* at) -> prore::Status {
    if (reader::PredName(store, pred) != pred_name) {
      return prore::Status::OK();
    }
    if (stage != "*" && stage != at) return prore::Status::OK();
    return prore::Status::Internal("sabotaged " + stage + " stage");
  };
  return plan;
}

void ExpectSetEquivalent(TermStore* store, const reader::Program& original,
                         const reader::Program& transformed) {
  core::Evaluator eval(store, original, transformed);
  for (const std::string& query : kClusterQueries) {
    auto c = eval.CompareQuery(query);
    ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
    EXPECT_TRUE(c->set_equivalent) << query;
    EXPECT_EQ(c->original_answers, c->reordered_answers) << query;
  }
}

TEST(DependencyGroupsTest, TopologicalOrderIsValid) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  auto graph = analysis::CallGraph::Build(store, *program);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);

  ASSERT_GT(dg.size(), 1u);
  size_t total_members = 0;
  for (size_t g = 0; g < dg.size(); ++g) {
    total_members += dg.groups[g].size();
    // Callees-first order: every dependency is an earlier group.
    for (size_t dep : dg.deps[g]) {
      EXPECT_LT(dep, g);
    }
    // group_of is the inverse of the membership lists.
    for (const PredId& p : dg.groups[g]) {
      auto it = dg.group_of.find(p);
      ASSERT_NE(it, dg.group_of.end());
      EXPECT_EQ(it->second, g);
    }
    // The transitive closure contains the direct dependencies.
    std::vector<size_t> closure = dg.TransitiveDeps(g);
    std::set<size_t> closure_set(closure.begin(), closure.end());
    for (size_t dep : dg.deps[g]) {
      EXPECT_EQ(closure_set.count(dep), 1u) << "group " << g;
    }
  }
  // Condensation is a partition: every defined predicate in one group.
  EXPECT_EQ(total_members, dg.group_of.size());
}

TEST(DependencyGroupsTest, MutualRecursionSharesOneGroup) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  auto graph = analysis::CallGraph::Build(store, *program);
  ASSERT_TRUE(graph.ok());
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);

  PredId even{store.symbols().Intern("even"), 1};
  PredId odd{store.symbols().Intern("odd"), 1};
  ASSERT_EQ(dg.group_of.count(even), 1u);
  ASSERT_EQ(dg.group_of.count(odd), 1u);
  EXPECT_EQ(dg.group_of.at(even), dg.group_of.at(odd));

  // Independent clusters land in distinct groups.
  PredId grand{store.symbols().Intern("grand"), 2};
  PredId path2{store.symbols().Intern("path2"), 2};
  ASSERT_EQ(dg.group_of.count(grand), 1u);
  ASSERT_EQ(dg.group_of.count(path2), 1u);
  EXPECT_NE(dg.group_of.at(grand), dg.group_of.at(path2));
}

TEST(ParallelPipelineTest, ShardedOutputBitIdenticalAcrossJobCounts) {
  // Reference: jobs=1 (inline execution).
  std::string reference_text;
  std::string reference_report;
  {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = 1;
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference_text = reader::WriteProgram(store, result->program);
    reference_report = result->report.ToJson();
    ExpectSetEquivalent(&store, *program, result->program);
  }

  for (size_t jobs : {size_t{2}, size_t{4}, size_t{8}}) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = jobs;
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(reader::WriteProgram(store, result->program), reference_text)
        << "jobs=" << jobs;
    EXPECT_EQ(result->report.ToJson(), reference_report)
        << "jobs=" << jobs;
  }
}

TEST(ParallelPipelineTest, ShardedAgreesWithClassicOnAnswers) {
  // jobs=0 is no separate pipeline: it runs the groups inline like
  // jobs=1, so it writes the same text as a pooled run, and both preserve
  // the original program's answer sets.
  std::string texts[2];
  const size_t jobs[2] = {0, 2};
  for (int i = 0; i < 2; ++i) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    PipelineOptions options;
    options.jobs = jobs[i];
    GuardedPipeline pipeline(&store, options);
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSetEquivalent(&store, *program, result->program);
    texts[i] = reader::WriteProgram(store, result->program);
  }
  EXPECT_EQ(texts[0], texts[1]);
}

TEST(ParallelPipelineTest, FaultQuarantinesOnlyItsGroup) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  // Sabotage every transform stage of grand/2: its group must fall to
  // identity, everything outside the family cluster stays at full power.
  TransformFaultPlan plan = FaultFor(store, "grand/2", "*");
  PipelineOptions options;
  options.jobs = 2;
  options.fault = &plan;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->report.degraded());
  EXPECT_GT(plan.fired, 0u);
  const PredOutcome* grand = FindOutcome(result->report, "grand/2");
  ASSERT_NE(grand, nullptr);
  EXPECT_EQ(grand->level, LadderLevel::kIdentity);
  EXPECT_FALSE(grand->triggers.empty());

  // Predicates in unrelated dependency groups are untouched by the
  // injected fault. (triple/3 independently self-quarantines via its own
  // PL102 validator finding — deterministic, fault-free — so the blast
  // radius check is: nobody but grand/2 ever sees a sabotage trigger.)
  for (const char* name : {"path2/2", "even/1", "odd/1", "edge/2"}) {
    const PredOutcome* o = FindOutcome(result->report, name);
    ASSERT_NE(o, nullptr) << name;
    EXPECT_EQ(o->level, LadderLevel::kFull) << name;
    EXPECT_TRUE(o->triggers.empty()) << name;
  }
  for (const PredOutcome& o : result->report.preds) {
    if (o.name == "grand/2") continue;
    for (const std::string& t : o.triggers) {
      EXPECT_EQ(t.find("sabotaged"), std::string::npos)
          << o.name << ": " << t;
    }
  }

  // Quarantine preserves semantics: all clusters still answer correctly.
  ExpectSetEquivalent(&store, *program, result->program);
}

/// splitmix64, so the generated program is the same on every platform.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A seeded layered program of 4 * `clusters` predicates: each cluster is
/// base/left/right/top with a shuffled goal order in top, and every top
/// above the first layer also calls a random top of the layer below, so
/// the dependency groups come in several waves.
std::string LayeredProgram(uint64_t seed, int clusters, int layers) {
  uint64_t state = seed;
  const int per_layer = (clusters + layers - 1) / layers;
  std::ostringstream src;
  for (int c = 0; c < clusters; ++c) {
    const std::string id = std::to_string(c);
    const int facts = 3 + static_cast<int>(NextRandom(&state) % 4);
    for (int f = 0; f < facts; ++f) {
      src << "base" << id << "(" << f << ", " << (f + 1) << ").\n";
    }
    src << "left" << id << "(X, Y) :- base" << id << "(X, Y).\n";
    src << "left" << id << "(X, Y) :- base" << id << "(X, Z), base" << id
        << "(Z, Y).\n";
    src << "right" << id << "(X, Y) :- base" << id << "(Y, X).\n";
    std::vector<std::string> goals = {"left" + id + "(X, Z)",
                                      "right" + id + "(Z, Y)",
                                      "base" + id + "(X, _)"};
    if (const int layer = c / per_layer; layer > 0) {
      const int below = (layer - 1) * per_layer +
                        static_cast<int>(NextRandom(&state) % per_layer);
      goals.push_back("top" + std::to_string(below) + "(Y, Y)");
    }
    for (size_t i = goals.size(); i > 1; --i) {
      std::swap(goals[i - 1], goals[NextRandom(&state) % i]);
    }
    src << "top" << id << "(X, Y) :- ";
    for (size_t i = 0; i < goals.size(); ++i) {
      src << (i ? ", " : "") << goals[i];
    }
    src << ".\n";
  }
  return src.str();
}

/// 64-bit FNV-1a: a digest that is stable across compilers and platforms.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The written program followed by the per-version reports in the order
/// the versions were built, so the digest also pins the build order.
std::string Rendered(const TermStore& store, const core::PipelineResult& r) {
  std::string out = reader::WriteProgram(store, r.program);
  for (const core::PredModeReport& v : r.reports) {
    out += reader::PredName(store, v.pred) + " " +
           analysis::ModeString(v.mode) + " " + v.version_name + "\n";
  }
  return out;
}

// Digest of Rendered() for LayeredProgram(7, 75, 5), recorded when the
// order queue was still a linear scan and jobs=0 ran a separate whole-
// program pipeline. Any change to the order in which versions are built,
// to the written text, or to what a group sees of its callees changes it;
// every jobs value must reproduce it.
constexpr uint64_t kGolden = 16474549855009735601ull;

TEST(ParallelPipelineTest, LayeredOutputMatchesGoldenDigests) {
  const std::string source = LayeredProgram(7, 75, 5);
  for (size_t jobs : {size_t{0}, size_t{1}, size_t{4}}) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    ASSERT_EQ(program->NumPreds(), 300u);
    PipelineOptions options;
    options.jobs = jobs;
    auto result = GuardedPipeline(&store, options).Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->report.degraded()) << "jobs=" << jobs;
    EXPECT_EQ(Fnv1a(Rendered(store, *result)), kGolden) << "jobs=" << jobs;
  }
}

// report.ToJson() of the run below: a run past its deadline starts no
// work and ships the identity program, with the reason on record.
constexpr char kExpiredDeadlineReport[] =
    "{\"runs\":1,\"degraded\":true,\"quarantined\":12,"
    "\"global_trigger\":\"ResourceExhausted: deadline exceeded\","
    "\"unfold_disabled\":false,\"unfold_trigger\":\"\","
    "\"factor_disabled\":false,\"factor_trigger\":\"\","
    "\"absint_disabled\":false,\"absint_trigger\":\"\",\"preds\":["
    "{\"pred\":\"base0/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"left0/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"right0/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"top0/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"base1/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"left1/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"right1/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"top1/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"base2/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"left2/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"right2/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}"
    ",{\"pred\":\"top2/2\",\"level\":\"identity\",\"attempts\":1,"
    "\"retries\":0,\"fault_class\":\"\",\"clauses_changed\":false,"
    "\"goals_changed\":false,\"triggers\":[]}]}";

TEST(ParallelPipelineTest, ExpiredDeadlineShipsIdentityWithUnchangedReport) {
  const std::string source = LayeredProgram(13, 3, 3);
  TermStore store;
  auto program = reader::ParseProgramText(&store, source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  PipelineOptions options;
  options.jobs = 1;
  options.exec.deadline = Deadline::AfterMs(0);
  auto result = GuardedPipeline(&store, options).Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The identity program: the original clauses themselves, so the text is
  // the original's to the byte.
  EXPECT_EQ(reader::WriteProgram(store, result->program),
            reader::WriteProgram(store, *program));
  EXPECT_EQ(result->report.ToJson(), kExpiredDeadlineReport);
}

// The analysis cache must keep its own hits: a second jobs=1 run over the
// same source adopts every dependency group — none rejected by the
// re-validation — and writes the cold run's text. Every program here has
// clauses with `_`, which the cached text names `_G<n>`.
TEST(ParallelPipelineTest, SecondRunWithSharedCacheAdoptsEveryGroup) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const programs::BenchmarkProgram* bench : programs::AllPrograms()) {
    sources.emplace_back(bench->name, bench->source);
  }
  sources.emplace_back("layered", LayeredProgram(7, 75, 5));
  for (const auto& [name, source] : sources) {
    SCOPED_TRACE(name);
    core::AnalysisCache cache(4096);
    std::string cold_text;
    for (int run = 0; run < 2; ++run) {
      TermStore store;
      auto program = reader::ParseProgramText(&store, source);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      auto graph = analysis::CallGraph::Build(store, *program);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      const size_t groups = analysis::ComputeDependencyGroups(*graph).size();
      PipelineOptions options;
      options.jobs = 1;
      options.cache = &cache;
      auto result = GuardedPipeline(&store, options).Run(*program);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string text = reader::WriteProgram(store, result->program);
      if (run == 0) {
        EXPECT_EQ(result->report.cache_misses, groups);
        cold_text = text;
        continue;
      }
      EXPECT_EQ(result->report.cache_rejected, 0u);
      EXPECT_EQ(result->report.cache_hits, groups);
      EXPECT_EQ(text, cold_text);
    }
    EXPECT_EQ(cache.stats().invalidations, 0u);
  }
}

/// Calls made by `bench`'s workload against `source` (a reordered text).
uint64_t WorkloadCalls(const programs::BenchmarkProgram& bench,
                       const std::string& source) {
  programs::BenchmarkProgram copy = bench;
  copy.source = source;
  auto run = programs::RunWorkload(copy, engine::SolveOptions());
  EXPECT_TRUE(run.ok()) << bench.name << ": " << run.status().ToString();
  return run.ok() ? run->metrics.TotalCalls() : 0;
}

// One pipeline path: jobs=0, 1 and 4 write the same program and report,
// and the corpus runs its workloads in no more calls than the whole-
// program pipeline did before the paths were merged (ROADMAP, jobs=0
// column) — callers now call their callees' specialized versions.
TEST(ParallelPipelineTest, OnePathSameOutputAtEveryJobCount) {
  const std::map<std::string, uint64_t> whole_program_calls = {
      {"family_tree", 240578}, {"corporate", 3191}, {"meal", 813},
      {"team", 3273},          {"geography", 1186}, {"p58", 561},
      {"kmbench", 516}};
  std::vector<const programs::BenchmarkProgram*> benches =
      programs::AllPrograms();
  const programs::BenchmarkProgram layered{
      "layered", LayeredProgram(7, 75, 5), {}, {}, {}};
  benches.push_back(&layered);
  for (const programs::BenchmarkProgram* bench : benches) {
    SCOPED_TRACE(bench->name);
    std::string text0, json0;
    uint64_t calls0 = 0;
    for (size_t jobs : {size_t{0}, size_t{1}, size_t{4}}) {
      TermStore store;
      auto program = reader::ParseProgramText(&store, bench->source);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      PipelineOptions options;
      options.jobs = jobs;
      auto result = GuardedPipeline(&store, options).Run(*program);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string text = reader::WriteProgram(store, result->program);
      const std::string json = result->report.ToJson();
      const uint64_t calls = bench->mode_workloads.empty() &&
                                     bench->query_workloads.empty()
                                 ? 0
                                 : WorkloadCalls(*bench, text);
      if (jobs == 0) {
        text0 = text;
        json0 = json;
        calls0 = calls;
        auto it = whole_program_calls.find(bench->name);
        if (it != whole_program_calls.end()) {
          EXPECT_LE(calls, it->second);
        }
        continue;
      }
      EXPECT_EQ(text, text0) << "jobs=" << jobs;
      EXPECT_EQ(json, json0) << "jobs=" << jobs;
      EXPECT_EQ(calls, calls0) << "jobs=" << jobs;
    }
  }
}

// Mode inference runs top-down from the entry points, so editing only a
// caller can change the modes — and with them the legal modes, hence the
// versions — of a callee group whose clauses did not change. Such a group
// must not be replayed from the entry its old callers produced: the next
// cached run equals a cold run on a fresh cache.
TEST(ParallelPipelineTest, CallerEditDoesNotReplayStaleCalleeEntry) {
  // query/0 is a declared entry, so the modes it calls path/2 in are
  // legal modes of the recursive path/2.
  const std::string facts =
      ":- mode(query).\n"
      "edge(a, b).\nedge(b, c).\nedge(c, d).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
      "colour(red).\ncolour(blue).\n";
  const std::string before =
      facts + "query :- path(a, Y), Y == d, colour(C), C == red.\n";
  const std::string after =
      facts + "query :- path(X, d), X == a, colour(C), C == red.\n";
  auto run = [](const std::string& source, core::AnalysisCache* cache,
                core::PipelineReport* report) {
    TermStore store;
    auto program = reader::ParseProgramText(&store, source);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    PipelineOptions options;
    options.jobs = 1;
    options.cache = cache;
    auto result = GuardedPipeline(&store, options).Run(*program);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return std::string();
    if (report != nullptr) *report = result->report;
    return reader::WriteProgram(store, result->program);
  };

  core::AnalysisCache cache(64);
  const std::string text_before = run(before, &cache, nullptr);
  core::PipelineReport cached_report;
  const std::string cached = run(after, &cache, &cached_report);
  core::AnalysisCache fresh(64);
  const std::string cold = run(after, &fresh, nullptr);

  // The edit reaches path/2: it is called with its second argument bound
  // now, and its versions change although its clauses did not.
  EXPECT_NE(text_before.find("path_iu("), std::string::npos) << text_before;
  EXPECT_NE(cold.find("path_ui("), std::string::npos) << cold;
  EXPECT_EQ(cold.find("path_iu("), std::string::npos) << cold;
  EXPECT_EQ(cached, cold);
  // Only colour/1's group, called as before, is adopted: path/2's and
  // edge/2's modes changed with the edit, query/0's clauses did.
  EXPECT_EQ(cached_report.cache_hits, 1u);
  EXPECT_EQ(cached_report.cache_rejected, 0u);
}

}  // namespace
}  // namespace prore
