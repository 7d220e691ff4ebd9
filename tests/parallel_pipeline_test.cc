// Tests of the parallel optimization pipeline (core/pipeline.h jobs > 0):
// SCC dependency groups come out in valid topological order, sharded runs
// are bit-identical to the sequential pipeline for every worker count, and
// a fault injected into one dependency group quarantines only that group
// while the rest of the program is optimized at full strength. A golden
// test pins the written output of a layered program at jobs=0, 1 and 4.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/modes.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/pipeline.h"
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
/// The closure only touches original PredIds (the pipeline checks faults
/// before renaming), whose symbol ids are identical in every per-group
/// adopted store — safe to call from sharded worker threads.
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
  // Reference: jobs=1 (sharded code path, inline execution).
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
  // Sharded output is not textually identical to the classic jobs=0
  // whole-program pipeline — cross-group calls route through the owning
  // group's original-name dispatcher instead of being specialized at the
  // call site, and each group is optimized against its own cone — but
  // both must preserve the original program's answer sets.
  {
    TermStore store;
    auto program = reader::ParseProgramText(&store, kMultiCluster);
    ASSERT_TRUE(program.ok());
    GuardedPipeline pipeline(&store);  // jobs = 0: whole-program
    auto result = pipeline.Run(*program);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSetEquivalent(&store, *program, result->program);
  }
  TermStore store;
  auto program = reader::ParseProgramText(&store, kMultiCluster);
  ASSERT_TRUE(program.ok());
  PipelineOptions options;
  options.jobs = 2;
  GuardedPipeline pipeline(&store, options);
  auto result = pipeline.Run(*program);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSetEquivalent(&store, *program, result->program);
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

// Digests of Rendered() for LayeredProgram(7, 75, 5), recorded when the
// order queue was still a linear scan and every shard copied the
// whole-program sets. Any change to the order in which versions are built,
// to the written text, or to what a shard sees changes them.
constexpr uint64_t kGoldenWhole = 16474549855009735601ull;
constexpr uint64_t kGoldenSharded = 6864218736105261043ull;

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
    const uint64_t digest = Fnv1a(Rendered(store, *result));
    EXPECT_EQ(digest, jobs == 0 ? kGoldenWhole : kGoldenSharded)
        << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace prore
