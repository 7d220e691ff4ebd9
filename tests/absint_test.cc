// Unit tests for the interprocedural abstract-interpretation framework:
// the worklist solver's fixpoints (groundness + determinism), widening
// termination on recursive SCCs, builtin/library seeding, mode tightening,
// the exclusivity-witness computation, and determinism of the whole run
// (identical results regardless of solve order, the property the
// pipeline's bit-identity across jobs values rests on).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/absint/determinism.h"
#include "analysis/absint/groundness.h"
#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "engine/exclusivity.h"
#include "reader/parser.h"
#include "term/store.h"

namespace prore::analysis::absint {
namespace {

using term::PredId;
using term::TermRef;
using term::TermStore;

class AbsintTest : public ::testing::Test {
 protected:
  void Load(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto g = CallGraph::Build(store_, program_);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    graph_ = std::move(g).value();
    auto d = ParseDeclarations(store_, program_);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    decls_ = std::move(d).value();
    auto m = InferModes(store_, program_, graph_, decls_);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    modes_ = std::move(m).value();
  }

  AbsintResult Run(const AbsintOptions& opts = {}) {
    auto r = RunAbsint(store_, program_, graph_, decls_, &modes_, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : AbsintResult{};
  }

  PredId Id(const std::string& name, uint32_t arity) {
    return PredId{store_.symbols().Intern(name), arity};
  }

  Mode M(const std::string& s) {
    return std::move(ModeFromString(s)).value();
  }

  TermStore store_;
  reader::Program program_;
  CallGraph graph_;
  Declarations decls_;
  ModeAnalysis modes_;
};

// ---- Groundness ---------------------------------------------------------------

TEST_F(AbsintTest, GroundnessPropagatesThroughCalls) {
  Load(":- entry(top/2).\n"
       "top(X, Y) :- mid(X, Y).\n"
       "mid(X, Y) :- Y = f(X).\n");
  AbsintResult r = Run();
  // top(+,-): the unification grounds Y from X.
  const GroundnessValue* v = r.groundness.Find(store_, Id("top", 2),
                                               M("(+,-)"));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->can_succeed);
  EXPECT_EQ(ModeString(v->success), "(+,+)");
}

TEST_F(AbsintTest, GroundnessDetectsAlwaysFailing) {
  Load(":- entry(top/1).\n"
       "top(X) :- doomed(X).\n"
       "doomed(X) :- fail, X = 1.\n");
  AbsintResult r = Run();
  const GroundnessValue* v =
      r.groundness.Find(store_, Id("doomed", 1), M("(-)"));
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->can_succeed);
  // ... and the failure propagates to the caller.
  const GroundnessValue* t = r.groundness.Find(store_, Id("top", 1),
                                               M("(-)"));
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->can_succeed);
}

TEST_F(AbsintTest, RecursiveSccReachesFixpointWithWidening) {
  // Mutual recursion across an SCC; widen_after=0 forces widening on the
  // first re-join, which must still terminate and stay sound.
  Load(":- entry(even/1).\n"
       "even(0).\n"
       "even(s(X)) :- odd(X).\n"
       "odd(s(X)) :- even(X).\n");
  AbsintOptions opts;
  opts.widen_after = 0;
  AbsintResult r = Run(opts);
  const GroundnessValue* v = r.groundness.Find(store_, Id("even", 1),
                                               M("(+)"));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->can_succeed);
  EXPECT_EQ(ModeString(v->success), "(+)");
  EXPECT_TRUE(graph_.IsRecursive(Id("even", 1)));
}

TEST_F(AbsintTest, BuiltinSeedingGroundsArithmetic) {
  Load(":- entry(inc/2).\n"
       "inc(X, Y) :- Y is X + 1.\n");
  AbsintResult r = Run();
  const GroundnessValue* v = r.groundness.Find(store_, Id("inc", 2),
                                               M("(+,-)"));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->can_succeed);
  // is/2 grounds its left-hand side.
  EXPECT_EQ(ModeString(v->success), "(+,+)");
}

TEST_F(AbsintTest, TightenModesUpgradesTable) {
  Load(":- entry(top/2).\n"
       "top(X, Y) :- helper(X, Y).\n"
       "helper(X, f(X)).\n");
  AbsintResult r = Run();
  ModeTable table;
  // A weak pre-existing guarantee: absint should upgrade the '?'.
  table.Add(Id("top", 2), ModePair{M("(+,-)"), M("(+,?)")});
  size_t upgraded = TightenModes(store_, r.groundness, &table);
  EXPECT_GT(upgraded, 0u);
  auto out = table.OutputFor(Id("top", 2), M("(+,-)"));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(ModeString(*out), "(+,+)");
}

// ---- Determinism --------------------------------------------------------------

TEST_F(AbsintTest, FactsWithDistinctFirstArgsAreSemidet) {
  Load(":- entry(color/2).\n"
       "color(apple, red).\n"
       "color(pear, green).\n"
       "color(plum, purple).\n");
  AbsintResult r = Run();
  EXPECT_EQ(r.determinism.DetFor(store_, Id("color", 2), M("(+,-)")),
            Det::kSemidet);
  // Unbound first argument: nothing is exclusive, three facts may match.
  // (kNondet, not kMulti: without aliasing info the analysis cannot rule
  // out a color(X, X) call where no fact matches, so lo stays 0.)
  Det open = r.determinism.DetFor(store_, Id("color", 2), M("(-,-)"));
  EXPECT_TRUE(open == Det::kMulti || open == Det::kNondet) << DetName(open);
  EXPECT_TRUE(r.determinism.ExclusiveUnder(Id("color", 2), M("(+,-)")));
  EXPECT_FALSE(r.determinism.ExclusiveUnder(Id("color", 2), M("(-,-)")));
}

TEST_F(AbsintTest, CutMakesClassicGuardIdiomSemidet) {
  // The heads overlap, but the guard clause cuts: at most one solution.
  Load(":- entry(classify/2).\n"
       "classify(X, small) :- X < 5, !.\n"
       "classify(X, large).\n");
  AbsintResult r = Run();
  Det d = r.determinism.DetFor(store_, Id("classify", 2), M("(+,-)"));
  EXPECT_TRUE(d == Det::kSemidet || d == Det::kDet) << DetName(d);
}

TEST_F(AbsintTest, OverlappingClausesWithoutCutAreNondet) {
  Load(":- entry(pick/1).\n"
       "pick(X) :- a(X).\n"
       "pick(X) :- b(X).\n"
       "a(1).\n"
       "b(2).\n");
  AbsintResult r = Run();
  Det d = r.determinism.DetFor(store_, Id("pick", 1), M("(-)"));
  EXPECT_TRUE(d == Det::kMulti || d == Det::kNondet) << DetName(d);
}

TEST_F(AbsintTest, FailurePropagatesIntoDeterminism) {
  Load(":- entry(top/1).\n"
       "top(X) :- doomed(X).\n"
       "doomed(X) :- fail.\n");
  AbsintResult r = Run();
  EXPECT_EQ(r.determinism.DetFor(store_, Id("top", 1), M("(-)")),
            Det::kFailure);
}

TEST_F(AbsintTest, RecursiveListWalkIsSemidetWhenGround) {
  Load(":- entry(len/2).\n"
       "len([], 0).\n"
       "len([_|T], s(N)) :- len(T, N).\n");
  AbsintResult r = Run();
  // Ground list: [] vs [_|_] heads are exclusive at position 0.
  Det d = r.determinism.DetFor(store_, Id("len", 2), M("(+,-)"));
  EXPECT_EQ(d, Det::kSemidet) << DetName(d);
}

// ---- Exclusivity witnesses ----------------------------------------------------

TEST_F(AbsintTest, WitnessComputation) {
  Load("f(a, x).\n"
       "f(b, x).\n"
       "g(a, 1).\n"
       "g(a, 2).\n");
  auto heads_of = [&](const char* name) {
    std::vector<TermRef> heads;
    for (const auto& c : program_.ClausesOf(Id(name, 2))) {
      heads.push_back(c.head);
    }
    return heads;
  };
  // f/2: position 0 discriminates (a vs b).
  auto fw = engine::ExclusivityWitnesses(store_, heads_of("f"), 2);
  ASSERT_EQ(fw.size(), 1u);
  EXPECT_EQ(fw[0], engine::Witness{0});
  // g/2: position 1 discriminates (1 vs 2), position 0 does not.
  auto gw = engine::ExclusivityWitnesses(store_, heads_of("g"), 2);
  ASSERT_EQ(gw.size(), 1u);
  EXPECT_EQ(gw[0], engine::Witness{1});
}

TEST_F(AbsintTest, MultiPositionWitnessCover) {
  // No single position discriminates all pairs; {0,1} together do.
  Load("h(a, x, _).\n"
       "h(a, y, _).\n"
       "h(b, x, _).\n");
  std::vector<TermRef> heads;
  for (const auto& c : program_.ClausesOf(Id("h", 3))) {
    heads.push_back(c.head);
  }
  auto w = engine::ExclusivityWitnesses(store_, heads, 3);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], (engine::Witness{0, 1}));
}

TEST_F(AbsintTest, VariableHeadsHaveNoWitness) {
  Load("any(X) :- a(X).\n"
       "any(X) :- b(X).\n"
       "a(1).\n"
       "b(2).\n");
  std::vector<TermRef> heads;
  for (const auto& c : program_.ClausesOf(Id("any", 1))) {
    heads.push_back(c.head);
  }
  EXPECT_TRUE(engine::ExclusivityWitnesses(store_, heads, 1).empty());
}

// ---- Watchdog + determinism of results ----------------------------------------

TEST_F(AbsintTest, WatchdogTripSurfacesAsResourceExhausted) {
  Load(":- entry(even/1).\n"
       "even(0).\n"
       "even(s(X)) :- odd(X).\n"
       "odd(s(X)) :- even(X).\n");
  AbsintOptions opts;
  opts.watchdog.max_steps = 1;  // trips on the second Transfer
  auto r = RunAbsint(store_, program_, graph_, decls_, &modes_, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), prore::StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().error_term(), "resource_error(watchdog(absint))")
      << r.status().ToString();
}

TEST_F(AbsintTest, RepeatedRunsAreBitIdentical) {
  // The jobs=1 vs jobs=N guarantee reduces to this: the fixpoint result
  // is a pure function of (program, seeds), independent of allocation
  // order or hash-map iteration. Run the same analysis twice in fresh
  // stores and compare the full dumps.
  const char* text =
      ":- entry(grandparent/2).\n"
      "grandparent(X, Z) :- parent(X, Y), parent(Y, Z).\n"
      "parent(tom, bob).\n"
      "parent(bob, ann).\n"
      "parent(bob, pat).\n";
  std::string dumps[2];
  for (int i = 0; i < 2; ++i) {
    TermStore store;
    auto p = reader::ParseProgramText(&store, text);
    ASSERT_TRUE(p.ok());
    auto g = CallGraph::Build(store, *p);
    ASSERT_TRUE(g.ok());
    auto d = ParseDeclarations(store, *p);
    ASSERT_TRUE(d.ok());
    auto m = InferModes(store, *p, *g, *d);
    ASSERT_TRUE(m.ok());
    auto r = RunAbsint(store, *p, *g, *d, &*m);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    dumps[i] = DumpAbsint(*r);
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_FALSE(dumps[0].empty());
}

TEST_F(AbsintTest, LookupsIgnoreAPredicateWhoseNameExtendsTheKeyPrefix) {
  // The lookups walk only the "a/1:" range of the key-ordered maps. The
  // quoted 'a/1:x'/1 has keys "a/1:x/1:..." inside that range; they must
  // be skipped, so every answer for a/1 matches the one from a program
  // without the intruder (which is what a scan of every key gave).
  const std::string base = "a(1).\na(2).\n";
  Load(base);
  const AbsintResult solo = Run();
  Load(base + "'a/1:x'(_).\n'a/1:x'(f(_)).\n");
  const AbsintResult both = Run();

  const PredId a = Id("a", 1);
  const PredId intruder = Id("a/1:x", 1);
  bool intruder_in_range = false;
  for (const auto& [key, ck] : both.groundness.keys) {
    if (key.starts_with("a/1:") && ck.pred == intruder) {
      intruder_in_range = true;
    }
  }
  ASSERT_TRUE(intruder_in_range);

  auto patterns = [&](const AbsintResult& r, const PredId& id) {
    std::vector<std::string> out;
    for (const Mode& m : r.groundness.PatternsFor(store_, id)) {
      out.push_back(ModeString(m));
    }
    return out;
  };
  EXPECT_EQ(patterns(both, a), patterns(solo, a));
  EXPECT_EQ(patterns(both, a), (std::vector<std::string>{"(+)", "(-)"}));
  EXPECT_EQ(patterns(both, intruder).size(), 2u);

  for (const char* mode : {"(+)", "(-)", "(?)"}) {
    EXPECT_EQ(both.determinism.DetFor(store_, a, M(mode)),
              solo.determinism.DetFor(store_, a, M(mode)))
        << mode;
    auto with = both.groundness.SuccessModeFor(store_, a, M(mode));
    auto without = solo.groundness.SuccessModeFor(store_, a, M(mode));
    ASSERT_EQ(with.has_value(), without.has_value()) << mode;
    if (with.has_value()) {
      EXPECT_EQ(ModeString(*with), ModeString(*without)) << mode;
    }
  }
  // The two predicates differ, so a leak across them would show above.
  EXPECT_EQ(ModeString(*both.groundness.SuccessModeFor(store_, a, M("(-)"))),
            "(+)");
  EXPECT_NE(ModeString(
                *both.groundness.SuccessModeFor(store_, intruder, M("(-)"))),
            "(+)");
}

}  // namespace
}  // namespace prore::analysis::absint
