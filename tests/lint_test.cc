// Tests for the prolint diagnostics subsystem: one positive and one
// negative snippet per pass (PL001..PL008), parse-error span recovery
// (PL000), the pass registry, and the reorder validator — both the clean
// path (the optimizer's own output verifies) and corruption paths where a
// tampered transformation must be caught (PL100..PL103). PL101 compares
// clauses up to renaming of singleton variables and nothing more: output
// re-read with renamed singletons verifies, every other change is caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "core/pipeline.h"
#include "core/reorderer.h"
#include "lint/diagnostic.h"
#include "lint/lint.h"
#include "lint/validate.h"
#include "programs/programs.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore::lint {
namespace {

using analysis::Mode;
using analysis::ModeItem;
using term::PredId;
using term::TermStore;

std::vector<Diagnostic> WithCode(const std::vector<Diagnostic>& diags,
                                 const std::string& code) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.code == code) out.push_back(d);
  }
  return out;
}

bool HasError(const std::vector<Diagnostic>& diags) {
  return std::any_of(diags.begin(), diags.end(), [](const Diagnostic& d) {
    return d.severity == Severity::kError;
  });
}

class LintPassTest : public ::testing::Test {
 protected:
  std::vector<Diagnostic> Lint(const std::string& source,
                               LintOptions options = {}) {
    auto program = reader::ParseProgramText(&store_, source);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (!program.ok()) return {};
    Linter linter(std::move(options));
    auto diags = linter.Run(store_, *program);
    EXPECT_TRUE(diags.ok()) << diags.status().ToString();
    return diags.ok() ? std::move(diags).value() : std::vector<Diagnostic>{};
  }

  TermStore store_;
};

// ---- PL001: singleton variables ---------------------------------------------

TEST_F(LintPassTest, SingletonVariableReported) {
  auto diags = Lint("q(1).\np(X, Y) :- q(X).\n");
  auto found = WithCode(diags, "PL001");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kWarning);
  EXPECT_EQ(found[0].pred, "p/2");
  EXPECT_NE(found[0].message.find("Y"), std::string::npos);
  EXPECT_EQ(found[0].span.line, 2);
}

TEST_F(LintPassTest, NoSingletonForRepeatedOrUnderscoreVars) {
  auto diags = Lint("q(1).\np(X, _Ignored) :- q(X).\nr(_) :- q(1).\n");
  EXPECT_TRUE(WithCode(diags, "PL001").empty());
}

// ---- PL002: undefined predicates --------------------------------------------

TEST_F(LintPassTest, UndefinedPredicateReported) {
  auto diags = Lint("p(X) :- missing(X).\n");
  auto found = WithCode(diags, "PL002");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kWarning);
  EXPECT_NE(found[0].message.find("missing/1"), std::string::npos);
}

TEST_F(LintPassTest, DefinedBuiltinAndLibraryCallsAreNotUndefined) {
  auto diags = Lint(
      "q(1).\n"
      "p(X) :- q(X), X = 1, append([], [], _L).\n");
  EXPECT_TRUE(WithCode(diags, "PL002").empty());
}

// ---- PL003: clause unreachable after a catch-all cut ------------------------

TEST_F(LintPassTest, ClauseAfterCatchAllCutReported) {
  auto diags = Lint(
      "q(1).\nr(1).\n"
      "p(X) :- !, q(X).\n"
      "p(X) :- r(X).\n");
  auto found = WithCode(diags, "PL003");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].pred, "p/1");
  EXPECT_EQ(found[0].span.line, 4);
}

TEST_F(LintPassTest, BoundHeadOrLateCutIsNotCatchAll) {
  auto diags = Lint(
      "q(1).\nr(1).\n"
      "p(1) :- !, q(1).\n"       // head is bound: not a catch-all
      "p(X) :- r(X).\n"
      "s(X) :- q(X), !.\n"       // cut is not first
      "s(X) :- r(X).\n");
  EXPECT_TRUE(WithCode(diags, "PL003").empty());
}

// ---- PL004: goal unreachable after fail -------------------------------------

TEST_F(LintPassTest, GoalAfterFailReported) {
  auto diags = Lint("q(1).\np(X) :- fail, q(X).\n");
  auto found = WithCode(diags, "PL004");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].message.find("unreachable"), std::string::npos);
}

TEST_F(LintPassTest, TrailingFailIsFine) {
  auto diags = Lint("q(1).\np(X) :- q(X), fail.\n");
  EXPECT_TRUE(WithCode(diags, "PL004").empty());
}

// ---- PL005: arithmetic on an unbound variable -------------------------------

TEST_F(LintPassTest, ArithmeticOnFreshVariableReported) {
  auto diags = Lint("p(Y) :- Y is X + 1.\n");
  auto found = WithCode(diags, "PL005");
  ASSERT_GE(found.size(), 1u);
  EXPECT_NE(found[0].message.find("X"), std::string::npos);
  EXPECT_NE(found[0].message.find("is/2"), std::string::npos);
}

TEST_F(LintPassTest, ArithmeticOnGroundedVariableIsFine) {
  auto diags = Lint("q(1).\np(X, Y) :- q(X), Y is X + 1.\n");
  EXPECT_TRUE(WithCode(diags, "PL005").empty());
}

// ---- PL006: side-effect goals are pinned ------------------------------------

TEST_F(LintPassTest, SideEffectGoalNoted) {
  auto diags = Lint("q(1).\np(X) :- q(X), write(X).\n");
  auto found = WithCode(diags, "PL006");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kNote);
  EXPECT_NE(found[0].message.find("write/1"), std::string::npos);
}

TEST_F(LintPassTest, PureGoalsAreNotPinned) {
  auto diags = Lint("q(1).\np(X) :- q(X).\n");
  EXPECT_TRUE(WithCode(diags, "PL006").empty());
}

// ---- PL007: discontiguous clause groups -------------------------------------

TEST_F(LintPassTest, DiscontiguousClausesReported) {
  auto diags = Lint("p(1).\nq(1).\np(2).\n");
  auto found = WithCode(diags, "PL007");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].pred, "p/1");
  EXPECT_EQ(found[0].span.line, 3);
}

TEST_F(LintPassTest, ContiguousClausesAreFine) {
  auto diags = Lint("p(1).\np(2).\nq(1).\n");
  EXPECT_TRUE(WithCode(diags, "PL007").empty());
}

// ---- PL008: exception-handling pitfalls -------------------------------------

TEST_F(LintPassTest, UnreachableOuterCatcherReported) {
  auto diags = Lint(
      "q(1).\n"
      "p(X) :- catch(catch(q(X), _E, fail), io_error, fail).\n");
  auto found = WithCode(diags, "PL008");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].message.find("unreachable"), std::string::npos);
}

TEST_F(LintPassTest, RethrowingInnerRecoveryKeepsOuterCatcherReachable) {
  // The inner recovery rethrows, so the outer catcher CAN fire.
  auto diags = Lint(
      "q(1).\n"
      "p(X) :- catch(catch(q(X), E, throw(E)), io_error, fail).\n");
  EXPECT_TRUE(WithCode(diags, "PL008").empty());
}

TEST_F(LintPassTest, SpecificInnerCatcherKeepsOuterCatcherReachable) {
  // The inner catcher only intercepts its own ball shape; everything else
  // still reaches the outer catcher.
  auto diags = Lint(
      "q(1).\n"
      "p(X) :- catch(catch(q(X), oops(_), fail), io_error, fail).\n");
  EXPECT_TRUE(WithCode(diags, "PL008").empty());
}

TEST_F(LintPassTest, ThrowOfUnboundVariableReported) {
  auto diags = Lint("p :- throw(_Ball).\n");
  auto found = WithCode(diags, "PL008");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_NE(found[0].message.find("unbound variable"), std::string::npos);
}

TEST_F(LintPassTest, ThrowOfBoundOrRethrownVariableIsFine) {
  // E occurs twice (caught then rethrown) — not an unbound ball.
  auto diags = Lint(
      "q(1).\n"
      "p(X) :- catch(q(X), E, throw(E)).\n"
      "r(X) :- q(X), throw(stop(X)).\n");
  EXPECT_TRUE(WithCode(diags, "PL008").empty());
}

// ---- PL000: parse-error span recovery ---------------------------------------

TEST(DiagnosticTest, ParseErrorRecoversSpan) {
  TermStore store;
  auto program = reader::ParseProgramText(&store, "q(1).\np(X) :- .\n");
  ASSERT_FALSE(program.ok());
  Diagnostic d = FromParseStatus(program.status());
  EXPECT_EQ(d.code, "PL000");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_GE(d.span.line, 1);
}

TEST(DiagnosticTest, RenderingCarriesCodeSeverityAndSpan) {
  Diagnostic d{"PL001", Severity::kWarning, {12, 3}, "aunt/2",
               "singleton variable X"};
  std::string text = d.ToString();
  EXPECT_NE(text.find("12:3"), std::string::npos);
  EXPECT_NE(text.find("warning"), std::string::npos);
  EXPECT_NE(text.find("PL001"), std::string::npos);
  EXPECT_NE(text.find("aunt/2"), std::string::npos);
  std::string json = RenderJson({d}, "demo.pl");
  EXPECT_NE(json.find("\"code\""), std::string::npos);
  EXPECT_NE(json.find("\"warnings\":1"), std::string::npos);
}

// ---- Registry and pass selection --------------------------------------------

// ---- PL200: goal provably always fails ------------------------------------

TEST_F(LintPassTest, PL200FlagsAlwaysFailingCall) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      "top(X) :- doomed(X), write(X).\n"
      "doomed(X) :- fail, X = 1.\n");
  auto hits = WithCode(diags, "PL200");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_NE(hits[0].message.find("doomed/1"), std::string::npos);
}

TEST_F(LintPassTest, PL200QuietOnSucceedingCall) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      "top(X) :- fine(X), write(X).\n"
      "fine(1).\n");
  EXPECT_TRUE(WithCode(diags, "PL200").empty());
}

// ---- PL201: clause head incompatible with every call site -----------------

TEST_F(LintPassTest, PL201FlagsHeadNoCallSiteMatches) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      "top(X) :- speed(slow, X).\n"
      "speed(slow, 1).\n"
      "speed(fast, 9).\n");
  auto hits = WithCode(diags, "PL201");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].pred, "speed/2");
  EXPECT_NE(hits[0].message.find("clause 2"), std::string::npos);
}

TEST_F(LintPassTest, PL201QuietWhenAnySiteUnconstrained) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      "top(X) :- speed(X, _).\n"  // variable argument: any clause reachable
      "speed(slow, 1).\n"
      "speed(fast, 9).\n");
  EXPECT_TRUE(WithCode(diags, "PL201").empty());
}

TEST_F(LintPassTest, PL201QuietUnderDynamicCalls) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      "top(X) :- assert(speed(stopped, 0)), speed(slow, X).\n"
      "speed(slow, 1).\n"
      "speed(fast, 9).\n");
  EXPECT_TRUE(WithCode(diags, "PL201").empty());
}

// ---- PL202: at-most-one-solution call leaves a choicepoint ----------------

TEST_F(LintPassTest, PL202FlagsSemidetWithLiveChoicepoint) {
  // lookup/2 has at most one solution (clause 1 calls an always-failing
  // predicate), its clauses are not exclusive under the '-' result
  // argument, and write/1 runs with the dead choicepoint still stacked.
  auto diags = Lint(
      ":- entry(top/1).\n"
      ":- legal_mode(top(+), top(+)).\n"
      "top(X) :- lookup(X, Y), write(Y).\n"
      "lookup(X, one) :- broken(X), X > 0.\n"
      "lookup(X, two) :- X > 1.\n"
      "broken(X) :- fail, X = 0.\n");
  auto hits = WithCode(diags, "PL202");
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kNote);
  EXPECT_NE(hits[0].message.find("lookup/2"), std::string::npos);
}

TEST_F(LintPassTest, PL202QuietWhenHeadsExclusive) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      ":- legal_mode(top(+), top(+)).\n"
      "top(X) :- speed(X, Y), write(Y).\n"
      "speed(slow, 1).\n"
      "speed(fast, 9).\n");
  EXPECT_TRUE(WithCode(diags, "PL202").empty());
}

// ---- PL203: cut in a clause already proven exclusive ----------------------

TEST_F(LintPassTest, PL203FlagsRedundantLeadingCut) {
  auto diags = Lint(
      ":- entry(top/1).\n"
      ":- legal_mode(top(+), top(+)).\n"
      "top(X) :- speed(X, Y), write(Y).\n"
      "speed(slow, 1) :- !.\n"
      "speed(fast, 9).\n");
  auto hits = WithCode(diags, "PL203");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kNote);
  EXPECT_EQ(hits[0].pred, "speed/2");
}

TEST_F(LintPassTest, PL203QuietWhenCutDoesWork) {
  // Variable heads: nothing exclusive, the cut genuinely commits.
  auto diags = Lint(
      ":- entry(top/1).\n"
      ":- legal_mode(top(+), top(+)).\n"
      "top(X) :- classify(X, Y), write(Y).\n"
      "classify(X, small) :- X < 5, !.\n"
      "classify(_, large).\n");
  EXPECT_TRUE(WithCode(diags, "PL203").empty());
}

TEST(RegistryTest, AllPassesRegisteredWithUniqueCodes) {
  const PassRegistry& registry = PassRegistry::Default();
  EXPECT_EQ(registry.passes().size(), 12u);
  std::set<std::string> codes;
  for (const auto& pass : registry.passes()) {
    EXPECT_TRUE(codes.insert(pass->code()).second)
        << "duplicate code " << pass->code();
    EXPECT_EQ(registry.Find(pass->name()), pass.get());
    EXPECT_EQ(registry.Find(pass->code()), pass.get());
  }
  EXPECT_EQ(registry.Find("no-such-pass"), nullptr);
}

TEST_F(LintPassTest, OnlyOptionRestrictsPasses) {
  // The snippet triggers PL001 (singleton S) and PL002 (missing/1).
  const char* source = "p(X, S) :- missing(X).\n";
  auto all = Lint(source);
  EXPECT_FALSE(WithCode(all, "PL001").empty());
  EXPECT_FALSE(WithCode(all, "PL002").empty());
  LintOptions only;
  only.only = {"PL001"};
  auto restricted = Lint(source, only);
  EXPECT_FALSE(WithCode(restricted, "PL001").empty());
  EXPECT_TRUE(WithCode(restricted, "PL002").empty());
}

// ---- Bundled corpora gate ---------------------------------------------------

TEST(CorpusLintTest, BundledProgramsLintWithoutErrorsAndSelfVerify) {
  for (const programs::BenchmarkProgram* bench : programs::AllPrograms()) {
    SCOPED_TRACE(bench->name);
    TermStore store;
    auto program = reader::ParseProgramText(&store, bench->source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    Linter linter;
    auto diags = linter.Run(store, *program);
    ASSERT_TRUE(diags.ok()) << diags.status().ToString();
    for (const Diagnostic& d : *diags) {
      EXPECT_NE(d.severity, Severity::kError) << d.ToString();
    }
    // The reorderer validates its own output (PL1xx would be errors).
    core::Reorderer reorderer(&store);
    auto reordered = reorderer.Run(*program);
    ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
    for (const Diagnostic& d : reordered->diagnostics) {
      EXPECT_NE(d.severity, Severity::kError) << d.ToString();
    }
  }
}

// ---- Reorder validator ------------------------------------------------------

constexpr const char* kFamilyProgram = R"(
wife(john, jane).
wife(paul, mary).
mother(john, joan).
mother(jane, june).
mother(paul, joan).
female(Woman) :- wife(_, Woman).
grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).
)";

class ValidatorTest : public ::testing::Test {
 protected:
  reader::Program Parse(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return p.ok() ? std::move(p).value() : reader::Program{};
  }

  PredId Pred(const std::string& name, uint32_t arity) {
    return PredId{store_.symbols().Intern(name), arity};
  }

  /// Runs the real reorderer and converts its reports into the validator's
  /// version list, so corruption tests exercise genuine optimizer output.
  core::ReorderResult Reorder(const reader::Program& original) {
    core::ReorderOptions opts;
    opts.validate_output = false;  // tests call the validator directly
    core::Reorderer reorderer(&store_, opts);
    auto r = reorderer.Run(original);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : core::ReorderResult{};
  }

  static std::vector<VersionInfo> VersionsOf(const core::ReorderResult& r) {
    std::vector<VersionInfo> versions;
    for (const core::PredModeReport& report : r.reports) {
      versions.push_back(
          VersionInfo{report.pred, report.mode, report.version_name});
    }
    return versions;
  }

  TermStore store_;
};

TEST_F(ValidatorTest, IdentityTransformationVerifies) {
  reader::Program program = Parse("a(1).\nb(1).\np(X) :- a(X), b(X).\n");
  ReorderCheckInput input;
  input.original = &program;
  input.transformed = &program;
  for (const PredId& pred : program.pred_order()) {
    input.versions.push_back(VersionInfo{
        pred, Mode(pred.arity, ModeItem::kAny),
        store_.symbols().Name(pred.name)});
    input.no_reorder.insert(pred);
  }
  EXPECT_TRUE(ValidateReorder(&store_, input).empty());
}

TEST_F(ValidatorTest, RealReorderOutputVerifiesClean) {
  reader::Program original = Parse(kFamilyProgram);
  core::ReorderResult result = Reorder(original);
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &result.program;
  input.versions = VersionsOf(result);
  for (const Diagnostic& d : ValidateReorder(&store_, input)) {
    ADD_FAILURE() << d.ToString();
  }
}

TEST_F(ValidatorTest, MissingPredicateIsPL103) {
  reader::Program original = Parse("p(1).\nq(2).\n");
  reader::Program transformed = Parse("p(1).\n");
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &transformed;
  auto diags = ValidateReorder(&store_, input);
  auto found = WithCode(diags, "PL103");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kError);
  EXPECT_EQ(found[0].pred, "q/1");
}

TEST_F(ValidatorTest, DroppedClauseIsPL101) {
  reader::Program original = Parse(kFamilyProgram);
  core::ReorderResult result = Reorder(original);
  // Tamper: drop one clause of the first multi-clause emitted version.
  bool tampered = false;
  for (const core::PredModeReport& report : result.reports) {
    PredId vid = Pred(report.version_name, report.pred.arity);
    auto* clauses = result.program.MutableClausesOf(vid);
    if (clauses != nullptr && clauses->size() > 1) {
      clauses->pop_back();
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &result.program;
  input.versions = VersionsOf(result);
  EXPECT_TRUE(HasError(WithCode(ValidateReorder(&store_, input), "PL101")));
}

TEST_F(ValidatorTest, ReorderedNoReorderPredicateIsPL101) {
  reader::Program original = Parse("a(1).\nb(1).\np(X) :- a(X), b(X).\n");
  reader::Program transformed = Parse("a(1).\nb(1).\np(X) :- b(X), a(X).\n");
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &transformed;
  PredId p = Pred("p", 1);
  input.versions.push_back(VersionInfo{p, Mode(1, ModeItem::kAny), "p"});
  input.no_reorder.insert(p);
  auto found = WithCode(ValidateReorder(&store_, input), "PL101");
  ASSERT_GE(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kError);
  EXPECT_EQ(found[0].pred, "p/1");
}

TEST_F(ValidatorTest, DuplicatedDispatcherClauseIsPL102) {
  reader::Program original = Parse(kFamilyProgram);
  core::ReorderResult result = Reorder(original);
  // Tamper: duplicate the dispatcher clause of a specialized predicate.
  bool tampered = false;
  for (const core::PredModeReport& report : result.reports) {
    if (report.version_name ==
        store_.symbols().Name(report.pred.name)) {
      continue;  // unspecialized: no dispatcher
    }
    auto* clauses = result.program.MutableClausesOf(report.pred);
    if (clauses != nullptr && clauses->size() == 1) {
      clauses->push_back(clauses->front());
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &result.program;
  input.versions = VersionsOf(result);
  EXPECT_TRUE(HasError(WithCode(ValidateReorder(&store_, input), "PL102")));
}

TEST_F(ValidatorTest, DispatcherTargetingMissingVersionIsPL102) {
  reader::Program original = Parse("p(1).\n");
  reader::Program transformed = Parse("p(X) :- p_u(X).\n");
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &transformed;
  PredId p = Pred("p", 1);
  input.versions.push_back(VersionInfo{p, Mode{ModeItem::kPlus}, "p_i"});
  input.versions.push_back(VersionInfo{p, Mode{ModeItem::kMinus}, "p_u"});
  auto found = WithCode(ValidateReorder(&store_, input), "PL102");
  ASSERT_GE(found.size(), 1u);
  EXPECT_NE(found[0].message.find("missing"), std::string::npos);
}

TEST_F(ValidatorTest, IllegalCallModeInVersionIsPL100) {
  reader::Program original = Parse("a(1).\na(2).\np(X) :- a(X), X > 1.\n");
  // The corrupted version evaluates X > 1 before a/1 grounds X, under a
  // mode that leaves X a free variable — a demand violation the original
  // goal order did not have.
  reader::Program transformed =
      Parse("a(1).\na(2).\np_u(X) :- X > 1, a(X).\np(X) :- p_u(X).\n");
  auto graph = analysis::CallGraph::Build(store_, original);
  ASSERT_TRUE(graph.ok());
  auto decls = analysis::ParseDeclarations(store_, original);
  ASSERT_TRUE(decls.ok());
  auto modes =
      analysis::InferModes(store_, original, *graph, *decls);
  ASSERT_TRUE(modes.ok());
  analysis::LegalityOracle oracle(&store_, &original, &*graph, &*modes);
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &transformed;
  input.versions.push_back(
      VersionInfo{Pred("p", 1), Mode{ModeItem::kMinus}, "p_u"});
  input.modes = &*modes;
  input.oracle = &oracle;
  auto found = WithCode(ValidateReorder(&store_, input), "PL100");
  ASSERT_GE(found.size(), 1u);
  EXPECT_EQ(found[0].severity, Severity::kError);
  EXPECT_NE(found[0].message.find(">"), std::string::npos);
}

// ---- PL101 up to singleton renaming ------------------------------------------

/// t/1 has an anonymous variable, a variable shared by two goals, a
/// constant argument and two pinned side-effect goals at the end.
constexpr const char* kSingletonProgram = R"(
a(1). a(2). a(3).
b(1, x). b(2, y). b(3, z).
d(1, 1). d(2, 1). d(3, 2).
left(1, 2). left(2, 3). left(3, 1).
right(2). right(3).
t(X) :- b(X, _), left(X, Z), right(Z), a(X), d(X, 1), write(X), nl.
)";

/// `text` with every occurrence of `from` replaced by `to`.
std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// The written reorder output of kSingletonProgram with its unnamed
/// singletons (`_G<n>`) renamed `_Anon<n>`, as when the analysis cache
/// re-reads an entry written by another run.
std::string RenamedSingletonOutput(const TermStore& store,
                                   const core::ReorderResult& result) {
  const std::string written = reader::WriteProgram(store, result.program);
  std::string renamed;
  for (size_t i = 0; i < written.size(); ++i) {
    if (written.compare(i, 2, "_G") == 0 && i + 2 < written.size() &&
        std::isdigit(static_cast<unsigned char>(written[i + 2]))) {
      renamed += "_Anon";
      ++i;
    } else {
      renamed += written[i];
    }
  }
  EXPECT_NE(renamed, written) << "no anonymous variable in the output";
  return renamed;
}

TEST_F(ValidatorTest, RereadOutputWithRenamedSingletonsVerifiesClean) {
  reader::Program original = Parse(kSingletonProgram);
  core::ReorderResult result = Reorder(original);
  reader::Program reread = Parse(RenamedSingletonOutput(store_, result));
  ReorderCheckInput input;
  input.original = &original;
  input.transformed = &reread;
  input.versions = VersionsOf(result);
  for (const Diagnostic& d : ValidateReorder(&store_, input)) {
    ADD_FAILURE() << d.ToString();
  }
}

TEST_F(ValidatorTest, TamperedRereadOutputIsPL101) {
  reader::Program original = Parse(kSingletonProgram);
  core::ReorderResult result = Reorder(original);
  const std::string renamed = RenamedSingletonOutput(store_, result);
  // b/2's goal with its renamed singleton, e.g. `b_uu(X,_Anon1)`.
  const size_t b_at = renamed.find("b_uu(X,_Anon");
  ASSERT_NE(b_at, std::string::npos) << renamed;
  const std::string b_goal =
      renamed.substr(b_at, renamed.find(')', b_at) + 1 - b_at);
  struct Tamper {
    const char* what;
    std::string from;
    std::string to;
  };
  const Tamper tampers[] = {
      {"singleton turned shared", b_goal, "b_uu(X,X)"},
      {"shared variable split", "left_uu(X,Z)", "left_uu(X,Z2)"},
      {"goal dropped", "    a_u(X),\n", ""},
      {"goal duplicated", "    a_u(X),\n", "    a_u(X),\n    a_u(X),\n"},
      {"constant changed", "d_uu(X,1)", "d_uu(X,2)"},
      {"pinned goals swapped", "write(X),\n    nl.", "nl,\n    write(X)."},
  };
  for (const Tamper& tamper : tampers) {
    SCOPED_TRACE(tamper.what);
    const std::string text = ReplaceAll(renamed, tamper.from, tamper.to);
    ASSERT_NE(text, renamed) << "the tamper did not apply:\n" << renamed;
    reader::Program reread = Parse(text);
    ReorderCheckInput input;
    input.original = &original;
    input.transformed = &reread;
    input.versions = VersionsOf(result);
    EXPECT_TRUE(HasError(WithCode(ValidateReorder(&store_, input), "PL101")));
  }
}

TEST_F(ValidatorTest, GuardedReorderOfClauseWithAnonymousVariableStaysFull) {
  // The run-time guard repeats the clause's goals in both branches, so the
  // `_` of s/2 occurs twice in the clause but once in each branch.
  reader::Program original = Parse(
      "q(1, 2). q(2, 3). q(3, 4). q(4, 5).\n"
      "p(1, 2). p(2, 3).\n"
      "r(3). r(4).\n"
      "s(1, 1). s(2, 2). s(a, 1).\n"
      "t(X, Y) :- q(Y, Z), p(X, Y), r(Z), s(_, X).\n");
  core::PipelineOptions options;
  options.reorder.runtime_guards = true;
  auto result = core::GuardedPipeline(&store_, options).Run(original);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string written = reader::WriteProgram(store_, result->program);
  ASSERT_NE(written.find("(ground("), std::string::npos)
      << "no guard emitted:\n" << written;
  ASSERT_EQ(result->report.preds.size(), 5u);
  for (const core::PredOutcome& o : result->report.preds) {
    EXPECT_EQ(o.level, core::LadderLevel::kFull) << o.name;
  }
}

}  // namespace
}  // namespace prore::lint
