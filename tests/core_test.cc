#include <gtest/gtest.h>

#include "core/clause_order.h"
#include "core/evaluation.h"
#include "core/goal_order.h"
#include "core/reorderer.h"
#include "core/restrictions.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore::core {
namespace {

using term::PredId;
using term::TermStore;

/// The §I-D family snippet with a small fact base where female/1 is cheap
/// and grandparent/2 is expensive.
constexpr const char* kGrandmotherProgram = R"(
wife(john, jane).
wife(paul, mary).
wife(peter, ann).
wife(abe, agnes).
wife(bob, june).
wife(carl, rose).
mother(john, joan).
mother(jane, june).
mother(paul, joan).
mother(mary, rose).
mother(peter, rose).
mother(ann, june).
mother(joan, agnes).
female(jan).
female(Woman) :- wife(_, Woman).
grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
grandparent(GC, GP) :- parent(P, GP), parent(GC, P).
parent(C, P) :- mother(C, P).
parent(C, P) :- mother(C, M), wife(P, M).
)";

class PipelineTest : public ::testing::Test {
 protected:
  void Load(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    original_ = std::move(p).value();
  }

  ReorderResult Reorder(ReorderOptions opts = ReorderOptions()) {
    Reorderer reorderer(&store_, opts);
    auto r = reorderer.Run(original_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ReorderResult{};
  }

  /// Runs a query on both and requires set-equivalence.
  ComparisonResult Compare(const ReorderResult& reordered,
                           const std::string& query) {
    Evaluator eval(&store_, original_, reordered.program);
    auto r = eval.CompareQuery(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : ComparisonResult{};
  }

  TermStore store_;
  reader::Program original_;
};

// ---- Restrictions -----------------------------------------------------------

class RestrictionsTest : public ::testing::Test {
 protected:
  ClausePlan Plan(const std::string& program, const std::string& pred,
                  uint32_t arity) {
    auto p = reader::ParseProgramText(&store_, program);
    EXPECT_TRUE(p.ok());
    program_ = std::move(p).value();
    auto g = analysis::CallGraph::Build(store_, program_);
    EXPECT_TRUE(g.ok());
    graph_ = std::move(g).value();
    auto f = analysis::AnalyzeFixity(store_, program_, graph_);
    EXPECT_TRUE(f.ok());
    fixity_ = std::move(f).value();
    PredId id{store_.symbols().Intern(pred), arity};
    auto body = analysis::ParseBody(store_, program_.ClausesOf(id)[0].body);
    EXPECT_TRUE(body.ok());
    body_ = std::move(body).value();
    auto plan = PlanClause(store_, *body_, fixity_, graph_);
    EXPECT_TRUE(plan.ok());
    return plan.ok() ? std::move(plan).value() : ClausePlan{};
  }

  TermStore store_;
  reader::Program program_;
  analysis::CallGraph graph_;
  analysis::FixityResult fixity_;
  std::unique_ptr<analysis::BodyNode> body_;
};

TEST_F(RestrictionsTest, PureBodyIsOneSegment) {
  ClausePlan plan = Plan("p :- a, b, c. a. b. c.", "p", 0);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].elements.size(), 3u);
  EXPECT_FALSE(plan.segments[0].frozen);
  EXPECT_EQ(plan.segments[0].barrier, nullptr);
}

TEST_F(RestrictionsTest, WriteGoalIsBarrier) {
  ClausePlan plan = Plan("p :- a, write(x), b, c. a. b. c.", "p", 0);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].elements.size(), 1u);  // a
  ASSERT_NE(plan.segments[0].barrier, nullptr);     // write(x)
  EXPECT_EQ(plan.segments[1].elements.size(), 2u);  // b, c
}

TEST_F(RestrictionsTest, CallToFixedPredIsBarrier) {
  ClausePlan plan = Plan(R"(
    p :- a, noisy, b.
    noisy :- write(hello).
    a. b.
  )", "p", 0);
  ASSERT_EQ(plan.segments.size(), 2u);
  ASSERT_NE(plan.segments[0].barrier, nullptr);
}

TEST_F(RestrictionsTest, GoalsBeforeCutAreFrozen) {
  ClausePlan plan = Plan("p :- a, b, !, c, d. a. b. c. d.", "p", 0);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_TRUE(plan.segments[0].frozen);
  EXPECT_EQ(plan.segments[0].elements.size(), 2u);  // a, b
  EXPECT_FALSE(plan.segments[1].frozen);
  EXPECT_EQ(plan.segments[1].elements.size(), 2u);  // c, d
  EXPECT_TRUE(plan.has_cut);
}

TEST_F(RestrictionsTest, NegationIsMobile) {
  ClausePlan plan = Plan("p(X) :- a(X), \\+ b(X), c(X). a(1). b(1). c(1).",
                         "p", 1);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].elements.size(), 3u);
}

TEST_F(RestrictionsTest, NegationWithSideEffectInsideIsBarrier) {
  ClausePlan plan = Plan("p :- a, \\+ (write(x), fail), b. a. b.", "p", 0);
  ASSERT_EQ(plan.segments.size(), 2u);
  ASSERT_NE(plan.segments[0].barrier, nullptr);
}

TEST_F(RestrictionsTest, FrozenDescendantsOfCutGuardedGoals) {
  TermStore store;
  auto p = reader::ParseProgramText(&store, R"(
    top :- costly(X), !, use(X).
    costly(X) :- helper(X).
    helper(1).
    use(_).
    free(X) :- helper2(X).
    helper2(2).
  )");
  ASSERT_TRUE(p.ok());
  auto g = analysis::CallGraph::Build(store, *p);
  ASSERT_TRUE(g.ok());
  auto frozen = FrozenDescendants(store, *p, *g);
  ASSERT_TRUE(frozen.ok());
  PredId costly{store.symbols().Intern("costly"), 1};
  PredId helper{store.symbols().Intern("helper"), 1};
  PredId use{store.symbols().Intern("use"), 1};
  PredId free_pred{store.symbols().Intern("free"), 1};
  EXPECT_TRUE(frozen->count(costly) > 0);
  EXPECT_TRUE(frozen->count(helper) > 0);   // descendant
  EXPECT_FALSE(frozen->count(use) > 0);     // after the cut
  EXPECT_FALSE(frozen->count(free_pred) > 0);
}

// ---- End-to-end pipeline ------------------------------------------------------

TEST_F(PipelineTest, GrandmotherQueryImprovesAndStaysSetEquivalent) {
  Load(kGrandmotherProgram);
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "grandmother(X, Y)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_EQ(c.original_answers, c.reordered_answers);
  EXPECT_GT(c.original_answers, 0u);
  // The paper's §I-D claim: female-first is cheaper for the open query.
  EXPECT_LE(c.reordered_calls, c.original_calls);
}

TEST_F(PipelineTest, AllModesOfGrandmotherAreSetEquivalent) {
  Load(kGrandmotherProgram);
  ReorderResult r = Reorder();
  Evaluator eval(&store_, original_, r.program);
  std::vector<std::string> people = {"john", "jane", "paul",  "mary", "peter",
                                     "ann",  "joan", "june",  "rose", "agnes",
                                     "jan"};
  for (const char* mode : {"(-,-)", "(+,-)", "(-,+)", "(+,+)"}) {
    auto c = eval.CompareMode("grandmother", 2, mode, people);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    EXPECT_TRUE(c->set_equivalent) << mode;
  }
}

TEST_F(PipelineTest, SpecializationEmitsVersionsAndDispatcher) {
  Load(kGrandmotherProgram);
  ReorderResult r = Reorder();
  std::string text = reader::WriteProgram(store_, r.program);
  // Mode-specialized names in the paper's style.
  EXPECT_NE(text.find("grandmother_"), std::string::npos);
  // A dispatcher on the original name with (uncounted) tag tests.
  EXPECT_NE(text.find("$var_test'("), std::string::npos);
  // The reordered program parses back.
  TermStore fresh;
  auto reparsed = reader::ParseProgramText(&fresh, text);
  EXPECT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

// male_u's and male_i's bodies are the same call to female_u once
// female_i is merged into female_u, so the two versions merge too; that
// female_u contains the text "male_u" must not keep them apart.
TEST_F(PipelineTest, IdenticalVersionsMergeWhateverTheirCalleesAreNamed) {
  Load(R"(
girl(ann).
girl(sue).
female(X) :- girl(X).
male(X) :- \+ female(X).
)");
  ReorderResult r = Reorder();
  std::string text = reader::WriteProgram(store_, r.program);
  EXPECT_NE(text.find("male_u(X) :-"), std::string::npos) << text;
  EXPECT_EQ(text.find("male_i("), std::string::npos) << text;
  EXPECT_EQ(text.find("female_i("), std::string::npos) << text;
  EXPECT_TRUE(Compare(r, "male(X)").set_equivalent);
  EXPECT_TRUE(Compare(r, "male(ann)").set_equivalent);
}

TEST_F(PipelineTest, NonSpecializedModeKeepsNames) {
  Load(kGrandmotherProgram);
  ReorderOptions opts;
  opts.specialize_modes = false;
  ReorderResult r = Reorder(opts);
  std::string text = reader::WriteProgram(store_, r.program);
  EXPECT_EQ(text.find("grandmother_"), std::string::npos);
  ComparisonResult c = Compare(r, "grandmother(X, Y)");
  EXPECT_TRUE(c.set_equivalent);
}

TEST_F(PipelineTest, CutProtectedProgramIsNotMiscompiled) {
  Load(R"(
    classify(X, small) :- X < 10, !.
    classify(X, big) :- X >= 10.
    run(R) :- classify(5, R).
    run2(R) :- classify(50, R).
  )");
  ReorderResult r = Reorder();
  EXPECT_TRUE(Compare(r, "run(R)").set_equivalent);
  EXPECT_TRUE(Compare(r, "run2(R)").set_equivalent);
}

TEST_F(PipelineTest, SideEffectOrderPreserved) {
  Load(R"(
    log(X) :- write(X), nl.
    steps :- log(one), log(two), log(three).
  )");
  ReorderResult r = Reorder();
  // Run both and compare the output streams.
  auto db1 = engine::Database::Build(&store_, original_);
  auto db2 = engine::Database::Build(&store_, r.program);
  ASSERT_TRUE(db1.ok() && db2.ok());
  engine::Machine m1(&store_, &db1.value());
  engine::Machine m2(&store_, &db2.value());
  auto q1 = reader::ParseQueryText(&store_, "steps.");
  auto q2 = reader::ParseQueryText(&store_, "steps.");
  ASSERT_TRUE(m1.Solve(q1->term).ok());
  ASSERT_TRUE(m2.Solve(q2->term).ok());
  EXPECT_EQ(m1.output(), "one\ntwo\nthree\n");
  EXPECT_EQ(m2.output(), m1.output());
}

TEST_F(PipelineTest, FailureDrivenLoopPreserved) {
  Load(R"(
    t(1). t(2). t(3).
    show_all :- t(X), write(X), nl, fail.
    show_all.
  )");
  ReorderResult r = Reorder();
  auto db2 = engine::Database::Build(&store_, r.program);
  ASSERT_TRUE(db2.ok());
  engine::Machine m2(&store_, &db2.value());
  auto q = reader::ParseQueryText(&store_, "show_all.");
  auto solved = m2.Solve(q->term);
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(m2.output(), "1\n2\n3\n");
}

TEST_F(PipelineTest, RecursivePredicatesKeptUnlessDeclared) {
  Load(R"(
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
    main(N) :- len([a,b,c], N).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "main(N)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_EQ(c.original_answers, 1u);
}

TEST_F(PipelineTest, PaperBuildExampleStaysLegal) {
  // §V-D: transform/append interplay; the reordered program must not
  // produce an illegal order (no runtime errors), and must keep answers.
  Load(R"(
    transform([], []).
    transform([X|Xs], [f(X)|Ys]) :- transform(Xs, Ys).
    build(L1, L2, L3, L4) :-
        transform(L2, L2a),
        transform(L3, L3a),
        append(L1, L2a, L2b),
        append(L2b, L3a, L4).
    main(L4) :- build([a], [b], [c], L4).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "main(L4)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_EQ(c.original_answers, 1u);
}

TEST_F(PipelineTest, ReportsCarryPredictions) {
  Load(kGrandmotherProgram);
  ReorderResult r = Reorder();
  EXPECT_FALSE(r.reports.empty());
  bool some_improvement = false;
  for (const PredModeReport& report : r.reports) {
    EXPECT_GE(report.predicted_original_cost, 0.0);
    if (report.predicted_new_cost + 1e-9 < report.predicted_original_cost) {
      some_improvement = true;
    }
  }
  EXPECT_TRUE(some_improvement);
}

TEST_F(PipelineTest, DisjunctionBranchesReorderedInternally) {
  Load(R"(
    big(N) :- N > 1000.
    item(1). item(2). item(3).
    pick(X) :- ( item(X), big(X) ; item(X), X < 2 ).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "pick(X)");
  EXPECT_TRUE(c.set_equivalent);
}

TEST_F(PipelineTest, SemifixedVarTestNotMovedAcrossBinder) {
  // var(Y) must keep seeing Y unbound: reordering gen(Y) before it would
  // flip its outcome. Set-equivalence must hold.
  Load(R"(
    gen(1). gen(2).
    probe(X) :- var(X), gen(X).
    main(X) :- probe(X).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "main(X)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_EQ(c.original_answers, 2u);
}

// ---- Goal order search on a paper-style clause --------------------------------

TEST_F(PipelineTest, CheapTestMovesBeforeExpensiveGenerator) {
  Load(R"(
    num(1). num(2). num(3). num(4). num(5). num(6). num(7). num(8).
    num(9). num(10).
    two(1). two(2).
    pair(X) :- num(X), two(X).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "pair(X)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_LT(c.reordered_calls, c.original_calls);
}

TEST_F(PipelineTest, DeclaredLegalModesAllowRecursiveReordering) {
  // Without the declaration the recursive predicate keeps its order; with
  // it, the expensive trailing test may move forward per mode.
  Load(R"(
    :- legal_mode(walk(+,-), walk(+,+)).
    :- legal_mode(walk(+,+), walk(+,+)).
    edge(a,b). edge(b,c). edge(c,d). edge(d,e).
    good(b). good(c). good(d). good(e).
    walk(X, Y) :- edge(X, Y), good(Y).
    walk(X, Z) :- edge(X, Y), good(Y), walk(Y, Z).
  )");
  ReorderResult r = Reorder();
  ComparisonResult c = Compare(r, "walk(a, W)");
  EXPECT_TRUE(c.set_equivalent);
  EXPECT_EQ(c.original_answers, c.reordered_answers);
}

TEST_F(PipelineTest, DirectivesSurviveTheRoundTrip) {
  Load(R"(
    :- entry(main/1).
    :- prob(f/1, 0.5).
    main(X) :- f(X).
    f(1).
  )");
  ReorderResult r = Reorder();
  EXPECT_EQ(r.program.directives().size(), original_.directives().size());
}

TEST_F(PipelineTest, EmptyProgramIsFine) {
  Load("");
  ReorderResult r = Reorder();
  EXPECT_EQ(r.program.NumClauses(), 0u);
}

TEST_F(PipelineTest, FactsOnlyProgramRoundTrips) {
  Load("f(a). f(b). g(a, b).");
  ReorderResult r = Reorder();
  ComparisonResult c1 = Compare(r, "f(X)");
  ComparisonResult c2 = Compare(r, "g(X, Y)");
  EXPECT_TRUE(c1.set_equivalent);
  EXPECT_TRUE(c2.set_equivalent);
}

TEST_F(PipelineTest, RuntimeGuardsEmitGroundTests) {
  // §V-D: without per-mode versions, a clause whose best order depends on
  // instantiation gets `( ground(X) -> reordered ; original )`.
  Load(R"(
    wide(1). wide(2). wide(3). wide(4). wide(5). wide(6). wide(7).
    wide(8). wide(9). wide(10).
    tag(1, a). tag(2, b). tag(3, c). tag(4, d). tag(5, e).
    tag(6, f). tag(7, g). tag(8, h). tag(9, i). tag(10, j).
    pick(X, T) :- wide(X), tag(X, T).
  )");
  ReorderOptions opts;
  opts.specialize_modes = false;
  opts.runtime_guards = true;
  ReorderResult r = Reorder(opts);
  std::string text = reader::WriteProgram(store_, r.program);
  // Either a guard was emitted or the orders coincide; if emitted it must
  // use ground/1 in an if-then-else.
  if (text.find("ground(") != std::string::npos) {
    EXPECT_NE(text.find("->"), std::string::npos);
  }
  // Behaviour intact in both instantiation states.
  EXPECT_TRUE(Compare(r, "pick(X, T)").set_equivalent);
  EXPECT_TRUE(Compare(r, "pick(7, T)").set_equivalent);
}

TEST_F(PipelineTest, RuntimeGuardsPayOffOnInstantiatedCalls) {
  // A narrow second generator: unbound calls want gen-first, bound calls
  // want the test first. One guarded clause must serve both.
  Load(R"(
    gen(1). gen(2). gen(3). gen(4). gen(5). gen(6). gen(7). gen(8).
    gen(9). gen(10). gen(11). gen(12).
    costly(X) :- gen(X), gen(_), gen(_).
    q(X) :- gen(X), costly(X).
  )");
  ReorderOptions opts;
  opts.specialize_modes = false;
  opts.runtime_guards = true;
  ReorderResult r = Reorder(opts);
  // Set-equivalence on both instantiation states.
  EXPECT_TRUE(Compare(r, "q(X)").set_equivalent);
  EXPECT_TRUE(Compare(r, "q(5)").set_equivalent);
}

}  // namespace
}  // namespace prore::core
