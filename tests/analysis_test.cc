#include <gtest/gtest.h>

#include "analysis/body.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "reader/parser.h"
#include "term/store.h"

namespace prore::analysis {
namespace {

using term::PredId;
using term::TermRef;
using term::TermStore;

class AnalysisTest : public ::testing::Test {
 protected:
  void Load(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto g = CallGraph::Build(store_, program_);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    graph_ = std::move(g).value();
  }

  PredId Id(const std::string& name, uint32_t arity) {
    return PredId{store_.symbols().Intern(name), arity};
  }

  TermStore store_;
  reader::Program program_;
  CallGraph graph_;
};

// ---- Body trees ---------------------------------------------------------------

TEST_F(AnalysisTest, BodyParseFlattensConjunction) {
  Load("p :- a, b, c, d.");
  auto body = ParseBody(store_, program_.ClausesOf(Id("p", 0))[0].body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ((*body)->kind, BodyKind::kConj);
  EXPECT_EQ((*body)->children.size(), 4u);
  for (const auto& c : (*body)->children) {
    EXPECT_EQ(c->kind, BodyKind::kCall);
  }
}

TEST_F(AnalysisTest, BodyParseRecognizesControl) {
  Load("p :- ( a -> b ; c ), ( d ; e ), \\+ f, !, findall(X, g(X), L), h(L).");
  auto body = ParseBody(store_, program_.ClausesOf(Id("p", 0))[0].body);
  ASSERT_TRUE(body.ok());
  const auto& kids = (*body)->children;
  ASSERT_EQ(kids.size(), 6u);
  EXPECT_EQ(kids[0]->kind, BodyKind::kIfThenElse);
  EXPECT_EQ(kids[1]->kind, BodyKind::kDisj);
  EXPECT_EQ(kids[2]->kind, BodyKind::kNeg);
  EXPECT_EQ(kids[3]->kind, BodyKind::kCut);
  EXPECT_EQ(kids[4]->kind, BodyKind::kSetPred);
  EXPECT_EQ(kids[5]->kind, BodyKind::kCall);
}

TEST_F(AnalysisTest, BodyParseRejectsVariableGoal) {
  TermStore s;
  auto p = reader::ParseProgramText(&s, "p(X) :- X.");
  ASSERT_TRUE(p.ok());
  PredId id{s.symbols().Intern("p"), 1};
  auto body = ParseBody(s, p->ClausesOf(id)[0].body);
  EXPECT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), prore::StatusCode::kUnsupported);
}

TEST_F(AnalysisTest, CollectCalledGoalsSeesInsideControl) {
  Load("p :- ( a -> b ; c ), \\+ d, findall(X, e(X), _).");
  auto body = ParseBody(store_, program_.ClausesOf(Id("p", 0))[0].body);
  ASSERT_TRUE(body.ok());
  std::vector<TermRef> goals;
  CollectCalledGoals(store_, **body, &goals);
  std::vector<std::string> names;
  for (TermRef g : goals) {
    names.push_back(store_.symbols().Name(store_.pred_id(store_.Deref(g)).name));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "a"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "b"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "c"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "d"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "e"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "findall"), names.end());
}

TEST_F(AnalysisTest, ClauseCutDetection) {
  Load(R"(
    with_cut :- a, !, b.
    no_cut :- a, \+ (x, !, y), b.
    ite_cond_cut :- ( a, ! -> b ; c ).
    ite_then_cut :- ( a -> !, b ; c ).
  )");
  auto body1 = ParseBody(store_, program_.ClausesOf(Id("with_cut", 0))[0].body);
  EXPECT_TRUE(ContainsClauseCut(**body1));
  auto body2 = ParseBody(store_, program_.ClausesOf(Id("no_cut", 0))[0].body);
  EXPECT_FALSE(ContainsClauseCut(**body2));
  auto body3 =
      ParseBody(store_, program_.ClausesOf(Id("ite_cond_cut", 0))[0].body);
  EXPECT_FALSE(ContainsClauseCut(**body3));  // condition cut is local
  auto body4 =
      ParseBody(store_, program_.ClausesOf(Id("ite_then_cut", 0))[0].body);
  EXPECT_TRUE(ContainsClauseCut(**body4));
}

// ---- Call graph -----------------------------------------------------------------

TEST_F(AnalysisTest, CallGraphEdges) {
  Load(R"(
    top :- mid(X), leaf(X).
    mid(X) :- leaf(X).
    leaf(1).
  )");
  auto callees = graph_.Callees(Id("top", 0));
  EXPECT_EQ(callees.size(), 2u);
  EXPECT_EQ(graph_.Callees(Id("leaf", 1)).size(), 0u);
}

TEST_F(AnalysisTest, EntryPointsAreUncalledPreds) {
  Load(R"(
    main1 :- helper(X), helper(X).
    main2 :- helper(_).
    helper(1).
  )");
  const auto& entries = graph_.EntryPoints();
  ASSERT_EQ(entries.size(), 2u);
}

TEST_F(AnalysisTest, SelfRecursionDetected) {
  Load(R"(
    count(N, N).
    count(I, N) :- I < N, I1 is I + 1, count(I1, N).
    plain(X) :- count(0, X).
  )");
  EXPECT_TRUE(graph_.IsRecursive(Id("count", 2)));
  EXPECT_FALSE(graph_.IsRecursive(Id("plain", 1)));
}

TEST_F(AnalysisTest, MutualRecursionDetected) {
  Load(R"(
    even(0).
    even(N) :- N > 0, M is N - 1, odd(M).
    odd(N) :- N > 0, M is N - 1, even(M).
  )");
  EXPECT_TRUE(graph_.IsRecursive(Id("even", 1)));
  EXPECT_TRUE(graph_.IsRecursive(Id("odd", 1)));
}

TEST_F(AnalysisTest, SccsAreBottomUp) {
  Load(R"(
    a :- b.
    b :- c.
    c.
  )");
  const auto& sccs = graph_.SccsBottomUp();
  ASSERT_EQ(sccs.size(), 3u);
  EXPECT_EQ(store_.symbols().Name(sccs[0][0].name), "c");
  EXPECT_EQ(store_.symbols().Name(sccs[2][0].name), "a");
}

TEST_F(AnalysisTest, RecursionSeenThroughNegation) {
  Load("p(X) :- \\+ p(X).");
  EXPECT_TRUE(graph_.IsRecursive(Id("p", 1)));
}

// ---- Fixity ----------------------------------------------------------------------

TEST_F(AnalysisTest, DirectSideEffectMakesPredFixed) {
  Load(R"(
    noisy(X) :- write(X), nl.
    quiet(X) :- atom(X).
  )");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsFixed(Id("noisy", 1)));
  EXPECT_FALSE(r->IsFixed(Id("quiet", 1)));
}

TEST_F(AnalysisTest, FixityPropagatesToAllAncestors) {
  // "a single fixed goal can contaminate most of a program" (§IV-B).
  Load(R"(
    w(X) :- write(X).
    x(X) :- w(X).
    y(X) :- x(X).
    z(X) :- atom(X).
    top :- y(1), z(2).
  )");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsFixed(Id("w", 1)));
  EXPECT_TRUE(r->IsFixed(Id("x", 1)));
  EXPECT_TRUE(r->IsFixed(Id("y", 1)));
  EXPECT_TRUE(r->IsFixed(Id("top", 0)));
  EXPECT_FALSE(r->IsFixed(Id("z", 1)));
}

TEST_F(AnalysisTest, SideEffectInsideNegationStillFixes) {
  Load("p(X) :- \\+ (write(X), fail).");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->IsFixed(Id("p", 1)));
}

TEST_F(AnalysisTest, SemifixedPaperExample) {
  // §IV-C: a(X,Y,b) :- !.  /  a(X,Y,Z) :- c(X,Y), d(Y,Z).
  Load(R"(
    a(_, _, b) :- !.
    a(X, Y, Z) :- c(X, Y), d(Y, Z).
    c(1, 2).
    d(2, 3).
  )");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->IsSemifixed(Id("a", 3)));
  const auto* culprits = r->CulpritArgs(Id("a", 3));
  ASSERT_NE(culprits, nullptr);
  EXPECT_FALSE((*culprits)[0]);
  EXPECT_FALSE((*culprits)[1]);
  EXPECT_TRUE((*culprits)[2]);  // third argument is the culprit
}

TEST_F(AnalysisTest, CutWithoutModeSensitivityIsNotSemifixed) {
  // Both clauses have variables everywhere: instantiation cannot change
  // which head matches.
  Load(R"(
    f(X) :- g(X), !.
    f(X) :- h(X).
    g(1). h(2).
  )");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->IsSemifixed(Id("f", 1)));
}

TEST_F(AnalysisTest, SemifixityPropagatesThroughHeadVariable) {
  Load(R"(
    a(_, b) :- !.
    a(X, Y) :- c(X, Y).
    c(1, 2).
    caller(V) :- a(1, V).
  )");
  auto r = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->IsSemifixed(Id("caller", 1)));
  const auto* culprits = r->CulpritArgs(Id("caller", 1));
  ASSERT_NE(culprits, nullptr);
  EXPECT_TRUE((*culprits)[0]);
}

TEST_F(AnalysisTest, BuiltinSemifixedTable) {
  EXPECT_EQ(SemifixedArgsOfBuiltin("var", 1), std::vector<bool>{true});
  EXPECT_EQ(SemifixedArgsOfBuiltin("\\==", 2), (std::vector<bool>{true, true}));
  EXPECT_TRUE(SemifixedArgsOfBuiltin("is", 2).empty());
  EXPECT_TRUE(SemifixedArgsOfBuiltin("write", 1).empty());
}

TEST_F(AnalysisTest, SideEffectBuiltinTable) {
  EXPECT_TRUE(IsSideEffectBuiltin("write", 1));
  EXPECT_TRUE(IsSideEffectBuiltin("nl", 0));
  EXPECT_TRUE(IsSideEffectBuiltin("read", 1));
  EXPECT_FALSE(IsSideEffectBuiltin("atom", 1));
  EXPECT_FALSE(IsSideEffectBuiltin("is", 2));
}

TEST_F(AnalysisTest, RefineSemifixityFlagsNegationDependentPred) {
  // male(X) :- \\+ female(X): outcome flips with X's instantiation.
  Load(R"(
    girl(g1).
    wife(h1, w1).
    female(X) :- girl(X).
    female(X) :- wife(_, X).
    male(X) :- not(female(X)).
    person(h1). person(w1). person(g1).
    men(X) :- person(X), male(X).
  )");
  auto d = ParseDeclarations(store_, program_);
  ASSERT_TRUE(d.ok());
  auto m = InferModes(store_, program_, graph_, *d);
  ASSERT_TRUE(m.ok());
  LegalityOracle oracle(&store_, &program_, &graph_, &*m);
  auto f = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(f.ok());
  auto fixity = std::move(f).value();
  ASSERT_TRUE(
      RefineSemifixity(store_, program_, graph_, &oracle, &fixity).ok());
  ASSERT_TRUE(fixity.IsSemifixed(Id("male", 1)));
  EXPECT_TRUE((*fixity.CulpritArgs(Id("male", 1)))[0]);
}

TEST_F(AnalysisTest, RefineSemifixityNotPropagatedWhenAlwaysGround) {
  // unequal's culprits are always ground inside siblings (mother grounds
  // them first), so siblings itself is NOT semifixed.
  Load(R"(
    mother(a, m1). mother(b, m1).
    unequal(X, Y) :- X \== Y.
    siblings(X, Y) :- mother(X, M), mother(Y, M), unequal(X, Y).
  )");
  auto d = ParseDeclarations(store_, program_);
  auto m = InferModes(store_, program_, graph_, *d);
  ASSERT_TRUE(m.ok());
  LegalityOracle oracle(&store_, &program_, &graph_, &*m);
  auto f = AnalyzeFixity(store_, program_, graph_);
  auto fixity = std::move(f).value();
  ASSERT_TRUE(
      RefineSemifixity(store_, program_, graph_, &oracle, &fixity).ok());
  EXPECT_TRUE(fixity.IsSemifixed(Id("unequal", 2)));
  EXPECT_FALSE(fixity.IsSemifixed(Id("siblings", 2)));
}

TEST_F(AnalysisTest, ModeSensitiveVarsTable) {
  Load(R"(
    f(X, Y) :- var(X), Y \== a, g(X).
    g(1).
  )");
  auto f = AnalyzeFixity(store_, program_, graph_);
  ASSERT_TRUE(f.ok());
  PredId id = Id("f", 2);
  auto body = ParseBody(store_, program_.ClausesOf(id)[0].body);
  ASSERT_TRUE(body.ok());
  const auto& kids = (*body)->children;
  EXPECT_EQ(ModeSensitiveVars(store_, *kids[0], *f).size(), 1u);  // var(X)
  EXPECT_EQ(ModeSensitiveVars(store_, *kids[1], *f).size(), 1u);  // Y \== a
  EXPECT_TRUE(ModeSensitiveVars(store_, *kids[2], *f).empty());   // g(X)
}

// ---- Mode primitives -----------------------------------------------------------

TEST(ModeTest, StringRoundTrip) {
  auto m = ModeFromString("(+,-,?)");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(ModeString(*m), "(+,-,?)");
  EXPECT_EQ(ModeSuffix(*m), "iua");
}

TEST(ModeTest, SatisfiesInputUpwardClosed) {
  Mode input = std::move(ModeFromString("(+,-)")).value();
  EXPECT_TRUE(SatisfiesInput(std::move(ModeFromString("(+,-)")).value(), input));
  EXPECT_TRUE(SatisfiesInput(std::move(ModeFromString("(+,+)")).value(), input));
  EXPECT_FALSE(SatisfiesInput(std::move(ModeFromString("(-,-)")).value(), input));
  EXPECT_FALSE(SatisfiesInput(std::move(ModeFromString("(?,+)")).value(), input));
}

TEST(ModeTest, ApplyOutputKeepsInstantiation) {
  Mode call = std::move(ModeFromString("(+,-,-)")).value();
  Mode out = std::move(ModeFromString("(?,+,-)")).value();
  EXPECT_EQ(ModeString(ApplyOutput(call, out)), "(+,+,-)");
}

TEST(ModeTest, ModeTableMergeAndLookup) {
  TermStore store;
  PredId p{store.symbols().Intern("p"), 2};
  ModeTable table;
  table.Add(p, ModePair{std::move(ModeFromString("(+,?)")).value(),
                        std::move(ModeFromString("(+,+)")).value()});
  EXPECT_TRUE(table.IsLegalCall(p, std::move(ModeFromString("(+,-)")).value()));
  EXPECT_FALSE(table.IsLegalCall(p, std::move(ModeFromString("(-,-)")).value()));
  auto out = table.OutputFor(p, std::move(ModeFromString("(+,-)")).value());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(ModeString(*out), "(+,+)");
}

TEST(ModeTest, BuiltinModesDemands) {
  const BuiltinModes& bm = BuiltinModes::Standard();
  EXPECT_TRUE(bm.IsLegalCall("is", 2, std::move(ModeFromString("(-,+)")).value()));
  EXPECT_FALSE(bm.IsLegalCall("is", 2, std::move(ModeFromString("(-,-)")).value()));
  EXPECT_FALSE(bm.IsLegalCall("<", 2, std::move(ModeFromString("(+,-)")).value()));
  EXPECT_TRUE(bm.IsLegalCall("var", 1, std::move(ModeFromString("(-)")).value()));
  EXPECT_TRUE(bm.IsLegalCall("functor", 3,
                             std::move(ModeFromString("(-,+,+)")).value()));
  EXPECT_FALSE(bm.IsLegalCall("functor", 3,
                              std::move(ModeFromString("(-,+,-)")).value()));
}

TEST(ModeTest, AbstractEnvModeOf) {
  TermStore store;
  auto q = reader::ParseQueryText(&store, "f(X, g(Y), a, 3).");
  ASSERT_TRUE(q.ok());
  TermRef goal = q->term;
  AbstractEnv env;
  TermRef x = store.Deref(store.arg(goal, 0));
  env.Set(store.var_id(x), VarState::kGround);
  Mode mode = env.CallModeOf(store, goal);
  EXPECT_EQ(ModeString(mode), "(+,?,+,+)");
}

TEST(ModeTest, AbstractUnificationGroundsFreeSide) {
  TermStore store;
  auto q = reader::ParseQueryText(&store, "f(X, Y).");
  TermRef goal = q->term;
  TermRef x = store.Deref(store.arg(goal, 0));
  TermRef y = store.Deref(store.arg(goal, 1));
  AbstractEnv env;
  env.Set(store.var_id(x), VarState::kGround);
  env.ApplyUnification(store, x, y);
  EXPECT_EQ(env.Get(store.var_id(y)), VarState::kGround);
}

// ---- Declarations ---------------------------------------------------------------

TEST(DeclTest, ParsesAllDirectiveForms) {
  TermStore store;
  auto p = reader::ParseProgramText(&store, R"(
    :- legal_mode(del(?,+,?), del(+,+,+)).
    :- mode(app(+,-,-)).
    :- entry(main/0).
    :- recursive(del/3).
    :- prob(fact/1, 0.25).
    :- cost(fact/1, 3.5).
    main :- del(a, [a], R), app(R, _, _), fact(_).
    del(X, [X|T], T).
    app(X, Y, Z) :- append(X, Y, Z).
    fact(1).
  )");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  auto d = ParseDeclarations(store, *p);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  PredId del{store.symbols().Intern("del"), 3};
  PredId app{store.symbols().Intern("app"), 3};
  PredId fact{store.symbols().Intern("fact"), 1};
  EXPECT_TRUE(d->legal_modes.Has(del));
  EXPECT_TRUE(d->legal_modes.Has(app));
  ASSERT_EQ(d->entries.size(), 1u);
  ASSERT_EQ(d->recursive.size(), 1u);
  EXPECT_DOUBLE_EQ(d->success_probs.at(fact), 0.25);
  EXPECT_DOUBLE_EQ(d->costs.at(fact), 3.5);
}

// ---- Mode inference --------------------------------------------------------------

class InferTest : public AnalysisTest {
 protected:
  ModeAnalysis Infer() {
    auto d = ParseDeclarations(store_, program_);
    EXPECT_TRUE(d.ok());
    decls_ = std::move(d).value();
    auto r = InferModes(store_, program_, graph_, decls_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ModeAnalysis{};
  }
  Declarations decls_;
};

TEST_F(InferTest, GroundnessFlowsThroughConjunction) {
  Load(R"(
    main(X, Y) :- gen(X), dep(X, Y).
    gen(1).
    dep(A, B) :- B is A + 1.
  )");
  ModeAnalysis a = Infer();
  // main called (-,-): X gets ground by gen, then Y ground by is/2.
  auto out = a.table.OutputFor(Id("main", 2),
                               std::move(ModeFromString("(-,-)")).value());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(ModeString(*out), "(+,+)");
}

TEST_F(InferTest, ObservedCallModesRecorded) {
  Load(R"(
    main :- gen(X), use(X).
    gen(1).
    use(X) :- X > 0.
  )");
  ModeAnalysis a = Infer();
  const auto& observed = a.observed_inputs[Id("use", 1)];
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(ModeString(observed[0]), "(+)");
}

TEST_F(InferTest, RecursiveListBuilderOutput) {
  Load(R"(
    main(L) :- build(3, L).
    build(0, []).
    build(N, [N|T]) :- N > 0, M is N - 1, build(M, T).
  )");
  ModeAnalysis a = Infer();
  auto out = a.table.OutputFor(Id("build", 2),
                               std::move(ModeFromString("(+,-)")).value());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(ModeString(*out), "(+,+)");
}

TEST_F(InferTest, DisjunctionJoinsBranches) {
  Load(R"(
    main(X, Y) :- ( p(X), q(Y) ; p(X) ).
    p(1). q(2).
  )");
  ModeAnalysis a = Infer();
  auto out = a.table.OutputFor(Id("main", 2),
                               std::move(ModeFromString("(-,-)")).value());
  ASSERT_TRUE(out.has_value());
  // X ground in both branches; Y only in the first.
  EXPECT_EQ((*out)[0], ModeItem::kPlus);
  EXPECT_NE((*out)[1], ModeItem::kPlus);
}

TEST_F(InferTest, NegationBindsNothing) {
  Load(R"(
    main(X) :- \+ p(X).
    p(1).
  )");
  ModeAnalysis a = Infer();
  auto out = a.table.OutputFor(Id("main", 1),
                               std::move(ModeFromString("(-)")).value());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ((*out)[0], ModeItem::kMinus);
}

TEST_F(InferTest, DeclaredEntryModesRestrictAnalysis) {
  Load(R"(
    :- entry(main/1).
    :- legal_mode(main(+), main(+)).
    main(X) :- use(X).
    use(X) :- X > 0.
  )");
  ModeAnalysis a = Infer();
  const auto& observed = a.observed_inputs[Id("use", 1)];
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(ModeString(observed[0]), "(+)");
}

TEST_F(InferTest, LegalityOracleBuiltins) {
  Load("main(X) :- Y is X + 1, Y > 0.");
  ModeAnalysis a = Infer();
  LegalityOracle oracle(&store_, &program_, &graph_, &a);
  PredId is_id{store_.symbols().Intern("is"), 2};
  EXPECT_TRUE(oracle.IsLegalCall(is_id,
                                 std::move(ModeFromString("(-,+)")).value()));
  EXPECT_FALSE(oracle.IsLegalCall(is_id,
                                  std::move(ModeFromString("(-,-)")).value()));
}

TEST_F(InferTest, LegalityOracleRejectsUnseenRecursiveMode) {
  // The paper's permutation/2 danger: only modes arising in the original
  // program (or declared) are legal for recursive predicates.
  // The entry's legal modes are declared, so the walk is non-speculative
  // and the modes it induces on perm/2 become legal; anything else stays
  // illegal for the recursive predicate.
  Load(R"(
    :- legal_mode(main(-), main(+)).
    main(P) :- perm([1,2,3], P).
    perm([], []).
    perm(Xs, [X|Ys]) :- sel(X, Xs, Zs), perm(Zs, Ys).
    sel(X, [X|T], T).
    sel(X, [H|T], [H|R]) :- sel(X, T, R).
  )");
  ModeAnalysis a = Infer();
  LegalityOracle oracle(&store_, &program_, &graph_, &a);
  EXPECT_TRUE(oracle.IsLegalCall(Id("perm", 2),
                                 std::move(ModeFromString("(+,-)")).value()));
  EXPECT_FALSE(oracle.IsLegalCall(Id("perm", 2),
                                  std::move(ModeFromString("(-,-)")).value()));
}

TEST_F(InferTest, LegalityOracleAnalyzesNonRecursiveOnDemand) {
  Load(R"(
    main :- wrapper(1, _).
    wrapper(X, Y) :- Y is X * 2.
  )");
  ModeAnalysis a = Infer();
  LegalityOracle oracle(&store_, &program_, &graph_, &a);
  // (-,-) never arises in the program, but on-demand analysis shows the
  // inner is/2 would be illegal.
  EXPECT_FALSE(oracle.IsLegalCall(Id("wrapper", 2),
                                  std::move(ModeFromString("(-,-)")).value()));
  // (+,-) is fine even if only (+,?) was observed.
  EXPECT_TRUE(oracle.IsLegalCall(Id("wrapper", 2),
                                 std::move(ModeFromString("(+,-)")).value()));
  Mode out = oracle.Output(Id("wrapper", 2),
                           std::move(ModeFromString("(+,-)")).value());
  EXPECT_EQ(ModeString(out), "(+,+)");
}

TEST_F(InferTest, LibraryModesKnown) {
  Load("main(L) :- append([1], [2], L).");
  ModeAnalysis a = Infer();
  LegalityOracle oracle(&store_, &program_, &graph_, &a);
  PredId app{store_.symbols().Intern("append"), 3};
  EXPECT_TRUE(oracle.IsLegalCall(app,
                                 std::move(ModeFromString("(+,+,-)")).value()));
  EXPECT_FALSE(oracle.IsLegalCall(app,
                                  std::move(ModeFromString("(-,-,-)")).value()));
}

}  // namespace
}  // namespace prore::analysis
