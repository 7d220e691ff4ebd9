#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "core/clause_order.h"
#include "core/goal_order.h"
#include "cost/cost_model.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace prore::core {
namespace {

using analysis::AbstractEnv;
using analysis::BodyNode;
using analysis::Mode;
using analysis::ModeFromString;
using term::PredId;
using term::TermStore;

/// Builds the full analysis stack for a program and exposes the pieces the
/// order search needs.
class OrderFixture {
 public:
  explicit OrderFixture(const std::string& text) {
    auto p = reader::ParseProgramText(&store_, text);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    program_ = std::move(p).value();
    auto g = analysis::CallGraph::Build(store_, program_);
    EXPECT_TRUE(g.ok());
    graph_ = std::move(g).value();
    auto f = analysis::AnalyzeFixity(store_, program_, graph_);
    EXPECT_TRUE(f.ok());
    fixity_ = std::move(f).value();
    auto m = analysis::InferModes(store_, program_, graph_, decls_);
    EXPECT_TRUE(m.ok());
    modes_ = std::move(m).value();
    oracle_ = std::make_unique<analysis::LegalityOracle>(&store_, &program_,
                                                         &graph_, &modes_);
    auto st = analysis::RefineSemifixity(store_, program_, graph_,
                                         oracle_.get(), &fixity_);
    EXPECT_TRUE(st.ok());
    costs_ = std::make_unique<cost::CostModel>(&store_, &program_, &graph_,
                                               &decls_, oracle_.get());
  }

  /// Top-level body elements of `name`/`arity`'s first clause.
  std::vector<const BodyNode*> Elements(const std::string& name,
                                        uint32_t arity) {
    PredId id{store_.symbols().Intern(name), arity};
    const auto& clause = program_.ClausesOf(id)[0];
    auto tree = analysis::ParseBody(store_, clause.body);
    EXPECT_TRUE(tree.ok());
    trees_.push_back(std::move(tree).value());
    std::vector<const BodyNode*> out;
    if (trees_.back()->kind == analysis::BodyKind::kConj) {
      for (const auto& child : trees_.back()->children) {
        out.push_back(child.get());
      }
    } else {
      out.push_back(trees_.back().get());
    }
    return out;
  }

  AbstractEnv EnvFor(const std::string& name, uint32_t arity,
                     const std::string& mode) {
    PredId id{store_.symbols().Intern(name), arity};
    const auto& clause = program_.ClausesOf(id)[0];
    return analysis::EnvFromHead(store_, clause.head,
                                 std::move(ModeFromString(mode)).value());
  }

  GoalOrderSearch Search(GoalOrderOptions opts = GoalOrderOptions()) {
    return GoalOrderSearch(&store_, costs_.get(), &fixity_, opts);
  }

  std::string GoalName(const BodyNode* node) {
    return store_.symbols().Name(
        store_.pred_id(store_.Deref(node->goal)).name);
  }

  TermStore store_;
  reader::Program program_;
  analysis::CallGraph graph_;
  analysis::Declarations decls_;
  analysis::FixityResult fixity_;
  analysis::ModeAnalysis modes_;
  std::unique_ptr<analysis::LegalityOracle> oracle_;
  std::unique_ptr<cost::CostModel> costs_;
  std::vector<std::unique_ptr<BodyNode>> trees_;
};

TEST(GoalOrderTest, NarrowGeneratorMovesFirst) {
  OrderFixture fx(R"(
    wide(1). wide(2). wide(3). wide(4). wide(5). wide(6). wide(7). wide(8).
    narrow(1). narrow(2).
    main(X) :- wide(X), narrow(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->changed);
  EXPECT_EQ(fx.GoalName(r->order[0]), "narrow");
  EXPECT_LT(r->cost_all, r->original_cost);
}

TEST(GoalOrderTest, AlreadyOptimalOrderUnchanged) {
  OrderFixture fx(R"(
    wide(1). wide(2). wide(3). wide(4). wide(5). wide(6). wide(7). wide(8).
    narrow(1). narrow(2).
    main(X) :- narrow(X), wide(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->changed);
  EXPECT_EQ(fx.GoalName(r->order[0]), "narrow");
}

TEST(GoalOrderTest, IllegalOrdersPruned) {
  // Y is X + 1 demands X ground: no order may put it before gen(X).
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3).
    main(Y) :- gen(X), Y is X + 1, gen(Y).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  // `is` must come after gen(X) in the chosen order.
  size_t gen_x = 99, is_pos = 99;
  for (size_t i = 0; i < r->order.size(); ++i) {
    std::string name = fx.GoalName(r->order[i]);
    if (name == "is") is_pos = i;
    if (name == "gen" && gen_x == 99) gen_x = i;
  }
  EXPECT_LT(gen_x, is_pos);
}

TEST(GoalOrderTest, SemifixedVarTestKeepsItsState) {
  // var(X) sees X free originally; placing it after gen(X) would flip its
  // outcome, so every candidate keeping set-equivalence leaves it first.
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3). gen(4). gen(5).
    main(X) :- var(X), gen(X), gen(X).
  )");
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search().FindBestOrder(elements, fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fx.GoalName(r->order[0]), "var");
}

TEST(GoalOrderTest, CulpritVarsOfNegation) {
  OrderFixture fx(R"(
    p(1).
    main(X, Y) :- p(X), \+ p(Y), p(Y).
  )");
  auto elements = fx.Elements("main", 2);
  GoalOrderSearch search = fx.Search();
  // The negation is semifixed in its variable Y.
  ASSERT_EQ(elements.size(), 3u);
  auto culprits = search.CulpritVars(*elements[1]);
  EXPECT_EQ(culprits.size(), 1u);
  // The plain p(X) call has none.
  EXPECT_TRUE(search.CulpritVars(*elements[0]).empty());
}

TEST(GoalOrderTest, AStarMatchesExhaustiveOnRandomChains) {
  std::mt19937 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    size_t n = 3 + rng() % 3;
    std::string src;
    std::string body;
    for (size_t g = 0; g < n; ++g) {
      size_t facts = 1 + rng() % 9;
      for (size_t f = 0; f < facts; ++f) {
        src += "g" + std::to_string(g) + "(k" + std::to_string(f % 3) +
               ", v" + std::to_string(f) + "_" + std::to_string(g) + ").\n";
      }
      if (g > 0) body += ", ";
      body += "g" + std::to_string(g) + "(X" + std::to_string(g) + ", Y" +
              std::to_string(g) + ")";
    }
    src += "target(X0) :- " + body + ".\n";
    OrderFixture fx(src);
    auto elements = fx.Elements("target", 1);
    AbstractEnv env = fx.EnvFor("target", 1, "(-)");

    GoalOrderOptions exhaustive_opts;
    exhaustive_opts.exhaustive_threshold = 10;
    auto exhaustive = fx.Search(exhaustive_opts).FindBestOrder(elements, env);

    GoalOrderOptions astar_opts;
    astar_opts.exhaustive_threshold = 0;
    astar_opts.use_astar = true;
    auto astar = fx.Search(astar_opts).FindBestOrder(elements, env);

    ASSERT_TRUE(exhaustive.ok() && astar.ok()) << "trial " << trial;
    EXPECT_NEAR(exhaustive->cost_all, astar->cost_all,
                1e-6 * (1.0 + exhaustive->cost_all))
        << "trial " << trial << "\n" << src;
  }
}

TEST(GoalOrderTest, ExhaustiveMatchesUnprunedReference) {
  // The bounded DFS must pick exactly what scoring every permutation with
  // EvaluateSequence picks: the first strict minimum in DFS (lexicographic)
  // order, at a bit-equal cost. The fact predicates make every order legal;
  // `big` has enough facts that its per-visit success rate hits the 0.999
  // cap, and `true`/`fail` give zero-cost and p = 1 / p = 0 elements.
  std::string facts;
  for (int f = 0; f < 1000; ++f) {
    facts += "big(" + std::to_string(f) + ").\n";
  }
  for (int g = 0; g < 4; ++g) {
    for (int f = 0; f <= 3 * g; ++f) {
      facts += "g" + std::to_string(g) + "(k" + std::to_string(f % 3) +
               ", v" + std::to_string(f) + ").\n";
    }
  }
  std::mt19937 rng(2024);
  auto var = [&] { return "X" + std::to_string(rng() % 4); };
  for (int trial = 0; trial < 40; ++trial) {
    size_t n = 2 + rng() % 5;
    std::string body;
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) body += ", ";
      switch (rng() % 8) {
        case 0:
          body += "true";
          break;
        case 1:
          body += "fail";
          break;
        case 2:
        case 3:
          body += "big(" + var() + ")";
          break;
        default:
          body += "g" + std::to_string(rng() % 4) + "(" + var() + ", " +
                  var() + ")";
      }
    }
    const std::string src = facts + "target(X0) :- " + body + ".\n";
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + body);
    OrderFixture fx(src);
    auto elements = fx.Elements("target", 1);
    ASSERT_EQ(elements.size(), n);
    AbstractEnv env = fx.EnvFor("target", 1, "(-)");

    GoalOrderOptions opts;
    opts.exhaustive_threshold = 6;
    auto r = fx.Search(opts).FindBestOrder(elements, env);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    // Reference: every permutation, in DFS order, scored from scratch.
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    std::vector<const BodyNode*> best_order;
    double best_cost = std::numeric_limits<double>::infinity();
    double original_cost = 0.0;
    do {
      std::vector<const BodyNode*> order;
      for (size_t i : perm) order.push_back(elements[i]);
      auto eval = fx.costs_->EvaluateSequence(order, env);
      ASSERT_TRUE(eval.ok()) << eval.status().ToString();
      ASSERT_TRUE(eval->legal);
      double cost = eval->chain.cost_all_solutions;
      if (order == elements) original_cost = cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_order = order;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    // FindBestOrder's acceptance rule: a strict gain over the original.
    bool improves = best_cost + 1e-9 < original_cost;
    EXPECT_EQ(r->order, improves ? best_order : elements);
    EXPECT_EQ(r->changed, improves && best_order != elements);
    EXPECT_EQ(r->cost_all, improves ? best_cost : original_cost);
    EXPECT_EQ(r->original_cost, original_cost);

    // A watchdog trip still aborts the search: before it starts, and
    // inside the DFS (2n steps price the original order and record its
    // signatures; the next placement beyond one more is over budget).
    for (uint64_t budget : {uint64_t{2}, uint64_t{2 * n + 1}}) {
      fx.costs_->ArmWatchdog({budget, 0});
      auto tripped = fx.Search(opts).FindBestOrder(elements, env);
      ASSERT_FALSE(tripped.ok()) << "budget " << budget;
      EXPECT_EQ(tripped.status().code(),
                prore::StatusCode::kResourceExhausted)
          << "budget " << budget;
    }
    fx.costs_->ArmWatchdog({});
  }
}

TEST(GoalOrderTest, WarrenGreedyProducesLegalOrder) {
  OrderFixture fx(R"(
    gen(1). gen(2). gen(3).
    main(Y) :- gen(X), Y is X * 2.
  )");
  GoalOrderOptions opts;
  opts.warren_heuristic = true;
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search(opts).FindBestOrder(elements,
                                         fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fx.GoalName(r->order[0]), "gen");  // `is` cannot go first
}

TEST(GoalOrderTest, TooLargeWithoutAStarKeepsOriginal) {
  std::string src;
  std::string body;
  for (int g = 0; g < 8; ++g) {
    src += "h" + std::to_string(g) + "(1).\n";
    if (g) body += ", ";
    body += "h" + std::to_string(g) + "(X)";
  }
  src += "main(X) :- " + body + ".\n";
  OrderFixture fx(src);
  GoalOrderOptions opts;
  opts.exhaustive_threshold = 3;
  opts.use_astar = false;
  auto elements = fx.Elements("main", 1);
  auto r = fx.Search(opts).FindBestOrder(elements,
                                         fx.EnvFor("main", 1, "(-)"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->changed);
  EXPECT_EQ(r->order, elements);
}

// ---- Clause ordering -----------------------------------------------------------

class ClauseOrderFixture : public OrderFixture {
 public:
  using OrderFixture::OrderFixture;

  ClauseOrderResult Order(const std::string& name, uint32_t arity,
                          const std::string& mode) {
    PredId id{store_.symbols().Intern(name), arity};
    auto r = OrderClauses(store_, program_, id,
                          std::move(ModeFromString(mode)).value(),
                          costs_.get(), fixity_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value() : ClauseOrderResult{};
  }
};

TEST(ClauseOrderTest, CheapLikelyClauseMovesFirst) {
  // First clause: expensive body with low success; second: a cheap fact.
  ClauseOrderFixture fx(R"(
    deep(X) :- a(X), b(X), c(X), d(X).
    deep(base).
    a(1). a(2). a(3). b(9). c(9). d(9).
  )");
  ClauseOrderResult r = fx.Order("deep", 1, "(-)");
  ASSERT_EQ(r.order.size(), 2u);
  EXPECT_TRUE(r.changed);
  EXPECT_EQ(r.order[0], 1u);  // the fact first
  EXPECT_LT(r.new_cost, r.original_cost);
}

TEST(ClauseOrderTest, CutClauseIsBarrier) {
  ClauseOrderFixture fx(R"(
    p(X) :- slow(X), slow(X), slow(X).
    p(X) :- guard(X), !.
    p(base).
    slow(1). slow(2). guard(9).
  )");
  ClauseOrderResult r = fx.Order("p", 1, "(-)");
  // The cut clause (index 1) must stay at position 1.
  ASSERT_EQ(r.order.size(), 3u);
  EXPECT_EQ(r.order[1], 1u);
}

TEST(ClauseOrderTest, SingleClauseUntouched) {
  ClauseOrderFixture fx("only(X) :- q(X). q(1).");
  ClauseOrderResult r = fx.Order("only", 1, "(-)");
  EXPECT_FALSE(r.changed);
  ASSERT_EQ(r.order.size(), 1u);
}

TEST(ClauseOrderTest, EqualClausesKeepSourceOrder) {
  ClauseOrderFixture fx(R"(
    f(a). f(b). f(c).
  )");
  ClauseOrderResult r = fx.Order("f", 1, "(-)");
  EXPECT_FALSE(r.changed);
  EXPECT_EQ(r.order, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace prore::core
