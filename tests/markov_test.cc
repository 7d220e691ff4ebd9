#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "markov/chain.h"
#include "markov/matrix.h"

namespace prore::markov {
namespace {

// ---- Matrix -----------------------------------------------------------------

TEST(MatrixTest, IdentityInverseIsIdentity) {
  Matrix i = Matrix::Identity(4);
  auto inv = i.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(inv->AlmostEqual(i));
}

TEST(MatrixTest, InverseTimesOriginalIsIdentity) {
  Matrix m(3, 3);
  double vals[3][3] = {{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) m.At(i, j) = vals[i][j];
  auto inv = m.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(m.Multiply(*inv).AlmostEqual(Matrix::Identity(3)));
  EXPECT_TRUE(inv->Multiply(m).AlmostEqual(Matrix::Identity(3)));
}

TEST(MatrixTest, SingularMatrixIsError) {
  Matrix m(2, 2);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(1, 0) = 2;
  m.At(1, 1) = 4;
  EXPECT_FALSE(m.Inverse().ok());
}

TEST(MatrixTest, NonSquareInverseIsError) {
  Matrix m(2, 3);
  EXPECT_FALSE(m.Inverse().ok());
}

TEST(MatrixTest, PivotingHandlesZeroDiagonal) {
  Matrix m(2, 2);
  m.At(0, 0) = 0;
  m.At(0, 1) = 1;
  m.At(1, 0) = 1;
  m.At(1, 1) = 0;
  auto inv = m.Inverse();
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(m.Multiply(*inv).AlmostEqual(Matrix::Identity(2)));
}

// ---- The paper's Fig. 1 / Fig. 2 numbers (must match EXACTLY) ----------------

TEST(PaperFigures, Fig1ClauseReorderingCosts) {
  // Original clause order: p = {.7,.8,.5,.9}, c = {100,80,100,40}.
  const double p[] = {0.7, 0.8, 0.5, 0.9};
  const double c[] = {100, 80, 100, 40};
  EXPECT_NEAR(FirstSuccessCost(p, c), 130.24, 1e-9);

  // Reordered by decreasing p/c: clause 4, 2, 1, 3.
  auto order = OrderByRatioDesc(p, c);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 2u);
  const double p2[] = {0.9, 0.8, 0.7, 0.5};
  const double c2[] = {40, 80, 100, 100};
  EXPECT_NEAR(FirstSuccessCost(p2, c2), 49.64, 1e-9);
}

TEST(PaperFigures, Fig2GoalReorderingCosts) {
  // Original goal order: q = {.8,.1,.3,.6}, c = {70,100,100,60}.
  const double q[] = {0.8, 0.1, 0.3, 0.6};
  const double c[] = {70, 100, 100, 60};
  EXPECT_NEAR(SequentialFailureCost(q, c), 98.928, 1e-9);

  // Reordered by decreasing q/c: goal 1, 4, 3, 2.
  auto order = OrderByRatioDesc(q, c);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 1u);
  const double q2[] = {0.8, 0.6, 0.3, 0.1};
  const double c2[] = {70, 60, 100, 100};
  EXPECT_NEAR(SequentialFailureCost(q2, c2), 78.968, 1e-9);
}

TEST(PaperFigures, ReorderingByRatioNeverHurtsOnRandomInstances) {
  // Li & Wah: ordering by decreasing ratio minimizes the expected cost.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> up(0.05, 0.95);
  std::uniform_real_distribution<double> uc(1.0, 100.0);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 2 + rng() % 5;
    std::vector<double> p(n), c(n);
    for (size_t i = 0; i < n; ++i) {
      p[i] = up(rng);
      c[i] = uc(rng);
    }
    auto order = OrderByRatioDesc(p, c);
    std::vector<double> p2(n), c2(n);
    for (size_t i = 0; i < n; ++i) {
      p2[i] = p[order[i]];
      c2[i] = c[order[i]];
    }
    double best = FirstSuccessCost(p2, c2);
    // Compare against every permutation for small n.
    std::vector<size_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    double min_cost = best;
    do {
      std::vector<double> pp(n), cp(n);
      for (size_t i = 0; i < n; ++i) {
        pp[i] = p[perm[i]];
        cp[i] = c[perm[i]];
      }
      min_cost = std::min(min_cost, FirstSuccessCost(pp, cp));
    } while (std::next_permutation(perm.begin(), perm.end()));
    EXPECT_LE(best, min_cost + 1e-9) << "trial " << trial;
  }
}

// ---- Markov chains -----------------------------------------------------------

std::vector<GoalStats> MakeGoals(std::initializer_list<double> probs,
                                 std::initializer_list<double> costs) {
  std::vector<GoalStats> out;
  auto pit = probs.begin();
  auto cit = costs.begin();
  for (; pit != probs.end(); ++pit, ++cit) out.push_back({*pit, *cit});
  return out;
}

TEST(ChainTest, EmptyBodySucceedsForFree) {
  auto r = AnalyzeClauseBody({});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->success_prob, 1.0);
  EXPECT_DOUBLE_EQ(r->cost_single, 0.0);
  EXPECT_DOUBLE_EQ(r->expected_solutions, 1.0);
}

TEST(ChainTest, SingleGoalChain) {
  auto goals = MakeGoals({0.25}, {8.0});
  auto r = AnalyzeClauseBody(goals);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->success_prob, 0.25, 1e-12);
  EXPECT_NEAR(r->cost_single, 8.0, 1e-12);  // goal visited exactly once
  // All-solutions: visits v1 = 1/(1-p) = 4/3; cost = 8 * 4/3.
  EXPECT_NEAR(r->visits_all[0], 1.0 / 0.75, 1e-12);
  EXPECT_NEAR(r->cost_all_solutions, 8.0 / 0.75, 1e-12);
  // Expected solutions p/(1-p) = 1/3.
  EXPECT_NEAR(r->expected_solutions, 0.25 / 0.75, 1e-12);
}

TEST(ChainTest, TwoGoalSuccessProbability) {
  // With p1=p2=0.5 the single-solution chain is the classic random walk:
  // success prob = p1*p2 / (1 - p1*(1-p2)) for two goals? Verify against
  // direct first-step analysis instead: h1 = p1*h2, h2 = p2 + (1-p2)*h1.
  // => h1 = p1*p2 / (1 - p1*(1-p2))? Solve: h2 = p2 + (1-p2) h1,
  // h1 = p1 h2 = p1 p2 + p1 (1-p2) h1 => h1 = p1 p2 / (1 - p1(1-p2)).
  double p1 = 0.5, p2 = 0.5;
  auto r = AnalyzeClauseBody(MakeGoals({p1, p2}, {1.0, 1.0}));
  ASSERT_TRUE(r.ok());
  double expected = p1 * p2 / (1 - p1 * (1 - p2));
  EXPECT_NEAR(r->success_prob, expected, 1e-12);
}

TEST(ChainTest, PaperSectionVIExampleMatrixShape) {
  // k :- a, b, c, d with the single-solution chain of Fig. 4.
  auto goals = MakeGoals({0.7, 0.8, 0.5, 0.9}, {1, 1, 1, 1});
  Matrix p = SingleSolutionTransitionMatrix(goals);
  ASSERT_EQ(p.rows(), 6u);
  // Absorbing states S and F.
  EXPECT_DOUBLE_EQ(p.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(p.At(1, 1), 1.0);
  // Goal a: forward to b with p_a, to F with 1-p_a.
  EXPECT_DOUBLE_EQ(p.At(2, 3), 0.7);
  EXPECT_DOUBLE_EQ(p.At(2, 1), 0.3);
  // Goal d: to S with p_d, back to c with 1-p_d.
  EXPECT_DOUBLE_EQ(p.At(5, 0), 0.9);
  EXPECT_DOUBLE_EQ(p.At(5, 4), 0.1);
  // Rows sum to 1.
  for (size_t r = 0; r < 6; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 6; ++c) sum += p.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(ChainTest, AllSolutionsMatrixShape) {
  auto goals = MakeGoals({0.7, 0.8, 0.5, 0.9}, {1, 1, 1, 1});
  Matrix p = AllSolutionsTransitionMatrix(goals);
  ASSERT_EQ(p.rows(), 6u);
  EXPECT_DOUBLE_EQ(p.At(0, 0), 1.0);  // F absorbing
  EXPECT_DOUBLE_EQ(p.At(5, 4), 1.0);  // S -> last goal
  for (size_t r = 0; r < 6; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 6; ++c) sum += p.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(ChainTest, ClosedFormMatchesMatrixOnAllSolutionsChain) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> up(0.05, 0.95);
  std::uniform_real_distribution<double> uc(0.5, 50.0);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 1 + rng() % 6;
    std::vector<GoalStats> goals(n);
    for (auto& g : goals) {
      g.success_prob = up(rng);
      g.cost = uc(rng);
    }
    auto r = AnalyzeClauseBody(goals);
    ASSERT_TRUE(r.ok());
    auto closed = ClosedFormAllVisits(goals);
    for (size_t i = 0; i <= n; ++i) {
      EXPECT_NEAR(r->visits_all[i], closed[i],
                  1e-6 * std::max(1.0, closed[i]))
          << "trial " << trial << " state " << i;
    }
    EXPECT_NEAR(r->cost_all_solutions, ClosedFormAllSolutionsCost(goals),
                1e-6 * std::max(1.0, r->cost_all_solutions));
  }
}

TEST(ChainTest, CertainGoalMakesAllSolutionsCostInfinite) {
  auto goals = MakeGoals({1.0, 0.5}, {1, 1});
  auto r = AnalyzeClauseBody(goals);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::isinf(r->cost_all_solutions));
  // Single-solution cost stays finite.
  EXPECT_TRUE(std::isfinite(r->cost_single));
  EXPECT_GT(r->success_prob, 0.0);
}

TEST(ChainTest, ImpossibleGoalGivesZeroSuccess) {
  auto goals = MakeGoals({0.0, 0.9}, {3, 5});
  auto r = AnalyzeClauseBody(goals);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->success_prob, 0.0);
  EXPECT_DOUBLE_EQ(r->expected_solutions, 0.0);
  EXPECT_NEAR(r->cost_single, 3.0, 1e-12);  // first goal tried once, fails
  EXPECT_TRUE(std::isinf(r->cost_per_solution));
}

TEST(ChainTest, VisitsGrowWithSuccessProbabilityOfEarlierGoals) {
  // Higher p1 sends the walk to goal 2 more often.
  auto low = AnalyzeClauseBody(MakeGoals({0.2, 0.5}, {1, 1}));
  auto high = AnalyzeClauseBody(MakeGoals({0.8, 0.5}, {1, 1}));
  ASSERT_TRUE(low.ok() && high.ok());
  EXPECT_LT(low->visits_single[1], high->visits_single[1]);
}

TEST(ChainTest, CostSingleIsMonotoneInGoalCost) {
  auto cheap = AnalyzeClauseBody(MakeGoals({0.5, 0.5}, {1, 1}));
  auto pricey = AnalyzeClauseBody(MakeGoals({0.5, 0.5}, {1, 10}));
  ASSERT_TRUE(cheap.ok() && pricey.ok());
  EXPECT_GT(pricey->cost_single, cheap->cost_single);
}

TEST(ChainTest, InvalidProbabilityRejected) {
  EXPECT_FALSE(AnalyzeClauseBody(MakeGoals({1.5}, {1})).ok());
  EXPECT_FALSE(AnalyzeClauseBody(MakeGoals({-0.1}, {1})).ok());
}

/// Random chains for the split/accumulator checks: lengths 0..7, rates
/// drawn from the edge values 0, 0.999 and 1 as well as the interior, and
/// some zero costs.
std::vector<std::vector<GoalStats>> EdgeChains(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> up(0.0, 1.0);
  std::uniform_real_distribution<double> uc(0.5, 50.0);
  std::vector<std::vector<GoalStats>> out;
  out.emplace_back();  // n = 0
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<GoalStats> goals(1 + rng() % 7);
    for (auto& g : goals) {
      switch (rng() % 5) {
        case 0: g.success_prob = 0.0; break;
        case 1: g.success_prob = 0.999; break;
        case 2: g.success_prob = trial % 4 == 0 ? 1.0 : 0.999; break;
        default: g.success_prob = up(rng);
      }
      g.cost = rng() % 6 == 0 ? 0.0 : uc(rng);
    }
    out.push_back(std::move(goals));
  }
  return out;
}

TEST(ChainTest, SingleSolutionChainIsTheFullAnalysisHalf) {
  for (const auto& goals : EdgeChains(7)) {
    auto full = AnalyzeClauseBody(goals);
    auto single = AnalyzeSingleSolutionChain(goals);
    // A p = 1 goal next to a p = 0 one bounces the walk forever: both
    // fail alike on the singular fundamental matrix.
    ASSERT_EQ(full.ok(), single.ok()) << "n=" << goals.size();
    if (!single.ok()) continue;
    EXPECT_EQ(single->success_prob, full->success_prob);
    EXPECT_EQ(single->cost_single, full->cost_single);
    EXPECT_EQ(single->visits_single, full->visits_single);
  }
}

TEST(ChainTest, AccumulatorTracksClosedFormOnEveryPrefix) {
  for (const auto& goals : EdgeChains(11)) {
    AllSolutionsCostAccumulator acc;
    EXPECT_EQ(acc.cost(), 0.0);
    for (size_t k = 1; k <= goals.size(); ++k) {
      acc.Push(goals[k - 1]);
      std::span<const GoalStats> prefix(goals.data(), k);
      EXPECT_EQ(acc.cost(), ClosedFormAllSolutionsCost(prefix))
          << "prefix " << k;
      // The sum over the closed-form visit counts, term by term.
      std::vector<double> v = ClosedFormAllVisits(prefix);
      double sum = 0.0;
      for (size_t i = 0; i < k; ++i) {
        if (std::isinf(v[i])) {
          if (prefix[i].cost > 0.0) {
            sum = std::numeric_limits<double>::infinity();
            break;
          }
          continue;
        }
        sum += prefix[i].cost * v[i];
      }
      EXPECT_EQ(acc.cost(), sum) << "prefix " << k;
    }
  }
}

TEST(ChainTest, PrefixCostIsAdmissibleHeuristic) {
  // The all-solutions cost of a prefix never exceeds that of any complete
  // order beginning with that prefix (paper §VI-A.3: A* admissibility).
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> up(0.05, 0.95);
  std::uniform_real_distribution<double> uc(0.5, 20.0);
  for (int trial = 0; trial < 100; ++trial) {
    size_t n = 3 + rng() % 3;
    std::vector<GoalStats> goals(n);
    for (auto& g : goals) {
      g.success_prob = up(rng);
      g.cost = uc(rng);
    }
    for (size_t k = 1; k < n; ++k) {
      std::span<const GoalStats> prefix(goals.data(), k);
      EXPECT_LE(ClosedFormAllSolutionsCost(prefix),
                ClosedFormAllSolutionsCost(goals) + 1e-9)
          << "trial " << trial << " prefix " << k;
    }
  }
}

}  // namespace
}  // namespace prore::markov
