#ifndef PRORE_MARKOV_CHAIN_H_
#define PRORE_MARKOV_CHAIN_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "markov/matrix.h"

namespace prore::markov {

/// Per-goal statistics feeding the clause-body chain (paper §VI-A):
/// the probability the goal succeeds when called, and its expected cost
/// in predicate calls.
struct GoalStats {
  double success_prob = 0.5;
  double cost = 1.0;
};

/// Everything the reorderer needs to know about one ordering of a clause
/// body, derived from its absorbing Markov chains (Figs. 4 and 5).
struct ChainAnalysis {
  /// P(body delivers at least one solution) — from the single-solution
  /// chain, the probability of absorbing in S rather than F.
  double success_prob = 0.0;
  /// Expected cost until first absorption (one solution or failure).
  double cost_single = 0.0;
  /// Expected total cost of exhausting the body (all-solutions chain,
  /// Fig. 5). +infinity if the chain cannot absorb (some p_i == 1).
  double cost_all_solutions = 0.0;
  /// Expected number of solutions (mean visits to S in the Fig. 5 chain).
  double expected_solutions = 0.0;
  /// cost_all_solutions / expected_solutions (the paper's c_multiple);
  /// +infinity when no solutions are expected.
  double cost_per_solution = 0.0;
  /// Mean visits to each goal state, single-solution chain (row of N).
  std::vector<double> visits_single;
  /// Mean visits to each goal state, all-solutions chain.
  std::vector<double> visits_all;
};

/// Builds and solves both chains for a clause body with the given goals,
/// in order, via the fundamental matrix N = (I-Q)^{-1}.
/// Probabilities outside [0,1] are InvalidArgument; an empty body yields
/// success_prob 1 and zero costs.
prore::Result<ChainAnalysis> AnalyzeClauseBody(std::span<const GoalStats> goals);

/// The single-solution half of AnalyzeClauseBody (Fig. 4): fills
/// success_prob, cost_single and visits_single, bit-equal to the full
/// analysis, and leaves the all-solutions fields zero. For callers that
/// take the all-solutions quantities from the closed forms below.
prore::Result<ChainAnalysis> AnalyzeSingleSolutionChain(
    std::span<const GoalStats> goals);

/// Closed-form visit counts for the all-solutions chain (the paper's "tidy
/// form"): v_i = prod_{j<i} p_j / prod_{j<=i} (1-p_j). Returns +infinity
/// entries when some p_j == 1. Index n (one past the goals) is v_S, the
/// expected number of solutions.
std::vector<double> ClosedFormAllVisits(std::span<const GoalStats> goals);

/// Closed-form expected cost of exhausting the body: sum c_i * v_i.
double ClosedFormAllSolutionsCost(std::span<const GoalStats> goals);

/// ClosedFormAllSolutionsCost one goal at a time: after pushing a prefix
/// of the goals, cost() is bit-equal to ClosedFormAllSolutionsCost of that
/// prefix (which is computed through this class). Every term c_i * v_i is
/// non-negative, so cost() never decreases as goals are pushed — a prefix
/// bounds every completion from below.
class AllSolutionsCostAccumulator {
 public:
  void Push(const GoalStats& goal);
  double cost() const;

 private:
  double num_ = 1.0;       ///< prod p_j over the goals pushed
  double denom_ = 1.0;     ///< prod (1-p_j) over the goals pushed
  double cost_ = 0.0;      ///< sum of the finite terms c_i * v_i
  bool infinite_ = false;  ///< some goal with cost > 0 has v_i = +inf
};

// ---- The paper's §III ordering formulas (Figs. 1 and 2) --------------------

/// Fig. 1 model: expected cost until the first clause of a predicate
/// succeeds, trying clauses left to right with independent success
/// probabilities. Cost accrues for every clause tried.
///   sum_k [ prod_{j<k}(1-p_j) ] * p_k * [ sum_{j<=k} c_j ]
double FirstSuccessCost(std::span<const double> success_prob,
                        std::span<const double> cost);

/// Fig. 2 model: expected cost of one left-to-right pass over a clause
/// body ending at the first failing goal.
///   sum_k [ prod_{j<k}(1-q_j) ] * q_k * [ sum_{j<=k} c_j ]
double SequentialFailureCost(std::span<const double> fail_prob,
                             std::span<const double> cost);

/// Indices 0..n-1 sorted by decreasing ratio[i]/cost[i] — the Li & Wah
/// optimal ordering rule (p/c for clauses of an OR-node, q/c for goals of
/// an AND-node).
std::vector<size_t> OrderByRatioDesc(std::span<const double> numerator,
                                     std::span<const double> cost);

/// Builds the explicit transition matrix of the single-solution chain
/// (Fig. 4 layout: state 0 = S, state 1 = F, states 2.. = goals) or the
/// all-solutions chain (Fig. 5: state 0 = F absorbing, 1.. = goals,
/// last = S transient). Exposed for tests and the bench that reproduces
/// the paper's P_k matrices.
Matrix SingleSolutionTransitionMatrix(std::span<const GoalStats> goals);
Matrix AllSolutionsTransitionMatrix(std::span<const GoalStats> goals);

}  // namespace prore::markov

#endif  // PRORE_MARKOV_CHAIN_H_
