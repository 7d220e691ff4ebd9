#include "markov/chain.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace prore::markov {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

prore::Status ValidateGoals(std::span<const GoalStats> goals) {
  for (const GoalStats& g : goals) {
    if (g.success_prob < 0.0 || g.success_prob > 1.0) {
      return prore::Status::InvalidArgument(
          "goal success probability outside [0,1]");
    }
    if (g.cost < 0.0) {
      return prore::Status::InvalidArgument("negative goal cost");
    }
  }
  return prore::Status::OK();
}
}  // namespace

Matrix SingleSolutionTransitionMatrix(std::span<const GoalStats> goals) {
  // Paper Fig. 4 layout: state 0 = S, state 1 = F (both absorbing),
  // states 2..n+1 = the goals in order.
  size_t n = goals.size();
  Matrix p(n + 2, n + 2);
  p.At(0, 0) = 1.0;
  p.At(1, 1) = 1.0;
  for (size_t i = 0; i < n; ++i) {
    size_t row = 2 + i;
    double pi = goals[i].success_prob;
    // Forward on success.
    if (i + 1 < n) {
      p.At(row, row + 1) = pi;
    } else {
      p.At(row, 0) = pi;  // last goal -> S
    }
    // Backward on failure.
    if (i > 0) {
      p.At(row, row - 1) = 1.0 - pi;
    } else {
      p.At(row, 1) = 1.0 - pi;  // first goal -> F
    }
  }
  return p;
}

Matrix AllSolutionsTransitionMatrix(std::span<const GoalStats> goals) {
  // Paper Fig. 5 layout: state 0 = F (absorbing), states 1..n = goals,
  // state n+1 = S (transient: S -> last goal with probability 1).
  size_t n = goals.size();
  Matrix p(n + 2, n + 2);
  p.At(0, 0) = 1.0;
  for (size_t i = 0; i < n; ++i) {
    size_t row = 1 + i;
    double pi = goals[i].success_prob;
    p.At(row, row + 1) = pi;            // forward (last goal -> S)
    p.At(row, row - 1) = 1.0 - pi;      // backward (first goal -> F)
  }
  if (n > 0) p.At(n + 1, n) = 1.0;      // S -> last goal
  return p;
}

std::vector<double> ClosedFormAllVisits(std::span<const GoalStats> goals) {
  size_t n = goals.size();
  std::vector<double> v(n + 1, 0.0);
  double num = 1.0;    // prod_{j<i} p_j
  double denom = 1.0;  // prod_{j<=i} (1-p_j)
  for (size_t i = 0; i < n; ++i) {
    double q = 1.0 - goals[i].success_prob;
    denom *= q;
    v[i] = denom == 0.0 ? kInf : num / denom;
    num *= goals[i].success_prob;
  }
  // v_S = expected number of solutions = prod p_j / prod (1-p_j).
  v[n] = denom == 0.0 ? (num == 0.0 ? 0.0 : kInf) : num / denom;
  return v;
}

void AllSolutionsCostAccumulator::Push(const GoalStats& goal) {
  if (infinite_) return;
  // The same operations, in the same order, as ClosedFormAllVisits.
  denom_ *= 1.0 - goal.success_prob;
  double v = denom_ == 0.0 ? kInf : num_ / denom_;
  num_ *= goal.success_prob;
  if (std::isinf(v)) {
    if (goal.cost > 0.0) infinite_ = true;
    return;
  }
  cost_ += goal.cost * v;
}

double AllSolutionsCostAccumulator::cost() const {
  return infinite_ ? kInf : cost_;
}

double ClosedFormAllSolutionsCost(std::span<const GoalStats> goals) {
  AllSolutionsCostAccumulator acc;
  for (const GoalStats& g : goals) acc.Push(g);
  return acc.cost();
}

prore::Result<ChainAnalysis> AnalyzeSingleSolutionChain(
    std::span<const GoalStats> goals) {
  PRORE_RETURN_IF_ERROR(ValidateGoals(goals));
  ChainAnalysis out;
  size_t n = goals.size();
  if (n == 0) {
    out.success_prob = 1.0;
    return out;
  }
  // Q is n x n over the goal states.
  Matrix q(n, n);
  for (size_t i = 0; i < n; ++i) {
    double pi = goals[i].success_prob;
    if (i + 1 < n) q.At(i, i + 1) = pi;
    if (i > 0) q.At(i, i - 1) = 1.0 - pi;
  }
  PRORE_ASSIGN_OR_RETURN(Matrix fundamental,
                         Matrix::Identity(n).Subtract(q).Inverse());
  out.visits_single.resize(n);
  out.cost_single = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out.visits_single[i] = fundamental.At(0, i);
    out.cost_single += goals[i].cost * out.visits_single[i];
  }
  // Success probability: absorb in S (reached from the last goal).
  out.success_prob = fundamental.At(0, n - 1) * goals[n - 1].success_prob;
  return out;
}

prore::Result<ChainAnalysis> AnalyzeClauseBody(
    std::span<const GoalStats> goals) {
  PRORE_ASSIGN_OR_RETURN(ChainAnalysis out,
                         AnalyzeSingleSolutionChain(goals));
  size_t n = goals.size();
  if (n == 0) {
    out.expected_solutions = 1.0;
    return out;
  }

  // ---- All-solutions chain: transient states are the goals plus S. ----
  bool certain_goal = false;
  for (const GoalStats& g : goals) {
    if (g.success_prob >= 1.0) certain_goal = true;
  }
  if (certain_goal) {
    // The chain cannot absorb: a p=1 goal bounces the walk forever. The
    // memoryless model degenerates; report the closed-form infinities.
    out.visits_all = ClosedFormAllVisits(goals);
    out.expected_solutions = out.visits_all[n];
    out.cost_all_solutions = ClosedFormAllSolutionsCost(goals);
    out.cost_per_solution =
        std::isinf(out.expected_solutions) ? kInf : out.cost_all_solutions;
    return out;
  }
  size_t m = n + 1;  // goals + S
  Matrix qa(m, m);
  for (size_t i = 0; i < n; ++i) {
    double pi = goals[i].success_prob;
    qa.At(i, i + 1) = pi;                  // forward; last goal -> S
    if (i > 0) qa.At(i, i - 1) = 1.0 - pi;  // backward
  }
  qa.At(n, n - 1) = 1.0;  // S -> last goal
  auto na = Matrix::Identity(m).Subtract(qa).Inverse();
  if (na.ok()) {
    out.visits_all.resize(m);
    out.cost_all_solutions = 0.0;
    for (size_t i = 0; i < m; ++i) out.visits_all[i] = na->At(0, i);
    for (size_t i = 0; i < n; ++i) {
      out.cost_all_solutions += goals[i].cost * out.visits_all[i];
    }
    out.expected_solutions = out.visits_all[n];
  } else {
    // Long chains of near-certain goals make the fundamental matrix
    // numerically singular (visit counts ~ prod 1/(1-p) overflow the
    // elimination); the closed form is exact there.
    out.visits_all = ClosedFormAllVisits(goals);
    out.expected_solutions = out.visits_all[n];
    out.cost_all_solutions = ClosedFormAllSolutionsCost(goals);
  }
  out.cost_per_solution = out.expected_solutions > 0.0
                              ? out.cost_all_solutions / out.expected_solutions
                              : kInf;
  return out;
}

double FirstSuccessCost(std::span<const double> success_prob,
                        std::span<const double> cost) {
  double total = 0.0;
  double prefix_cost = 0.0;
  double all_fail_before = 1.0;
  for (size_t k = 0; k < success_prob.size(); ++k) {
    prefix_cost += cost[k];
    total += all_fail_before * success_prob[k] * prefix_cost;
    all_fail_before *= 1.0 - success_prob[k];
  }
  return total;
}

double SequentialFailureCost(std::span<const double> fail_prob,
                             std::span<const double> cost) {
  // Same recurrence with failure in the driving role.
  return FirstSuccessCost(fail_prob, cost);
}

std::vector<size_t> OrderByRatioDesc(std::span<const double> numerator,
                                     std::span<const double> cost) {
  std::vector<size_t> idx(numerator.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    double ra = cost[a] > 0 ? numerator[a] / cost[a] : kInf;
    double rb = cost[b] > 0 ? numerator[b] / cost[b] : kInf;
    return ra > rb;
  });
  return idx;
}

}  // namespace prore::markov
