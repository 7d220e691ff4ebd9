#include "core/goal_order.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

#include "engine/builtins.h"
#include "markov/chain.h"

namespace prore::core {

using analysis::AbstractEnv;
using analysis::BodyKind;
using analysis::BodyNode;
using analysis::Mode;
using analysis::VarState;
using term::PredId;
using term::TermRef;
using term::TermStore;

std::vector<uint32_t> GoalOrderSearch::CulpritVars(const BodyNode& node) const {
  std::vector<uint32_t> out;
  for (TermRef v : analysis::ModeSensitiveVars(*store_, node, *fixity_)) {
    out.push_back(store_->var_id(v));
  }
  return out;
}

prore::Result<std::vector<SemifixConstraint>>
GoalOrderSearch::OriginalSignatures(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env) {
  std::vector<SemifixConstraint> sigs(elements.size());
  AbstractEnv env = start_env;
  for (size_t i = 0; i < elements.size(); ++i) {
    for (uint32_t var : CulpritVars(*elements[i])) {
      sigs[i].required.emplace_back(var, env.Get(var));
    }
    // All variables of the element: the at-least-original fallback rule.
    std::vector<TermRef> vars;
    store_->CollectVars(elements[i]->goal, &vars);
    for (TermRef v : vars) {
      uint32_t id = store_->var_id(v);
      sigs[i].original_states.emplace_back(id, env.Get(id));
    }
    // Advance the environment exactly the way candidate evaluation does.
    PRORE_RETURN_IF_ERROR(costs_->EvaluateStep(*elements[i], &env).status());
  }
  return sigs;
}

bool GoalOrderSearch::SatisfiesConstraint(const SemifixConstraint& c,
                                          const AbstractEnv& env) const {
  for (const auto& [var, state] : c.required) {
    if (env.Get(var) != state) return false;
  }
  return true;
}

namespace {
int InstRank(VarState s) {
  switch (s) {
    case VarState::kFree:
      return 0;
    case VarState::kUnknown:
      return 1;
    case VarState::kGround:
      return 2;
  }
  return 0;
}
}  // namespace

bool GoalOrderSearch::AtLeastOriginal(const SemifixConstraint& c,
                                      const AbstractEnv& env) const {
  for (const auto& [var, state] : c.original_states) {
    if (InstRank(env.Get(var)) < InstRank(state)) return false;
  }
  return true;
}

prore::Result<OrderResult> GoalOrderSearch::FindBestOrder(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env) {
  OrderResult result;
  result.order = elements;
  auto original = costs_->EvaluateSequence(elements, start_env);
  if (!original.ok()) return original.status();
  result.cost_all = original->chain.cost_all_solutions;
  result.original_cost = result.cost_all;
  if (elements.size() < 2) return result;

  PRORE_ASSIGN_OR_RETURN(std::vector<SemifixConstraint> sigs,
                         OriginalSignatures(elements, start_env));
  prore::Result<OrderResult> candidate(result);
  if (options_.warren_heuristic) {
    candidate = WarrenGreedy(elements, start_env, sigs);
  } else if (elements.size() <= options_.exhaustive_threshold) {
    candidate = Exhaustive(elements, start_env, sigs);
  } else if (options_.use_astar) {
    candidate = AStar(elements, start_env, sigs);
  } else {
    return result;  // too large; keep original
  }
  if (!candidate.ok()) return candidate.status();
  // Accept only a strict improvement over the original order.
  if (candidate->cost_all + 1e-9 < result.cost_all) {
    candidate->original_cost = result.original_cost;
    candidate->changed = candidate->order != elements;
    return *candidate;
  }
  result.nodes_considered = candidate->nodes_considered;
  return result;
}

prore::Result<OrderResult> GoalOrderSearch::Exhaustive(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  OrderResult best;
  best.cost_all = std::numeric_limits<double>::infinity();
  size_t considered = 0;

  std::vector<const BodyNode*> prefix;
  std::vector<bool> used(elements.size(), false);

  // A kResourceExhausted evaluation (cost-model watchdog) must abort the
  // whole search, not be skipped like an ordinary illegal candidate.
  prore::Status trip;

  // DFS over legal prefixes, scoring each placement once and carrying the
  // prefix's all-solutions cost down. A complete order's cost is then the
  // one EvaluateSequence would give it. Costs only grow along a branch, so
  // a child whose prefix already costs at least the best complete order
  // (or +inf) cannot lead to a strictly cheaper one and is skipped: every
  // leaf reached is a new best, and the last one is the first minimum in
  // DFS order, as with full enumeration.
  std::function<void(const AbstractEnv&,
                     const markov::AllSolutionsCostAccumulator&)>
      recurse = [&](const AbstractEnv& env,
                    const markov::AllSolutionsCostAccumulator& acc) {
        if (prefix.size() == elements.size()) {
          ++considered;
          best.cost_all = acc.cost();
          best.order = prefix;
          return;
        }
        for (size_t i = 0; i < elements.size(); ++i) {
          if (used[i]) continue;
          if (!trip.ok()) return;
          // Legality + semifixity at this placement. Legal means: the
          // oracle proves every call's demands, OR the element sees all
          // its variables at least as instantiated as in the original
          // order (upward closure).
          AbstractEnv next_env = env;
          auto step = costs_->EvaluateStep(*elements[i], &next_env);
          if (!step.ok()) {
            if (step.status().code() ==
                prore::StatusCode::kResourceExhausted) {
              trip = step.status();
            }
            continue;
          }
          if (!step->legal && !AtLeastOriginal(sigs[i], env)) continue;
          if (!SatisfiesConstraint(sigs[i], env)) continue;
          markov::AllSolutionsCostAccumulator next_acc = acc;
          next_acc.Push(step->visit);
          if (!(next_acc.cost() < best.cost_all)) continue;
          used[i] = true;
          prefix.push_back(elements[i]);
          recurse(next_env, next_acc);
          prefix.pop_back();
          used[i] = false;
        }
      };
  recurse(start_env, markov::AllSolutionsCostAccumulator());
  if (!trip.ok()) return trip;
  best.nodes_considered = considered;
  if (!std::isfinite(best.cost_all)) {
    // No legal complete order found; signal "keep original" via +inf cost.
    best.order = elements;
  }
  return best;
}

prore::Result<OrderResult> GoalOrderSearch::AStar(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  struct Node {
    double f;  // closed-form all-solutions cost of the prefix (admissible)
    std::vector<size_t> prefix;
    AbstractEnv env;
    markov::AllSolutionsCostAccumulator acc;
    bool operator>(const Node& o) const { return f > o.f; }
  };
  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> open;
  open.push(Node{0.0, {}, start_env, {}});
  size_t expansions = 0;
  OrderResult best;
  best.cost_all = std::numeric_limits<double>::infinity();
  best.order = elements;

  while (!open.empty() && expansions < options_.max_expansions) {
    Node node = open.top();
    open.pop();
    ++expansions;
    if (node.prefix.size() == elements.size()) {
      // First complete node popped is optimal (admissible heuristic).
      best.cost_all = node.f;
      best.order.clear();
      for (size_t i : node.prefix) best.order.push_back(elements[i]);
      break;
    }
    for (size_t i = 0; i < elements.size(); ++i) {
      if (std::find(node.prefix.begin(), node.prefix.end(), i) !=
          node.prefix.end()) {
        continue;
      }
      Node next;
      next.env = node.env;
      auto step = costs_->EvaluateStep(*elements[i], &next.env);
      if (!step.ok()) {
        if (step.status().code() == prore::StatusCode::kResourceExhausted) {
          return step.status();  // watchdog trip aborts the search
        }
        continue;
      }
      if (!step->legal && !AtLeastOriginal(sigs[i], node.env)) continue;
      if (!SatisfiesConstraint(sigs[i], node.env)) continue;
      next.prefix = node.prefix;
      next.prefix.push_back(i);
      next.acc = node.acc;
      next.acc.Push(step->visit);
      next.f = next.acc.cost();
      open.push(std::move(next));
    }
  }
  best.nodes_considered = expansions;
  return best;
}

prore::Result<OrderResult> GoalOrderSearch::WarrenGreedy(
    const std::vector<const BodyNode*>& elements,
    const AbstractEnv& start_env,
    const std::vector<SemifixConstraint>& sigs) {
  // Warren's method: at each step pick the legal goal with the smallest
  // "alternatives multiplier" — the expected number of clause-head matches
  // for the goal's current mode (tests score below 1, generators above).
  OrderResult result;
  AbstractEnv env = start_env;
  markov::AllSolutionsCostAccumulator acc;
  std::vector<bool> used(elements.size(), false);
  for (size_t step_no = 0; step_no < elements.size(); ++step_no) {
    double best_factor = std::numeric_limits<double>::infinity();
    size_t best_i = elements.size();
    AbstractEnv best_env;
    markov::GoalStats best_visit;
    for (size_t i = 0; i < elements.size(); ++i) {
      if (used[i]) continue;
      AbstractEnv next_env = env;
      auto step = costs_->EvaluateStep(*elements[i], &next_env);
      if (!step.ok()) {
        if (step.status().code() == prore::StatusCode::kResourceExhausted) {
          return step.status();  // watchdog trip aborts the search
        }
        continue;
      }
      if (!step->legal && !AtLeastOriginal(sigs[i], env)) continue;
      if (!SatisfiesConstraint(sigs[i], env)) continue;
      double factor;
      const BodyNode* node = elements[i];
      if (node->kind == BodyKind::kCall) {
        TermRef goal = store_->Deref(node->goal);
        PredId id = store_->pred_id(goal);
        Mode mode = env.CallModeOf(*store_, goal);
        factor = costs_->ExpectedMatches(id, mode);
        if (factor == 0.0) factor = step->visit.success_prob;
      } else {
        factor = step->visit.success_prob;
      }
      if (factor < best_factor) {
        best_factor = factor;
        best_i = i;
        best_env = std::move(next_env);
        best_visit = step->visit;
      }
    }
    if (best_i == elements.size()) {
      // Stuck (no legal placement): an infinite cost keeps the original.
      result.order = elements;
      result.cost_all = std::numeric_limits<double>::infinity();
      return result;
    }
    used[best_i] = true;
    result.order.push_back(elements[best_i]);
    env = std::move(best_env);
    acc.Push(best_visit);
  }
  result.cost_all = acc.cost();
  result.nodes_considered = elements.size() * elements.size();
  return result;
}

}  // namespace prore::core
