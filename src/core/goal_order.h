#ifndef PRORE_CORE_GOAL_ORDER_H_
#define PRORE_CORE_GOAL_ORDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/body.h"
#include "analysis/fixity.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "term/store.h"

namespace prore::core {

struct GoalOrderOptions {
  /// Up to this many mobile elements, search every legal permutation
  /// depth-first, cutting prefixes that already cost at least the best
  /// complete order; above it, use A* best-first search (paper §VI-A.3,
  /// after Smith & Genesereth).
  size_t exhaustive_threshold = 6;
  /// If false and the segment exceeds the threshold, keep the original
  /// order (instead of A*).
  bool use_astar = true;
  /// Ablation: order greedily by Warren's alternatives factor instead of
  /// minimizing the Markov-chain cost.
  bool warren_heuristic = false;
  /// Safety valve for A*.
  size_t max_expansions = 200000;
};

/// A semifixity constraint on one element: when the element executes, each
/// listed culprit variable must be in the same abstract state it had in the
/// original order (§IV-C: "preserve the modes of such predicates under
/// reordering").
struct SemifixConstraint {
  std::vector<std::pair<uint32_t, analysis::VarState>> required;
  /// Snapshot of ALL variables of the element in the original order. A
  /// placement where every variable is at least as instantiated as here is
  /// legal even when the oracle cannot prove it: the element's calls are
  /// then at least as instantiated as in the original program, which ran
  /// legally by assumption (upward closure of legality). This is what lets
  /// a clause calling an undeclared recursive predicate still reorder —
  /// goals may move *before* it only if they do not starve it of bindings.
  std::vector<std::pair<uint32_t, analysis::VarState>> original_states;
};

/// The outcome of ordering one segment.
struct OrderResult {
  std::vector<const analysis::BodyNode*> order;
  double cost_all = 0.0;      ///< predicted all-solutions cost of the order
  double original_cost = 0.0; ///< same metric for the original order
  bool changed = false;
  /// Exhaustive: complete orders reached under the cost bound (each one
  /// a new best); A*: expansions; Warren: n^2.
  size_t nodes_considered = 0;
};

/// Finds the cheapest legal order of `elements` starting from `start_env`.
/// The original order is always an acceptable fallback — a candidate wins
/// only if it is legal, satisfies every semifixity constraint, and has a
/// strictly lower predicted cost.
class GoalOrderSearch {
 public:
  GoalOrderSearch(const term::TermStore* store, cost::CostModel* costs,
                  const analysis::FixityResult* fixity,
                  GoalOrderOptions options)
      : store_(store), costs_(costs), fixity_(fixity), options_(options) {}

  prore::Result<OrderResult> FindBestOrder(
      const std::vector<const analysis::BodyNode*>& elements,
      const analysis::AbstractEnv& start_env);

  /// Culprit variables of one element (built-in table, semifixed user
  /// predicates, negation/set-predicates are semifixed in all their
  /// variables). Exposed for tests.
  std::vector<uint32_t> CulpritVars(const analysis::BodyNode& node) const;

 private:
  /// Records, for each element, the abstract state each culprit variable
  /// has when the element runs in the *original* order. Fails only when
  /// the cost model's watchdog trips.
  prore::Result<std::vector<SemifixConstraint>> OriginalSignatures(
      const std::vector<const analysis::BodyNode*>& elements,
      const analysis::AbstractEnv& start_env);

  bool SatisfiesConstraint(const SemifixConstraint& c,
                           const analysis::AbstractEnv& env) const;

  /// True if every variable of the element is at least as instantiated as
  /// it was in the original order (ground >= unknown >= free).
  bool AtLeastOriginal(const SemifixConstraint& c,
                       const analysis::AbstractEnv& env) const;

  prore::Result<OrderResult> Exhaustive(
      const std::vector<const analysis::BodyNode*>& elements,
      const analysis::AbstractEnv& start_env,
      const std::vector<SemifixConstraint>& sigs);
  prore::Result<OrderResult> AStar(
      const std::vector<const analysis::BodyNode*>& elements,
      const analysis::AbstractEnv& start_env,
      const std::vector<SemifixConstraint>& sigs);
  prore::Result<OrderResult> WarrenGreedy(
      const std::vector<const analysis::BodyNode*>& elements,
      const analysis::AbstractEnv& start_env,
      const std::vector<SemifixConstraint>& sigs);

  const term::TermStore* store_;
  cost::CostModel* costs_;
  const analysis::FixityResult* fixity_;
  GoalOrderOptions options_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_GOAL_ORDER_H_
