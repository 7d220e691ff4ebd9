#ifndef PRORE_ANALYSIS_ABSINT_SOLVER_H_
#define PRORE_ANALYSIS_ABSINT_SOLVER_H_

#include <concepts>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/status.h"
#include "common/watchdog.h"
#include "term/store.h"

namespace prore::analysis::absint {

/// One analysis unit: a predicate analyzed under one abstract call pattern
/// (the polyvariance of Le Charlier/Van Hentenryck's generic algorithm —
/// summaries are memoized per (predicate, pattern), not per predicate).
struct CallKey {
  term::PredId pred;
  Mode pattern;
};

/// "aunt/2:": the prefix every canonical key of one predicate starts with.
inline std::string KeyPrefix(const term::TermStore& store,
                             const term::PredId& id) {
  return store.symbols().Name(id.name) + "/" + std::to_string(id.arity) +
         ":";
}

/// Canonical memo-table key, e.g. "aunt/2:iu". Doubles as the stable sort
/// order of every dump, so reports are deterministic across runs and jobs.
inline std::string KeyName(const term::TermStore& store, const term::PredId& id,
                           const Mode& pattern) {
  return KeyPrefix(store, id) + ModeSuffix(pattern);
}

/// Calls fn(key, call_key) for each entry of `keys` that belongs to `id`,
/// in key order. All of a predicate's canonical keys start with its
/// "name/arity:" prefix, so they form one contiguous range of the ordered
/// map and the walk costs that range, not the whole table. A predicate
/// whose quoted name extends the prefix ('a/1:x'/1 next to a/1) lands in
/// the same range; the pred check skips it.
template <typename Fn>
void ForEachKeyOf(const std::map<std::string, CallKey>& keys,
                  const term::TermStore& store, const term::PredId& id,
                  Fn&& fn) {
  const std::string prefix = KeyPrefix(store, id);
  for (auto it = keys.lower_bound(prefix);
       it != keys.end() && it->first.starts_with(prefix); ++it) {
    if (it->second.pred == id) fn(it->first, it->second);
  }
}

/// What a Domain's Transfer uses to read callee summaries. Looking a key up
/// registers the dependency edge (caller re-runs when the callee's summary
/// grows) and seeds an optimistic Bottom summary for keys not yet analyzed.
template <typename Value>
using Lookup =
    std::function<const Value&(const term::PredId&, const Mode&)>;

/// An abstract domain pluggable into the Solver: a join-semilattice of
/// per-(predicate, pattern) summaries plus a monotone transfer function.
/// Bottom is the optimistic start, Join accumulates the ascending chain,
/// Widen accelerates it at SCC heads, and Top is the forced finite ceiling
/// (the solver lands there if a summary keeps growing past its iteration
/// budget, so termination never depends on a domain being well-behaved).
template <typename D>
concept Domain = requires(D d, const term::PredId& id, const Mode& pattern,
                          const typename D::Value& a,
                          const typename D::Value& b,
                          const Lookup<typename D::Value>& lookup) {
  typename D::Value;
  { d.Bottom(id, pattern) } -> std::same_as<typename D::Value>;
  { d.Top(id, pattern) } -> std::same_as<typename D::Value>;
  { d.Join(a, b) } -> std::same_as<typename D::Value>;
  { d.Widen(a, b) } -> std::same_as<typename D::Value>;
  { d.Equal(a, b) } -> std::same_as<bool>;
  { d.Transfer(id, pattern, lookup) } ->
      std::same_as<prore::Result<typename D::Value>>;
};

struct SolverOptions {
  /// Join rounds of one key before Widen kicks in at SCC heads.
  size_t widen_after = 4;
  /// Hard per-key update cap; past it the summary jumps to Top. A backstop
  /// far above what the finite domains here need.
  size_t max_updates_per_key = 64;
  /// Whole-solve step budget (one step per Transfer); a trip surfaces as
  /// kResourceExhausted carrying resource_error(watchdog(absint)).
  prore::WatchdogBudget watchdog;
  /// Cancellation/deadline scope threaded into the watchdog.
  prore::ExecContext exec;
};

/// Interprocedural worklist fixpoint solver over the SCC condensation.
/// Keys are processed callees-first (lowest dependency-group rank first;
/// ties in canonical key order, so the iteration is deterministic for a
/// given program regardless of discovery order), new (pred, pattern) keys
/// are created on demand when a Transfer looks them up, and a key is
/// re-queued whenever a summary it read grows. Widening applies at SCC
/// heads (recursive predicates) once a key has been joined `widen_after`
/// times.
template <Domain D>
class Solver {
 public:
  using Value = typename D::Value;

  struct Stats {
    size_t keys = 0;        ///< distinct (pred, pattern) summaries
    size_t transfers = 0;   ///< Transfer evaluations run
    size_t widenings = 0;   ///< Widen applications
    size_t saturations = 0; ///< keys forced to Top by the update cap
  };

  Solver(const term::TermStore* store, const CallGraph* graph,
         const DependencyGroups* groups, D* domain, SolverOptions opts)
      : store_(store),
        graph_(graph),
        groups_(groups),
        domain_(domain),
        opts_(opts) {
    watchdog_.Arm(opts_.watchdog, "absint", opts_.exec);
  }

  /// Runs the fixpoint from `seeds` (plus everything reachable from them).
  prore::Status Run(const std::vector<CallKey>& seeds) {
    for (const CallKey& seed : seeds) Ensure(seed.pred, seed.pattern);
    while (!worklist_.empty()) {
      auto it = worklist_.begin();
      std::string key = it->second;
      worklist_.erase(it);
      queued_.erase(key);
      PRORE_RETURN_IF_ERROR(Update(key));
    }
    stats_.keys = memo_.size();
    return prore::Status::OK();
  }

  /// Summary of (id, pattern); nullptr if the fixpoint never reached it.
  const Value* Find(const term::PredId& id, const Mode& pattern) const {
    auto it = memo_.find(KeyName(*store_, id, pattern));
    return it == memo_.end() ? nullptr : &it->second;
  }

  /// All summaries in canonical key order.
  const std::map<std::string, Value>& summaries() const { return memo_; }
  /// The CallKey behind each canonical key.
  const std::map<std::string, CallKey>& keys() const { return keys_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Dependency-group rank of a predicate; preds outside the program (no
  /// group) rank lowest — their summaries never change, analyze first.
  size_t RankOf(const term::PredId& id) const {
    auto it = groups_->group_of.find(id);
    return it == groups_->group_of.end() ? 0 : it->second + 1;
  }

  const Value& Ensure(const term::PredId& id, const Mode& pattern) {
    std::string key = KeyName(*store_, id, pattern);
    auto it = memo_.find(key);
    if (it == memo_.end()) {
      it = memo_.emplace(key, domain_->Bottom(id, pattern)).first;
      keys_.emplace(key, CallKey{id, pattern});
      Enqueue(key);
    }
    return it->second;
  }

  void Enqueue(const std::string& key) {
    if (!queued_.insert(key).second) return;
    worklist_.emplace(RankOf(keys_.at(key).pred), key);
  }

  prore::Status Update(const std::string& key) {
    PRORE_RETURN_IF_ERROR(watchdog_.Step());
    const CallKey ck = keys_.at(key);
    ++stats_.transfers;
    Lookup<Value> lookup = [this, &key](const term::PredId& callee,
                                        const Mode& pattern) -> const Value& {
      const Value& v = Ensure(callee, pattern);
      dependents_[KeyName(*store_, callee, pattern)].insert(key);
      return v;
    };
    PRORE_ASSIGN_OR_RETURN(Value next,
                           domain_->Transfer(ck.pred, ck.pattern, lookup));
    const Value& old = memo_.at(key);
    size_t& updates = update_count_[key];
    Value merged = domain_->Join(old, next);
    if (updates >= opts_.widen_after && graph_->IsRecursive(ck.pred)) {
      // SCC head on a still-ascending chain: accelerate.
      merged = domain_->Widen(old, merged);
      ++stats_.widenings;
    }
    if (updates >= opts_.max_updates_per_key) {
      merged = domain_->Top(ck.pred, ck.pattern);
      ++stats_.saturations;
    }
    if (domain_->Equal(old, merged)) return prore::Status::OK();
    memo_.at(key) = std::move(merged);
    ++updates;
    auto dep = dependents_.find(key);
    if (dep != dependents_.end()) {
      for (const std::string& d : dep->second) Enqueue(d);
    }
    return prore::Status::OK();
  }

  const term::TermStore* store_;
  const CallGraph* graph_;
  const DependencyGroups* groups_;
  D* domain_;
  SolverOptions opts_;
  prore::Watchdog watchdog_;

  std::map<std::string, Value> memo_;
  std::map<std::string, CallKey> keys_;
  std::map<std::string, std::set<std::string>> dependents_;
  std::map<std::string, size_t> update_count_;
  /// (rank, key) priority worklist: callees-first, canonical within rank.
  std::set<std::pair<size_t, std::string>> worklist_;
  std::set<std::string> queued_;
  Stats stats_;
};

}  // namespace prore::analysis::absint

#endif  // PRORE_ANALYSIS_ABSINT_SOLVER_H_
