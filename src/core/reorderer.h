#ifndef PRORE_CORE_REORDERER_H_
#define PRORE_CORE_REORDERER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "core/fault.h"
#include "core/goal_order.h"
#include "lint/diagnostic.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::core {

/// Configuration of the whole reordering system (paper Fig. 3).
struct ReorderOptions {
  GoalOrderOptions goal_search;
  analysis::InferenceOptions inference;
  /// Reorder clauses within predicates by decreasing p/c (§III-A).
  bool reorder_clauses = true;
  /// Reorder goals within clause bodies (§III-B, §VI).
  bool reorder_goals = true;
  /// Generate one version of each predicate per calling mode, with a
  /// var/nonvar dispatcher under the original name (§VII, Fig. 7).
  bool specialize_modes = true;
  /// §V-D run-time tests: when a clause would reorder better under the
  /// assumption that its head arguments are instantiated, emit
  /// `( ground(A1), ... -> reordered ; original )` — "if the variables
  /// pass the tests, we use the new order and gain efficiency; if they
  /// fail, we use the original order and lose only the cost of the
  /// tests". Most useful with specialize_modes off.
  bool runtime_guards = false;
  /// Emit a guard only when the optimistic order is predicted at least
  /// this much cheaper (ratio of all-solutions costs).
  double guard_min_gain = 1.15;
  /// Reorder recursive predicates only when the user declared their legal
  /// modes (`:- legal_mode(...)`), the paper's §IV-D.7 position: "we assume
  /// for now that the programmer declares a predicate recursive and
  /// provides necessary information".
  bool reorder_recursive_only_if_declared = true;
  /// Dispatchers enumerate 2^arity branches; skip beyond this arity.
  uint32_t max_dispatch_arity = 6;
  /// Cap on generated versions per predicate.
  size_t max_versions_per_pred = 64;
  /// Run the reorder validator (lint/validate.h) over the transformed
  /// program and report its findings in ReorderResult::diagnostics. The
  /// optimizer thereby verifies its own output on every run.
  bool validate_output = true;
  /// Run the interprocedural abstract interpretation (analysis/absint/)
  /// during setup: groundness success patterns tighten the inferred mode
  /// table before legality is decided (expanding the legal-reordering
  /// set), and determinism bounds clamp the cost model's expected solution
  /// counts. Off = the paper-baseline estimates — the --no-absint ablation
  /// and the GuardedPipeline's fallback after an absint watchdog trip.
  bool absint = true;
  /// Step/wall-clock budget for the absint fixpoints (0 fields =
  /// unlimited); a trip aborts Run with kResourceExhausted carrying
  /// resource_error(watchdog(absint)), which the GuardedPipeline maps to
  /// an absint-disabled re-run instead of quarantining a predicate.
  prore::WatchdogBudget absint_watchdog;

  // ---- Guarded-pipeline controls (core/pipeline.h) ----------------------

  /// Predicates restricted to clause reordering: no goal reordering, no
  /// mode specialization (one version under the original name), and their
  /// bodies are left textually intact (callees keep original names).
  analysis::PredSet clause_order_only;
  /// Predicates emitted verbatim (the identity transform): original
  /// clauses bit-for-bit under the original name, never specialized, and
  /// calls to them anywhere are never renamed.
  analysis::PredSet identity_preds;
  /// Additional predicates to treat as cut-frozen, on top of the
  /// FrozenDescendants analysis of the input program (null = none). The
  /// sharded pipeline computes frozen descendants over the WHOLE program
  /// and injects them here, because the property flows caller -> callee: a
  /// per-group subprogram cannot see that some outside caller guards a
  /// group member with a cut. Shared read-only by every group's run.
  std::shared_ptr<const analysis::PredSet> extra_frozen;
  /// Predicate identities (by name/arity) that exist elsewhere in the full
  /// program even though this Run's input does not define them (null =
  /// none). Version naming probes these in addition to the input program,
  /// so per-group shards never mint a version name that collides with
  /// another group's predicate. Shared read-only by every group's run.
  std::shared_ptr<const analysis::PredSet> reserved_preds;
  /// Invoked when building a predicate's version fails, just before the
  /// error propagates out of Run — the guarded pipeline uses it to learn
  /// which predicate to quarantine.
  std::function<void(const term::PredId&, const prore::Status&)>
      on_pred_error;
  /// Step/wall-clock budget for cost-model evaluation (0 = unlimited); a
  /// trip aborts the run with kResourceExhausted attributed to the
  /// predicate being built. Covers the goal-order search transitively.
  prore::WatchdogBudget cost_watchdog;
  /// Recorded execution profile to feed the cost model (not owned; must
  /// outlive the Run). Null = pure static model. Build one from a profile
  /// file with profile::BuildEmpirical, which performs the content-hash
  /// staleness check — predicates whose clauses changed since recording
  /// are dropped there, so whatever arrives here is safe to apply.
  const cost::EmpiricalProfile* profile = nullptr;
  /// Transform-stage fault injection (tests only); null = disabled.
  const TransformFaultPlan* fault = nullptr;
  /// Cancellation/deadline scope for the whole Run: threaded into every
  /// analysis watchdog (mode inference, absint, cost model) and checked
  /// at Run entry, so a cancelled or past-deadline context aborts with
  /// kCancelled / kResourceExhausted instead of starting new work.
  prore::ExecContext exec;
};

/// Per-(predicate, mode) account of what the reorderer did.
struct PredModeReport {
  term::PredId pred;
  analysis::Mode mode;
  std::string version_name;
  bool clauses_changed = false;
  bool goals_changed = false;
  /// Model-predicted all-solutions cost of the predicate's bodies before
  /// and after (sums over clauses; heuristic units of "calls").
  double predicted_original_cost = 0.0;
  double predicted_new_cost = 0.0;
};

struct ReorderResult {
  reader::Program program;  ///< transformed program (versions + dispatchers)
  std::vector<PredModeReport> reports;
  analysis::ModeAnalysis modes;  ///< the inference results used
  /// Structured diagnostics: the reorderer's own notes (PL21x) plus, when
  /// ReorderOptions::validate_output is on, the reorder validator's
  /// findings (PL1xx). An error-severity entry means the transformation
  /// failed self-verification. Render with Diagnostic::ToString().
  std::vector<lint::Diagnostic> diagnostics;
  /// DumpAbsint text when ReorderOptions::absint ran (for --report).
  std::string absint_report;
};

/// The reordering system: ties together the restriction analyses (§IV),
/// the legal-mode machinery (§V) and the Markov-chain order search (§VI)
/// into a source-to-source transformation preserving set-equivalence.
class Reorderer {
 public:
  explicit Reorderer(term::TermStore* store,
                     ReorderOptions options = ReorderOptions())
      : store_(store), options_(options) {}

  /// Transforms `original`. The result program answers the same queries
  /// (same answer sets, possibly different order); queries must go through
  /// the original predicate names, which become dispatchers when
  /// specialization is on.
  prore::Result<ReorderResult> Run(const reader::Program& original);

  /// Name of the specialized version of `id` for `mode`, e.g. aunt_iu.
  static std::string VersionName(const term::TermStore& store,
                                 const term::PredId& id,
                                 const analysis::Mode& mode);

 private:
  term::TermStore* store_;
  ReorderOptions options_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_REORDERER_H_
