#ifndef PRORE_CORE_REORDERER_H_
#define PRORE_CORE_REORDERER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/absint/absint.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "core/fault.h"
#include "core/goal_order.h"
#include "lint/diagnostic.h"
#include "lint/validate.h"
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

/// What a finished dependency group passes to the groups that call it (the
/// upward flow of paper Fig. 3): the cost model's stats for each (member,
/// mode) it settled, the reordered versions' among them, and the name
/// each specialized version was emitted under. Plain strings and values,
/// valid across stores, so the analysis cache can keep a copy.
struct VersionTable {
  /// Cost-model key ("name/arity:mode suffix") -> stats, in key order.
  std::vector<std::pair<std::string, cost::PredModeStats>> stats;
  /// Cost-model key -> the specialized version that calls in that mode go
  /// to, after identical versions were merged. Build order.
  std::vector<std::pair<std::string, std::string>> names;
};

/// One dependency group's transformation.
struct GroupOutput {
  /// Per member, in program order: its emitted clauses (specialized
  /// versions, then the dispatcher under the original name).
  std::vector<std::pair<term::PredId, std::vector<reader::Clause>>> clauses;
  /// Per-(member, mode) reports, in build order.
  std::vector<PredModeReport> reports;
  /// The reorderer's own notes (PL210/PL211).
  std::vector<lint::Diagnostic> notes;
  /// Reorder-validator findings for the group, sorted (empty when
  /// ReorderOptions::validate_output is off).
  std::vector<lint::Diagnostic> findings;
  VersionTable table;
};

/// Specialized versions by the name they were emitted under.
using VersionsByName = std::unordered_map<std::string, lint::VersionInfo>;

/// Adds the specialized versions among `reports` to `*out`.
void AddVersions(const term::TermStore& store,
                 const std::vector<PredModeReport>& reports,
                 VersionsByName* out);

/// The whole-program half of the reorderer, computed once per program:
/// declarations, call graph and its dependency groups, fixity, the
/// cut-frozen set, mode inference, abstract interpretation and the
/// legality oracle. Every group's GroupTransform reads it; finished groups
/// publish their VersionTable into it for the groups of later waves.
class ProgramAnalysis {
 public:
  /// Runs the analyses over `program` (which must outlive the result).
  /// Fails the way the analyses fail: a watchdog trip, cancellation, a
  /// malformed declaration.
  static prore::Result<std::unique_ptr<ProgramAnalysis>> Build(
      term::TermStore* store, const reader::Program& program,
      const ReorderOptions& options);

  const reader::Program& program() const { return program_; }
  const analysis::DependencyGroups& groups() const { return groups_; }
  /// Group indices by wave, ascending: every callee group of a group lies
  /// in an earlier wave, so the groups of one wave are independent.
  const std::vector<std::vector<size_t>>& waves() const { return waves_; }
  /// Group `g`'s predicates, in program order.
  const std::vector<term::PredId>& members(size_t g) const {
    return members_[g];
  }
  const analysis::ModeAnalysis& modes() const { return modes_; }

  /// Fingerprint of the analysis facts group `g`'s transform reads about
  /// its members: mode and legal-mode rows, observed inputs, determinism,
  /// frozen and fixity status. Mode inference runs top-down from the entry
  /// points, so these can change when only a caller was edited.
  uint64_t FactsFingerprint(size_t g) const;

  /// Makes a finished group's versions visible to the groups after it.
  void Publish(const VersionTable& table,
               const std::vector<PredModeReport>& reports);

  /// Every specialized version published so far.
  const VersionsByName& published_versions() const {
    return published_versions_;
  }

  /// DumpAbsint text (empty when absint is off).
  std::string AbsintReport() const;

 private:
  friend class GroupPipeline;
  ProgramAnalysis(term::TermStore* store, const reader::Program& program)
      : store_(store), program_(program) {}

  term::TermStore* store_;
  const reader::Program& program_;
  analysis::Declarations decls_;
  analysis::CallGraph graph_;
  analysis::DependencyGroups groups_;
  /// Each group's predicates, in program order.
  std::vector<std::vector<term::PredId>> members_;
  std::vector<std::vector<size_t>> waves_;
  analysis::FixityResult fixity_;
  analysis::PredSet frozen_;
  analysis::ModeAnalysis modes_;
  std::unique_ptr<analysis::absint::AbsintResult> absint_;
  /// Answers every group's oracle reads first; grows between waves.
  std::unique_ptr<analysis::LegalityOracle> oracle_;
  std::unordered_map<std::string, cost::PredModeStats> published_stats_;
  std::unordered_map<std::string, std::string> published_names_;
  VersionsByName published_versions_;
};

class GroupPipeline;

/// Transforms one dependency group against the shared ProgramAnalysis and
/// the versions its callee groups published: every caller is ordered
/// against its callees' reordered, mode-specialized versions (paper
/// §VI-VII). `options` carries the ladder sets (identity_preds,
/// clause_order_only) and budgets of this attempt.
class GroupTransform {
 public:
  GroupTransform(ProgramAnalysis* analysis, size_t group,
                 const ReorderOptions& options);
  ~GroupTransform();

  /// Clause and goal order and predicted stats of every version. Reads the
  /// shared analyses and the store's existing terms only, so the groups of
  /// one wave may Plan concurrently.
  prore::Status Plan();
  /// Emits versions and dispatchers into the store, merges identical
  /// versions and validates the group. Mints terms: one group at a time,
  /// with no Plan running.
  prore::Result<GroupOutput> Emit();
  /// Publishes `out` (this transform's Emit result) to later groups and
  /// hands the group's legality answers to the shared oracle.
  void Publish(const GroupOutput& out);

 private:
  std::unique_ptr<GroupPipeline> impl_;
};

/// Concatenates group outputs into one program in `program`'s predicate
/// order: versions and dispatcher of each predicate where the predicate
/// stood, then the directives. Groups without an output contribute the
/// original clauses of their predicates.
reader::Program AssembleGroups(const term::TermStore& store,
                               const reader::Program& program,
                               const std::vector<const GroupOutput*>& outs);

/// The groups' diagnostics as one list: the reorderer's notes in program
/// order of their predicates, then every validator finding, sorted.
std::vector<lint::Diagnostic> MergeGroupDiagnostics(
    const term::TermStore& store, const reader::Program& program,
    const std::vector<const GroupOutput*>& outs);

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
