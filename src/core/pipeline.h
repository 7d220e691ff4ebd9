#ifndef PRORE_CORE_PIPELINE_H_
#define PRORE_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/watchdog.h"
#include "core/analysis_cache.h"
#include "core/disjunction.h"
#include "core/fault.h"
#include "core/reorderer.h"
#include "core/unfold.h"
#include "lint/diagnostic.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::core {

/// The degradation ladder, descended one rung at a time when a predicate's
/// transform fails its fault boundary (thrown exception, non-ok Status,
/// error-severity validator diagnostic, or watchdog trip). The bottom rung
/// is unconditional: identity emission copies the original clauses
/// verbatim and runs no analysis-driven decisions on that predicate, so it
/// is always reachable and always succeeds.
enum class LadderLevel {
  kFull = 0,             ///< unfold + factor + clause & goal order + modes
  kNoUnfold = 1,         ///< exempt from unfold/factor; reorder fully
  kClauseOrderOnly = 2,  ///< clause order only; body and name untouched
  kIdentity = 3,         ///< original clauses, bit-for-bit
};

/// Stable lowercase name: "full", "no-unfold", "clause-order-only",
/// "identity".
const char* LadderLevelName(LadderLevel level);

struct PipelineOptions {
  ReorderOptions reorder;
  /// Parallelism over SCC dependency groups. 0 = the classic whole-program
  /// pipeline (one Reorderer over everything, callers priced against their
  /// already-reordered callees). N >= 1 = the sharded pipeline: the call
  /// graph is condensed into dependency groups (analysis::DependencyGroups)
  /// and each group is transformed independently on a pool of N worker
  /// threads, against a private copy of its dependency cone with the cone
  /// pinned to identity. Group construction and the merge are fully
  /// deterministic, so --jobs=N output is bit-identical to --jobs=1 (N only
  /// changes wall-clock). jobs=1 runs the same sharded code path inline.
  size_t jobs = 0;
  /// Predicates that enter the degradation ladder at kIdentity and stay
  /// there: emitted verbatim, never blamed, calls to them never renamed
  /// (null = none). The sharded pipeline pins each group's dependency cone
  /// this way.
  std::shared_ptr<const analysis::PredSet> pinned_identity;
  /// Run the unfolding pre-pass (prore --unfold).
  bool unfold = false;
  UnfoldOptions unfold_options;
  /// Run disjunction factoring (prore --factor).
  bool factor = false;
  /// Budget for mode inference (0 fields = unlimited).
  prore::WatchdogBudget inference_watchdog;
  /// Budget for cost-model evaluation (0 fields = unlimited); covers the
  /// goal-order search transitively.
  prore::WatchdogBudget cost_watchdog;
  /// Budget for the abstract-interpretation fixpoints (0 fields =
  /// unlimited). A trip does not quarantine a predicate: the whole stage
  /// is disabled (reorder.absint = false) and the run retried — absint is
  /// an accuracy upgrade, not a correctness requirement.
  prore::WatchdogBudget absint_watchdog;
  /// Whole-pipeline retry cap; 0 = automatic (enough for every predicate
  /// to descend the full ladder, plus slack).
  size_t max_runs = 0;
  /// Transform-stage fault injection (tests only).
  const TransformFaultPlan* fault = nullptr;
  /// Cancellation/deadline scope for the whole run: checked before every
  /// pipeline attempt and threaded into every analysis watchdog. A cancel
  /// or an expired deadline lands the remaining work on the identity
  /// program (recorded in PipelineReport::global_trigger) — the output
  /// stays complete and correct, just unoptimized.
  prore::ExecContext exec;
  /// Transient-fault retry policy: a predicate whose fault classifies as
  /// transient (watchdog trip, deadline brush, OOM) is retried with
  /// bounded exponential backoff up to retry.max_retries() times before
  /// being demoted a ladder rung. Deterministic faults (validator
  /// findings, crashes) skip straight to demotion. max_attempts = 1
  /// disables retries. Configurable via --retry-attempts on prore/prored.
  prore::RetryPolicy retry;
  /// Content-addressed reuse of per-group transform results, keyed by the
  /// group's content hash over the SCC condensation (clause hashes plus
  /// callee-group hashes; analysis/content_hash.h). Null = no caching.
  /// Setting a cache forces the sharded path even when jobs == 0 (the
  /// classic whole-program pipeline prices callers against reordered
  /// callees and is not group-decomposable). Hits are re-validated with
  /// the PL100-PL103 checks before being trusted; a failed validation
  /// invalidates the entry and recomputes. Only clean (non-degraded)
  /// groups are inserted.
  AnalysisCache* cache = nullptr;
  /// Salt folded into every content hash; callers fingerprint the
  /// transform options here so entries produced under different options
  /// never collide. (prored derives it from the request's option set.)
  uint64_t cache_salt = 0;
  /// Sharded runs only: as soon as one group degrades, cancel the sibling
  /// groups (pending tasks dropped, running ones interrupted through
  /// their ExecContext) instead of burning them to completion. Used by
  /// `prore --strict`, where any degradation already means exit 3 — so
  /// sibling results cannot change the outcome. Off by default because
  /// early-stopping makes jobs=N output depend on completion timing.
  bool stop_on_degrade = false;
};

/// Per-predicate outcome in the PipelineReport.
struct PredOutcome {
  term::PredId pred;
  std::string name;  ///< "name/arity"
  LadderLevel level = LadderLevel::kFull;
  /// Build attempts for this predicate: 1 + number of demotions.
  int attempts = 1;
  /// Why each demotion happened, in ladder order (status or diagnostic
  /// text, e.g. "PL101: transformed aunt/2 dropped a clause").
  std::vector<std::string> triggers;
  /// Transient-fault retries burned before the outcome settled (0 or 1
  /// under the default RetryPolicy). Retries also appear in `attempts`
  /// and leave a "retry (transient): ..." trigger.
  int retries = 0;
  /// Classification of the predicate's last fault — "transient",
  /// "deterministic", or "" when it never faulted.
  std::string fault_class;
  bool clauses_changed = false;
  bool goals_changed = false;
};

/// Structured account of a guarded run: who ended at which ladder level,
/// after how many attempts, triggered by what. Rendered as text (for
/// stderr) or JSON (stable field order, machine-checkable).
struct PipelineReport {
  /// One entry per original predicate, in program order.
  std::vector<PredOutcome> preds;
  /// Whole-pipeline attempts (1 = clean first pass).
  int runs = 1;
  /// Non-empty when a global (unattributable) failure forced the whole
  /// program to identity — e.g. a mode-inference watchdog trip during
  /// setup, or an attempt-budget blowout.
  std::string global_trigger;
  /// Stage-level fallbacks (recorded once, not per predicate): a failure
  /// inside unfold/factor disables that whole stage for the rest of the
  /// run rather than blaming a predicate.
  bool unfold_disabled = false;
  std::string unfold_trigger;
  bool factor_disabled = false;
  std::string factor_trigger;
  bool absint_disabled = false;
  std::string absint_trigger;

  /// Analysis-cache accounting for this run (sharded path with a cache
  /// only; all zero otherwise). Deliberately NOT part of ToText/ToJson:
  /// the rendered report describes the transformation, which is identical
  /// whether a group was recomputed or replayed from cache — keeping the
  /// counters out is what makes cache-hit responses bit-identical to cold
  /// ones. Consumers that want them (tests, prored stats) read the fields.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Hits whose validation failed (corrupt entry); also counted as misses.
  size_t cache_rejected = 0;

  /// True if any predicate ended below kFull (or a stage was disabled).
  bool degraded() const;
  /// Number of predicates below kFull.
  size_t quarantined() const;

  std::string ToText() const;
  std::string ToJson() const;
};

struct PipelineResult {
  reader::Program program;
  /// Reorderer reports from the final (successful) run.
  std::vector<PredModeReport> reports;
  /// Diagnostics from the final run (notes and warnings; error-severity
  /// findings have been consumed as quarantine triggers by then).
  std::vector<lint::Diagnostic> diagnostics;
  /// DumpAbsint text from the final run (sharded: per-group sections, in
  /// deterministic merge order). Empty when absint was off or disabled.
  std::string absint_report;
  PipelineReport report;
};

/// The self-healing optimization pipeline. Runs unfold/factor/reorder under
/// a per-predicate fault boundary: any failure attributed to a predicate
/// demotes it one rung on the degradation ladder and re-runs; global
/// failures (analysis watchdog trips during setup) fall back to the
/// identity program. The result therefore always contains every predicate
/// — healthy ones transformed, quarantined ones at their recorded rung —
/// and Run() only returns an error for malformed input (not for any
/// transform failure).
class GuardedPipeline {
 public:
  GuardedPipeline(term::TermStore* store, PipelineOptions options = {})
      : store_(store), options_(std::move(options)) {}

  prore::Result<PipelineResult> Run(const reader::Program& original);

 private:
  /// The classic single-threaded whole-program pipeline (jobs == 0).
  prore::Result<PipelineResult> RunWhole(const reader::Program& original);
  /// The dependency-group-sharded pipeline (jobs >= 1): independent groups
  /// transformed concurrently, each inside its own fault boundary with its
  /// own watchdog deadlines, merged deterministically.
  prore::Result<PipelineResult> RunSharded(const reader::Program& original);

  /// The guaranteed bottom: a verbatim copy of the program.
  reader::Program CopyProgram(const reader::Program& original) const;

  /// Parses and self-verifies one cached group entry against the owned
  /// members' original clauses (PL100-PL103 validator, minus the checks
  /// that need the producing run's analyses). On success the parsed
  /// fragment (terms interned in the main store) lands in *out_frag.
  bool TryAdoptCachedGroup(const GroupCacheEntry& entry,
                           const std::vector<term::PredId>& members,
                           const reader::Program& original,
                           reader::Program* out_frag);

  term::TermStore* store_;
  PipelineOptions options_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_PIPELINE_H_
