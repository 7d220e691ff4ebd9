#ifndef PRORE_ANALYSIS_MODE_INFERENCE_H_
#define PRORE_ANALYSIS_MODE_INFERENCE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "common/watchdog.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis {

/// Registers legal (input, output) mode pairs for the pure-Prolog library
/// predicates (append/3, member/2, between/3, ...). These are recursive, so
/// the oracle cannot derive their safe modes; the table plays the role of
/// the paper's hand-written file of facts about built-ins.
void AddLibraryModes(term::TermStore* store, ModeTable* table);

struct InferenceOptions {
  /// Entry predicates with no declared modes are analyzed in every {+,-}
  /// mode when their arity is at most this; above it, a single all-'?'
  /// mode is used.
  uint32_t max_enumerated_arity = 6;
  /// Fixpoint iteration bound per (predicate, mode).
  size_t max_iterations = 64;
  /// Step/wall-clock budget for the whole inference (one step per clause
  /// sweep of a (predicate, mode) key). Zero fields disable the watchdog;
  /// a trip surfaces as kResourceExhausted carrying
  /// resource_error(watchdog(mode_inference)).
  prore::WatchdogBudget watchdog;
  /// Cancellation/deadline scope for the inference; observed through the
  /// watchdog on every step even when the budget itself is unlimited.
  prore::ExecContext exec;
};

/// What mode inference learns about a program (paper §V-E, after Debray):
/// for every call mode that can arise when the *original* program runs from
/// its entry points, the output mode of a successful call. The observed
/// input modes double as the legal modes of recursive predicates — the
/// paper's assumption that "the programmer does not deliberately call any
/// predicate in an illegal mode".
struct ModeAnalysis {
  /// (input -> output) pairs per predicate: declared ∪ inferred ∪ library.
  /// Sound as *output guarantees* for any call mode matching the input —
  /// including modes only seen under speculative entry enumeration.
  ModeTable table;
  /// The subset of pairs that also certify *legality* of the input mode
  /// for recursive/library predicates: declared pairs, library pairs, and
  /// modes observed under non-speculative (declared-entry) walks. A
  /// recursive predicate's mode seen only under a speculative entry
  /// enumeration is absent here — nothing shows it terminates.
  ModeTable legal_table;
  /// Input modes observed to arise in the original program, per predicate.
  std::unordered_map<term::PredId, std::vector<Mode>, term::PredIdHash>
      observed_inputs;
};

/// Abstractly executes the program over the {+,-,?} domain from its entry
/// points (declared `:- entry(p/N)` or the call-graph roots), to a
/// fixpoint, producing the ModeAnalysis.
prore::Result<ModeAnalysis> InferModes(const term::TermStore& store,
                                       const reader::Program& program,
                                       const CallGraph& graph,
                                       const Declarations& decls,
                                       const InferenceOptions& opts = {});

/// Answers, for a *candidate* goal order, whether a call is safe and what
/// it instantiates — the gatekeeper of §VI-B.1 ("every goal must make a
/// legal call to its predicate; a reordering that prevents this ... is
/// rejected").
///
/// Rules:
///  - built-ins: the BuiltinModes demand table;
///  - recursive predicates (incl. library): call must satisfy a declared or
///    observed legal input mode;
///  - non-recursive user predicates: legal iff every call their clauses
///    make (under abstract execution in this mode) is legal; memoized.
class LegalityOracle {
 public:
  LegalityOracle(const term::TermStore* store,
                 const reader::Program* program, const CallGraph* graph,
                 const ModeAnalysis* analysis);

  /// An oracle over `base`'s program and analyses that reads `base`'s
  /// answers before computing its own. Answers do not depend on the order
  /// of questions, so several such oracles can serve concurrent readers
  /// while `base` stays unchanged; Absorb folds their answers back.
  explicit LegalityOracle(const LegalityOracle* base);

  /// Adds `other`'s memoized answers that this oracle lacks.
  void Absorb(const LegalityOracle& other);

  /// Is a call to `id` with argument modes `call_mode` safe?
  bool IsLegalCall(const term::PredId& id, const Mode& call_mode);

  /// Mode after a successful call; conservative (everything the table or
  /// on-demand analysis cannot guarantee becomes '?').
  Mode Output(const term::PredId& id, const Mode& call_mode);

  const BuiltinModes& builtin_modes() const { return builtin_modes_; }

 private:
  struct Entry {
    bool legal = false;
    Mode output;
  };

  const Entry& Analyze(const term::PredId& id, const Mode& call_mode);

  /// Walks a body checking every call's legality under `env`, updating the
  /// environment as it goes. Forward-declared BodyNode (see body.h).
  bool WalkCheck(const struct BodyNode& node, AbstractEnv* env);

  std::string Key(const term::PredId& id, const Mode& mode) const;

  const term::TermStore* store_;
  const reader::Program* program_;
  const CallGraph* graph_;
  const ModeAnalysis* analysis_;
  const LegalityOracle* base_ = nullptr;
  const BuiltinModes& builtin_modes_ = BuiltinModes::Standard();
  std::unordered_map<std::string, Entry> memo_;
  std::unordered_set<std::string> in_progress_;
};

/// Advances `env` across `node` the way abstract execution would: calls
/// apply the oracle's output mode ('='/2 unifies abstractly), control-flow
/// merges join, negation binds nothing. Shared by the semifixity
/// refinement and the reorderer's environment threading.
void AdvanceEnvOverNode(const term::TermStore& store,
                        const struct BodyNode& node, LegalityOracle* oracle,
                        AbstractEnv* env);

/// Initializes an abstract environment from a clause head and an input
/// call mode: '+' grounds the head argument's variables, '-' leaves them
/// free, '?' makes them unknown ('+' wins when a variable appears in
/// several arguments).
AbstractEnv EnvFromHead(const term::TermStore& store, term::TermRef head,
                        const Mode& input);

}  // namespace prore::analysis

#endif  // PRORE_ANALYSIS_MODE_INFERENCE_H_
