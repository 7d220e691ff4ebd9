#ifndef PRORE_ANALYSIS_ABSINT_DETERMINISM_H_
#define PRORE_ANALYSIS_ABSINT_DETERMINISM_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/absint/groundness.h"
#include "analysis/absint/solver.h"
#include "analysis/body.h"
#include "analysis/modes.h"
#include "common/result.h"
#include "engine/exclusivity.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::analysis::absint {

/// Solution-count classification of one (predicate, call pattern), ordered
/// by the interval hull lattice over solution counts:
///   failure = [0,0]   det = [1,1]   semidet = [0,1]
///   multi   = [1,inf] nondet = [0,inf]
enum class Det : uint8_t {
  kFailure,
  kDet,
  kSemidet,
  kMulti,
  kNondet,
};

const char* DetName(Det d);  // "failure" / "det" / ...

/// The solution-count interval behind a Det: lo in {0, 1}, hi in
/// {0, 1, kInf} — exactly enough resolution to distinguish the five
/// classes while keeping every operation a table lookup.
struct DetInterval {
  static constexpr int kInf = 2;
  int lo = 0;
  int hi = 0;
};

DetInterval ToInterval(Det d);
Det FromInterval(DetInterval iv);
DetInterval SeqInterval(DetInterval a, DetInterval b);  ///< conjunction
DetInterval AltInterval(DetInterval a, DetInterval b);  ///< disjunction
DetInterval HullInterval(DetInterval a, DetInterval b); ///< either/or
DetInterval Cap01(DetInterval a);  ///< at most one solution survives (cut)
DetInterval Cap0(DetInterval a);   ///< may contribute nothing (head miss)

/// The determinism domain for the absint Solver. Consumes an already
/// solved GroundnessSummaries (nullable — without it every callee output
/// mode is '?') for environment threading, and the engine's head-
/// exclusivity witnesses for the clause-combination rule: clauses proven
/// mutually exclusive under the call pattern contribute max (not sum) of
/// their solution bounds; otherwise a backward recursion applies the cut
/// rule (once a clause-level cut fires, later clauses are discarded).
class DeterminismDomain {
 public:
  using Value = Det;

  DeterminismDomain(const term::TermStore* store,
                    const reader::Program* program,
                    const GroundnessSummaries* groundness);

  Det Bottom(const term::PredId& id, const Mode& pattern) const;
  Det Top(const term::PredId& id, const Mode& pattern) const;
  Det Join(const Det& a, const Det& b) const;
  Det Widen(const Det& a, const Det& b) const;
  bool Equal(const Det& a, const Det& b) const;
  prore::Result<Det> Transfer(const term::PredId& id, const Mode& pattern,
                              const Lookup<Det>& lookup);

  /// True if some exclusivity witness of `id` is fully '+' in `pattern`
  /// (so at most one clause head can match any concrete call).
  bool ExclusiveUnder(const term::PredId& id, const Mode& pattern);

  /// The witnesses computed for `id` (cached; empty if none).
  const std::vector<engine::Witness>& WitnessesOf(const term::PredId& id);

 private:
  struct PredInfo {
    std::vector<std::unique_ptr<BodyNode>> bodies;
    std::vector<bool> has_cut;       ///< clause-level cut anywhere in body
    std::vector<bool> certain_head;  ///< head args all distinct free vars
    std::vector<engine::Witness> witnesses;
  };

  prore::Result<const PredInfo*> InfoOf(const term::PredId& id);

  /// Solution-count interval of `node` under `env`; advances `env` the way
  /// abstract execution would. `lookup` supplies program-callee summaries.
  prore::Result<DetInterval> WalkBody(const BodyNode& node, AbstractEnv* env,
                                      const Lookup<Det>& lookup);

  /// Interval + env update for one builtin/library call.
  DetInterval CallInterval(term::TermRef goal, const term::PredId& callee,
                           const Mode& call_mode);

  const term::TermStore* store_;
  const reader::Program* program_;
  const GroundnessSummaries* groundness_;
  const BuiltinModes& builtin_modes_ = BuiltinModes::Standard();
  ModeTable library_modes_;
  std::unordered_map<term::PredId, PredInfo, term::PredIdHash> info_;
};

/// Published determinism results, detached from the solver.
struct DeterminismAnalysis {
  std::map<std::string, Det> by_key;
  std::map<std::string, CallKey> keys;
  /// Head-exclusivity witnesses per analyzed predicate.
  std::unordered_map<term::PredId, std::vector<engine::Witness>,
                     term::PredIdHash>
      witnesses;

  /// Upper-bound classification of a call with mode `call_mode`: the exact
  /// summary when one exists; otherwise the hull over every analyzed
  /// pattern the call is at least as bound as, with the lower bound dropped
  /// (instantiating a query can only remove solutions, so `hi` transfers
  /// downward but `lo` does not). kNondet when nothing applies.
  Det DetFor(const term::TermStore& store, const term::PredId& id,
             const Mode& call_mode) const;

  /// True if some witness of `id` is fully '+' in `call_mode`.
  bool ExclusiveUnder(const term::PredId& id, const Mode& call_mode) const;
};

}  // namespace prore::analysis::absint

#endif  // PRORE_ANALYSIS_ABSINT_DETERMINISM_H_
