#ifndef PRORE_LINT_VALIDATE_H_
#define PRORE_LINT_VALIDATE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "lint/diagnostic.h"
#include "reader/program.h"
#include "term/store.h"

namespace prore::lint {

/// One specialized version the reorderer emitted: the original predicate,
/// the input mode the version assumes, and the name it was emitted under
/// (equal to the original name for unspecialized predicates). This mirrors
/// the reorderer's per-version report without depending on core.
struct VersionInfo {
  term::PredId pred;
  analysis::Mode mode;
  std::string version_name;
};

/// Everything the reorder validator needs. `oracle` must be built over the
/// *original* program — the validator holds the transformed program to the
/// same legality standard the reorderer itself used. Null analyses disable
/// the checks that need them (mode checks, fixity checks).
struct ReorderCheckInput {
  const reader::Program* original = nullptr;
  const reader::Program* transformed = nullptr;
  std::vector<VersionInfo> versions;
  /// The original predicates `transformed` must define (null = every
  /// predicate of `original`). The reorderer checks one dependency group
  /// at a time: `original` is the whole program, `preds` the group.
  const std::vector<term::PredId>* preds = nullptr;
  /// Versions defined outside `transformed` that its bodies may call —
  /// the callee groups' versions — by version name (may be null).
  const std::unordered_map<std::string, VersionInfo>* callee_versions =
      nullptr;
  const analysis::ModeAnalysis* modes = nullptr;   // may be null
  analysis::LegalityOracle* oracle = nullptr;      // may be null
  const analysis::FixityResult* fixity = nullptr;  // may be null
  /// Predicates whose clause and goal order the reorderer promised not to
  /// change (fixed predicates and frozen descendants): their versions must
  /// match the original clause-for-clause.
  analysis::PredSet no_reorder;
};

/// Re-checks a reorderer transformation from the outside:
///   PL100  a call in a transformed body is illegal under the version's
///          declared input mode (builtin demand violated, or a version
///          called where its '+' assumptions are not met);
///   PL101  clause structure was not preserved: a clause lost/gained
///          goals, changed its cut count, moved a pinned (side-effect /
///          fixed) goal, or a no-reorder predicate's order changed;
///   PL102  a dispatcher under an original name is malformed: wrong shape,
///          leaf calling a missing version, or a leaf incompatible with
///          the var-test path that reaches it;
///   PL103  an original predicate has no definition in the transformed
///          program.
/// Returns the findings sorted; empty means the transformation verified.
std::vector<Diagnostic> ValidateReorder(term::TermStore* store,
                                        const ReorderCheckInput& input);

}  // namespace prore::lint

#endif  // PRORE_LINT_VALIDATE_H_
