// The three workloads' inputs and the in-process measurement of the
// reorderer (prore's and prored's pipeline paths), the standalone analyses
// and lint check, and the engine on the programs the reorderer produces.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "core/analysis_cache.h"
#include "engine/snapshot.h"

namespace perfbench {

/// One program with the queries the benchmark runs on it.
struct Input {
  std::string name;
  std::string source;
  std::vector<std::string> queries;
  int preds = 0;  ///< synthetic programs only
  /// Consecutive queries that form one unit of the calls speedup (one
  /// cluster of a synthetic program); 0 = the whole program is one unit.
  size_t unit_queries = 0;
};

/// What one workload feeds the program under test.
struct WorkloadSpec {
  /// Reordered through every pipeline path and executed in-process.
  std::vector<Input> inproc;
  /// A smaller and a larger program of the same shape, reordered in traced
  /// runs to fit the growth exponent (empty: not measured).
  std::vector<Input> growth;
  /// Loaded into the server: reorders and lints target all of them,
  /// solves those with queries.
  std::vector<Input> served;
  /// Index into `served` of the program whose edited variants `load` sends.
  size_t edit_base = 0;
  /// Share of the measured seconds spent in the in-process phase; the
  /// rest drives the server.
  double inproc_share = 0.5;
};

/// Length of the longest chain of dependency groups (groups are
/// topologically ordered, callees first): the number of waves a
/// group-parallel pipeline needs.
size_t CountWaves(const prore::analysis::DependencyGroups& groups);

/// Builds the inputs of a workload from the seed; false if `name` is not
/// a workload.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

/// Outcome of one query: sorted rendered answers ("X = a, Y = b" per
/// answer, as prored streams them) or the error it raised.
struct QueryOutcome {
  std::vector<std::string> answers;
  std::string error;
  uint64_t calls = 0;
  bool operator==(const QueryOutcome& o) const {
    return answers == o.answers && error == o.error;
  }
};

/// Runs every query of `queries` on `snapshot` in a fresh machine,
/// rendering answers the way prored's solve op does.
std::vector<QueryOutcome> RunQueries(
    const std::shared_ptr<const prore::engine::ProgramSnapshot>& snapshot,
    const std::vector<std::string>& queries);

/// Compiles `source` (the original program) into a snapshot.
std::shared_ptr<const prore::engine::ProgramSnapshot> CompileSource(
    const std::string& source);

/// `text` (written Prolog clauses) with every clause's variables renamed
/// V1, V2, ... in order of first appearance: two programs that differ only
/// in generated variable names (_G19 vs _G33) compare equal.
std::string CanonicalVars(const std::string& text);

/// Per-program facts fixed by the first (verifying) round; later rounds
/// must reproduce them exactly.
struct ProgramBaseline {
  std::string text_j0;      ///< prore (jobs=0) output
  std::string text_j1;      ///< prored (jobs=1) output
  uint64_t orig_calls = 0;
  uint64_t calls_j0 = 0;
  uint64_t calls_j1 = 0;
  /// Calls per unit (see Input::unit_queries): original, jobs=0, jobs=1.
  std::vector<uint64_t> unit_orig, unit_j0, unit_j1;
  double predicted_original = 0;
  double predicted_new = 0;
};

/// Times of one in-process round, summed over the round's programs (ms),
/// in CPU time of the calling thread. The `_wall` fields are the wall times
/// of the same calls, printed for comparison only.
struct RoundTimes {
  double reorder_j0 = 0;   ///< parse + Run + write, jobs=0
  double reorder_j1 = 0;   ///< same, jobs=1, no cache
  double exec = 0;         ///< median pass of the queries on both outputs
  /// Every pass time per program (ms), for medians pooled across rounds.
  std::vector<std::vector<double>> exec_passes;
  double reorder_j0_wall = 0, reorder_j1_wall = 0, exec_wall = 0;
};

/// State carried across the in-process rounds of one run.
class InprocBench {
 public:
  explicit InprocBench(size_t hw_threads) : hw_threads_(hw_threads) {}

  /// One round over `programs`: prore's path (jobs=0), the sharded path
  /// at jobs=1, and the engine on both outputs.
  /// A program's first round verifies every output (answers, error
  /// outcomes, bit identity) and fixes its baseline; later rounds check
  /// their outputs against it. `full` (always on in the first round) adds
  /// jobs=hardware threads, the standalone analyses with the lint check
  /// and, after the first round, prored's cached path.
  /// Failed checks are counted in *failed, checks made in *attempted.
  RoundTimes Round(const std::vector<Input>& programs, bool full,
                   uint64_t* attempted, uint64_t* failed);

  /// Reorders only (all three jobs values), for the growth fit; times
  /// land in the traced spans.
  void GrowthRound(const std::vector<Input>& programs);

  const std::map<std::string, ProgramBaseline>& baselines() const {
    return baselines_;
  }
  /// Programs whose warm-cache output differed from the cold jobs=1
  /// output in variable names only, in the last round.
  size_t cache_text_diffs() const { return cache_text_diffs_; }
  /// Human-readable reasons for failed checks (first few).
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  void Fail(uint64_t* failed, std::string why);

  size_t hw_threads_;
  std::map<std::string, ProgramBaseline> baselines_;
  std::map<std::string, std::vector<QueryOutcome>> reference_;
  std::map<std::string, std::unique_ptr<prore::core::AnalysisCache>> caches_;
  std::vector<std::string> problems_;
  size_t cache_text_diffs_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
