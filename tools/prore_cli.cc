// prore — command-line reorderer: reads a Prolog program, writes the
// reordered program (per-mode specialized versions + dispatchers), and
// optionally reports the model's predictions and a measured comparison.
//
// The transforms run inside the guarded pipeline (core/pipeline.h): a
// predicate whose transform fails any fault boundary (exception, non-ok
// status, validator error, watchdog trip) is retried down the degradation
// ladder (full -> no-unfold -> clause-order-only -> identity) instead of
// failing the run, so the output is always a complete program.
//
// Usage:
//   prore [options] input.pl [output.pl]
//
// Options:
//   --unfold            unfold single-clause predicates first (SVIII)
//   --factor            factor shared goals out of disjunctions / merge
//                       clauses with shared prefixes (SIV-D.2)
//   --guards            emit (ground tests -> reordered ; original)
//                       run-time-guarded clauses (SV-D); implies
//                       --no-specialize unless specialization is kept
//   --no-specialize     one version per predicate, original names
//   --no-clauses        keep clause order (goals only)
//   --no-goals          keep goal order (clauses only)
//   --jobs=N            transform the SCC dependency groups of one wave
//                       in parallel on N worker threads (0, the default,
//                       and 1 run them inline). Output is bit-identical
//                       for every N; N only changes wall-clock time.
//                       --jobs=auto maps to hardware_concurrency() (with a
//                       documented fallback to 1 when it reports 0).
//   --retry-attempts=N  total attempts per predicate on a transient fault
//                       (watchdog trip, deadline brush, OOM) before it is
//                       demoted a ladder rung; 1 disables retries
//                       (default 2 — the first try plus one retry)
//   --warren            order by Warren's heuristic instead of the chains
//   --lint              run the lint passes over the input program and
//                       print their diagnostics to stderr
//   --report            print per-predicate predicted costs
//   --report=text       print the pipeline quarantine report to stderr
//   --report=json       same, as one line of JSON (stable field order)
//   --strict            exit 3 if any predicate was quarantined (default:
//                       graceful — ship the degraded program, exit 5).
//                       Also ships the groups not yet transformed at
//                       identity as soon as one group degrades (the exit
//                       code is already decided, so they cannot matter)
//   --compare QUERY     run QUERY on both programs and report call counts
//   --emit-original     also echo the parsed original (normalization check)
//   --cost-steps=N        cost-model watchdog step budget (0 = off)
//   --cost-timeout-ms=N   cost-model watchdog wall-clock budget
//   --infer-steps=N       mode-inference watchdog step budget
//   --infer-timeout-ms=N  mode-inference watchdog wall-clock budget
//   --absint / --no-absint  toggle the abstract interpretation (groundness
//                           + determinism; on by default). --report prints
//                           its summaries when it ran.
//   --absint-steps=N        absint watchdog step budget (0 = off); a trip
//   --absint-timeout-ms=N   disables the stage, not the pipeline
//   --deadline-ms=N     whole-run wall-clock deadline (0 = off). Covers
//                       the transform pipeline and every --compare query.
//                       Expiry mid-pipeline ships the remaining work as
//                       identity (degraded, never partial); expiry during
//                       a compare query raises resource_error(
//                       deadline_exceeded) and exits 4. Composes with the
//                       per-query --timeout-ms: each query gets the
//                       earlier of the two budgets.
//   --timeout-ms=N      wall-clock deadline per --compare query (0 = off)
//   --max-depth=N       resolution-depth budget per --compare query
//   --max-heap-cells=N  heap growth budget per --compare query
//   --max-calls=N       resolved-call budget per --compare query
//   --profile-in=FILE   load a recorded execution profile (written by
//                       prolog --profile-out, docs/profile-format.md) and
//                       let its measured frequencies replace the static
//                       probability estimates in the cost model. Stale
//                       (source changed since recording), under-sampled,
//                       and unknown predicates keep the static model; the
//                       per-predicate decision is printed to stderr.
//
// Output goes to stdout when no output file is given.
//
// Exit codes:
//   0  success: fully optimized output, every compare query answered
//   1  a compare query failed (no answers)
//   2  usage error
//   3  error (I/O, parse, or uncaught failure) — also any degradation
//      when --strict is given
//   4  a resource budget was exhausted during --compare
//   5  output degraded: the program was emitted, but at least one
//      predicate was quarantined below full optimization (or a transform
//      stage was disabled); see the pipeline report. Only reported when
//      the exit would otherwise be 0 — codes 1/3/4 take precedence.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/modes.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "lint/lint.h"
#include "profile/profile.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: prore [--unfold] [--factor] [--guards] [--jobs=N|auto]\n"
      "             [--retry-attempts=N]\n"
      "             [--no-specialize] [--no-clauses] [--no-goals]\n"
      "             [--warren] [--lint] [--report]\n"
      "             [--report=text|json] [--strict]\n"
      "             [--compare QUERY] [--emit-original]\n"
      "             [--profile-in=FILE]\n"
      "             [--cost-steps=N] [--cost-timeout-ms=N]\n"
      "             [--infer-steps=N] [--infer-timeout-ms=N]\n"
      "             [--absint] [--no-absint]\n"
      "             [--absint-steps=N] [--absint-timeout-ms=N]\n"
      "             [--deadline-ms=N] [--timeout-ms=N] [--max-depth=N]\n"
      "             [--max-heap-cells=N] [--max-calls=N] [--help]\n"
      "             input.pl [output.pl]\n"
      "\n"
      "  --profile-in=FILE  feed a recorded execution profile (written by\n"
      "                     prolog --profile-out) into the cost model;\n"
      "                     stale or under-sampled predicates fall back to\n"
      "                     the static model per predicate\n"
      "  --help             print this help and exit 0\n"
      "\n"
      "Full reference: docs/cli.md\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

constexpr int kExitFailed = 1;
constexpr int kExitError = 3;
constexpr int kExitResource = 4;
constexpr int kExitDegraded = 5;

/// Parses the numeric tail of --flag=N; false on malformed or
/// out-of-range input (never throws, unlike std::stoull).
bool ParseBudget(const std::string& arg, const char* prefix, uint64_t* out) {
  const size_t n = std::strlen(prefix);
  if (arg.rfind(prefix, 0) != 0) return false;
  const std::string value = arg.substr(n);
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  uint64_t parsed = 0;
  for (char c : value) {
    if (parsed > (UINT64_MAX - (c - '0')) / 10) return false;  // overflow
    parsed = parsed * 10 + (c - '0');
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  prore::core::PipelineOptions pipeline_options;
  prore::core::ReorderOptions& options = pipeline_options.reorder;
  bool report = false;
  bool lint = false;
  bool emit_original = false;
  bool strict = false;
  std::string pipeline_report_format;  // "", "text", or "json"
  prore::engine::SolveOptions solve_options;
  std::vector<std::string> compare_queries;
  std::string input_path, output_path;
  std::string profile_path;
  uint64_t deadline_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg.rfind("--profile-in=", 0) == 0) {
      profile_path = arg.substr(std::strlen("--profile-in="));
      if (profile_path.empty()) {
        std::fprintf(stderr, "prore: --profile-in needs a file name\n");
        return Usage();
      }
      continue;
    }
    if (arg == "--unfold") {
      pipeline_options.unfold = true;
    } else if (arg == "--factor") {
      pipeline_options.factor = true;
    } else if (arg == "--guards") {
      options.runtime_guards = true;
    } else if (arg == "--no-specialize") {
      options.specialize_modes = false;
    } else if (arg == "--no-clauses") {
      options.reorder_clauses = false;
    } else if (arg == "--no-goals") {
      options.reorder_goals = false;
    } else if (arg == "--warren") {
      options.goal_search.warren_heuristic = true;
    } else if (arg == "--absint") {
      options.absint = true;
    } else if (arg == "--no-absint") {
      options.absint = false;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--report=text" || arg == "--report=json") {
      pipeline_report_format = arg.substr(9);
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--emit-original") {
      emit_original = true;
    } else if (arg == "--compare") {
      if (++i >= argc) return Usage();
      compare_queries.push_back(argv[i]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (arg == "--jobs=auto") {
        // hardware_concurrency() with a floor of 1 (the standard allows 0
        // for "unknown"); the floor lives in HardwareConcurrency().
        pipeline_options.jobs = prore::ThreadPool::HardwareConcurrency();
      } else {
        uint64_t jobs = 0;
        if (!ParseBudget(arg, "--jobs=", &jobs) || jobs > 1024) {
          std::fprintf(stderr, "prore: malformed option %s\n", arg.c_str());
          return Usage();
        }
        pipeline_options.jobs = static_cast<size_t>(jobs);
      }
    } else if (arg.rfind("--retry-attempts=", 0) == 0) {
      uint64_t attempts = 0;
      if (!ParseBudget(arg, "--retry-attempts=", &attempts) ||
          attempts < 1 || attempts > 100) {
        std::fprintf(stderr, "prore: malformed option %s\n", arg.c_str());
        return Usage();
      }
      pipeline_options.retry.max_attempts = static_cast<int>(attempts);
    } else if (
        ParseBudget(arg, "--cost-steps=",
                    &pipeline_options.cost_watchdog.max_steps) ||
        ParseBudget(arg, "--cost-timeout-ms=",
                    &pipeline_options.cost_watchdog.timeout_ms) ||
        ParseBudget(arg, "--infer-steps=",
                    &pipeline_options.inference_watchdog.max_steps) ||
        ParseBudget(arg, "--infer-timeout-ms=",
                    &pipeline_options.inference_watchdog.timeout_ms) ||
        ParseBudget(arg, "--absint-steps=",
                    &pipeline_options.absint_watchdog.max_steps) ||
        ParseBudget(arg, "--absint-timeout-ms=",
                    &pipeline_options.absint_watchdog.timeout_ms)) {
      // value stored by ParseBudget
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseBudget(arg, "--deadline-ms=", &deadline_ms)) {
        std::fprintf(stderr, "prore: malformed option %s\n", arg.c_str());
        return Usage();
      }
    } else if (arg.rfind("--timeout-ms=", 0) == 0 ||
               arg.rfind("--max-depth=", 0) == 0 ||
               arg.rfind("--max-heap-cells=", 0) == 0 ||
               arg.rfind("--max-calls=", 0) == 0) {
      bool ok =
          ParseBudget(arg, "--timeout-ms=", &solve_options.timeout_ms) ||
          ParseBudget(arg, "--max-depth=", &solve_options.max_depth) ||
          ParseBudget(arg, "--max-heap-cells=",
                      &solve_options.max_heap_cells) ||
          ParseBudget(arg, "--max-calls=", &solve_options.max_calls);
      if (!ok) {
        std::fprintf(stderr, "prore: malformed option %s\n", arg.c_str());
        return Usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return Usage();
    } else if (input_path.empty()) {
      input_path = arg;
    } else if (output_path.empty()) {
      output_path = arg;
    } else {
      return Usage();
    }
  }
  if (input_path.empty()) return Usage();

  // The whole-run deadline starts ticking here, before I/O and parsing, so
  // --deadline-ms bounds the entire invocation — not just the pipeline.
  if (deadline_ms != 0) {
    const prore::Deadline run_deadline = prore::Deadline::AfterMs(deadline_ms);
    pipeline_options.exec = pipeline_options.exec.WithDeadline(run_deadline);
    solve_options.exec = solve_options.exec.WithDeadline(run_deadline);
  }
  pipeline_options.stop_on_degrade = strict;

  std::ifstream in(input_path);
  if (!in) {
    std::fprintf(stderr, "prore: cannot open %s\n", input_path.c_str());
    return kExitError;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string source = buffer.str();

  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(&store, source);
  if (!program.ok()) {
    std::fprintf(stderr, "prore: %s: %s\n", input_path.c_str(),
                 program.status().ToString().c_str());
    return kExitError;
  }
  if (emit_original) {
    std::fprintf(stderr, "%% --- parsed original ---\n%s%% --- end ---\n",
                 prore::reader::WriteProgram(store, *program).c_str());
  }

  if (lint) {
    prore::lint::Linter linter;
    auto diags = linter.Run(store, *program);
    if (!diags.ok()) {
      std::fprintf(stderr, "prore: lint failed: %s\n",
                   diags.status().ToString().c_str());
      return kExitError;
    }
    std::fputs(
        prore::lint::RenderText(*diags, input_path).c_str(), stderr);
  }

  // Outlives the pipeline: the cost model keeps a pointer to it.
  prore::cost::EmpiricalProfile empirical;
  if (!profile_path.empty()) {
    std::ifstream pin(profile_path);
    if (!pin) {
      std::fprintf(stderr, "prore: cannot open %s\n", profile_path.c_str());
      return kExitError;
    }
    std::ostringstream pbuf;
    pbuf << pin.rdbuf();
    auto data = prore::profile::FromJson(pbuf.str());
    if (!data.ok()) {
      std::fprintf(stderr, "prore: %s: %s\n", profile_path.c_str(),
                   data.status().ToString().c_str());
      return kExitError;
    }
    auto applied = prore::profile::BuildEmpirical(
        &store, *program, *data, prore::profile::ApplyOptions(), &empirical);
    if (!applied.ok()) {
      std::fprintf(stderr, "prore: %s: %s\n", profile_path.c_str(),
                   applied.status().ToString().c_str());
      return kExitError;
    }
    std::fprintf(stderr, "prore: profile %s: %s", profile_path.c_str(),
                 applied->ToText().c_str());
    options.profile = &empirical;
  }

  prore::core::GuardedPipeline pipeline(&store, pipeline_options);
  auto result = pipeline.Run(*program);
  if (!result.ok()) {
    std::fprintf(stderr, "prore: pipeline failed: %s\n",
                 result.status().ToString().c_str());
    return kExitError;
  }
  for (const prore::lint::Diagnostic& d : result->diagnostics) {
    std::fprintf(stderr, "prore: %s\n", d.ToString().c_str());
  }

  const prore::core::PipelineReport& pipeline_report = result->report;
  if (pipeline_report_format == "json") {
    std::fprintf(stderr, "%s\n", pipeline_report.ToJson().c_str());
  } else if (pipeline_report_format == "text" ||
             pipeline_report.degraded()) {
    // Degradation is always reported, even unasked: shipping a partially
    // optimized program silently would defeat the report's purpose.
    std::fputs(pipeline_report.ToText().c_str(), stderr);
  }
  if (strict && pipeline_report.degraded()) {
    std::fprintf(stderr,
                 "prore: --strict: %zu predicate(s) quarantined\n",
                 pipeline_report.quarantined());
    return kExitError;
  }

  std::string text =
      prore::reader::WriteProgram(store, result->program);
  if (output_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "prore: cannot write %s\n", output_path.c_str());
      return kExitError;
    }
    out << "% reordered by prore (Gooley & Wah, ICDE 1988)\n" << text;
  }

  if (report) {
    if (!result->absint_report.empty()) {
      std::fputs(result->absint_report.c_str(), stderr);
    }
    std::fprintf(stderr, "%-28s %-8s %14s %14s %s\n", "predicate", "mode",
                 "predicted-orig", "predicted-new", "changed");
    for (const auto& r : result->reports) {
      const char* changed = r.clauses_changed
                                ? (r.goals_changed ? "clauses goals"
                                                   : "clauses ")
                                : (r.goals_changed ? "goals" : "-");
      std::fprintf(stderr, "%-28s %-8s %14.1f %14.1f %s\n",
                   prore::reader::PredName(store, r.pred).c_str(),
                   prore::analysis::ModeString(r.mode).c_str(),
                   r.predicted_original_cost, r.predicted_new_cost,
                   changed);
    }
  }

  int worst = 0;
  if (!compare_queries.empty()) {
    prore::core::Evaluator eval(&store, *program, result->program,
                                solve_options);
    for (const std::string& query : compare_queries) {
      auto c = eval.CompareQuery(query);
      if (!c.ok()) {
        std::fprintf(stderr, "prore: compare %s: %s\n", query.c_str(),
                     c.status().ToString().c_str());
        worst = std::max(
            worst, c.status().code() == prore::StatusCode::kResourceExhausted
                       ? kExitResource
                       : kExitError);
        continue;
      }
      std::fprintf(stderr,
                   "compare %s: %llu -> %llu calls (%.2fx), %zu answers, "
                   "set-equivalent: %s\n",
                   query.c_str(),
                   static_cast<unsigned long long>(c->original_calls),
                   static_cast<unsigned long long>(c->reordered_calls),
                   c->Ratio(), c->original_answers,
                   c->set_equivalent ? "yes" : "NO");
      if (c->original_answers == 0) worst = std::max(worst, kExitFailed);
    }
  }
  if (worst == 0 && pipeline_report.degraded()) return kExitDegraded;
  return worst;
}
