#include "src/inputs.h"

#include <algorithm>
#include <cctype>
#include <optional>

#include "analysis/absint/absint.h"
#include "analysis/callgraph.h"
#include "analysis/fixity.h"
#include "analysis/mode_inference.h"
#include "analysis/modes.h"
#include "core/pipeline.h"
#include "core/restrictions.h"
#include "engine/machine.h"
#include "lint/validate.h"
#include "programs/programs.h"
#include "programs/workload_runner.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "src/gen.h"
#include "src/trace.h"
#include "term/store.h"

namespace perfbench {

namespace {

Input Synthetic(const std::string& name, uint64_t seed, int preds) {
  SyntheticProgram p = LayeredProgram(seed, preds);
  return Input{name, std::move(p.source), std::move(p.queries), preds, 3};
}

std::vector<Input> Corpus() {
  std::vector<Input> out;
  for (const prore::programs::BenchmarkProgram* p :
       prore::programs::AllPrograms()) {
    out.push_back(
        Input{p->name, p->source, prore::programs::WorkloadQueries(*p)});
  }
  return out;
}

/// The analyses the reorderer runs in its set-up, run standalone on the
/// original program so their cost shows per layer and so the lint
/// validator can check the pipeline's output against them.
struct Analyses {
  prore::analysis::Declarations decls;
  std::optional<prore::analysis::CallGraph> graph;
  prore::analysis::FixityResult fixity;
  prore::analysis::PredSet frozen;
  prore::analysis::ModeAnalysis modes;
  std::unique_ptr<prore::analysis::LegalityOracle> oracle;
};

bool RunAnalyses(prore::term::TermStore* store,
                 const prore::reader::Program& program, Analyses* a) {
  namespace analysis = prore::analysis;
  {
    Span span("analysis.callgraph");
    auto decls = analysis::ParseDeclarations(*store, program);
    auto graph = analysis::CallGraph::Build(*store, program);
    if (!decls.ok() || !graph.ok()) return false;
    a->decls = std::move(*decls);
    a->graph.emplace(std::move(*graph));
    analysis::DependencyGroups groups =
        analysis::ComputeDependencyGroups(*a->graph);
    span.Count("groups", static_cast<double>(groups.size()));
    span.Count("waves", static_cast<double>(CountWaves(groups)));
  }
  {
    Span span("analysis.fixity");
    auto fixity = analysis::AnalyzeFixity(*store, program, *a->graph);
    auto frozen = prore::core::FrozenDescendants(*store, program, *a->graph);
    if (!fixity.ok() || !frozen.ok()) return false;
    a->fixity = std::move(*fixity);
    a->frozen = std::move(*frozen);
  }
  {
    Span span("analysis.modes");
    auto modes = analysis::InferModes(*store, program, *a->graph, a->decls);
    if (!modes.ok()) return false;
    a->modes = std::move(*modes);
  }
  {
    Span span("analysis.absint");
    auto absint = analysis::absint::RunAbsint(*store, program, *a->graph,
                                              a->decls, &a->modes);
    if (!absint.ok()) return false;
    analysis::absint::TightenModes(*store, absint->groundness,
                                   &a->modes.table);
    span.Count("transfers",
               static_cast<double>(absint->stats.groundness_transfers +
                                   absint->stats.determinism_transfers));
  }
  {
    Span span("analysis.fixity");
    a->oracle = std::make_unique<analysis::LegalityOracle>(
        store, &program, &*a->graph, &a->modes);
    if (!analysis::RefineSemifixity(*store, program, *a->graph,
                                    a->oracle.get(), &a->fixity)
             .ok()) {
      return false;
    }
  }
  return true;
}

/// Error-severity findings of lint::ValidateReorder on `result`.
size_t ValidateErrors(prore::term::TermStore* store,
                      const prore::reader::Program& original,
                      const prore::core::PipelineResult& result,
                      Analyses* a) {
  Span span("lint.validate");
  prore::lint::ReorderCheckInput check;
  check.original = &original;
  check.transformed = &result.program;
  for (const prore::core::PredModeReport& r : result.reports) {
    check.versions.push_back(
        prore::lint::VersionInfo{r.pred, r.mode, r.version_name});
  }
  check.modes = &a->modes;
  check.oracle = a->oracle.get();
  check.fixity = &a->fixity;
  for (const prore::term::PredId& pred : original.pred_order()) {
    const bool undeclared_recursive =
        a->graph->IsRecursive(pred) && !a->decls.legal_modes.Has(pred);
    if (a->frozen.count(pred) > 0 || a->fixity.IsFixed(pred) ||
        undeclared_recursive) {
      check.no_reorder.insert(pred);
    }
  }
  size_t errors = 0;
  for (const prore::lint::Diagnostic& d :
       prore::lint::ValidateReorder(store, check)) {
    if (d.severity == prore::lint::Severity::kError) ++errors;
  }
  span.Count("errors", static_cast<double>(errors));
  return errors;
}

/// One reorder the way a product runs it: parse, GuardedPipeline::Run,
/// WriteProgram. `span_name` wraps the three; the pipeline's own report
/// counts land on its span.
struct Reordered {
  std::unique_ptr<prore::term::TermStore> store;
  std::optional<prore::reader::Program> original;
  std::optional<prore::core::PipelineResult> result;
  std::string text;
  double ms = 0;      ///< wall
  double cpu_ms = 0;  ///< CPU time of the calling thread
  bool ok = false;
};

Reordered Reorder(const Input& in, const char* span_name, size_t jobs,
                  prore::core::AnalysisCache* cache) {
  Reordered out;
  out.store = std::make_unique<prore::term::TermStore>();
  const int64_t cpu_start = ThreadCpuNs();
  Span outer(span_name);
  {
    Span span("reader.parse");
    auto parsed = prore::reader::ParseProgramText(out.store.get(), in.source);
    if (!parsed.ok()) return out;
    out.original.emplace(std::move(*parsed));
  }
  {
    Span span("core.pipeline");
    prore::core::PipelineOptions opts;
    opts.jobs = jobs;
    opts.cache = cache;
    opts.cache_salt = cache != nullptr ? 1 : 0;
    prore::core::GuardedPipeline pipeline(out.store.get(), opts);
    auto result = pipeline.Run(*out.original);
    if (!result.ok()) return out;
    out.result.emplace(std::move(*result));
    span.Count("runs", out.result->report.runs);
    span.Count("degraded_preds",
               static_cast<double>(out.result->report.quarantined()));
    span.Count("versions", static_cast<double>(out.result->reports.size()));
  }
  {
    Span span("reader.write");
    out.text = prore::reader::WriteProgram(*out.store, out.result->program);
    span.Count("clauses",
               static_cast<double>(out.result->program.NumClauses()));
  }
  out.ms = outer.ElapsedMs();
  out.cpu_ms = (ThreadCpuNs() - cpu_start) / 1e6;
  out.ok = true;
  return out;
}

std::shared_ptr<const prore::engine::ProgramSnapshot> Compile(
    const prore::term::TermStore& store,
    const prore::reader::Program& program) {
  Span span("engine.snapshot");
  auto snap = prore::engine::ProgramSnapshot::Compile(store, program);
  return snap.ok() ? *snap : nullptr;
}

/// The timed engine loop: every query to exhaustion, counting only.
/// Returns total calls; adds the solve time to *cpu_ms (CPU time of the
/// calling thread) and *ms (wall).
uint64_t SolveAll(
    const std::shared_ptr<const prore::engine::ProgramSnapshot>& snapshot,
    const std::vector<std::string>& queries, int pass, double* cpu_ms,
    double* ms) {
  prore::engine::Machine machine(snapshot);
  std::vector<prore::term::TermRef> goals;
  for (const std::string& q : queries) {
    auto parsed =
        prore::reader::ParseQueryText(&machine.store(), q + ".");
    if (parsed.ok()) goals.push_back(parsed->term);
  }
  const int64_t cpu_start = ThreadCpuNs();
  Span span("engine.solve");
  span.Count("pass", pass);
  for (prore::term::TermRef goal : goals) {
    (void)machine.Solve(goal);  // error outcomes are checked when verifying
  }
  *ms += span.ElapsedMs();
  *cpu_ms += (ThreadCpuNs() - cpu_start) / 1e6;
  const prore::engine::Metrics& m = machine.total_metrics();
  span.Count("calls", static_cast<double>(m.TotalCalls()));
  span.Count("head_unifications", static_cast<double>(m.head_unifications));
  span.Count("backtracks", static_cast<double>(m.backtracks));
  span.Count("choicepoints_elided",
             static_cast<double>(m.choicepoints_elided));
  span.Count("heap_cells", static_cast<double>(m.heap_cells));
  return m.TotalCalls();
}

}  // namespace

size_t CountWaves(const prore::analysis::DependencyGroups& groups) {
  std::vector<size_t> wave(groups.size(), 0);
  size_t waves = 0;
  for (size_t i = 0; i < groups.size(); ++i) {
    for (size_t d : groups.deps[i]) wave[i] = std::max(wave[i], wave[d] + 1);
    waves = std::max(waves, wave[i] + 1);
  }
  return waves;
}

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  // Every workload drives the same server mix, so the server metrics exist
  // everywhere. Solves run the corpus queries; the ~200-predicate
  // synthetic session is reordered and edited but not queried.
  Input session = Synthetic("synthetic200", seed, 200);
  out->served = Corpus();
  out->served.push_back(session);
  out->served.back().queries.clear();
  out->edit_base = out->served.size() - 1;
  if (name == "reorder_large") {
    Input large = Synthetic("synthetic1000", seed, 1000);
    out->inproc = {large};
    out->growth = {Synthetic("synthetic500", seed, 500), large};
    out->inproc_share = 0.8;
    return true;
  }
  if (name == "corpus_tables") {
    out->inproc = Corpus();
    out->inproc_share = 0.7;
    return true;
  }
  return false;
}

std::shared_ptr<const prore::engine::ProgramSnapshot> CompileSource(
    const std::string& source) {
  prore::term::TermStore store;
  auto parsed = prore::reader::ParseProgramText(&store, source);
  if (!parsed.ok()) return nullptr;
  return Compile(store, *parsed);
}

std::vector<QueryOutcome> RunQueries(
    const std::shared_ptr<const prore::engine::ProgramSnapshot>& snapshot,
    const std::vector<std::string>& queries) {
  std::vector<QueryOutcome> out;
  prore::engine::Machine machine(snapshot);
  for (const std::string& q : queries) {
    QueryOutcome o;
    auto parsed = prore::reader::ParseQueryText(&machine.store(), q + ".");
    if (!parsed.ok()) {
      o.error = parsed.status().ToString();
      out.push_back(std::move(o));
      continue;
    }
    auto metrics = machine.Solve(parsed->term, [&]() {
      std::string bindings;
      for (const auto& [name, var] : parsed->var_names) {
        if (!bindings.empty()) bindings += ", ";
        bindings +=
            name + " = " + prore::reader::WriteTerm(machine.store(), var);
      }
      o.answers.push_back(bindings.empty() ? "true" : bindings);
      return true;
    });
    if (metrics.ok()) {
      o.calls = metrics->TotalCalls();
    } else {
      const prore::Status& st = metrics.status();
      o.error = st.has_error_term() ? st.error_term() : st.ToString();
      o.answers.clear();
    }
    std::sort(o.answers.begin(), o.answers.end());
    out.push_back(std::move(o));
  }
  return out;
}

std::string CanonicalVars(const std::string& text) {
  std::string out;
  std::map<std::string, std::string> names;
  auto ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  for (size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '\'' || c == '"') {  // quoted atom or string: copy verbatim
      size_t j = i + 1;
      while (j < text.size() && text[j] != c) j += text[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, text.size());
      out.append(text, i, j - i);
      i = j;
    } else if (ident(c)) {
      size_t j = i;
      while (j < text.size() && ident(text[j])) ++j;
      std::string word = text.substr(i, j - i);
      const bool var = (std::isupper(static_cast<unsigned char>(c)) ||
                        c == '_') && word != "_";
      if (var) {
        auto it = names.find(word);
        if (it == names.end()) {
          it = names.emplace(word, "V" + std::to_string(names.size() + 1))
                   .first;
        }
        word = it->second;
      }
      out += word;
      i = j;
    } else {
      // A clause ends at "." followed by a newline; variables are scoped
      // to their clause.
      if (c == '.' && i + 1 < text.size() && text[i + 1] == '\n') {
        names.clear();
      }
      out += c;
      ++i;
    }
  }
  return out;
}

void InprocBench::Fail(uint64_t* failed, std::string why) {
  ++*failed;
  if (problems_.size() < 8) problems_.push_back("problem: " + why);
}

RoundTimes InprocBench::Round(const std::vector<Input>& programs, bool full,
                              uint64_t* attempted, uint64_t* failed) {
  RoundTimes t;
  cache_text_diffs_ = 0;
  for (const Input& in : programs) {
    Span program_span("program");
    const bool first = baselines_.count(in.name) == 0;
    const bool verify = full || first;
    ProgramBaseline& base = baselines_[in.name];

    Reordered j0 = Reorder(in, "reorder.j0", 0, nullptr);
    t.reorder_j0 += j0.cpu_ms;
    t.reorder_j0_wall += j0.ms;
    Reordered j1 = Reorder(in, "reorder.j1", 1, nullptr);
    t.reorder_j1 += j1.cpu_ms;
    t.reorder_j1_wall += j1.ms;
    *attempted += 2;
    if (!j0.ok || !j1.ok) {
      Fail(failed, in.name + ": a pipeline run failed");
      continue;
    }
    if (verify) {
      // The jobs=N path is only timed in traced rounds (per-layer), but its
      // output is checked whenever a round verifies.
      Reordered jn = Reorder(in, "reorder.jn", hw_threads_, nullptr);
      ++*attempted;
      if (!jn.ok || jn.text != j1.text) {
        Fail(failed, in.name + ": jobs=N != jobs=1");
      }
    }

    if (verify && !first) {
      // prored's options: jobs=1 with an analysis cache, filled on first
      // use and warm from then on (traced rounds only). The cache promises output
      // identical to a cold run; replayed groups are re-read into a fresh
      // store, so generated variable names can differ. That is counted;
      // anything beyond it fails.
      auto& cache = caches_[in.name];
      if (cache == nullptr) {
        cache = std::make_unique<prore::core::AnalysisCache>(1u << 16);
        Reorder(in, "reorder.cache_fill", 1, cache.get());
      }
      Reordered cached = Reorder(in, "reorder.cached", 1, cache.get());
      ++*attempted;
      if (!cached.ok) {
        Fail(failed, in.name + ": cached pipeline run failed");
      } else if (cached.text != j1.text) {
        ++cache_text_diffs_;
        if (CanonicalVars(cached.text) != CanonicalVars(j1.text)) {
          Fail(failed, in.name + ": cached output != jobs=1 output");
        }
      }
    }
    if (verify) {
      // The standalone analyses and the lint check run on j0's store, so
      // the validator sees the pipeline's own terms.
      Analyses analyses;
      ++*attempted;
      if (!RunAnalyses(j0.store.get(), *j0.original, &analyses)) {
        Fail(failed, in.name + ": standalone analysis failed");
      } else if (ValidateErrors(j0.store.get(), *j0.original, *j0.result,
                                &analyses) != 0) {
        Fail(failed, in.name + ": lint::ValidateReorder reported errors");
      }
    }

    auto snap_j0 = Compile(*j0.store, j0.result->program);
    auto snap_j1 = Compile(*j1.store, j1.result->program);
    ++*attempted;
    if (snap_j0 == nullptr || snap_j1 == nullptr) {
      Fail(failed, in.name + ": reordered program does not compile");
      continue;
    }

    if (first) {
      // The verifying round: answers and error outcomes of every query on
      // both reordered programs against the original.
      auto original = CompileSource(in.source);
      if (original == nullptr) {
        Fail(failed, in.name + ": original does not compile");
        continue;
      }
      std::vector<QueryOutcome> ref = RunQueries(original, in.queries);
      std::vector<QueryOutcome> out0 = RunQueries(snap_j0, in.queries);
      std::vector<QueryOutcome> out1 = RunQueries(snap_j1, in.queries);
      const size_t unit = in.unit_queries == 0 ? ref.size() : in.unit_queries;
      for (size_t q = 0; q < ref.size(); ++q) {
        *attempted += 2;
        base.orig_calls += ref[q].calls;
        if (q % unit == 0) {
          base.unit_orig.push_back(0);
          base.unit_j0.push_back(0);
          base.unit_j1.push_back(0);
        }
        base.unit_orig.back() += ref[q].calls;
        base.unit_j0.back() += out0[q].calls;
        base.unit_j1.back() += out1[q].calls;
        if (!(out0[q] == ref[q])) {
          Fail(failed, in.name + ": jobs=0 answers differ on " + in.queries[q]);
        }
        if (!(out1[q] == ref[q])) {
          Fail(failed, in.name + ": jobs=1 answers differ on " + in.queries[q]);
        }
      }
      base.text_j0 = j0.text;
      base.text_j1 = j1.text;
      for (const prore::core::PredModeReport& r : j0.result->reports) {
        base.predicted_original += r.predicted_original_cost;
        base.predicted_new += r.predicted_new_cost;
      }
    } else {
      // Later rounds: the same input must give the same output.
      *attempted += 2;
      if (j0.text != base.text_j0) Fail(failed, in.name + ": jobs=0 drifted");
      if (j1.text != base.text_j1) Fail(failed, in.name + ": jobs=1 drifted");
    }

    // The engine loop repeats the query set (at least three passes and
    // 20 ms), each pass on freshly compiled snapshots: engine speed depends
    // on where a program lands in memory, so every pass is an independent
    // sample. Rounds stay short, so the samples of a run are spread over
    // its whole length.
    std::vector<double> pass_ms, pass_wall_ms;
    double total_ms = 0;
    while (pass_ms.size() < 3 || total_ms < 20) {
      double ms = 0, wall_ms = 0;
      const int pass = static_cast<int>(pass_ms.size()) + 1;
      if (pass > 1) {
        // Later passes compile the written outputs, as a user of prore
        // would load them, each into a fresh store.
        snap_j0 = CompileSource(j0.text);
        snap_j1 = CompileSource(j1.text);
        if (snap_j0 == nullptr || snap_j1 == nullptr) {
          Fail(failed, in.name + ": written output does not compile");
          break;
        }
      }
      const uint64_t calls0 =
          SolveAll(snap_j0, in.queries, pass, &ms, &wall_ms);
      const uint64_t calls1 =
          SolveAll(snap_j1, in.queries, pass, &ms, &wall_ms);
      pass_ms.push_back(ms);
      pass_wall_ms.push_back(wall_ms);
      total_ms += ms;
      *attempted += 2;
      if (first && pass == 1) {
        base.calls_j0 = calls0;
        base.calls_j1 = calls1;
      } else {
        if (calls0 != base.calls_j0) Fail(failed, in.name + ": jobs=0 calls drifted");
        if (calls1 != base.calls_j1) Fail(failed, in.name + ": jobs=1 calls drifted");
      }
    }
    t.exec_passes.push_back(pass_ms);
    std::sort(pass_ms.begin(), pass_ms.end());
    t.exec += pass_ms[pass_ms.size() / 2];
    std::sort(pass_wall_ms.begin(), pass_wall_ms.end());
    t.exec_wall += pass_wall_ms[pass_wall_ms.size() / 2];
  }
  return t;
}

void InprocBench::GrowthRound(const std::vector<Input>& programs) {
  for (const Input& in : programs) {
    Span span("growth");
    span.Count("preds", in.preds);
    Reorder(in, "growth.j0", 0, nullptr);
    Reorder(in, "growth.j1", 1, nullptr);
    Reorder(in, "growth.jn", hw_threads_, nullptr);
  }
}

}  // namespace perfbench
