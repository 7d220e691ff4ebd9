// perfbench — the repository's benchmark. One run measures one workload for
// a fixed number of seconds and prints every metric by name with its unit;
// the last stdout line is the machine-readable result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (computed from the in-memory spans, which are also written out as
// Chrome trace-event JSON). See perfbench/METRICS.md.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--socket PATH]
//        perfbench --selftest

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "common/thread_pool.h"
#include "reader/parser.h"
#include "src/gen.h"
#include "src/inputs.h"
#include "src/server_bench.h"
#include "src/trace.h"
#include "term/store.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string socket = ".bench_build/perfbench.sock";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      a->selftest = true;
    } else if (arg == "--workload" && (v = value())) {
      a->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      a->seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      a->trace = std::string(v) == "1";
    } else if (arg == "--trace-out" && (v = value())) {
      a->trace_out = v;
    } else if (arg == "--socket" && (v = value())) {
      a->socket = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument %s\n", arg.c_str());
      return false;
    }
  }
  return a->selftest || (!a->workload.empty() && a->seconds > 0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// ---- generator self-test ------------------------------------------------

size_t Waves(const std::string& source) {
  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(&store, source);
  if (!program.ok()) return 0;
  auto graph = prore::analysis::CallGraph::Build(store, *program);
  if (!graph.ok()) return 0;
  return CountWaves(prore::analysis::ComputeDependencyGroups(*graph));
}

int SelfTest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (int preds : {200, 1000}) {
    for (uint64_t seed : {1, 2, 77}) {
      const SyntheticProgram a = LayeredProgram(seed, preds);
      const SyntheticProgram b = LayeredProgram(seed, preds);
      const std::string tag =
          "preds=" + std::to_string(preds) + " seed=" + std::to_string(seed);
      check(a.source == b.source && a.queries == b.queries,
            tag + ": same seed, same text");
      check(LayeredProgram(seed + 1, preds).source != a.source,
            tag + ": another seed, another text");
      const size_t waves = Waves(a.source);
      check(waves > 1, tag + ": layered call graph (" +
                           std::to_string(waves) + " waves)");
      check(EditedVariant(a.source, 5) == EditedVariant(b.source, 5) &&
                EditedVariant(a.source, 5) != a.source &&
                EditedVariant(a.source, 5) != EditedVariant(a.source, 6),
            tag + ": edits are deterministic and distinct");
    }
  }
  return failures == 0 ? 0 : 1;
}

// ---- metrics ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics from the recorded spans of the traced rounds.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
    for (const SpanRecord& s : spans_) {
      if (s.name == "round") rounds_.push_back(s);
    }
  }

  const std::string& ParentName(const SpanRecord& s) const {
    static const std::string kNone;
    auto it = by_id_.find(s.parent);
    return it == by_id_.end() ? kNone : spans_[it->second].name;
  }

  /// Median over traced rounds of the per-round sum of `value(span)` over
  /// spans named `name` (under a parent named `parent`, if given).
  template <typename F>
  double PerRound(const std::string& name, const std::string& parent,
                  F value) const {
    std::vector<double> per_round;
    for (const SpanRecord& r : rounds_) {
      double sum = 0;
      for (const SpanRecord& s : spans_) {
        if (s.name != name || s.start_ns < r.start_ns || s.end_ns > r.end_ns) {
          continue;
        }
        if (!parent.empty() && ParentName(s) != parent) continue;
        sum += value(s);
      }
      per_round.push_back(sum);
    }
    return Median(per_round);
  }
  double Ms(const std::string& name, const std::string& parent = "") const {
    return PerRound(name, parent, [](const SpanRecord& s) { return s.ms(); });
  }
  double Sum(const std::string& name, const std::string& key,
             const std::string& parent = "") const {
    return PerRound(name, parent,
                    [&](const SpanRecord& s) { return s.Count(key); });
  }
  /// Median duration of a single span named `name`.
  double MedianMs(const std::string& name) const {
    std::vector<double> v;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) v.push_back(s.ms());
    }
    return Median(v);
  }
  double Max(const std::string& name, const std::string& key) const {
    double m = 0;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) m = std::max(m, s.Count(key));
    }
    return m;
  }
  /// Latencies of server.request spans tagged with `op`.
  std::vector<double> Requests(const std::string& op) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == "server.request" && s.Count(op) > 0) out.push_back(s.ms());
    }
    return out;
  }
  /// Median time of `child` spans under growth spans of size `preds`.
  double Growth(const std::string& child, double preds) const {
    std::vector<double> v;
    for (const SpanRecord& s : spans_) {
      if (s.name != child) continue;
      auto it = by_id_.find(s.parent);
      if (it != by_id_.end() && spans_[it->second].Count("preds") == preds) {
        v.push_back(s.ms());
      }
    }
    return Median(v);
  }

 private:
  std::vector<SpanRecord> spans_;
  std::map<int64_t, size_t> by_id_;
  std::vector<SpanRecord> rounds_;
};

/// Committed call counts for the Table II-IV workloads at the seed
/// commit: original and prore (jobs=0) from BENCH_profile.json
/// (original_calls, static_calls), jobs=1 from ROADMAP.md's table.
struct Committed {
  const char* name;
  uint64_t original, jobs0, jobs1;
};
constexpr Committed kCommitted[] = {
    {"family_tree", 545504, 240578, 437790}, {"corporate", 3932, 3191, 4500},
    {"p58", 1686, 561, 646},                 {"meal", 787, 813, 1414},
    {"team", 5144, 3273, 4744},              {"kmbench", 717, 516, 688},
    {"geography", 15708, 1186, 1979},
};

double Geomean(const std::vector<double>& ratios) {
  if (ratios.empty()) return 0;
  double log_sum = 0;
  for (double r : ratios) log_sum += std::log(r);
  return std::exp(log_sum / ratios.size());
}

/// Engine time of one pass over every program: per program, the median of
/// its passes pooled across `rounds`, summed.
double PooledExecMs(const std::vector<RoundTimes>& rounds) {
  std::vector<std::vector<double>> pooled;
  for (const RoundTimes& t : rounds) {
    pooled.resize(std::max(pooled.size(), t.exec_passes.size()));
    for (size_t p = 0; p < t.exec_passes.size(); ++p) {
      pooled[p].insert(pooled[p].end(), t.exec_passes[p].begin(),
                       t.exec_passes[p].end());
    }
  }
  double sum = 0;
  for (const std::vector<double>& passes : pooled) sum += Median(passes);
  return sum;
}

/// The per-layer metrics of a traced run. Every workload reports every
/// name; a layer the workload does not exercise reads 0.
std::vector<Metric> PerLayer(const SpanIndex& spans, const WorkloadSpec& spec,
                             const InprocBench& inproc,
                             const std::vector<ServerPhaseResult>& phases,
                             double exec_share, uint64_t failed,
                             uint64_t attempted,
                             const std::vector<Metric>& untraced,
                             const std::vector<Metric>& traced) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const std::string j0 = "reorder.j0";
  add("reader.parse_ms", spans.Ms("reader.parse", j0), "ms");
  add("reader.write_ms", spans.Ms("reader.write", j0), "ms");
  add("reader.output_clauses", spans.Sum("reader.write", "clauses", j0),
      "count");

  const double callgraph = spans.Ms("analysis.callgraph");
  const double fixity = spans.Ms("analysis.fixity");
  const double modes = spans.Ms("analysis.modes");
  const double absint = spans.Ms("analysis.absint");
  add("analysis.callgraph_ms", callgraph, "ms");
  add("analysis.groups", spans.Sum("analysis.callgraph", "groups"), "count");
  add("analysis.waves", spans.Max("analysis.callgraph", "waves"), "count");
  add("analysis.fixity_ms", fixity, "ms");
  add("analysis.modes_ms", modes, "ms");
  add("analysis.absint_ms", absint, "ms");
  add("analysis.absint_transfers",
      spans.Sum("analysis.absint", "transfers"), "count");

  const double pipeline_j0 = spans.Ms("core.pipeline", j0);
  add("core.reorder_self_ms",
      std::max(0.0, pipeline_j0 - (callgraph + fixity + modes + absint)),
      "ms");
  for (const char* jobs : {"j0", "j1", "jn"}) {
    double exp = 0;
    if (spec.growth.size() == 2) {
      const double small = spans.Growth(std::string("growth.") + jobs,
                                        spec.growth[0].preds);
      const double large = spans.Growth(std::string("growth.") + jobs,
                                        spec.growth[1].preds);
      if (small > 0 && large > 0) {
        exp = std::log(large / small) /
              std::log(static_cast<double>(spec.growth[1].preds) /
                       spec.growth[0].preds);
      }
    }
    add(std::string("core.growth_exp.") + jobs, exp, "1");
  }
  // Wall time at jobs=hw_threads: multi-threaded wall time on a shared
  // host is too unsteady to gate on, so it is a per-layer number.
  const double jn_ms = spans.Ms("reorder.jn");
  add("core.reorder_par_ms", jn_ms, "ms");
  add("core.par_speedup", jn_ms > 0 ? spans.Ms("reorder.j1") / jn_ms : 0,
      "x");
  add("core.pipeline_runs", spans.Sum("core.pipeline", "runs", j0), "count");
  add("core.degraded_preds", spans.Sum("core.pipeline", "degraded_preds"),
      "count");
  add("core.versions", spans.Sum("core.pipeline", "versions", j0), "count");
  add("core.cached_ms", spans.Ms("reorder.cached"), "ms");
  add("core.cache_text_diffs", static_cast<double>(inproc.cache_text_diffs()),
      "count");

  size_t regressions = 0, mispredicted = 0;
  for (const auto& [name, b] : inproc.baselines()) {
    regressions += (b.calls_j0 > b.orig_calls) + (b.calls_j1 > b.orig_calls);
    if (b.predicted_new < b.predicted_original && b.calls_j0 > b.orig_calls) {
      ++mispredicted;
    }
  }
  for (const Committed& c : kCommitted) {
    auto it = inproc.baselines().find(c.name);
    const bool have = it != inproc.baselines().end();
    const std::string stem = std::string("corpus.") + c.name;
    add(stem + ".orig_calls", have ? it->second.orig_calls : 0, "count");
    add(stem + ".calls", have ? it->second.calls_j0 : 0, "count");
    add(stem + ".calls_sharded", have ? it->second.calls_j1 : 0, "count");
  }
  add("corpus.regressions", static_cast<double>(regressions), "count");
  add("cost.mispredicted", static_cast<double>(mispredicted), "count");

  add("lint.validate_ms", spans.Ms("lint.validate"), "ms");
  add("lint.errors", spans.Sum("lint.validate", "errors"), "count");

  auto first_pass = [&](const char* key) {
    return spans.PerRound("engine.solve", "", [key](const SpanRecord& s) {
      return s.Count("pass") == 1 ? s.Count(key) : 0.0;
    });
  };
  const double solve_ms = spans.PerRound(
      "engine.solve", "",
      [](const SpanRecord& s) { return s.Count("pass") == 1 ? s.ms() : 0.0; });
  const double calls = first_pass("calls");
  add("engine.snapshot_ms", spans.MedianMs("engine.snapshot"), "ms");
  add("engine.solve_ms", solve_ms, "ms");
  add("engine.calls", calls, "count");
  add("engine.head_unifications", first_pass("head_unifications"), "count");
  add("engine.backtracks", first_pass("backtracks"), "count");
  add("engine.choicepoints_elided", first_pass("choicepoints_elided"),
      "count");
  add("engine.heap_cells", first_pass("heap_cells"), "count");
  add("engine.calls_per_s", solve_ms > 0 ? calls / (solve_ms / 1e3) : 0,
      "1/s");

  // Throughput and latencies are wall times across thread hand-offs: on a
  // shared host they grow with the time the hypervisor gives other guests
  // (solve latency doubled between runs of the same code), so they are
  // per-layer numbers, not end-to-end gates.
  const ServerPhaseResult& traced_phase = phases.back();
  add("server.rps", Median(traced_phase.window_rps), "1/s");
  add("server.solve_p50_ms", Median(spans.Requests("solve")), "ms");
  add("server.solve_p90_ms", Percentile(spans.Requests("solve"), 90), "ms");
  add("server.reorder_p50_ms", Median(spans.Requests("reorder")), "ms");
  add("server.reorder_p90_ms", Percentile(spans.Requests("reorder"), 90),
      "ms");
  add("server.ping_p50_ms", Median(spans.Requests("ping")), "ms");
  add("server.load_p50_ms", Median(spans.Requests("load")), "ms");
  add("server.lint_p50_ms", Median(spans.Requests("lint")), "ms");
  add("server.exec_share", exec_share, "ratio");
  const double lookups = traced_phase.cache_hits + traced_phase.cache_misses;
  add("server.cache_hit_ratio",
      lookups > 0 ? traced_phase.cache_hits / lookups : 0, "ratio");
  add("server.cache_invalidations",
      static_cast<double>(traced_phase.cache_invalidations), "count");
  add("server.shed", static_cast<double>(traced_phase.shed), "count");
  add("server.errors", static_cast<double>(traced_phase.errors), "count");
  add("server.degraded_replies",
      static_cast<double>(traced_phase.degraded_replies), "count");
  add("server.reorder_text_diffs",
      static_cast<double>(traced_phase.reorder_text_diffs), "count");

  for (size_t i = 0; i < untraced.size(); ++i) {
    if (untraced[i].unit != "s" && untraced[i].unit != "ms") continue;
    if (untraced[i].name == "setup_s") continue;
    add("bench.trace_overhead." + untraced[i].name,
        untraced[i].value > 0 ? traced[i].value / untraced[i].value : 0,
        "ratio");
  }
  add("bench.fail_ratio",
      attempted > 0 ? static_cast<double>(failed) / attempted : 0, "ratio");
  return m;
}

int Run(const Args& args) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-optimised build\n");
  return 3;
#endif
  const size_t hw = prore::ThreadPool::HardwareConcurrency();
  // Two clients against two workers: more threads than that, beside the
  // load other tenants put on a shared host, measure the scheduler rather
  // than the server.
  const size_t clients = std::min<size_t>(hw, 2);
  std::printf("# host {\"hw_threads\": %zu, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"seed\": %llu, \"workload\": \"%s\", "
              "\"seconds\": %g, \"trace\": %d}\n",
              hw, PERFBENCH_BUILD_TYPE, __VERSION__,
              static_cast<unsigned long long>(args.seed),
              args.workload.c_str(), args.seconds, args.trace ? 1 : 0);

  // ---- set-up, repeated: generate inputs, compile the originals, start
  // the server and load its sessions. The last repetition is kept. Each is
  // timed in CPU time of the process (all threads), which time the
  // hypervisor gives to other guests does not inflate.
  WorkloadSpec spec;
  std::unique_ptr<ServerBench> server;
  std::vector<double> setup_s;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < 5 ||
         (Seconds(setup_start) < 0.5 && setup_s.size() < 25)) {
    if (server != nullptr) server->Stop();
    server.reset();
    const int64_t cpu_start = ProcessCpuNs();
    spec = WorkloadSpec();
    if (!MakeWorkload(args.workload, args.seed, &spec)) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    for (const Input& in : spec.inproc) {
      if (CompileSource(in.source) == nullptr) {
        std::fprintf(stderr, "perfbench: %s does not compile\n",
                     in.name.c_str());
        return 2;
      }
    }
    server = std::make_unique<ServerBench>(spec, clients, clients, args.socket);
    std::string why;
    if (!server->Start(&why)) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
      return 2;
    }
    setup_s.push_back((ProcessCpuNs() - cpu_start) / 1e9);
  }

  // Wall time of each part of the run, for the "# phases" line.
  std::vector<std::pair<const char*, double>> phase_s = {
      {"setup", Seconds(setup_start)}};
  auto phase_start = std::chrono::steady_clock::now();
  auto end_phase = [&](const char* name) {
    phase_s.emplace_back(name, Seconds(phase_start));
    phase_start = std::chrono::steady_clock::now();
  };

  uint64_t attempted = 0, failed = 0;
  InprocBench inproc(hw);
  const double inproc_budget = args.seconds * spec.inproc_share;
  const double server_budget = args.seconds - inproc_budget;

  // ---- server phase: fill the cache with one reorder per session, then
  // the closed loop. A traced run spends the first half untraced and the
  // second half traced, which gives the tracing overhead.
  {
    std::string why;
    if (!server->Warm(&why)) {
      std::fprintf(stderr, "perfbench: %s\n", why.c_str());
      return 2;
    }
  }
  end_phase("warm");
  std::vector<ServerPhaseResult> phases;
  if (args.trace) {
    phases.push_back(server->Run(server_budget / 2, args.seed));
    Tracer::Get().Enable();
    phases.push_back(server->Run(server_budget / 2, args.seed + 1));
    Tracer::Get().Disable();
  } else {
    phases.push_back(server->Run(server_budget, args.seed));
  }

  // ---- in-process phase: timed rounds, split the same way. The first
  // round also verifies every output (outside its timed spans).
  end_phase("server");
  std::vector<RoundTimes> untraced_rounds, traced_rounds;
  const auto inproc_start = std::chrono::steady_clock::now();
  const double untraced_budget =
      args.trace ? inproc_budget / 2 : inproc_budget;
  // Another round starts only if one as long as the last still fits, so
  // a run of large rounds does not overrun its budget.
  double last_round_s = 0;
  while (untraced_rounds.size() < (args.trace ? 1u : 3u) ||
         Seconds(inproc_start) + last_round_s < untraced_budget) {
    Span round("round");
    const auto round_start = std::chrono::steady_clock::now();
    untraced_rounds.push_back(inproc.Round(
        spec.inproc, untraced_rounds.empty(), &attempted, &failed));
    last_round_s = Seconds(round_start);
  }
  if (args.trace) {
    Tracer::Get().Enable();
    while (traced_rounds.empty() || Seconds(inproc_start) < inproc_budget) {
      Span round("round");
      traced_rounds.push_back(
          inproc.Round(spec.inproc, true, &attempted, &failed));
      if (!spec.growth.empty()) inproc.GrowthRound(spec.growth);
    }
  }

  end_phase("rounds");
  std::vector<std::string> problems = inproc.problems();
  for (ServerPhaseResult& p : phases) {
    server->Verify(inproc.baselines(), &p, &problems);
    attempted += p.completed;
    failed += p.failed;
  }

  // exec_share: in-process GuardedPipeline time at the server's options
  // (jobs=1, warm cache) over the reorder latency, for the reorders of
  // unedited sessions in the traced phase.
  double exec_share = 0;
  if (args.trace) {
    double inproc_ms = 0, server_ms = 0;
    for (const auto& [served, sum_n] : phases.back().served_reorder_ms) {
      prore::core::AnalysisCache cache(1u << 16);
      ServerOptionsReorder(spec.served[served].source, &cache);
      std::vector<double> warm_ms;
      for (int i = 0; i < 3; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        ServerOptionsReorder(spec.served[served].source, &cache);
        warm_ms.push_back(Seconds(t0) * 1e3);
      }
      inproc_ms += Median(warm_ms) * sum_n.second;
      server_ms += sum_n.first;
    }
    exec_share = server_ms > 0 ? inproc_ms / server_ms : 0;
  }
  server->Stop();
  end_phase("verify");

  // ---- report
  auto times = [](const std::vector<RoundTimes>& rounds,
                  double RoundTimes::*field) {
    std::vector<double> v;
    for (const RoundTimes& t : rounds) v.push_back(t.*field);
    return Median(v);
  };
  auto e2e_of = [&](const std::vector<RoundTimes>& rounds,
                    const ServerPhaseResult& server_phase) {
    std::vector<double> speed0, speed1;
    for (const auto& [name, b] : inproc.baselines()) {
      for (size_t u = 0; u < b.unit_orig.size(); ++u) {
        if (b.unit_j0[u] == 0 || b.unit_j1[u] == 0) continue;
        speed0.push_back(static_cast<double>(b.unit_orig[u]) / b.unit_j0[u]);
        speed1.push_back(static_cast<double>(b.unit_orig[u]) / b.unit_j1[u]);
      }
    }
    return std::vector<Metric>{
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"reorder_s", times(rounds, &RoundTimes::reorder_j0) / 1e3, "s"},
        {"reorder_sharded_s", times(rounds, &RoundTimes::reorder_j1) / 1e3,
         "s"},
        {"exec_s", PooledExecMs(rounds) / 1e3, "s"},
        {"calls_speedup", Geomean(speed0), "x"},
        {"calls_speedup_sharded", Geomean(speed1), "x"},
        {"server_cpu_ms",
         server_phase.completed > 0
             ? server_phase.server_cpu_s * 1e3 / server_phase.completed
             : 0,
         "ms"},
    };
  };
  const std::vector<Metric> e2e = e2e_of(untraced_rounds, phases.front());
  std::printf("# rounds: %zu untraced, %zu traced; server ops: %llu in "
              "%.1f s, median %.0f/s\n",
              untraced_rounds.size(), traced_rounds.size(),
              static_cast<unsigned long long>(phases.front().completed),
              phases.front().seconds, Median(phases.front().window_rps));
  for (const Metric& m : e2e) {
    std::printf("# %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# phases (s):");
  for (const auto& [name, sec] : phase_s) std::printf(" %s %.2f", name, sec);
  std::printf("\n# CPU time (s) of reorder / sharded / exec per round:");
  for (const RoundTimes& t : untraced_rounds) {
    std::printf(" %.3f/%.3f/%.4f", t.reorder_j0 / 1e3, t.reorder_j1 / 1e3,
                t.exec / 1e3);
  }
  std::printf("\n# wall time (s) of the same:");
  for (const RoundTimes& t : untraced_rounds) {
    std::printf(" %.3f/%.3f/%.4f", t.reorder_j0_wall / 1e3,
                t.reorder_j1_wall / 1e3, t.exec_wall / 1e3);
  }
  std::printf("\n");

  // Cross-check of the corpus counts against the committed numbers; a
  // difference is reported here, never corrected.
  for (const Committed& c : kCommitted) {
    auto it = inproc.baselines().find(c.name);
    if (it == inproc.baselines().end()) continue;
    const ProgramBaseline& b = it->second;
    const bool same = b.orig_calls == c.original && b.calls_j0 == c.jobs0 &&
                      b.calls_j1 == c.jobs1;
    std::printf("# crosscheck %s: original %llu (committed %llu), jobs=0 %llu "
                "(committed %llu), jobs=1 %llu (committed %llu): %s\n",
                c.name, static_cast<unsigned long long>(b.orig_calls),
                static_cast<unsigned long long>(c.original),
                static_cast<unsigned long long>(b.calls_j0),
                static_cast<unsigned long long>(c.jobs0),
                static_cast<unsigned long long>(b.calls_j1),
                static_cast<unsigned long long>(c.jobs1),
                same ? "same" : "DIFFERS");
  }
  std::printf("# note: cache replay renamed variables in %llu checked server "
              "reorder reply(ies)\n",
              static_cast<unsigned long long>(
                  phases.front().reorder_text_diffs));
  std::printf("# note: %llu server reorder reply(ies) reported a degraded "
              "program\n",
              static_cast<unsigned long long>(phases.front().degraded_replies));
  for (const std::string& p : problems) std::printf("# %s\n", p.c_str());
  for (const auto& [op, ms] : phases.front().latency_ms) {
    std::printf("# latency %s n=%zu p10 %.3f p50 %.3f p90 %.3f p99 %.3f ms\n",
                op.c_str(), ms.size(), Percentile(ms, 10), Percentile(ms, 50),
                Percentile(ms, 90), Percentile(ms, 99));
  }

  std::vector<Metric> out = e2e;
  if (args.trace) {
    const SpanIndex spans(Tracer::Get().Snapshot());
    const std::string trace_path =
        !args.trace_out.empty()
            ? args.trace_out
            : ".bench_build/perfbench-trace-" + args.workload + "-" +
                  std::to_string(args.seed) + ".json";
    if (Tracer::Get().WriteChromeJson(trace_path)) {
      std::printf("# trace: %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
    out = PerLayer(spans, spec, inproc, phases, exec_share, failed, attempted,
                   e2e, e2e_of(traced_rounds, phases.back()));
    for (const Metric& m : out) {
      std::printf("# %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].name.c_str(), out[i].value,
                  out[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--socket PATH]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) return perfbench::SelfTest();
  return perfbench::Run(args);
}
