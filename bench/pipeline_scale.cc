// Parallel-pipeline scaling bench, two modes.
//
// Default: builds a ~1000-predicate synthetic program whose call graph
// condenses into hundreds of independent SCC dependency groups, runs the
// guarded pipeline at --jobs 1/2/4/8, and writes the measured wall-clock
// curve to BENCH_parallel.json under the "pipeline" key. A sanity check
// asserts that every jobs value writes the bit-identical program.
//
// --sweep: a size sweep over seeded layered programs (500 to 8000
// predicates) at jobs=0 and jobs=1. Each run records its wall time and
// whether the run fell back to the identity program; each jobs value gets
// a fitted growth exponent (least-squares slope of log ms over log preds,
// over the runs that finished without a fallback).
// Runs carry the 30 s deadline prored applies by default, so a size that
// prored could not reorder in time shows up as an identity fallback. The
// row, labelled with --label and recorded with the host's hw_threads,
// build type and compiler, replaces the row of the same label under the
// "pipeline_sweep" key and keeps rows with other labels (a before/after
// pair).
//
// Other sections of the file are preserved; the numbers are measurements
// on the build host.
//
// Usage: pipeline_scale [output.json]   (default BENCH_parallel.json)
//        pipeline_scale --sweep [--label=NAME] [--max-preds=N]
//                       [--jobs=0|1] [output.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/callgraph.h"
#include "bench/parallel_json.h"
#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "reader/parser.h"
#include "reader/writer.h"
#include "term/store.h"

#ifndef PRORE_BUILD_TYPE
#define PRORE_BUILD_TYPE "unknown"
#endif

namespace {

// ~1000 predicates: kClusters independent clusters of 4 predicates each.
// Within a cluster the top predicate joins the two mid predicates over a
// small fact base, so each dependency group gives the goal-order search
// and cost model real work; across clusters there are no edges, so the
// sharded pipeline has abundant parallelism.
constexpr int kClusters = 250;

std::string SyntheticProgram() {
  std::ostringstream out;
  for (int c = 0; c < kClusters; ++c) {
    for (int f = 0; f < 4; ++f) {
      out << "base" << c << "(" << f << ", " << (f + 1) << ").\n";
    }
    out << "left" << c << "(X, Y) :- base" << c << "(X, Y).\n";
    out << "left" << c << "(X, Y) :- base" << c << "(X, Z), base" << c
        << "(Z, Y).\n";
    out << "right" << c << "(X, Y) :- base" << c << "(Y, X).\n";
    out << "top" << c << "(X, Y) :- left" << c << "(X, Z), right" << c
        << "(Z, Y), base" << c << "(X, _).\n";
  }
  return out.str();
}

/// splitmix64: the same stream on every platform.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// `preds` predicates in the clause shape above, with the clusters stacked
/// in five layers: every top above the first layer also calls a random top
/// of the layer below, and each top's goals are written in a random order.
/// The call graph therefore has several waves of dependency groups and
/// the reorderer has work in every top clause.
std::string LayeredProgram(int preds, uint64_t seed) {
  constexpr int kLayers = 5;
  const int clusters = std::max(1, preds / 4);
  const int per_layer = (clusters + kLayers - 1) / kLayers;
  uint64_t state = seed;
  std::ostringstream src;
  for (int c = 0; c < clusters; ++c) {
    const std::string id = std::to_string(c);
    const int facts = 3 + static_cast<int>(NextRandom(&state) % 4);
    for (int f = 0; f < facts; ++f) {
      src << "base" << id << "(" << f << ", " << (f + 1) << ").\n";
    }
    src << "left" << id << "(X, Y) :- base" << id << "(X, Y).\n";
    src << "left" << id << "(X, Y) :- base" << id << "(X, Z), base" << id
        << "(Z, Y).\n";
    src << "right" << id << "(X, Y) :- base" << id << "(Y, X).\n";
    std::vector<std::string> goals = {"left" + id + "(X, Z)",
                                      "right" + id + "(Z, Y)",
                                      "base" + id + "(X, _)"};
    if (const int layer = c / per_layer; layer > 0) {
      const int below = (layer - 1) * per_layer +
                        static_cast<int>(NextRandom(&state) % per_layer);
      goals.push_back("top" + std::to_string(below) + "(Y, Y)");
    }
    for (size_t i = goals.size(); i > 1; --i) {
      std::swap(goals[i - 1], goals[NextRandom(&state) % i]);
    }
    src << "top" << id << "(X, Y) :- ";
    for (size_t i = 0; i < goals.size(); ++i) {
      src << (i ? ", " : "") << goals[i];
    }
    src << ".\n";
  }
  return src.str();
}

int RunJobsCurve(const char* out_path) {
  const std::string source = SyntheticProgram();

  // Parse once to report program shape; each measured run re-parses into a
  // fresh store so no run benefits from a warm arena.
  size_t num_preds = 0, num_groups = 0;
  {
    prore::term::TermStore store;
    auto program = prore::reader::ParseProgramText(&store, source);
    if (!program.ok()) {
      std::fprintf(stderr, "parse: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    num_preds = program->NumPreds();
    auto graph = prore::analysis::CallGraph::Build(store, *program);
    if (graph.ok()) {
      num_groups = prore::analysis::ComputeDependencyGroups(*graph).size();
    }
  }

  const size_t jobs_curve[] = {1, 2, 4, 8};
  std::vector<std::string> entries;
  std::string reference_text;
  double wall_ms_at_1 = 0.0;

  for (size_t jobs : jobs_curve) {
    prore::term::TermStore store;
    auto program = prore::reader::ParseProgramText(&store, source);
    if (!program.ok()) return 1;

    prore::core::PipelineOptions opts;
    opts.jobs = jobs;
    prore::core::GuardedPipeline pipeline(&store, opts);

    auto t0 = std::chrono::steady_clock::now();
    auto result = pipeline.Run(*program);
    auto t1 = std::chrono::steady_clock::now();
    if (!result.ok()) {
      std::fprintf(stderr, "jobs=%zu: %s\n", jobs,
                   result.status().ToString().c_str());
      return 1;
    }
    double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    std::string text = prore::reader::WriteProgram(store, result->program);
    if (jobs == 1) {
      reference_text = text;
      wall_ms_at_1 = wall_ms;
    } else if (text != reference_text) {
      std::fprintf(stderr,
                   "FAIL: jobs=%zu output differs from jobs=1 output\n",
                   jobs);
      return 1;
    }

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"threads\": %zu, \"wall_ms\": %.2f, "
                  "\"speedup_vs_1\": %.2f, \"preds\": %zu, "
                  "\"groups\": %zu, \"hw_threads\": %zu}",
                  jobs, wall_ms,
                  wall_ms > 0.0 ? wall_ms_at_1 / wall_ms : 0.0, num_preds,
                  num_groups, prore::ThreadPool::HardwareConcurrency());
    entries.push_back(buf);
    std::printf("jobs=%zu: %.1f ms (%zu preds, %zu groups)\n", jobs,
                wall_ms, num_preds, num_groups);
  }

  if (!prore::bench::WriteParallelSection(out_path, "pipeline", entries)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s (pipeline section, jobs=1/2/4/8)\n", out_path);
  return 0;
}

/// prored's default per-request deadline (server::ServerOptions).
constexpr uint64_t kServerDeadlineMs = 30'000;

struct SweepRun {
  int preds = 0;
  size_t jobs = 0;
  double ms = 0.0;
  bool identity_fallback = false;
};

/// Least-squares slope of log(ms) over log(preds) for one jobs value.
double GrowthExponent(const std::vector<SweepRun>& runs, size_t jobs) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const SweepRun& r : runs) {
    // A fallback run stopped at the deadline; its time is not the cost.
    if (r.jobs != jobs || r.identity_fallback || r.ms <= 0) continue;
    const double x = std::log(r.preds), y = std::log(r.ms);
    n += 1;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = n * sxx - sx * sx;
  return n < 2 || den == 0 ? 0.0 : (n * sxy - sx * sy) / den;
}

int RunSweep(const char* out_path, const std::string& label, int max_preds,
             const std::vector<size_t>& jobs_list) {
  const int sizes[] = {500, 1000, 2000, 4000, 8000};
  std::vector<SweepRun> runs;
  for (int preds : sizes) {
    if (preds > max_preds) break;
    const std::string source = LayeredProgram(preds, 1);
    for (size_t jobs : jobs_list) {
      prore::term::TermStore store;
      auto program = prore::reader::ParseProgramText(&store, source);
      if (!program.ok()) {
        std::fprintf(stderr, "parse: %s\n",
                     program.status().ToString().c_str());
        return 1;
      }
      prore::core::PipelineOptions opts;
      opts.jobs = jobs;
      opts.exec.deadline = prore::Deadline::AfterMs(kServerDeadlineMs);
      auto t0 = std::chrono::steady_clock::now();
      auto result = prore::core::GuardedPipeline(&store, opts).Run(*program);
      auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "preds=%d jobs=%zu: %s\n", preds, jobs,
                     result.status().ToString().c_str());
        return 1;
      }
      SweepRun r;
      r.preds = preds;
      r.jobs = jobs;
      r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      r.identity_fallback = !result->report.global_trigger.empty();
      std::printf("preds=%d jobs=%zu: %.1f ms%s\n", preds, jobs, r.ms,
                  r.identity_fallback ? " (identity fallback)" : "");
      std::fflush(stdout);
      runs.push_back(r);
    }
  }

  std::string row = "{\"label\": \"" + label + "\", \"host\": {";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"hw_threads\": %zu, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}, \"deadline_ms\": %llu, "
                "\"growth_exp\": {",
                prore::ThreadPool::HardwareConcurrency(), PRORE_BUILD_TYPE,
                __VERSION__, static_cast<unsigned long long>(
                                 kServerDeadlineMs));
  row += buf;
  for (size_t i = 0; i < jobs_list.size(); ++i) {
    const double exp = GrowthExponent(runs, jobs_list[i]);
    std::snprintf(buf, sizeof(buf), "%s\"j%zu\": %.2f", i ? ", " : "",
                  jobs_list[i], exp);
    row += buf;
    std::printf("growth exponent at jobs=%zu: %.2f\n", jobs_list[i], exp);
  }
  row += "}, \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"preds\": %d, \"jobs\": %zu, \"ms\": %.1f, "
                  "\"identity_fallback\": %s}",
                  i ? ", " : "", runs[i].preds, runs[i].jobs, runs[i].ms,
                  runs[i].identity_fallback ? "true" : "false");
    row += buf;
  }
  row += "]}";

  std::vector<std::string> entries;
  for (std::string& e :
       prore::bench::ReadSectionEntries(out_path, "pipeline_sweep")) {
    if (e.find("\"label\": \"" + label + "\"") == std::string::npos) {
      entries.push_back(std::move(e));
    }
  }
  entries.push_back(row);
  if (!prore::bench::WriteParallelSection(out_path, "pipeline_sweep",
                                          entries)) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s (pipeline_sweep section, label %s)\n", out_path,
              label.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_parallel.json";
  bool sweep = false;
  std::string label = "after";
  int max_preds = 8000;
  std::vector<size_t> jobs_list = {0, 1};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg.starts_with("--label=")) {
      label = std::string(arg.substr(8));
    } else if (arg.starts_with("--max-preds=")) {
      max_preds = std::atoi(argv[i] + 12);
    } else if (arg.starts_with("--jobs=")) {
      jobs_list = {static_cast<size_t>(std::atoi(argv[i] + 7))};
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      out_path = argv[i];
    }
  }
  return sweep ? RunSweep(out_path, label, max_preds, jobs_list)
               : RunJobsCurve(out_path);
}
