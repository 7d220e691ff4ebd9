// Ablation benches for the design choices DESIGN.md calls out:
//  (a) Markov-chain objective vs Warren's alternatives heuristic (§I-E);
//  (b) A* best-first search vs exhaustive permutation (§VI-A.3) — same
//      chosen order, different search effort;
//  (c) first-argument clause indexing on/off in the engine (§III-A);
//  (d) mode specialization on/off;
//  (e) abstract interpretation on/off — the cost-model determinism clamps
//      in the reorderer (--no-absint ablation) and witness-driven
//      choicepoint elision in the engine.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "analysis/modes.h"
#include "bench/bench_util.h"
#include "core/evaluation.h"
#include "core/goal_order.h"
#include "core/reorderer.h"
#include "engine/database.h"
#include "engine/machine.h"
#include "markov/chain.h"
#include "programs/programs.h"
#include "reader/parser.h"

using prore::bench::PrintHeader;
using prore::bench::PrintRows;
using prore::bench::RunProgramWorkloads;
using prore::bench::WorkloadRow;

namespace {

int CompareObjectives() {
  PrintHeader("(a) Markov-chain objective vs Warren's heuristic (family tree)");
  prore::core::ReorderOptions markov_opts;
  prore::core::ReorderOptions warren_opts;
  warren_opts.goal_search.warren_heuristic = true;

  auto markov_rows =
      RunProgramWorkloads(prore::programs::FamilyTree(), markov_opts);
  auto warren_rows =
      RunProgramWorkloads(prore::programs::FamilyTree(), warren_opts);
  if (!markov_rows.ok() || !warren_rows.ok()) return 1;
  std::printf("%-26s %12s %12s %12s\n", "workload", "original",
              "markov-chain", "warren");
  uint64_t markov_total = 0, warren_total = 0, orig_total = 0;
  for (size_t i = 0; i < markov_rows->size(); ++i) {
    const auto& m = (*markov_rows)[i];
    const auto& w = (*warren_rows)[i];
    std::printf("%-26s %12llu %12llu %12llu\n", m.label.c_str(),
                static_cast<unsigned long long>(m.original_calls),
                static_cast<unsigned long long>(m.reordered_calls),
                static_cast<unsigned long long>(w.reordered_calls));
    orig_total += m.original_calls;
    markov_total += m.reordered_calls;
    warren_total += w.reordered_calls;
  }
  std::printf("%-26s %12llu %12llu %12llu\n", "TOTAL",
              static_cast<unsigned long long>(orig_total),
              static_cast<unsigned long long>(markov_total),
              static_cast<unsigned long long>(warren_total));
  std::printf(
      "(Warren's factor considers only the number of alternatives, not\n"
      " their costs — the paper's critique in Section I-E.)\n");
  return 0;
}

int AStarVsExhaustive() {
  PrintHeader("(b) A* best-first search vs exhaustive permutation");
  // Random synthetic clause bodies: n independent goals with random
  // stats. A* must find the same optimal cost as the exhaustive search,
  // whose depth-first enumeration is cut by the best order found so far.
  std::printf("%6s %16s %16s %14s %14s\n", "goals", "exhaustive-cost",
              "astar-cost", "exh-considered", "astar-expanded");
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> up(0.1, 0.9);
  std::uniform_real_distribution<double> uc(1.0, 40.0);
  int failures = 0;
  for (size_t n = 3; n <= 8; ++n) {
    // Build a tiny program whose single clause has n independent fact
    // goals with controlled statistics: different fact counts give
    // different costs/probabilities.
    // Chained binary relations g_k(X_k, X_{k+1}) with very different fact
    // counts: orders differ strongly in cost, so the admissible heuristic
    // has something to prune on.
    std::string src;
    std::string body;
    for (size_t g = 0; g < n; ++g) {
      size_t facts = 1 + (rng() % 30);
      for (size_t f = 0; f < facts; ++f) {
        src += "g" + std::to_string(g) + "(k" + std::to_string(f % 5) +
               ", v" + std::to_string(f) + "_" + std::to_string(g) + ").\n";
      }
      if (g > 0) body += ", ";
      body += "g" + std::to_string(g) + "(X" + std::to_string(g) + ", Y" +
              std::to_string(g) + ")";
    }
    src += "target(X0) :- " + body + ".\n";
    (void)up;
    (void)uc;

    auto run = [&](bool use_astar, size_t threshold)
        -> prore::Result<prore::core::OrderResult> {
      prore::term::TermStore store;
      PRORE_ASSIGN_OR_RETURN(auto program,
                             prore::reader::ParseProgramText(&store, src));
      PRORE_ASSIGN_OR_RETURN(auto graph, prore::analysis::CallGraph::Build(
                                             store, program));
      PRORE_ASSIGN_OR_RETURN(
          auto fixity, prore::analysis::AnalyzeFixity(store, program, graph));
      prore::analysis::Declarations decls;
      PRORE_ASSIGN_OR_RETURN(
          auto modes, prore::analysis::InferModes(store, program, graph,
                                                  decls));
      prore::analysis::LegalityOracle oracle(&store, &program, &graph,
                                             &modes);
      prore::cost::CostModel costs(&store, &program, &graph, &decls,
                                   &oracle);
      prore::core::GoalOrderOptions gopts;
      gopts.exhaustive_threshold = use_astar ? 0 : threshold;
      gopts.use_astar = use_astar;
      prore::core::GoalOrderSearch search(&store, &costs, &fixity, gopts);
      prore::term::PredId target{store.symbols().Intern("target"), 1};
      const auto& clause = program.ClausesOf(target)[0];
      PRORE_ASSIGN_OR_RETURN(auto tree,
                             prore::analysis::ParseBody(store, clause.body));
      std::vector<const prore::analysis::BodyNode*> elements;
      for (const auto& child : tree->children) elements.push_back(child.get());
      prore::analysis::AbstractEnv env;  // all head vars free
      return search.FindBestOrder(elements, env);
    };

    auto t0 = std::chrono::steady_clock::now();
    auto exhaustive = run(false, 12);
    auto t1 = std::chrono::steady_clock::now();
    auto astar = run(true, 0);
    auto t2 = std::chrono::steady_clock::now();
    double exh_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    double astar_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    if (!exhaustive.ok() || !astar.ok()) {
      std::printf("  (search failed at n=%zu: %s / %s)\n", n,
                  exhaustive.ok() ? "ok" : exhaustive.status().ToString().c_str(),
                  astar.ok() ? "ok" : astar.status().ToString().c_str());
      ++failures;
      continue;
    }
    bool same = std::fabs(exhaustive->cost_all - astar->cost_all) <
                1e-6 * (1.0 + exhaustive->cost_all);
    std::printf("%6zu %16.2f %16.2f %10zu/%5.1fms %10zu/%5.1fms  %s\n", n,
                exhaustive->cost_all, astar->cost_all,
                exhaustive->nodes_considered, exh_ms,
                astar->nodes_considered, astar_ms,
                same ? "" : "COST MISMATCH");
    if (!same) ++failures;
  }
  return failures;
}

int IndexingOnOff() {
  PrintHeader("(c) first-argument indexing on/off (engine substrate)");
  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(
      &store, prore::programs::FamilyTree().source);
  if (!program.ok()) return 1;
  auto db = prore::engine::Database::Build(&store, *program);
  if (!db.ok()) return 1;
  std::printf("%-28s %16s %16s\n", "query", "head-unifs (on)",
              "head-unifs (off)");
  for (const char* q :
       {"grandmother(h13, G)", "aunt(h13, A)", "cousins(h13, C)"}) {
    prore::engine::SolveOptions on, off;
    off.use_indexing = false;
    prore::engine::Machine m_on(&store, &db.value(), on);
    prore::engine::Machine m_off(&store, &db.value(), off);
    auto q1 = prore::reader::ParseQueryText(&store, std::string(q) + ".");
    auto q2 = prore::reader::ParseQueryText(&store, std::string(q) + ".");
    if (!q1.ok() || !q2.ok()) return 1;
    auto r1 = m_on.Solve(q1->term);
    auto r2 = m_off.Solve(q2->term);
    if (!r1.ok() || !r2.ok()) return 1;
    std::printf("%-28s %16llu %16llu\n", q,
                static_cast<unsigned long long>(r1->head_unifications),
                static_cast<unsigned long long>(r2->head_unifications));
  }
  return 0;
}

int SpecializationOnOff() {
  PrintHeader(
      "(d) per-mode specialization vs one-version vs SV-D run-time guards "
      "(family tree)");
  prore::core::ReorderOptions with, without, guarded;
  without.specialize_modes = false;
  guarded.specialize_modes = false;
  guarded.runtime_guards = true;
  auto rows_with = RunProgramWorkloads(prore::programs::FamilyTree(), with);
  auto rows_without =
      RunProgramWorkloads(prore::programs::FamilyTree(), without);
  auto rows_guarded =
      RunProgramWorkloads(prore::programs::FamilyTree(), guarded);
  if (!rows_with.ok() || !rows_without.ok() || !rows_guarded.ok()) return 1;
  std::printf("%-26s %12s %14s %14s %14s\n", "workload", "original",
              "specialized", "one-version", "guarded");
  for (size_t i = 0; i < rows_with->size(); ++i) {
    std::printf("%-26s %12llu %14llu %14llu %14llu\n",
                (*rows_with)[i].label.c_str(),
                static_cast<unsigned long long>(
                    (*rows_with)[i].original_calls),
                static_cast<unsigned long long>(
                    (*rows_with)[i].reordered_calls),
                static_cast<unsigned long long>(
                    (*rows_without)[i].reordered_calls),
                static_cast<unsigned long long>(
                    (*rows_guarded)[i].reordered_calls));
  }
  std::printf(
      "(One-version reordering must assume the weakest mode; SV-D guards\n"
      " recover part of the per-mode gains with ground tests inside one\n"
      " clause; full specialization remains the paper's best option.)\n");
  return 0;
}

int AbsintOnOff() {
  PrintHeader(
      "(e) abstract interpretation on/off (determinism clamps + elision)");
  // Reorderer axis: with absint the cost model clamps det/semidet callees
  // to at most one expected solution, which can change the chosen order —
  // the same ablation `prore --no-absint` exposes.
  prore::core::ReorderOptions with, without;
  without.absint = false;
  auto rows_with = RunProgramWorkloads(prore::programs::FamilyTree(), with);
  auto rows_without =
      RunProgramWorkloads(prore::programs::FamilyTree(), without);
  if (!rows_with.ok() || !rows_without.ok()) return 1;
  std::printf("%-26s %12s %14s %14s\n", "workload", "original",
              "absint", "no-absint");
  for (size_t i = 0; i < rows_with->size(); ++i) {
    std::printf("%-26s %12llu %14llu %14llu\n",
                (*rows_with)[i].label.c_str(),
                static_cast<unsigned long long>(
                    (*rows_with)[i].original_calls),
                static_cast<unsigned long long>(
                    (*rows_with)[i].reordered_calls),
                static_cast<unsigned long long>(
                    (*rows_without)[i].reordered_calls));
  }

  // Engine axis: exclusivity witnesses let the machine skip choicepoints
  // whose remaining clauses provably cannot match the call.
  prore::term::TermStore store;
  auto program = prore::reader::ParseProgramText(
      &store, prore::programs::FamilyTree().source);
  if (!program.ok()) return 1;
  auto db = prore::engine::Database::Build(&store, *program);
  if (!db.ok()) return 1;
  std::printf("%-28s %14s %14s %10s\n", "query", "unifs (elide)",
              "unifs (keep)", "elided");
  for (const char* q :
       {"grandmother(h13, G)", "aunt(h13, A)", "cousins(h13, C)"}) {
    prore::engine::SolveOptions on, off;
    off.use_choicepoint_elision = false;
    prore::engine::Machine m_on(&store, &db.value(), on);
    prore::engine::Machine m_off(&store, &db.value(), off);
    auto q1 = prore::reader::ParseQueryText(&store, std::string(q) + ".");
    auto q2 = prore::reader::ParseQueryText(&store, std::string(q) + ".");
    if (!q1.ok() || !q2.ok()) return 1;
    auto r1 = m_on.Solve(q1->term);
    auto r2 = m_off.Solve(q2->term);
    if (!r1.ok() || !r2.ok()) return 1;
    std::printf("%-28s %14llu %14llu %10llu\n", q,
                static_cast<unsigned long long>(r1->head_unifications),
                static_cast<unsigned long long>(r2->head_unifications),
                static_cast<unsigned long long>(r1->choicepoints_elided));
  }
  return 0;
}

}  // namespace

int main() {
  int failures = 0;
  failures += CompareObjectives();
  failures += AStarVsExhaustive();
  failures += IndexingOnOff();
  failures += SpecializationOnOff();
  failures += AbsintOnOff();
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
