#include "core/pipeline.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "analysis/content_hash.h"
#include "common/json.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "lint/validate.h"
#include "reader/parser.h"
#include "reader/writer.h"

namespace prore::core {

using term::PredId;

const char* LadderLevelName(LadderLevel level) {
  switch (level) {
    case LadderLevel::kFull:
      return "full";
    case LadderLevel::kNoUnfold:
      return "no-unfold";
    case LadderLevel::kClauseOrderOnly:
      return "clause-order-only";
    case LadderLevel::kIdentity:
      return "identity";
  }
  return "unknown";
}

bool PipelineReport::degraded() const {
  if (unfold_disabled || factor_disabled || absint_disabled ||
      !global_trigger.empty()) {
    return true;
  }
  return quarantined() > 0;
}

size_t PipelineReport::quarantined() const {
  size_t n = 0;
  for (const PredOutcome& p : preds) {
    if (p.level != LadderLevel::kFull) ++n;
  }
  return n;
}

std::string PipelineReport::ToText() const {
  std::string out = prore::StrFormat(
      "pipeline: %d run%s, %zu of %zu predicate%s quarantined\n", runs,
      runs == 1 ? "" : "s", quarantined(), preds.size(),
      preds.size() == 1 ? "" : "s");
  if (!global_trigger.empty()) {
    out += "  GLOBAL fallback to identity: " + global_trigger + "\n";
  }
  if (unfold_disabled) {
    out += "  unfold stage disabled: " + unfold_trigger + "\n";
  }
  if (factor_disabled) {
    out += "  factor stage disabled: " + factor_trigger + "\n";
  }
  if (absint_disabled) {
    out += "  absint stage disabled: " + absint_trigger + "\n";
  }
  for (const PredOutcome& p : preds) {
    if (p.level == LadderLevel::kFull) continue;
    out += prore::StrFormat("  %s: %s after %d attempt%s", p.name.c_str(),
                            LadderLevelName(p.level), p.attempts,
                            p.attempts == 1 ? "" : "s");
    if (!p.fault_class.empty()) {
      out += prore::StrFormat(" (%s fault, %d retr%s)",
                              p.fault_class.c_str(), p.retries,
                              p.retries == 1 ? "y" : "ies");
    }
    out += "\n";
    for (const std::string& t : p.triggers) {
      out += "    - " + t + "\n";
    }
  }
  return out;
}

std::string PipelineReport::ToJson() const {
  std::string out = prore::StrFormat(
      "{\"runs\":%d,\"degraded\":%s,\"quarantined\":%zu", runs,
      degraded() ? "true" : "false", quarantined());
  out += ",\"global_trigger\":";
  prore::AppendJsonEscaped(&out, global_trigger);
  out += prore::StrFormat(",\"unfold_disabled\":%s",
                          unfold_disabled ? "true" : "false");
  out += ",\"unfold_trigger\":";
  prore::AppendJsonEscaped(&out, unfold_trigger);
  out += prore::StrFormat(",\"factor_disabled\":%s",
                          factor_disabled ? "true" : "false");
  out += ",\"factor_trigger\":";
  prore::AppendJsonEscaped(&out, factor_trigger);
  out += prore::StrFormat(",\"absint_disabled\":%s",
                          absint_disabled ? "true" : "false");
  out += ",\"absint_trigger\":";
  prore::AppendJsonEscaped(&out, absint_trigger);
  out += ",\"preds\":[";
  for (size_t i = 0; i < preds.size(); ++i) {
    const PredOutcome& p = preds[i];
    if (i) out += ",";
    out += "{\"pred\":";
    prore::AppendJsonEscaped(&out, p.name);
    out += ",\"level\":";
    prore::AppendJsonEscaped(&out, LadderLevelName(p.level));
    out += prore::StrFormat(
        ",\"attempts\":%d,\"retries\":%d,\"fault_class\":", p.attempts,
        p.retries);
    prore::AppendJsonEscaped(&out, p.fault_class);
    out += prore::StrFormat(
        ",\"clauses_changed\":%s,\"goals_changed\":%s",
        p.clauses_changed ? "true" : "false",
        p.goals_changed ? "true" : "false");
    out += ",\"triggers\":[";
    for (size_t j = 0; j < p.triggers.size(); ++j) {
      if (j) out += ",";
      prore::AppendJsonEscaped(&out, p.triggers[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

namespace {

/// A group's cache key: its content, the analysis facts it reads about its
/// members, and its callee groups' keys (which cover the cone's facts).
uint64_t GroupKey(uint64_t content, uint64_t facts,
                  const std::vector<size_t>& deps,
                  const std::vector<uint64_t>& keys) {
  uint64_t h = analysis::HashMix(analysis::HashMix(content, facts),
                                 0x67726f7570ull);
  std::vector<uint64_t> dep_keys;
  for (size_t d : deps) dep_keys.push_back(keys[d]);
  std::sort(dep_keys.begin(), dep_keys.end());
  for (uint64_t k : dep_keys) h = analysis::HashMix(h, k);
  return h;
}

/// The key of a whole program's entry: every group's content hash (each
/// already salted), in group order.
uint64_t ProgramKey(const analysis::ContentHashes& hashes) {
  uint64_t h = 0x70726f6772616dull;
  for (uint64_t g : hashes.group_hash) h = analysis::HashMix(h, g);
  return h;
}

GroupCacheEntry MakeCacheEntry(const term::TermStore& store,
                               const GroupOutput& out) {
  GroupCacheEntry entry;
  for (const auto& [pred, clauses] : out.clauses) {
    for (const reader::Clause& c : clauses) {
      entry.program_text += reader::WriteClause(store, c);
      entry.program_text += '\n';
    }
  }
  for (const PredModeReport& r : out.reports) {
    GroupCacheEntry::Report cr;
    cr.pred_name = store.symbols().Name(r.pred.name);
    cr.arity = r.pred.arity;
    cr.mode = analysis::ModeString(r.mode);
    cr.version_name = r.version_name;
    cr.clauses_changed = r.clauses_changed;
    cr.goals_changed = r.goals_changed;
    cr.predicted_original_cost = r.predicted_original_cost;
    cr.predicted_new_cost = r.predicted_new_cost;
    entry.reports.push_back(std::move(cr));
  }
  entry.notes = out.notes;
  entry.diagnostics = out.findings;
  entry.table = out.table;
  return entry;
}

}  // namespace

bool GuardedPipeline::TryAdoptCachedGroup(
    const GroupCacheEntry& entry, const std::vector<PredId>& members,
    const reader::Program& program, const VersionsByName& callee_versions,
    GroupOutput* out) {
  auto frag = reader::ParseProgramText(store_, entry.program_text);
  if (!frag.ok()) return false;

  // Self-verification on every hit: hold the cached output to the same
  // structural standard the reorderer used when producing it, against the
  // members' clauses. Mode/oracle checks need the analyses and are
  // skipped; PL101 (clause preservation), PL102 (dispatcher shape) and
  // PL103 (coverage) catch any torn, truncated, or cross-wired entry. The
  // parsed text names the unnamed variables of the cold run `_G<n>`;
  // PL101 compares up to renaming of singleton variables, so a faithful
  // entry passes while a variable that became shared, or a shared one
  // that was split, still fails.
  GroupOutput adopted;
  lint::ReorderCheckInput check;
  check.original = &program;
  check.preds = &members;
  check.transformed = &*frag;
  check.callee_versions = &callee_versions;
  // Which member each emitted predicate belongs to: a version to the
  // predicate it specializes.
  std::unordered_map<PredId, PredId, term::PredIdHash> owner;
  for (const PredId& p : members) owner.emplace(p, p);
  for (const GroupCacheEntry::Report& r : entry.reports) {
    auto mode = analysis::ModeFromString(r.mode);
    if (!mode.ok()) return false;
    PredModeReport pmr;
    pmr.pred = PredId{store_->symbols().Intern(r.pred_name), r.arity};
    pmr.mode = std::move(*mode);
    pmr.version_name = r.version_name;
    pmr.clauses_changed = r.clauses_changed;
    pmr.goals_changed = r.goals_changed;
    pmr.predicted_original_cost = r.predicted_original_cost;
    pmr.predicted_new_cost = r.predicted_new_cost;
    check.versions.push_back(
        lint::VersionInfo{pmr.pred, pmr.mode, pmr.version_name});
    owner.emplace(PredId{store_->symbols().Intern(r.version_name), r.arity},
                  pmr.pred);
    adopted.reports.push_back(std::move(pmr));
  }
  std::vector<lint::Diagnostic> findings;
  try {
    findings = lint::ValidateReorder(store_, check);
  } catch (const std::exception&) {
    return false;
  }
  for (const lint::Diagnostic& d : findings) {
    if (d.severity == lint::Severity::kError) return false;
  }
  std::unordered_map<PredId, std::vector<reader::Clause>, term::PredIdHash>
      by_member;
  for (const PredId& p : frag->pred_order()) {
    auto it = owner.find(p);
    if (it == owner.end()) return false;  // a predicate nobody owns
    std::vector<reader::Clause>& dst = by_member[it->second];
    for (const reader::Clause& c : frag->ClausesOf(p)) dst.push_back(c);
  }
  for (const PredId& p : members) {
    adopted.clauses.emplace_back(p, std::move(by_member[p]));
  }
  adopted.notes = entry.notes;
  adopted.findings = entry.diagnostics;
  adopted.table = entry.table;
  *out = std::move(adopted);
  return true;
}

reader::Program GuardedPipeline::CopyProgram(
    const reader::Program& original) const {
  reader::Program out;
  for (const PredId& pred : original.pred_order()) {
    for (const reader::Clause& clause : original.ClausesOf(pred)) {
      out.AddClause(*store_, clause);
    }
  }
  for (term::TermRef d : original.directives()) out.AddDirective(d);
  return out;
}

prore::Result<PipelineResult> GuardedPipeline::Run(
    const reader::Program& original) {
  const std::vector<PredId> preds = original.pred_order();

  std::unordered_map<PredId, LadderLevel, term::PredIdHash> levels;
  std::unordered_map<PredId, int, term::PredIdHash> attempts;
  std::unordered_map<PredId, std::vector<std::string>, term::PredIdHash>
      triggers;
  std::unordered_map<PredId, int, term::PredIdHash> retries_used;
  std::unordered_map<PredId, prore::FaultClass, term::PredIdHash>
      fault_classes;
  for (const PredId& p : preds) {
    levels[p] = LadderLevel::kFull;
    attempts[p] = 1;
  }

  bool unfold_enabled = options_.unfold;
  bool factor_enabled = options_.factor;
  bool absint_enabled = options_.reorder.absint;
  PipelineReport report;
  report.runs = 0;

  // One rung per predicate per pass, plus stage disables and one transient
  // retry per predicate, bounds the passes; the cap is slack on top of
  // that, never the expected exit path.
  const size_t max_runs =
      options_.max_runs != 0 ? options_.max_runs : 4 * preds.size() + 8;

  // Demotes one rung; false if already at the bottom. Sets *restart when
  // the new rung changes what the unfold/factor pre-passes produce.
  auto demote = [&](const PredId& pred, const std::string& why,
                    bool* restart) -> bool {
    LadderLevel level = levels[pred];
    if (level == LadderLevel::kIdentity) return false;
    LadderLevel next;
    switch (level) {
      case LadderLevel::kFull:
        // Without an unfold/factor stage the kNoUnfold rung is a no-op
        // retry of kFull; skip straight to clause-order-only.
        next = (unfold_enabled || factor_enabled)
                   ? LadderLevel::kNoUnfold
                   : LadderLevel::kClauseOrderOnly;
        break;
      case LadderLevel::kNoUnfold:
        next = LadderLevel::kClauseOrderOnly;
        break;
      default:
        next = LadderLevel::kIdentity;
        break;
    }
    if (next == LadderLevel::kNoUnfold) *restart = true;
    levels[pred] = next;
    ++attempts[pred];
    triggers[pred].push_back(why);
    return true;
  };

  auto fill_pred_outcomes =
      [&](const std::vector<PredModeReport>* final_reports) {
        // (clauses_changed, goals_changed) ORed over each predicate's
        // per-mode reports, folded in one pass.
        std::unordered_map<PredId, std::pair<bool, bool>, term::PredIdHash>
            changed;
        if (final_reports != nullptr) {
          for (const PredModeReport& r : *final_reports) {
            auto& c = changed[r.pred];
            c.first = c.first || r.clauses_changed;
            c.second = c.second || r.goals_changed;
          }
        }
        report.preds.clear();
        for (const PredId& p : preds) {
          PredOutcome o;
          o.pred = p;
          o.name = reader::PredName(*store_, p);
          o.level = levels[p];
          o.attempts = attempts[p];
          o.triggers = triggers[p];
          auto rit = retries_used.find(p);
          if (rit != retries_used.end()) o.retries = rit->second;
          auto fit = fault_classes.find(p);
          if (fit != fault_classes.end() &&
              fit->second != prore::FaultClass::kNone) {
            o.fault_class = prore::FaultClassName(fit->second);
          }
          if (auto cit = changed.find(p); cit != changed.end()) {
            o.clauses_changed = cit->second.first;
            o.goals_changed = cit->second.second;
          }
          report.preds.push_back(std::move(o));
        }
      };

  size_t cache_hits = 0, cache_misses = 0, cache_rejected = 0;
  auto finish = [&](PipelineResult* result) {
    result->report = std::move(report);
    result->report.cache_hits = cache_hits;
    result->report.cache_misses = cache_misses;
    result->report.cache_rejected = cache_rejected;
  };

  auto identity_fallback = [&](const std::string& why)
      -> prore::Result<PipelineResult> {
    report.global_trigger = why;
    report.runs = std::max(report.runs, 1);
    for (const PredId& p : preds) levels[p] = LadderLevel::kIdentity;
    fill_pred_outcomes(nullptr);
    PipelineResult result;
    result.program = CopyProgram(original);
    finish(&result);
    return result;
  };

  // A pass is one attempt at the program: the first, a restart from the
  // pre-passes, or another round for the groups of a wave that faulted.
  auto next_pass = [&]() -> bool {
    ++report.runs;
    return static_cast<size_t>(report.runs) <= max_runs;
  };
  auto budget_exhausted = [&]() {
    report.runs = static_cast<int>(max_runs);
    return identity_fallback(prore::StrFormat(
        "attempt budget exhausted after %zu runs", max_runs));
  };

  // Outputs of cache entries adopted on the fast path, by group key: kept
  // if the fast path fails part-way, so the full path does not look them
  // up (and count them) twice.
  std::unordered_map<uint64_t, GroupOutput> adopted_early;

  for (;;) {
    if (!next_pass()) return budget_exhausted();
    // A cancelled or past-deadline context stops starting new attempts;
    // what has been decided so far is discarded in favor of the always-
    // correct identity program, with the reason on record.
    if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
      return identity_fallback(ctx.ToString());
    }

    analysis::PredSet no_unfold;
    for (const auto& [pred, level] : levels) {
      if (level >= LadderLevel::kNoUnfold) no_unfold.insert(pred);
    }

    // ---- Stage 1: unfold / factor pre-passes -------------------------
    // A failure here is rarely attributable to one predicate, so the
    // fallback is coarser: disable the whole stage and re-run.
    const reader::Program* working = &original;
    reader::Program unfolded_storage, factored_storage;
    if (unfold_enabled) {
      UnfoldOptions uo = options_.unfold_options;
      uo.skip = no_unfold;
      prore::Status st;
      try {
        auto r = UnfoldProgram(store_, *working, uo);
        if (r.ok()) {
          unfolded_storage = std::move(r).value();
          working = &unfolded_storage;
        } else {
          st = r.status();
        }
      } catch (const std::exception& e) {
        st = prore::Status::Internal(
            prore::StrFormat("uncaught exception in unfold: %s", e.what()));
      }
      if (!st.ok()) {
        unfold_enabled = false;
        report.unfold_disabled = true;
        report.unfold_trigger = st.ToString();
        continue;
      }
    }
    if (factor_enabled) {
      prore::Status st;
      try {
        auto r = FactorDisjunctions(store_, *working, nullptr, &no_unfold);
        if (r.ok()) {
          factored_storage = std::move(r).value();
          working = &factored_storage;
        } else {
          st = r.status();
        }
      } catch (const std::exception& e) {
        st = prore::Status::Internal(
            prore::StrFormat("uncaught exception in factor: %s", e.what()));
      }
      if (!st.ok()) {
        factor_enabled = false;
        report.factor_disabled = true;
        report.factor_trigger = st.ToString();
        continue;
      }
    }

    // ---- Cache fast path ---------------------------------------------
    // The call graph and content hashes are cheap; with the program-level
    // entry they give every group's key, and an unedited program adopts
    // every group without mode inference or absint.
    AnalysisCache* cache = options_.cache;
    analysis::ContentHashes hashes;
    uint64_t program_key = 0;
    // Looks `key` up and adopts the entry for `members`; a hit that fails
    // re-validation is invalidated.
    auto adopt = [&](uint64_t key, const std::vector<PredId>& members,
                     const VersionsByName& callee_versions,
                     GroupOutput* out) {
      auto entry = cache->Lookup(key);
      if (entry == nullptr) return false;
      if (TryAdoptCachedGroup(*entry, members, *working, callee_versions,
                              out)) {
        return true;
      }
      cache->Invalidate(key);
      ++cache_rejected;
      return false;
    };
    if (cache != nullptr) {
      auto graph = analysis::CallGraph::Build(*store_, *working);
      if (graph.ok()) {
        const analysis::DependencyGroups dg =
            analysis::ComputeDependencyGroups(*graph);
        hashes = analysis::ComputeContentHashes(*store_, *working, dg,
                                                options_.cache_salt);
        program_key = ProgramKey(hashes);
        auto facts = cache->LookupProgram(program_key);
        if (facts != nullptr && facts->size() == dg.size()) {
          std::vector<std::vector<PredId>> members(dg.size());
          for (const PredId& p : working->pred_order()) {
            members[dg.group_of.at(p)].push_back(p);
          }
          std::vector<uint64_t> keys(dg.size());
          std::vector<GroupOutput> outs(dg.size());
          std::vector<bool> adopted(dg.size(), false);
          VersionsByName versions;
          size_t hits = 0;
          for (size_t g = 0; g < dg.size(); ++g) {
            keys[g] = GroupKey(hashes.group_hash[g], (*facts)[g], dg.deps[g],
                               keys);
            if (adopt(keys[g], members[g], versions, &outs[g])) {
              adopted[g] = true;
              ++hits;
              AddVersions(*store_, outs[g].reports, &versions);
            }
          }
          if (hits == dg.size()) {
            cache_hits = hits;
            PipelineResult result;
            std::vector<const GroupOutput*> views;
            for (const GroupOutput& out : outs) views.push_back(&out);
            result.program = AssembleGroups(*store_, *working, views);
            result.diagnostics = MergeGroupDiagnostics(*store_, *working,
                                                       views);
            for (const GroupOutput& out : outs) {
              result.reports.insert(result.reports.end(),
                                    out.reports.begin(), out.reports.end());
            }
            fill_pred_outcomes(&result.reports);
            finish(&result);
            return result;
          }
          // Keep what was adopted; the full path below finds it by key.
          for (size_t g = 0; g < dg.size(); ++g) {
            if (adopted[g]) adopted_early.emplace(keys[g], std::move(outs[g]));
          }
        }
      }
    }

    // ---- Stage 2: the whole-program analyses, once --------------------
    ReorderOptions ro = options_.reorder;
    ro.cost_watchdog = options_.cost_watchdog;
    ro.inference.watchdog = options_.inference_watchdog;
    ro.absint = absint_enabled;
    ro.absint_watchdog = options_.absint_watchdog;
    ro.exec = options_.exec;
    if (options_.fault != nullptr) ro.fault = options_.fault;
    ++report.analysis_runs;
    prore::Result<std::unique_ptr<ProgramAnalysis>> built =
        prore::Status::Internal("analysis did not run");
    try {
      built = ProgramAnalysis::Build(store_, *working, ro);
    } catch (const std::exception& e) {
      built = prore::Status::Internal(
          prore::StrFormat("uncaught exception in analysis: %s", e.what()));
    }
    if (!built.ok()) {
      // An absint watchdog trip is a stage failure, not a predicate's
      // fault: drop the stage (baseline estimates) and retry instead of
      // falling to identity.
      if (absint_enabled &&
          built.status().code() == prore::StatusCode::kResourceExhausted &&
          built.status().error_term() == "resource_error(watchdog(absint))") {
        absint_enabled = false;
        report.absint_disabled = true;
        report.absint_trigger = built.status().ToString();
        continue;
      }
      // Unattributable (a mode-inference watchdog trip, a cancel, an
      // expired deadline): the only safe landing is the identity program.
      return identity_fallback(built.status().ToString());
    }
    ProgramAnalysis& pa = **built;
    const analysis::DependencyGroups& dg = pa.groups();

    std::vector<uint64_t> facts, keys;
    if (cache != nullptr) {
      facts.resize(dg.size());
      keys.resize(dg.size());
      for (size_t g = 0; g < dg.size(); ++g) {
        facts[g] = pa.FactsFingerprint(g);
        keys[g] = GroupKey(hashes.group_hash[g], facts[g], dg.deps[g], keys);
      }
    }

    // ---- Stage 3: the groups, wave by wave ----------------------------
    // A group stopped by stop_on_degrade keeps an empty output and ships
    // its original clauses.
    std::vector<GroupOutput> outs(dg.size());
    // Clean: every member settled at kFull on its first attempt, and so
    // did every callee group — only clean groups are cached.
    std::vector<bool> clean(dg.size(), false);
    bool restart = false;
    bool stopped = false;  // stop_on_degrade fired

    auto group_is_clean = [&](size_t g) {
      for (const PredId& p : pa.members(g)) {
        if (levels[p] != LadderLevel::kFull || attempts[p] != 1) return false;
      }
      for (size_t d : dg.deps[g]) {
        if (!clean[d]) return false;
      }
      return !report.unfold_disabled && !report.factor_disabled &&
             !report.absint_disabled;
    };
    auto group_degraded = [&](size_t g) {
      for (const PredId& p : pa.members(g)) {
        if (levels[p] != LadderLevel::kFull) return true;
      }
      return false;
    };
    auto settle = [&](size_t g, GroupOutput out) {
      outs[g] = std::move(out);
      clean[g] = group_is_clean(g);
      if (options_.stop_on_degrade && group_degraded(g)) stopped = true;
    };

    // Planning reads shared state only: the groups of a wave plan on the
    // pool. jobs <= 1 runs them inline, in the same order.
    prore::ThreadPool pool(options_.jobs <= 1 ? 0 : options_.jobs);
    for (const std::vector<size_t>& wave : pa.waves()) {
      std::vector<size_t> pending;
      for (size_t g : wave) {
        if (stopped) {
          // --strict already failed: the rest ships verbatim.
          for (const PredId& p : pa.members(g)) {
            levels[p] = LadderLevel::kIdentity;
          }
          continue;
        }
        if (cache != nullptr) {
          GroupOutput out;
          bool hit = false;
          if (auto early = adopted_early.extract(keys[g]); !early.empty()) {
            out = std::move(early.mapped());
            hit = true;
          } else {
            hit = adopt(keys[g], pa.members(g), pa.published_versions(),
                        &out);
          }
          if (hit) {
            ++cache_hits;
            pa.Publish(out.table, out.reports);
            settle(g, std::move(out));
            continue;
          }
          ++cache_misses;
        }
        pending.push_back(g);
      }

      for (size_t round = 0; !pending.empty(); ++round) {
        if (round > 0 && !next_pass()) return budget_exhausted();
        if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
          return identity_fallback(ctx.ToString());
        }
        // One attempt per pending group, at the members' current rungs.
        struct Attempt {
          std::unique_ptr<GroupTransform> transform;
          prore::Status plan;
          PredId blamed{};
          bool have_blame = false;
        };
        std::vector<Attempt> attempts_of(pending.size());
        auto user_cb = options_.reorder.on_pred_error;
        for (size_t i = 0; i < pending.size(); ++i) {
          Attempt& at = attempts_of[i];
          ReorderOptions gro = ro;
          for (const PredId& p : pa.members(pending[i])) {
            if (levels[p] == LadderLevel::kClauseOrderOnly) {
              gro.clause_order_only.insert(p);
            }
            if (levels[p] == LadderLevel::kIdentity) {
              gro.identity_preds.insert(p);
            }
          }
          gro.on_pred_error = [&at, user_cb](const PredId& p,
                                             const prore::Status& st) {
            at.blamed = p;
            at.have_blame = true;
            if (user_cb) user_cb(p, st);
          };
          at.transform =
              std::make_unique<GroupTransform>(&pa, pending[i], gro);
        }
        for (Attempt& at : attempts_of) {
          pool.Submit([&at] {
            try {
              at.plan = at.transform->Plan();
            } catch (const std::exception& e) {
              at.plan = prore::Status::Internal(prore::StrFormat(
                  "uncaught exception in pipeline group: %s", e.what()));
            }
          });
        }
        pool.Wait();

        // Emission, validation and the ladder: serial, in group order.
        std::vector<size_t> again;
        for (size_t i = 0; i < pending.size(); ++i) {
          const size_t g = pending[i];
          Attempt& at = attempts_of[i];
          prore::Result<GroupOutput> out = at.plan;
          if (at.plan.ok()) {
            try {
              out = at.transform->Emit();
            } catch (const std::exception& e) {
              out = prore::Status::Internal(prore::StrFormat(
                  "uncaught exception in pipeline group: %s", e.what()));
            }
          }
          if (!out.ok()) {
            const prore::Status& st = out.status();
            const prore::FaultClass fc = prore::ClassifyFaultStatus(st);
            // Cancellation and an expired global deadline are not
            // predicate faults — retrying or demoting cannot outrun them.
            if (fc == prore::FaultClass::kCancelled ||
                st.error_term() == "resource_error(deadline_exceeded)") {
              return identity_fallback(st.ToString());
            }
            if (!at.have_blame || levels.count(at.blamed) == 0) {
              // Unattributable, or an identity build failed (which must
              // not happen): the only safe landing is identity.
              return identity_fallback(st.ToString());
            }
            const PredId blamed = at.blamed;
            fault_classes[blamed] = fc;
            // Transient faults (watchdog trips, OOM) get one retry with
            // backoff at the same ladder rung before demotion: the failure
            // may have been scheduling noise or a contended sibling group.
            if (fc == prore::FaultClass::kTransient &&
                options_.retry.enabled() &&
                retries_used[blamed] < options_.retry.max_retries() &&
                levels[blamed] != LadderLevel::kIdentity) {
              ++retries_used[blamed];
              ++attempts[blamed];
              triggers[blamed].push_back("retry (transient): " +
                                         st.ToString());
              if (!prore::BackoffSleep(options_.retry.ToBackoff(),
                                       retries_used[blamed], options_.exec)
                       .ok()) {
                return identity_fallback(options_.exec.Check().ToString());
              }
              again.push_back(g);
              continue;
            }
            if (!demote(blamed, st.ToString(), &restart)) {
              return identity_fallback(st.ToString());
            }
            again.push_back(g);
            continue;
          }

          // Validator findings as quarantine triggers. Version names map
          // back to their predicates, so a finding against aunt_iu/2
          // demotes aunt/2.
          std::unordered_map<std::string, PredId> owner;
          for (const PredModeReport& r : out->reports) {
            owner.emplace(
                prore::StrFormat("%s/%u", r.version_name.c_str(),
                                 r.pred.arity),
                r.pred);
            owner.emplace(reader::PredName(*store_, r.pred), r.pred);
          }
          bool demoted_any = false;
          for (const lint::Diagnostic& d : out->findings) {
            if (d.severity != lint::Severity::kError) continue;
            auto it = owner.find(d.pred);
            std::string why = d.code + ": " + d.message;
            // Validator findings reproduce on identical input:
            // deterministic, never retried.
            if (it != owner.end()) {
              fault_classes[it->second] = prore::FaultClass::kDeterministic;
            }
            if (it == owner.end() || levels.count(it->second) == 0 ||
                !demote(it->second, why, &restart)) {
              // No predicate to blame (or it is already at identity,
              // which self-validates — a contradiction): identity for
              // everything.
              return identity_fallback(why);
            }
            demoted_any = true;
          }
          if (demoted_any) {
            again.push_back(g);
            continue;
          }

          at.transform->Publish(*out);
          settle(g, std::move(*out));
          if (cache != nullptr && clean[g]) {
            cache->Insert(keys[g], MakeCacheEntry(*store_, outs[g]));
          }
        }
        // A kNoUnfold demotion changes the pre-pass output: start over.
        if (restart) break;
        pending = std::move(again);
      }
      if (restart) break;
    }
    if (restart) continue;

    // ---- Success ------------------------------------------------------
    if (cache != nullptr) cache->InsertProgram(program_key, facts);
    PipelineResult result;
    std::vector<const GroupOutput*> views;
    for (const GroupOutput& out : outs) {
      views.push_back(out.clauses.empty() ? nullptr : &out);
    }
    result.program = AssembleGroups(*store_, *working, views);
    result.diagnostics = MergeGroupDiagnostics(*store_, *working, views);
    for (const GroupOutput& out : outs) {
      result.reports.insert(result.reports.end(), out.reports.begin(),
                            out.reports.end());
    }
    result.absint_report = pa.AbsintReport();
    fill_pred_outcomes(&result.reports);
    finish(&result);
    return result;
  }
}

}  // namespace prore::core
