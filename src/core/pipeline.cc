#include "core/pipeline.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "analysis/content_hash.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/restrictions.h"
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

namespace {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += prore::StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

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
  AppendJsonString(&out, global_trigger);
  out += prore::StrFormat(",\"unfold_disabled\":%s",
                          unfold_disabled ? "true" : "false");
  out += ",\"unfold_trigger\":";
  AppendJsonString(&out, unfold_trigger);
  out += prore::StrFormat(",\"factor_disabled\":%s",
                          factor_disabled ? "true" : "false");
  out += ",\"factor_trigger\":";
  AppendJsonString(&out, factor_trigger);
  out += prore::StrFormat(",\"absint_disabled\":%s",
                          absint_disabled ? "true" : "false");
  out += ",\"absint_trigger\":";
  AppendJsonString(&out, absint_trigger);
  out += ",\"preds\":[";
  for (size_t i = 0; i < preds.size(); ++i) {
    const PredOutcome& p = preds[i];
    if (i) out += ",";
    out += "{\"pred\":";
    AppendJsonString(&out, p.name);
    out += ",\"level\":";
    AppendJsonString(&out, LadderLevelName(p.level));
    out += prore::StrFormat(
        ",\"attempts\":%d,\"retries\":%d,\"fault_class\":", p.attempts,
        p.retries);
    AppendJsonString(&out, p.fault_class);
    out += prore::StrFormat(
        ",\"clauses_changed\":%s,\"goals_changed\":%s",
        p.clauses_changed ? "true" : "false",
        p.goals_changed ? "true" : "false");
    out += ",\"triggers\":[";
    for (size_t j = 0; j < p.triggers.size(); ++j) {
      if (j) out += ",";
      AppendJsonString(&out, p.triggers[j]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

bool GuardedPipeline::TryAdoptCachedGroup(
    const GroupCacheEntry& entry, const std::vector<PredId>& members,
    const reader::Program& original, reader::Program* out_frag) {
  auto frag = reader::ParseProgramText(store_, entry.program_text);
  if (!frag.ok()) return false;

  // Self-verification on every hit: hold the cached output to the same
  // structural standard the reorderer used when producing it. The original
  // side is just the owned members' clauses (the cone was pinned identity
  // and is emitted by its own groups). Mode/oracle checks need the
  // producing run's analyses and are skipped; PL101 (clause preservation),
  // PL102 (dispatcher shape) and PL103 (coverage) catch any torn,
  // truncated, or cross-wired entry.
  reader::Program orig_sub;
  for (const PredId& p : members) {
    for (const reader::Clause& c : original.ClausesOf(p)) {
      orig_sub.AddClause(*store_, c);
    }
  }
  lint::ReorderCheckInput check;
  check.original = &orig_sub;
  check.transformed = &*frag;
  for (const GroupCacheEntry::Report& r : entry.reports) {
    auto mode = analysis::ModeFromString(r.mode);
    if (!mode.ok()) return false;
    check.versions.push_back(lint::VersionInfo{
        PredId{store_->symbols().Intern(r.pred_name), r.arity},
        std::move(*mode), r.version_name});
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
  *out_frag = std::move(*frag);
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
  // A cache implies the sharded (group-decomposed) path: the classic
  // whole-program pipeline prices callers against their already-reordered
  // callees, which per-group cache entries cannot reproduce.
  return (options_.jobs == 0 && options_.cache == nullptr)
             ? RunWhole(original)
             : RunSharded(original);
}

prore::Result<PipelineResult> GuardedPipeline::RunWhole(
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
    const bool pinned = options_.pinned_identity != nullptr &&
                        options_.pinned_identity->count(p) > 0;
    levels[p] = pinned ? LadderLevel::kIdentity : LadderLevel::kFull;
    attempts[p] = 1;
  }

  bool unfold_enabled = options_.unfold;
  bool factor_enabled = options_.factor;
  bool absint_enabled = options_.reorder.absint;
  PipelineReport report;

  // One rung per predicate per run, plus stage disables and one transient
  // retry per predicate, bounds the loop; the cap is slack on top of
  // that, never the expected exit path.
  const size_t max_runs =
      options_.max_runs != 0 ? options_.max_runs : 4 * preds.size() + 8;

  // Demotes one rung; false if already at the bottom.
  auto demote = [&](const PredId& pred, const std::string& why) -> bool {
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

  auto identity_fallback = [&](const std::string& why)
      -> prore::Result<PipelineResult> {
    report.global_trigger = why;
    for (const PredId& p : preds) levels[p] = LadderLevel::kIdentity;
    fill_pred_outcomes(nullptr);
    PipelineResult result;
    result.program = CopyProgram(original);
    result.report = std::move(report);
    return result;
  };

  for (size_t run = 1; run <= max_runs; ++run) {
    report.runs = static_cast<int>(run);

    // A cancelled or past-deadline context stops starting new attempts;
    // what has been decided so far is discarded in favor of the always-
    // correct identity program, with the reason on record.
    if (prore::Status ctx = options_.exec.Check(); !ctx.ok()) {
      return identity_fallback(ctx.ToString());
    }

    analysis::PredSet no_unfold;
    analysis::PredSet clause_only;
    analysis::PredSet identity;
    for (const auto& [pred, level] : levels) {
      if (level >= LadderLevel::kNoUnfold) no_unfold.insert(pred);
      if (level == LadderLevel::kClauseOrderOnly) clause_only.insert(pred);
      if (level == LadderLevel::kIdentity) identity.insert(pred);
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

    // ---- Stage 2: the reorderer under its fault boundary -------------
    ReorderOptions ro = options_.reorder;
    ro.clause_order_only = clause_only;
    ro.identity_preds = identity;
    ro.cost_watchdog = options_.cost_watchdog;
    ro.inference.watchdog = options_.inference_watchdog;
    ro.absint = absint_enabled;
    ro.absint_watchdog = options_.absint_watchdog;
    ro.exec = options_.exec;
    if (options_.fault != nullptr) ro.fault = options_.fault;
    PredId blamed{};
    bool have_blame = false;
    auto user_cb = options_.reorder.on_pred_error;
    ro.on_pred_error = [&](const PredId& p, const prore::Status& st) {
      blamed = p;
      have_blame = true;
      if (user_cb) user_cb(p, st);
    };

    prore::Result<ReorderResult> rr = ReorderResult{};
    try {
      rr = Reorderer(store_, ro).Run(*working);
    } catch (const std::exception& e) {
      rr = prore::Status::Internal(
          prore::StrFormat("uncaught exception in reorderer: %s", e.what()));
    }

    if (!rr.ok()) {
      // An absint watchdog trip is a stage failure, not a predicate's
      // fault: drop the stage (baseline estimates) and retry instead of
      // descending the ladder or falling to identity.
      if (absint_enabled &&
          rr.status().code() == prore::StatusCode::kResourceExhausted &&
          rr.status().error_term() == "resource_error(watchdog(absint))") {
        absint_enabled = false;
        report.absint_disabled = true;
        report.absint_trigger = rr.status().ToString();
        continue;
      }
      const prore::FaultClass fc =
          prore::ClassifyFaultStatus(rr.status());
      // Cancellation and an expired global deadline are not predicate
      // faults — retrying or demoting cannot outrun them. Land on the
      // identity program immediately.
      if (fc == prore::FaultClass::kCancelled ||
          rr.status().error_term() == "resource_error(deadline_exceeded)") {
        return identity_fallback(rr.status().ToString());
      }
      if (have_blame && levels.count(blamed) > 0) {
        fault_classes[blamed] = fc;
        // Transient faults (watchdog trips, OOM) get one retry with
        // backoff at the same ladder rung before demotion: the failure
        // may have been scheduling noise or a contended sibling shard.
        if (fc == prore::FaultClass::kTransient && options_.retry.enabled() &&
            retries_used[blamed] < options_.retry.max_retries() &&
            levels[blamed] != LadderLevel::kIdentity) {
          ++retries_used[blamed];
          ++attempts[blamed];
          triggers[blamed].push_back("retry (transient): " +
                                     rr.status().ToString());
          if (!prore::BackoffSleep(options_.retry.ToBackoff(),
                                   retries_used[blamed], options_.exec)
                   .ok()) {
            return identity_fallback(options_.exec.Check().ToString());
          }
          continue;
        }
        if (demote(blamed, rr.status().ToString())) continue;
      }
      // Unattributable (setup/analysis failure, e.g. a mode-inference
      // watchdog trip) or an identity build failed (which must not
      // happen): the only safe landing is the identity program.
      return identity_fallback(rr.status().ToString());
    }

    // ---- Stage 3: validator diagnostics as quarantine triggers -------
    // Map version names back to original predicates so a finding against
    // aunt_iu/2 demotes aunt/2.
    std::unordered_map<std::string, PredId> owner;
    for (const PredModeReport& r : rr->reports) {
      owner.emplace(
          prore::StrFormat("%s/%u", r.version_name.c_str(), r.pred.arity),
          r.pred);
      owner.emplace(reader::PredName(*store_, r.pred), r.pred);
    }
    bool demoted_any = false;
    for (const lint::Diagnostic& d : rr->diagnostics) {
      if (d.severity != lint::Severity::kError) continue;
      auto it = owner.find(d.pred);
      std::string why = d.code + ": " + d.message;
      // Validator findings reproduce on identical input: deterministic,
      // never retried.
      if (it != owner.end()) {
        fault_classes[it->second] = prore::FaultClass::kDeterministic;
      }
      if (it == owner.end() || levels.count(it->second) == 0 ||
          !demote(it->second, why)) {
        // No predicate to blame (or it is already at identity, which
        // self-validates — a contradiction): identity for everything.
        return identity_fallback(why);
      }
      demoted_any = true;
    }
    if (demoted_any) continue;

    // ---- Success ------------------------------------------------------
    fill_pred_outcomes(&rr->reports);
    PipelineResult result;
    result.program = std::move(rr->program);
    result.reports = std::move(rr->reports);
    result.diagnostics = std::move(rr->diagnostics);
    result.absint_report = std::move(rr->absint_report);
    result.report = std::move(report);
    return result;
  }

  return identity_fallback(
      prore::StrFormat("attempt budget exhausted after %zu runs",
                       max_runs));
}

prore::Result<PipelineResult> GuardedPipeline::RunSharded(
    const reader::Program& original) {
  // Condensation and the caller->callee restriction analysis run once, on
  // the calling thread, over the whole program. If either fails, the
  // whole-program path's fault machinery produces the right fallback.
  auto graph = analysis::CallGraph::Build(*store_, original);
  if (!graph.ok()) return RunWhole(original);
  auto frozen_or = FrozenDescendants(*store_, original, *graph);
  if (!frozen_or.ok()) return RunWhole(original);
  // The whole-program sets every group reads: built once, shared read-only.
  const auto frozen =
      std::make_shared<const analysis::PredSet>(std::move(*frozen_or));
  const analysis::DependencyGroups dg =
      analysis::ComputeDependencyGroups(*graph);
  if (dg.size() <= 1) return RunWhole(original);

  const std::vector<PredId>& preds = original.pred_order();
  const auto all_preds =
      std::make_shared<const analysis::PredSet>(preds.begin(), preds.end());
  std::unordered_map<PredId, size_t, term::PredIdHash> source_pos;
  for (size_t i = 0; i < preds.size(); ++i) source_pos.emplace(preds[i], i);
  auto sort_by_source = [&source_pos](std::vector<PredId>* ps) {
    std::sort(ps->begin(), ps->end(), [&](const PredId& a, const PredId& b) {
      return source_pos.at(a) < source_pos.at(b);
    });
  };
  // "name/arity" -> owning group, to route merged diagnostics.
  std::unordered_map<std::string, size_t> owner_group;
  for (const PredId& p : preds) {
    owner_group.emplace(reader::PredName(*store_, p), dg.group_of.at(p));
  }

  struct GroupRun {
    term::TermStore store;  ///< private arena; symbols adopted from main
    /// Non-ok until the task actually runs: a task dropped by
    /// cancellation (or lost to a worker exception) must land its group
    /// on the identity merge path, not silently contribute an empty
    /// program.
    prore::Result<PipelineResult> result =
        prore::Status::Cancelled("group task never ran");
    analysis::PredSet members;
    size_t min_pos = 0;  ///< earliest source position of a member
  };
  std::vector<GroupRun> runs(dg.size());
  for (size_t gi = 0; gi < dg.size(); ++gi) {
    GroupRun& gr = runs[gi];
    gr.members.insert(dg.groups[gi].begin(), dg.groups[gi].end());
    gr.min_pos = preds.size();
    for (const PredId& p : dg.groups[gi]) {
      gr.min_pos = std::min(gr.min_pos, source_pos.at(p));
    }
  }

  // ---- Cache lookup --------------------------------------------------
  // Runs before any worker starts: adopting a hit parses its rendered
  // clauses into the main store, which is single-threaded. A hit that
  // fails the PL100-PL103 re-validation is invalidated and recomputed —
  // corruption costs a recompute, never correctness.
  analysis::ContentHashes hashes;
  std::vector<std::shared_ptr<const GroupCacheEntry>> hits(dg.size());
  std::vector<reader::Program> hit_programs(dg.size());
  size_t cache_hits = 0, cache_misses = 0, cache_rejected = 0;
  if (options_.cache != nullptr) {
    hashes = analysis::ComputeContentHashes(*store_, original, dg,
                                            frozen.get(), options_.cache_salt);
    for (size_t gi = 0; gi < dg.size(); ++gi) {
      auto entry = options_.cache->Lookup(hashes.group_hash[gi]);
      if (entry == nullptr) {
        ++cache_misses;
        continue;
      }
      if (TryAdoptCachedGroup(*entry, dg.groups[gi], original,
                              &hit_programs[gi])) {
        hits[gi] = std::move(entry);
        ++cache_hits;
      } else {
        options_.cache->Invalidate(hashes.group_hash[gi]);
        ++cache_rejected;
        ++cache_misses;
      }
    }
  }

  std::string out_of_band_failure;

  // Sibling-shard interruption: every group task runs under a child
  // cancellation scope of the pipeline's own context, so (a) a caller's
  // cancel propagates into every in-flight group's analyses, and (b)
  // stop_on_degrade can cancel the siblings from inside a task the
  // moment one group degrades (prore --strict: the exit code is already
  // decided, finishing the other shards buys nothing).
  prore::CancellationSource group_cancel(options_.exec.token);
  const prore::ExecContext group_exec =
      options_.exec.WithToken(group_cancel.token());

  // One task per group. Each task owns a private TermStore whose symbol
  // table is a copy of the main one (so PredIds carry over), copies its
  // dependency cone in, and runs the complete whole-program pipeline over
  // that subprogram with the cone pinned to identity. Groups share nothing
  // mutable: watchdog deadlines, fault boundaries and the degradation
  // ladder all live inside the task.
  auto run_group = [&](size_t gi) {
    GroupRun& gr = runs[gi];
    if (group_cancel.Cancelled()) return;  // keep the never-ran status
    try {
      gr.store.AdoptSymbols(*store_);
      analysis::PredSet cone;
      for (size_t d : dg.TransitiveDeps(gi)) {
        cone.insert(dg.groups[d].begin(), dg.groups[d].end());
      }
      // The subprogram is the members plus the cone, in source order.
      std::vector<PredId> sub_preds(dg.groups[gi].begin(),
                                    dg.groups[gi].end());
      sub_preds.insert(sub_preds.end(), cone.begin(), cone.end());
      sort_by_source(&sub_preds);
      reader::Program sub;
      for (const PredId& p : sub_preds) {
        for (const reader::Clause& c : original.ClausesOf(p)) {
          std::unordered_map<uint32_t, term::TermRef> vars;
          reader::Clause copy;
          copy.head = gr.store.CopyFrom(*store_, c.head, &vars);
          copy.body = gr.store.CopyFrom(*store_, c.body, &vars);
          sub.AddClause(gr.store, copy);
        }
      }
      // Declarations (legal modes etc.) may concern any predicate; copy
      // them all and let each group pick out what it needs.
      for (term::TermRef d : original.directives()) {
        sub.AddDirective(gr.store.CopyFrom(*store_, d));
      }

      PipelineOptions po = options_;
      po.jobs = 0;
      // The cache is a property of the sharded orchestration, not of the
      // per-group transform: an inner pipeline that inherited it would
      // route back into RunSharded and recurse without end.
      po.cache = nullptr;
      po.pinned_identity =
          std::make_shared<const analysis::PredSet>(std::move(cone));
      po.exec = group_exec;
      // Cut-freezing flows caller -> callee, so a subprogram cannot see
      // that an outside caller guards a member with a cut; inject the
      // whole-program answer. Version names must be free program-wide.
      po.reorder.extra_frozen = frozen;
      po.reorder.reserved_preds = all_preds;
      gr.result = GuardedPipeline(&gr.store, std::move(po)).Run(sub);
      if (options_.stop_on_degrade && gr.result.ok() &&
          gr.result->report.degraded()) {
        group_cancel.RequestCancel(prore::StrFormat(
            "sibling group %zu degraded under stop_on_degrade", gi));
      }
    } catch (const std::exception& e) {
      gr.result = prore::Status::Internal(prore::StrFormat(
          "uncaught exception in pipeline group: %s", e.what()));
    }
  };

  // jobs == 1 uses the inline pool: same code path, same task order, no
  // threads — which is what makes --jobs=N bit-identical to --jobs=1.
  // The pool shares the group cancellation scope: once it fires, queued
  // group tasks are dropped without starting (their groups merge as
  // identity via the never-ran status).
  {
    prore::ThreadPool pool(options_.jobs <= 1 ? 0 : options_.jobs,
                           group_cancel.token());
    for (size_t gi = 0; gi < dg.size(); ++gi) {
      if (hits[gi] != nullptr) continue;  // replayed from cache at merge
      pool.Submit([&run_group, gi] { run_group(gi); });
    }
    try {
      pool.Wait();
    } catch (const std::exception& e) {
      // A non-std exception escaped run_group's own boundary. The groups
      // it killed keep their never-ran status and merge as identity;
      // record the first cause globally.
      out_of_band_failure = prore::StrFormat(
          "pipeline worker exception: %s", e.what());
    } catch (...) {
      out_of_band_failure = "pipeline worker exception (non-std)";
    }
  }

  // Deterministic merge: groups ordered by their earliest member's source
  // position (completion order plays no part), each contributing only the
  // predicates it owns — the pinned cone copies are dropped, and calls into
  // them route to the owning group's own output under the original names.
  std::vector<size_t> order(dg.size());
  for (size_t gi = 0; gi < dg.size(); ++gi) order[gi] = gi;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].min_pos < runs[b].min_pos;
  });

  PipelineResult out;
  PipelineReport& rep = out.report;
  std::unordered_map<PredId, PredOutcome, term::PredIdHash> outcomes;

  auto owned_by = [&](const PredId& p, size_t gi) {
    auto it = dg.group_of.find(p);
    return it == dg.group_of.end() || it->second == gi;
  };

  for (size_t gi : order) {
    GroupRun& gr = runs[gi];
    if (hits[gi] != nullptr) {
      // Replay the validated cache entry. Its clauses were parsed into the
      // main store during adoption, so they splice in directly; everything
      // else is rebuilt from the entry's name/arity serialization. The
      // writer/parser round-trip is a fixed point for parsed variable
      // names, so this merge renders bit-identical to the cold run that
      // produced the entry.
      const GroupCacheEntry& e = *hits[gi];
      rep.runs = std::max(rep.runs, e.runs);
      for (const PredId& p : hit_programs[gi].pred_order()) {
        for (const reader::Clause& c : hit_programs[gi].ClausesOf(p)) {
          out.program.AddClause(*store_, c);
        }
      }
      for (const GroupCacheEntry::Report& r : e.reports) {
        PredModeReport pmr;
        pmr.pred = PredId{store_->symbols().Intern(r.pred_name), r.arity};
        pmr.mode = std::move(analysis::ModeFromString(r.mode)).value();
        pmr.version_name = r.version_name;
        pmr.clauses_changed = r.clauses_changed;
        pmr.goals_changed = r.goals_changed;
        pmr.predicted_original_cost = r.predicted_original_cost;
        pmr.predicted_new_cost = r.predicted_new_cost;
        out.reports.push_back(std::move(pmr));
      }
      for (const lint::Diagnostic& d : e.diagnostics) {
        out.diagnostics.push_back(d);
      }
      if (!e.absint_report.empty()) {
        out.absint_report +=
            prore::StrFormat("== group %zu ==\n", gi) + e.absint_report;
      }
      for (const GroupCacheEntry::Outcome& oe : e.outcomes) {
        PredOutcome o;
        o.pred = PredId{store_->symbols().Intern(oe.pred_name), oe.arity};
        o.name = prore::StrFormat("%s/%u", oe.pred_name.c_str(), oe.arity);
        o.level = static_cast<LadderLevel>(oe.level);
        o.attempts = oe.attempts;
        o.retries = oe.retries;
        o.fault_class = oe.fault_class;
        o.triggers = oe.triggers;
        o.clauses_changed = oe.clauses_changed;
        o.goals_changed = oe.goals_changed;
        outcomes.emplace(o.pred, std::move(o));
      }
      continue;
    }
    if (!gr.result.ok()) {
      // The inner pipeline only errors on malformed input, which a
      // well-formed subprogram rules out — but if it happens, land the
      // group on identity so the merged program stays complete.
      std::string why = gr.result.status().ToString();
      std::vector<PredId> members(dg.groups[gi].begin(), dg.groups[gi].end());
      sort_by_source(&members);
      for (const PredId& p : members) {
        for (const reader::Clause& c : original.ClausesOf(p)) {
          out.program.AddClause(*store_, c);
        }
        PredOutcome o;
        o.pred = p;
        o.name = reader::PredName(*store_, p);
        o.level = LadderLevel::kIdentity;
        o.attempts = 1;
        o.triggers.push_back(why);
        outcomes.emplace(p, std::move(o));
      }
      if (rep.global_trigger.empty()) {
        rep.global_trigger = prore::StrFormat("group %zu: %s", gi,
                                              why.c_str());
      }
      continue;
    }

    PipelineResult& pr = *gr.result;
    rep.runs = std::max(rep.runs, pr.report.runs);
    if (pr.report.unfold_disabled && !rep.unfold_disabled) {
      rep.unfold_disabled = true;
      rep.unfold_trigger = pr.report.unfold_trigger;
    }
    if (pr.report.factor_disabled && !rep.factor_disabled) {
      rep.factor_disabled = true;
      rep.factor_trigger = pr.report.factor_trigger;
    }
    if (pr.report.absint_disabled && !rep.absint_disabled) {
      rep.absint_disabled = true;
      rep.absint_trigger = pr.report.absint_trigger;
    }
    if (!pr.report.global_trigger.empty() && rep.global_trigger.empty()) {
      rep.global_trigger = prore::StrFormat(
          "group %zu: %s", gi, pr.report.global_trigger.c_str());
    }

    // Only clean groups are worth caching: every owned member must have
    // settled at kFull with no stage disables and no global fallback. The
    // pinned cone members sit at kIdentity by design; they are emitted by
    // their own groups and don't count against this group's cleanliness.
    bool cacheable = options_.cache != nullptr && !pr.report.unfold_disabled &&
                     !pr.report.factor_disabled &&
                     !pr.report.absint_disabled &&
                     pr.report.global_trigger.empty();
    if (cacheable) {
      for (const PredOutcome& o : pr.report.preds) {
        if (gr.members.count(o.pred) > 0 && o.level != LadderLevel::kFull) {
          cacheable = false;
          break;
        }
      }
    }
    GroupCacheEntry entry;

    for (const PredId& p : pr.program.pred_order()) {
      if (!owned_by(p, gi)) continue;  // pinned cone copy — owner emits it
      for (const reader::Clause& c : pr.program.ClausesOf(p)) {
        std::unordered_map<uint32_t, term::TermRef> vars;
        reader::Clause copy;
        copy.head = store_->CopyFrom(gr.store, c.head, &vars);
        copy.body = store_->CopyFrom(gr.store, c.body, &vars);
        out.program.AddClause(*store_, copy);
        if (cacheable) {
          // Rendered from the MAIN-store copy, after the same CopyFrom the
          // cold merge output went through — so replaying the entry
          // reproduces the cold run's text exactly.
          entry.program_text += reader::WriteClause(*store_, copy);
          entry.program_text += '\n';
        }
      }
    }
    for (const PredModeReport& r : pr.reports) {
      if (!owned_by(r.pred, gi)) continue;
      out.reports.push_back(r);
      if (cacheable) {
        GroupCacheEntry::Report cr;
        cr.pred_name = store_->symbols().Name(r.pred.name);
        cr.arity = r.pred.arity;
        cr.mode = analysis::ModeString(r.mode);
        cr.version_name = r.version_name;
        cr.clauses_changed = r.clauses_changed;
        cr.goals_changed = r.goals_changed;
        cr.predicted_original_cost = r.predicted_original_cost;
        cr.predicted_new_cost = r.predicted_new_cost;
        entry.reports.push_back(std::move(cr));
      }
    }
    for (const lint::Diagnostic& d : pr.diagnostics) {
      auto it = owner_group.find(d.pred);
      if (it != owner_group.end() && it->second != gi) continue;
      out.diagnostics.push_back(d);
      if (cacheable) entry.diagnostics.push_back(d);
    }
    if (!pr.absint_report.empty()) {
      out.absint_report +=
          prore::StrFormat("== group %zu ==\n", gi) + pr.absint_report;
      if (cacheable) entry.absint_report = pr.absint_report;
    }
    for (const PredOutcome& o : pr.report.preds) {
      if (dg.group_of.count(o.pred) > 0 && dg.group_of.at(o.pred) == gi) {
        outcomes.emplace(o.pred, o);
        if (cacheable) {
          GroupCacheEntry::Outcome oe;
          oe.pred_name = store_->symbols().Name(o.pred.name);
          oe.arity = o.pred.arity;
          oe.level = static_cast<int>(o.level);
          oe.attempts = o.attempts;
          oe.retries = o.retries;
          oe.fault_class = o.fault_class;
          oe.triggers = o.triggers;
          oe.clauses_changed = o.clauses_changed;
          oe.goals_changed = o.goals_changed;
          entry.outcomes.push_back(std::move(oe));
        }
      }
    }
    if (cacheable) {
      entry.runs = pr.report.runs;
      options_.cache->Insert(hashes.group_hash[gi], std::move(entry));
    }
  }

  if (!out_of_band_failure.empty() && rep.global_trigger.empty()) {
    rep.global_trigger = out_of_band_failure;
  }
  rep.cache_hits = cache_hits;
  rep.cache_misses = cache_misses;
  rep.cache_rejected = cache_rejected;
  for (term::TermRef d : original.directives()) out.program.AddDirective(d);
  for (const PredId& p : preds) {
    auto it = outcomes.find(p);
    if (it != outcomes.end()) {
      rep.preds.push_back(std::move(it->second));
    } else {
      PredOutcome o;  // defensive: a group somehow skipped this predicate
      o.pred = p;
      o.name = reader::PredName(*store_, p);
      rep.preds.push_back(std::move(o));
    }
  }
  return out;
}

}  // namespace prore::core
