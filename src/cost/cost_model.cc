#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "engine/builtins.h"

namespace prore::cost {

using analysis::AbstractEnv;
using analysis::BodyKind;
using analysis::BodyNode;
using analysis::Mode;
using analysis::ModeItem;
using term::PredId;
using term::Tag;
using term::TermRef;
using term::TermStore;

namespace {

constexpr double kMaxCost = 1e12;

double Clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }
double ClampCost(double c) {
  if (!std::isfinite(c)) return kMaxCost;
  return std::min(kMaxCost, std::max(0.0, c));
}

/// Flattens a body node into its top-level sequence.
std::vector<const BodyNode*> TopSequence(const BodyNode& node) {
  std::vector<const BodyNode*> out;
  if (node.kind == BodyKind::kConj) {
    for (const auto& child : node.children) out.push_back(child.get());
  } else {
    out.push_back(&node);
  }
  return out;
}

}  // namespace

double ExpectedSingleCallCost(const std::vector<double>& success_prob,
                              const std::vector<double>& cost) {
  double total = 0.0;
  double prefix_cost = 0.0;
  double all_fail = 1.0;
  for (size_t k = 0; k < success_prob.size(); ++k) {
    prefix_cost += cost[k];
    total += all_fail * success_prob[k] * prefix_cost;
    all_fail *= 1.0 - success_prob[k];
  }
  total += all_fail * prefix_cost;  // the all-fail path still paid everything
  return total;
}

CostModel::CostModel(const TermStore* store, const reader::Program* program,
                     const analysis::CallGraph* graph,
                     const analysis::Declarations* decls,
                     analysis::LegalityOracle* oracle)
    : store_(store),
      program_(program),
      graph_(graph),
      decls_(decls),
      oracle_(oracle) {}

std::string CostModel::Key(const PredId& id, const Mode& mode) const {
  return store_->symbols().Name(id.name) + "/" + std::to_string(id.arity) +
         ":" + analysis::ModeSuffix(mode);
}

void CostModel::SetOverride(const PredId& id, const Mode& mode,
                            const PredModeStats& stats) {
  PredModeStats s = stats;
  ClampWithDeterminism(id, mode, &s);
  memo_[Key(id, mode)] = MemoEntry{id, s};
}

void CostModel::ExportStats(
    const analysis::PredSet& preds,
    std::vector<std::pair<std::string, PredModeStats>>* out) const {
  const size_t first = out->size();
  for (const auto& [key, entry] : memo_) {
    if (preds.count(entry.pred) > 0) out->emplace_back(key, entry.stats);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void CostModel::ClampWithDeterminism(const PredId& id, const Mode& mode,
                                     PredModeStats* s) {
  if (determinism_ == nullptr || !program_->Has(id)) return;
  using analysis::absint::Det;
  switch (determinism_->DetFor(*store_, id, mode)) {
    case Det::kFailure:
      s->success_prob = 0.0;
      s->expected_solutions = 0.0;
      break;
    case Det::kDet:
    case Det::kSemidet:
      // At most one solution: exhausting the predicate costs no more than
      // finding the first answer plus the (already-counted) retry that
      // fails, so cost_all never exceeds the sum estimate either way — we
      // only pull down the solution count, which is what the chain uses
      // to size backtracking fan-out.
      s->expected_solutions = std::min(s->expected_solutions, 1.0);
      break;
    case Det::kMulti:
    case Det::kNondet:
      break;
  }
}

const CostModel::Domains& CostModel::DomainsFor(const PredId& id) {
  auto it = domains_.find(id);
  if (it != domains_.end()) return it->second;
  Domains d;
  d.distinct.assign(id.arity, 0);
  d.any_var.assign(id.arity, false);
  std::vector<std::set<std::string>> keys(id.arity);
  for (const reader::Clause& clause : program_->ClausesOf(id)) {
    ++d.num_clauses;
    TermRef head = store_->Deref(clause.head);
    for (uint32_t i = 0; i < id.arity; ++i) {
      TermRef a = store_->Deref(store_->arg(head, i));
      switch (store_->tag(a)) {
        case Tag::kVar:
          d.any_var[i] = true;
          break;
        case Tag::kAtom:
          keys[i].insert("a:" + store_->symbols().Name(store_->symbol(a)));
          break;
        case Tag::kInt:
          keys[i].insert("i:" + std::to_string(store_->int_value(a)));
          break;
        case Tag::kFloat:
          keys[i].insert("f:" + std::to_string(store_->float_value(a)));
          break;
        case Tag::kStruct:
          keys[i].insert("s:" + store_->symbols().Name(store_->symbol(a)) +
                         "/" + std::to_string(store_->arity(a)));
          break;
      }
    }
  }
  for (uint32_t i = 0; i < id.arity; ++i) d.distinct[i] = keys[i].size();
  return domains_.emplace(id, std::move(d)).first->second;
}

double CostModel::HeadMatchProb(const PredId& id, TermRef head,
                                const Mode& call_mode) {
  const Domains& d = DomainsFor(id);
  head = store_->Deref(head);
  double prob = 1.0;
  for (uint32_t i = 0; i < id.arity && i < call_mode.size(); ++i) {
    if (call_mode[i] != ModeItem::kPlus) continue;  // free call arg: matches
    TermRef a = store_->Deref(store_->arg(head, i));
    if (store_->tag(a) == Tag::kVar) continue;  // variable head arg: matches
    size_t domain = std::max<size_t>(1, d.distinct[i]);
    prob *= 1.0 / static_cast<double>(domain);
  }
  return prob;
}

double CostModel::ExpectedMatches(const PredId& id, const Mode& mode) {
  const Domains& d = DomainsFor(id);
  double expected = static_cast<double>(d.num_clauses);
  for (uint32_t i = 0; i < id.arity && i < mode.size(); ++i) {
    if (mode[i] != ModeItem::kPlus) continue;
    if (d.any_var[i]) continue;  // some clause matches anything
    size_t domain = std::max<size_t>(1, d.distinct[i]);
    expected *= 1.0 / static_cast<double>(domain);
  }
  return expected;
}

PredModeStats CostModel::BuiltinStats(const std::string& name, uint32_t arity,
                                      const Mode& mode) {
  PredModeStats s;
  s.cost_single = 1.0;
  s.cost_all = 1.0;
  s.expected_solutions = 1.0;
  // Tests succeed about half the time; pure outputs always succeed.
  if (name == "=" && arity == 2) {
    bool free_side = std::any_of(mode.begin(), mode.end(), [](ModeItem m) {
      return m != ModeItem::kPlus;
    });
    s.success_prob = free_side ? 0.9 : 0.5;
  } else if (name == "is" && arity == 2) {
    s.success_prob = mode.empty() || mode[0] == ModeItem::kPlus ? 0.5 : 1.0;
  } else if (name == "write" || name == "print" || name == "writeln" ||
             name == "nl" || name == "tab" || name == "findall" ||
             name == "sort" || name == "msort" || name == "copy_term" ||
             name == "functor" || name == "arg" || name == "=..") {
    s.success_prob = 1.0;
  } else {
    s.success_prob = 0.5;  // comparison/type tests
  }
  // A built-in never has more than one solution; a test that fails half
  // the time contributes 0.5 expected solutions, not 1 (this keeps e.g.
  // three mutually-exclusive test clauses from looking like a 3-way
  // generator).
  s.expected_solutions = s.success_prob;
  return s;
}

const EmpiricalPredStats* CostModel::EmpiricalFor(const PredId& id) const {
  if (empirical_ == nullptr) return nullptr;
  auto it = empirical_->preds.find(id);
  return it == empirical_->preds.end() ? nullptr : &it->second;
}

PredModeStats CostModel::StatsFor(const PredId& id, const Mode& mode) {
  const std::string& name = store_->symbols().Name(id.name);
  if (!program_->Has(id)) {
    if (empirical_ != nullptr) {
      // Measured builtin/library success rates replace the hand-written
      // table. Mode-blind (the profile aggregates over call modes), so
      // the unit cost stays the table's.
      auto bit = empirical_->builtins.find(id);
      if (bit != empirical_->builtins.end() && bit->second.calls > 0) {
        PredModeStats s;
        s.success_prob = Clamp01(bit->second.success_prob);
        s.expected_solutions =
            std::max(0.0, bit->second.expected_solutions);
        s.cost_single = 1.0;
        s.cost_all = 1.0;
        return s;
      }
    }
    if (engine::LookupBuiltin(name, id.arity) != nullptr) {
      return BuiltinStats(name, id.arity, mode);
    }
    // Library predicate: a small generic guess (list predicates cost a few
    // calls per element; we have no list-length information).
    PredModeStats s;
    s.success_prob = 0.7;
    s.expected_solutions = 1.5;
    s.cost_single = 5.0;
    s.cost_all = 10.0;
    return s;
  }
  std::string key = Key(id, mode);
  if (auto it = memo_.find(key); it != memo_.end()) return it->second.stats;
  if (shared_) {
    if (const PredModeStats* s = shared_(key)) return *s;
  }

  // Declared stats take precedence (the paper's escape hatch for
  // recursion) — unless a recorded profile covers the predicate:
  // measurements beat assertions.
  auto pit = decls_->success_probs.find(id);
  auto cit = decls_->costs.find(id);
  if ((pit != decls_->success_probs.end() || cit != decls_->costs.end()) &&
      EmpiricalFor(id) == nullptr) {
    PredModeStats s;
    s.success_prob =
        pit != decls_->success_probs.end() ? Clamp01(pit->second) : 0.5;
    double c = cit != decls_->costs.end() ? cit->second : 2.0 * id.arity + 2.0;
    s.cost_single = ClampCost(c);
    s.cost_all = ClampCost(2.0 * c);
    s.expected_solutions = std::max(s.success_prob, 1.0 * s.success_prob);
    ClampWithDeterminism(id, mode, &s);
    memo_[key] = MemoEntry{id, s};
    return s;
  }

  if (in_progress_.count(key) > 0) {
    // Recursive hit: current approximation (defaults on first round).
    PredModeStats s;
    s.success_prob = 0.5;
    s.cost_single = 2.0 + id.arity;
    s.cost_all = 4.0 + 2.0 * id.arity;
    s.expected_solutions = 1.0;
    return s;
  }
  in_progress_.insert(key);
  PredModeStats stats = ComputePredStats(id, mode);
  if (graph_->IsRecursive(id)) {
    // A few refinement rounds so the recursive call sees an estimate that
    // came from the clauses rather than from thin air.
    for (int round = 0; round < 3; ++round) {
      memo_[key] = MemoEntry{id, stats};
      PredModeStats next = ComputePredStats(id, mode);
      bool close = std::fabs(next.cost_all - stats.cost_all) <
                       0.01 * (1.0 + stats.cost_all) &&
                   std::fabs(next.success_prob - stats.success_prob) < 0.01;
      stats = next;
      if (close) break;
    }
  }
  in_progress_.erase(key);
  ClampWithDeterminism(id, mode, &stats);
  memo_[key] = MemoEntry{id, stats};
  return stats;
}

PredModeStats CostModel::ComputePredStats(const PredId& id, const Mode& mode) {
  const std::vector<reader::Clause>& clauses = program_->ClausesOf(id);
  // A recorded profile contributes measured per-clause probabilities;
  // body *costs* stay model-derived (the profile records counts, not
  // costs), so the blend is: empirical "how often", static "how much".
  const EmpiricalPredStats* emp = EmpiricalFor(id);
  const bool emp_clauses =
      emp != nullptr && emp->clauses.size() == clauses.size();
  std::vector<double> clause_p, clause_cost_single;
  double fail_all = 1.0;
  double sols = 0.0;
  double cost_all = 1.0;  // the call itself
  for (size_t i = 0; i < clauses.size(); ++i) {
    const reader::Clause& clause = clauses[i];
    double match = HeadMatchProb(id, clause.head, mode);
    TermRef body = store_->Deref(clause.body);
    bool is_fact = store_->tag(body) == Tag::kAtom &&
                   store_->symbol(body) == term::SymbolTable::kTrue;
    double p_body = 1.0, body_cost_single = 0.0, body_cost_all = 0.0,
           body_sols = 1.0;
    if (!is_fact) {
      auto tree = analysis::ParseBody(*store_, body);
      if (tree.ok()) {
        AbstractEnv env =
            analysis::EnvFromHead(*store_, clause.head, mode);
        auto eval = EvaluateSequence(TopSequence(**tree), env);
        if (eval.ok()) {
          p_body = Clamp01(eval->chain.success_prob);
          body_cost_single = ClampCost(eval->chain.cost_single);
          body_cost_all = ClampCost(eval->chain.cost_all_solutions);
          body_sols = std::min(1e9, eval->chain.expected_solutions);
        }
      }
    }
    double p_clause = match * p_body;
    double sols_clause = match * body_sols;
    double body_weight = match;  // P(the body runs at all)
    if (emp_clauses && emp->clauses[i].tries > 0) {
      p_clause = emp->clauses[i].success_prob;
      sols_clause = emp->clauses[i].expected_solutions;
      body_weight = emp->clauses[i].match_prob;
    }
    clause_p.push_back(Clamp01(p_clause));
    clause_cost_single.push_back(ClampCost(body_weight * body_cost_single));
    fail_all *= 1.0 - Clamp01(p_clause);
    sols += sols_clause;
    cost_all += body_weight * body_cost_all;
  }
  PredModeStats s;
  s.success_prob = Clamp01(1.0 - fail_all);
  s.expected_solutions = sols;
  if (emp != nullptr && emp->calls > 0) {
    // Whole-predicate rates come straight from the ports (succ/call and
    // exit/call) rather than the independence-assuming clause product.
    s.success_prob = Clamp01(emp->success_prob);
    s.expected_solutions = std::max(0.0, emp->expected_solutions);
  }
  s.cost_single = ClampCost(1.0 + ExpectedSingleCallCost(clause_p,
                                                         clause_cost_single));
  s.cost_all = ClampCost(cost_all);
  return s;
}

PredModeStats CostModel::NodeStats(const BodyNode& node,
                                   const AbstractEnv& env) {
  switch (node.kind) {
    case BodyKind::kTrue: {
      PredModeStats s;
      s.success_prob = 1.0;
      s.cost_single = 0.0;
      s.cost_all = 0.0;
      return s;
    }
    case BodyKind::kFail: {
      PredModeStats s;
      s.success_prob = 0.0;
      s.expected_solutions = 0.0;
      s.cost_single = 0.0;
      s.cost_all = 0.0;
      return s;
    }
    case BodyKind::kCut: {
      PredModeStats s;
      s.success_prob = 1.0;
      s.cost_single = 0.0;
      s.cost_all = 0.0;
      return s;
    }
    case BodyKind::kCall: {
      TermRef goal = store_->Deref(node.goal);
      PredId callee = store_->pred_id(goal);
      Mode mode = env.CallModeOf(*store_, goal);
      return StatsFor(callee, mode);
    }
    case BodyKind::kNeg: {
      AbstractEnv scratch = env;
      auto inner = EvaluateSequence(TopSequence(*node.children[0]), scratch);
      PredModeStats s;
      if (inner.ok()) {
        s.success_prob = Clamp01(1.0 - inner->chain.success_prob);
        s.cost_single = ClampCost(1.0 + inner->chain.cost_single);
      } else {
        s.success_prob = 0.5;
        s.cost_single = 2.0;
      }
      s.cost_all = s.cost_single;
      s.expected_solutions = s.success_prob;
      return s;
    }
    case BodyKind::kDisj: {
      AbstractEnv scratch_l = env, scratch_r = env;
      auto left = EvaluateSequence(TopSequence(*node.children[0]), scratch_l);
      auto right = EvaluateSequence(TopSequence(*node.children[1]), scratch_r);
      PredModeStats s;
      double pl = left.ok() ? Clamp01(left->chain.success_prob) : 0.5;
      double pr = right.ok() ? Clamp01(right->chain.success_prob) : 0.5;
      double cl = left.ok() ? ClampCost(left->chain.cost_single) : 1.0;
      double cr = right.ok() ? ClampCost(right->chain.cost_single) : 1.0;
      s.success_prob = Clamp01(1.0 - (1.0 - pl) * (1.0 - pr));
      s.cost_single = ClampCost(cl + (1.0 - pl) * cr);
      double sl = left.ok() ? left->chain.expected_solutions : 1.0;
      double sr = right.ok() ? right->chain.expected_solutions : 1.0;
      s.expected_solutions = sl + sr;
      double cal = left.ok() ? ClampCost(left->chain.cost_all_solutions) : 2.0;
      double car =
          right.ok() ? ClampCost(right->chain.cost_all_solutions) : 2.0;
      s.cost_all = ClampCost(cal + car);
      return s;
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = env, else_env = env;
      auto cond = EvaluateSequence(TopSequence(*node.children[0]), then_env);
      double pc = cond.ok() ? Clamp01(cond->chain.success_prob) : 0.5;
      double cc = cond.ok() ? ClampCost(cond->chain.cost_single) : 1.0;
      if (cond.ok()) then_env = cond->env_after;
      auto then_e = EvaluateSequence(TopSequence(*node.children[1]), then_env);
      auto else_e = EvaluateSequence(TopSequence(*node.children[2]), else_env);
      double pt = then_e.ok() ? Clamp01(then_e->chain.success_prob) : 0.5;
      double pe = else_e.ok() ? Clamp01(else_e->chain.success_prob) : 0.5;
      double ct = then_e.ok() ? ClampCost(then_e->chain.cost_single) : 1.0;
      double ce = else_e.ok() ? ClampCost(else_e->chain.cost_single) : 1.0;
      PredModeStats s;
      s.success_prob = Clamp01(pc * pt + (1.0 - pc) * pe);
      s.cost_single = ClampCost(cc + pc * ct + (1.0 - pc) * ce);
      double st = then_e.ok() ? then_e->chain.expected_solutions : 1.0;
      double se = else_e.ok() ? else_e->chain.expected_solutions : 1.0;
      s.expected_solutions = pc * st + (1.0 - pc) * se;
      double cat =
          then_e.ok() ? ClampCost(then_e->chain.cost_all_solutions) : 2.0;
      double cae =
          else_e.ok() ? ClampCost(else_e->chain.cost_all_solutions) : 2.0;
      s.cost_all = ClampCost(cc + pc * cat + (1.0 - pc) * cae);
      return s;
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = env;
      auto inner = EvaluateSequence(TopSequence(*node.children[0]), scratch);
      TermRef goal = store_->Deref(node.goal);
      const std::string& name =
          store_->symbols().Name(store_->symbol(goal));
      PredModeStats s;
      double p_inner = inner.ok() ? Clamp01(inner->chain.success_prob) : 0.5;
      double ca = inner.ok() ? ClampCost(inner->chain.cost_all_solutions)
                             : 4.0;
      s.success_prob = name == "findall" ? 1.0 : p_inner;
      s.cost_single = ClampCost(1.0 + ca);
      s.cost_all = s.cost_single;
      s.expected_solutions = s.success_prob;
      return s;
    }
    case BodyKind::kCatch: {
      // Cost ≈ the protected goal's; success accounts for the recovery
      // taking over when the goal throws (probability unknown — fold the
      // recovery in at half weight to stay between the two futures).
      AbstractEnv goal_env = env, rec_env = env;
      auto goal_e = EvaluateSequence(TopSequence(*node.children[0]), goal_env);
      auto rec_e = EvaluateSequence(TopSequence(*node.children[1]), rec_env);
      PredModeStats s;
      double pg = goal_e.ok() ? Clamp01(goal_e->chain.success_prob) : 0.5;
      double cg = goal_e.ok() ? ClampCost(goal_e->chain.cost_single) : 1.0;
      double pr = rec_e.ok() ? Clamp01(rec_e->chain.success_prob) : 0.5;
      s.success_prob = Clamp01(0.5 * pg + 0.5 * Clamp01(pg + (1 - pg) * pr));
      s.cost_single = ClampCost(1.0 + cg);
      s.cost_all = s.cost_single;
      s.expected_solutions = goal_e.ok()
                                 ? goal_e->chain.expected_solutions
                                 : s.success_prob;
      return s;
    }
    case BodyKind::kConj: {
      auto eval = EvaluateSequence(TopSequence(node),
                                   env);
      PredModeStats s;
      if (eval.ok()) {
        s.success_prob = Clamp01(eval->chain.success_prob);
        s.cost_single = ClampCost(eval->chain.cost_single);
        s.cost_all = ClampCost(eval->chain.cost_all_solutions);
        s.expected_solutions = eval->chain.expected_solutions;
      }
      return s;
    }
  }
  return PredModeStats{};
}

void CostModel::ApplyNode(const BodyNode& node, AbstractEnv* env) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kFail:
    case BodyKind::kCut:
    case BodyKind::kNeg:
      return;
    case BodyKind::kConj:
      for (const auto& child : node.children) ApplyNode(*child, env);
      return;
    case BodyKind::kDisj: {
      AbstractEnv left = *env, right = *env;
      ApplyNode(*node.children[0], &left);
      ApplyNode(*node.children[1], &right);
      *env = AbstractEnv::Join(left, right);
      return;
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env, else_env = *env;
      ApplyNode(*node.children[0], &then_env);
      ApplyNode(*node.children[1], &then_env);
      ApplyNode(*node.children[2], &else_env);
      *env = AbstractEnv::Join(then_env, else_env);
      return;
    }
    case BodyKind::kSetPred: {
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> vars;
      store_->CollectVars(store_->arg(goal, 2), &vars);
      for (TermRef v : vars) {
        if (env->Get(store_->var_id(v)) == analysis::VarState::kFree) {
          env->Set(store_->var_id(v), analysis::VarState::kUnknown);
        }
      }
      return;
    }
    case BodyKind::kCatch: {
      AbstractEnv goal_env = *env, rec_env = *env;
      ApplyNode(*node.children[0], &goal_env);
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> catcher_vars;
      store_->CollectVars(store_->arg(goal, 1), &catcher_vars);
      for (TermRef v : catcher_vars) {
        if (rec_env.Get(store_->var_id(v)) == analysis::VarState::kFree) {
          rec_env.Set(store_->var_id(v), analysis::VarState::kUnknown);
        }
      }
      ApplyNode(*node.children[1], &rec_env);
      *env = AbstractEnv::Join(goal_env, rec_env);
      return;
    }
    case BodyKind::kCall: {
      TermRef goal = store_->Deref(node.goal);
      PredId callee = store_->pred_id(goal);
      const std::string& name = store_->symbols().Name(callee.name);
      if (name == "=" && callee.arity == 2) {
        env->ApplyUnification(*store_, store_->arg(goal, 0),
                              store_->arg(goal, 1));
        return;
      }
      Mode mode = env->CallModeOf(*store_, goal);
      Mode output = oracle_->Output(callee, mode);
      env->ApplyCallOutput(*store_, goal, output);
      return;
    }
  }
}

bool CostModel::NodeLegal(const BodyNode& node, const AbstractEnv& env) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kFail:
    case BodyKind::kCut:
      return true;
    case BodyKind::kConj: {
      AbstractEnv scratch = env;
      for (const auto& child : node.children) {
        if (!NodeLegal(*child, scratch)) return false;
        ApplyNode(*child, &scratch);
      }
      return true;
    }
    case BodyKind::kDisj:
      return NodeLegal(*node.children[0], env) &&
             NodeLegal(*node.children[1], env);
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = env;
      if (!NodeLegal(*node.children[0], then_env)) return false;
      ApplyNode(*node.children[0], &then_env);
      return NodeLegal(*node.children[1], then_env) &&
             NodeLegal(*node.children[2], env);
    }
    case BodyKind::kNeg:
      return NodeLegal(*node.children[0], env);
    case BodyKind::kSetPred:
      return NodeLegal(*node.children[0], env);
    case BodyKind::kCatch:
      return NodeLegal(*node.children[0], env) &&
             NodeLegal(*node.children[1], env);
    case BodyKind::kCall: {
      TermRef goal = store_->Deref(node.goal);
      PredId callee = store_->pred_id(goal);
      const std::string& name = store_->symbols().Name(callee.name);
      if (name == "=" && callee.arity == 2) return true;
      return oracle_->IsLegalCall(callee, env.CallModeOf(*store_, goal));
    }
  }
  return true;
}

prore::Result<StepEval> CostModel::EvaluateStep(const BodyNode& node,
                                                AbstractEnv* env) {
  // One watchdog step per scored element; the search layers multiply
  // element evaluations, so this is where a runaway cost query trips.
  PRORE_RETURN_IF_ERROR(watchdog_.Step());
  StepEval step;
  step.legal = NodeLegal(node, *env);
  PredModeStats s = NodeStats(node, *env);
  double cost = ClampCost(s.cost_single);
  // Single-solution chain: per-visit success is the first-solution
  // probability. Cap certain goals at 0.999 — a p=1 state makes the
  // all-solutions chain non-absorbing (the paper's model assumes p < 1).
  step.single = markov::GoalStats{std::min(0.999, Clamp01(s.success_prob)),
                                  cost};
  // All-solutions chain (the ordering objective): a goal with expected
  // s solutions re-succeeds on redo, so its per-visit success rate is
  // s/(1+s) — this is what makes a 120-tuple generator costlier to put
  // early than a 2-tuple one even when both "succeed" on first call.
  double sols = std::max(0.0, s.expected_solutions);
  step.visit = markov::GoalStats{std::min(0.999, sols / (1.0 + sols)), cost};
  ApplyNode(node, env);
  return step;
}

prore::Result<BlockEval> CostModel::EvaluateSequence(
    const std::vector<const BodyNode*>& order, const AbstractEnv& start) {
  BlockEval eval;
  eval.env_after = start;
  std::vector<markov::GoalStats> single_stats;
  single_stats.reserve(order.size());
  eval.goal_stats.reserve(order.size());
  for (const BodyNode* node : order) {
    PRORE_ASSIGN_OR_RETURN(StepEval step,
                           EvaluateStep(*node, &eval.env_after));
    if (!step.legal) eval.legal = false;
    single_stats.push_back(step.single);
    eval.goal_stats.push_back(step.visit);
  }
  // Only the single-solution chain is solved: every all-solutions field
  // comes from the closed forms over the per-visit rates.
  PRORE_ASSIGN_OR_RETURN(eval.chain,
                         markov::AnalyzeSingleSolutionChain(single_stats));
  eval.chain.cost_all_solutions =
      markov::ClosedFormAllSolutionsCost(eval.goal_stats);
  eval.chain.visits_all = markov::ClosedFormAllVisits(eval.goal_stats);
  eval.chain.expected_solutions = eval.chain.visits_all.back();
  eval.chain.cost_per_solution =
      eval.chain.expected_solutions > 0.0
          ? eval.chain.cost_all_solutions / eval.chain.expected_solutions
          : std::numeric_limits<double>::infinity();
  return eval;
}

}  // namespace prore::cost
