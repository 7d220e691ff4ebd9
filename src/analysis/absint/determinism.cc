#include "analysis/absint/determinism.h"

#include <algorithm>
#include <utility>

#include "analysis/mode_inference.h"
#include "engine/builtins.h"

namespace prore::analysis::absint {

using term::PredId;
using term::Tag;
using term::TermRef;
using term::TermStore;

const char* DetName(Det d) {
  switch (d) {
    case Det::kFailure: return "failure";
    case Det::kDet: return "det";
    case Det::kSemidet: return "semidet";
    case Det::kMulti: return "multi";
    case Det::kNondet: return "nondet";
  }
  return "nondet";
}

DetInterval ToInterval(Det d) {
  switch (d) {
    case Det::kFailure: return {0, 0};
    case Det::kDet: return {1, 1};
    case Det::kSemidet: return {0, 1};
    case Det::kMulti: return {1, DetInterval::kInf};
    case Det::kNondet: return {0, DetInterval::kInf};
  }
  return {0, DetInterval::kInf};
}

Det FromInterval(DetInterval iv) {
  if (iv.hi <= 0) return Det::kFailure;
  if (iv.hi == 1) return iv.lo >= 1 ? Det::kDet : Det::kSemidet;
  return iv.lo >= 1 ? Det::kMulti : Det::kNondet;
}

DetInterval SeqInterval(DetInterval a, DetInterval b) {
  DetInterval r;
  r.lo = std::min(1, a.lo * b.lo);
  r.hi = (a.hi == 0 || b.hi == 0) ? 0 : std::min(DetInterval::kInf,
                                                 a.hi * b.hi);
  return r;
}

DetInterval AltInterval(DetInterval a, DetInterval b) {
  return {std::min(1, a.lo + b.lo), std::min(DetInterval::kInf, a.hi + b.hi)};
}

DetInterval HullInterval(DetInterval a, DetInterval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

DetInterval Cap01(DetInterval a) { return {a.lo, std::min(a.hi, 1)}; }

DetInterval Cap0(DetInterval a) { return {0, a.hi}; }

namespace {

/// Upper-bound classification of one builtin call by name. Everything not
/// listed defaults to nondet — always sound. `throw/1` never *succeeds*,
/// so its solution count is exactly zero (errors are not solutions).
DetInterval BuiltinInterval(const std::string& name, uint32_t arity) {
  static const char* kSemidetNames[] = {
      "<",  ">",  "=<", ">=",  "=:=", "=\\=", "==",  "\\==", "@<",
      "@=<", "@>", "@>=", "=",  "\\=", "var", "nonvar", "atom", "number",
      "integer", "float", "atomic", "compound", "callable", "is_list",
      "ground", "is", "functor", "arg", "succ", "atom_length",
      "atom_concat", "atom_chars", "atom_codes", "char_code",
      "number_codes", "compare", "retract", "memberchk", "forall"};
  static const char* kDetNames[] = {
      "nl", "write", "writeln", "print", "tab", "read", "copy_term",
      "msort", "sort", "assert", "asserta", "assertz", "halt"};
  if (name == "throw" && arity == 1) return {0, 0};
  for (const char* n : kSemidetNames) {
    if (name == n) return {0, 1};
  }
  for (const char* n : kDetNames) {
    if (name == n) return {1, 1};
  }
  return {0, DetInterval::kInf};
}

/// Library predicates (append/3, member/2, ...) when the program does not
/// define them: bounds keyed on how the first (or length-like) argument is
/// instantiated. A ground proper-list first argument makes the list
/// recursions deterministic up to head mismatch.
DetInterval LibraryInterval(const std::string& name, uint32_t arity,
                            const Mode& pattern) {
  auto in = [&](uint32_t i) {
    return i < pattern.size() && pattern[i] == ModeItem::kPlus;
  };
  if (name == "memberchk" || name == "forall") return {0, 1};
  if ((name == "append" && arity == 3 && in(0)) ||
      (name == "reverse" && in(0)) || (name == "last" && in(0)) ||
      (name == "sum_list" && in(0)) || (name == "max_list" && in(0)) ||
      (name == "min_list" && in(0)) ||
      (name == "length" && (in(0) || in(1)))) {
    return {0, 1};
  }
  return {0, DetInterval::kInf};
}

}  // namespace

DeterminismDomain::DeterminismDomain(const TermStore* store,
                                     const reader::Program* program,
                                     const GroundnessSummaries* groundness)
    : store_(store), program_(program), groundness_(groundness) {
  AddLibraryModes(const_cast<TermStore*>(store), &library_modes_);
}

Det DeterminismDomain::Bottom(const PredId& /*id*/,
                              const Mode& /*pattern*/) const {
  return Det::kFailure;
}

Det DeterminismDomain::Top(const PredId& /*id*/,
                           const Mode& /*pattern*/) const {
  return Det::kNondet;
}

Det DeterminismDomain::Join(const Det& a, const Det& b) const {
  return FromInterval(HullInterval(ToInterval(a), ToInterval(b)));
}

Det DeterminismDomain::Widen(const Det& a, const Det& b) const {
  // The lattice has five points and height three; plain join terminates.
  return Join(a, b);
}

bool DeterminismDomain::Equal(const Det& a, const Det& b) const {
  return a == b;
}

prore::Result<const DeterminismDomain::PredInfo*> DeterminismDomain::InfoOf(
    const PredId& id) {
  auto it = info_.find(id);
  if (it != info_.end()) return &it->second;
  PredInfo info;
  std::vector<TermRef> heads;
  for (const reader::Clause& clause : program_->ClausesOf(id)) {
    PRORE_ASSIGN_OR_RETURN(auto body, ParseBody(*store_, clause.body));
    info.has_cut.push_back(ContainsClauseCut(*body));
    info.bodies.push_back(std::move(body));
    TermRef head = store_->Deref(clause.head);
    heads.push_back(head);
    // Certain match: every head argument a distinct free variable (then
    // head unification cannot fail for any call).
    bool certain = true;
    std::vector<uint32_t> seen;
    for (uint32_t i = 0; i < store_->arity(head) && certain; ++i) {
      TermRef a = store_->Deref(store_->arg(head, i));
      if (store_->tag(a) != Tag::kVar) {
        certain = false;
        break;
      }
      uint32_t vid = store_->var_id(a);
      if (std::find(seen.begin(), seen.end(), vid) != seen.end()) {
        certain = false;
      }
      seen.push_back(vid);
    }
    info.certain_head.push_back(certain);
  }
  info.witnesses = engine::ExclusivityWitnesses(*store_, heads, id.arity);
  return &info_.emplace(id, std::move(info)).first->second;
}

bool DeterminismDomain::ExclusiveUnder(const PredId& id,
                                       const Mode& pattern) {
  auto info = InfoOf(id);
  if (!info.ok()) return false;
  for (const engine::Witness& w : (*info)->witnesses) {
    bool covered = true;
    for (uint32_t k : w) {
      if (k >= pattern.size() || pattern[k] != ModeItem::kPlus) {
        covered = false;
        break;
      }
    }
    if (covered && !w.empty()) return true;
    if (w.empty()) return true;  // fewer than two clauses
  }
  return false;
}

const std::vector<engine::Witness>& DeterminismDomain::WitnessesOf(
    const PredId& id) {
  static const std::vector<engine::Witness> kEmpty;
  auto info = InfoOf(id);
  return info.ok() ? (*info)->witnesses : kEmpty;
}

DetInterval DeterminismDomain::CallInterval(TermRef goal,
                                            const PredId& callee,
                                            const Mode& call_mode) {
  (void)goal;
  const std::string& name = store_->symbols().Name(callee.name);
  if (engine::LookupBuiltin(name, callee.arity) != nullptr) {
    return BuiltinInterval(name, callee.arity);
  }
  return LibraryInterval(name, callee.arity, call_mode);
}

prore::Result<DetInterval> DeterminismDomain::WalkBody(
    const BodyNode& node, AbstractEnv* env, const Lookup<Det>& lookup) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kCut:
      return DetInterval{1, 1};
    case BodyKind::kFail:
      return DetInterval{0, 0};
    case BodyKind::kConj: {
      DetInterval acc{1, 1};
      for (const auto& child : node.children) {
        if (child->kind == BodyKind::kCut) {
          // Once the cut executes only the prefix's first solution
          // survives: A, !, B  ==>  Cap01(A) * B.
          acc = Cap01(acc);
          continue;
        }
        PRORE_ASSIGN_OR_RETURN(DetInterval ci, WalkBody(*child, env, lookup));
        acc = SeqInterval(acc, ci);
        if (acc.hi == 0) return acc;
      }
      return acc;
    }
    case BodyKind::kDisj: {
      AbstractEnv left = *env;
      AbstractEnv right = *env;
      PRORE_ASSIGN_OR_RETURN(DetInterval li,
                             WalkBody(*node.children[0], &left, lookup));
      PRORE_ASSIGN_OR_RETURN(DetInterval ri,
                             WalkBody(*node.children[1], &right, lookup));
      *env = AbstractEnv::Join(left, right);
      // A cut inside a branch makes the sum an over-count, never an
      // under-count — the bound stays sound.
      return AltInterval(li, ri);
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env;
      AbstractEnv else_env = *env;
      PRORE_ASSIGN_OR_RETURN(DetInterval cond,
                             WalkBody(*node.children[0], &then_env, lookup));
      PRORE_ASSIGN_OR_RETURN(DetInterval then_iv,
                             WalkBody(*node.children[1], &then_env, lookup));
      PRORE_ASSIGN_OR_RETURN(DetInterval else_iv,
                             WalkBody(*node.children[2], &else_env, lookup));
      *env = AbstractEnv::Join(then_env, else_env);
      // The condition commits to its first solution; then either the then
      // branch runs (cond succeeded) or the else branch (cond failed).
      return HullInterval(SeqInterval(Cap01(cond), then_iv), else_iv);
    }
    case BodyKind::kNeg: {
      AbstractEnv scratch = *env;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &scratch, lookup).status());
      return DetInterval{0, 1};
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = *env;
      PRORE_RETURN_IF_ERROR(
          WalkBody(*node.children[0], &scratch, lookup).status());
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> vars;
      store_->CollectVars(store_->arg(goal, 2), &vars);
      for (TermRef v : vars) {
        if (env->Get(store_->var_id(v)) == VarState::kFree) {
          env->Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      // findall/3 succeeds exactly once; bagof/setof fail on no solutions.
      const std::string& name = store_->symbols().Name(store_->symbol(goal));
      return name == "findall" ? DetInterval{1, 1} : DetInterval{0, 1};
    }
    case BodyKind::kCatch: {
      AbstractEnv goal_env = *env;
      PRORE_ASSIGN_OR_RETURN(DetInterval gi,
                             WalkBody(*node.children[0], &goal_env, lookup));
      AbstractEnv rec_env = *env;
      TermRef goal = store_->Deref(node.goal);
      std::vector<TermRef> catcher_vars;
      store_->CollectVars(store_->arg(goal, 1), &catcher_vars);
      for (TermRef v : catcher_vars) {
        if (rec_env.Get(store_->var_id(v)) == VarState::kFree) {
          rec_env.Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      PRORE_ASSIGN_OR_RETURN(DetInterval ri,
                             WalkBody(*node.children[1], &rec_env, lookup));
      *env = AbstractEnv::Join(goal_env, rec_env);
      // The goal may yield some solutions and then throw on redo, handing
      // over to the recovery: bound is the sum, floor is zero.
      return DetInterval{0, std::min(DetInterval::kInf, gi.hi + ri.hi)};
    }
    case BodyKind::kCall:
      break;
  }

  TermRef goal = store_->Deref(node.goal);
  PredId callee = store_->pred_id(goal);
  const std::string& name = store_->symbols().Name(callee.name);
  if (name == "=" && callee.arity == 2) {
    env->ApplyUnification(*store_, store_->arg(goal, 0),
                          store_->arg(goal, 1));
    return DetInterval{0, 1};
  }
  Mode call_mode = env->CallModeOf(*store_, goal);
  if (program_->Has(callee)) {
    DetInterval iv = ToInterval(lookup(callee, call_mode));
    // Thread the groundness result (when available) so downstream call
    // modes stay tight; the exact summary first, covering ones second.
    Mode out(callee.arity, ModeItem::kAny);
    if (groundness_ != nullptr) {
      if (const GroundnessValue* g =
              groundness_->Find(*store_, callee, call_mode)) {
        if (!g->can_succeed) return DetInterval{0, 0};
        out = g->success;
      } else if (auto covered =
                     groundness_->SuccessModeFor(*store_, callee, call_mode)) {
        out = *covered;
      }
    }
    env->ApplyCallOutput(*store_, goal, out);
    return iv;
  }
  DetInterval iv = CallInterval(goal, callee, call_mode);
  std::optional<Mode> out;
  if (engine::LookupBuiltin(name, callee.arity) != nullptr) {
    out = builtin_modes_.OutputFor(name, callee.arity, call_mode);
  } else {
    out = library_modes_.OutputFor(callee, call_mode);
  }
  env->ApplyCallOutput(*store_, goal,
                       out.value_or(Mode(callee.arity, ModeItem::kAny)));
  return iv;
}

prore::Result<Det> DeterminismDomain::Transfer(const PredId& id,
                                               const Mode& pattern,
                                               const Lookup<Det>& lookup) {
  if (!program_->Has(id)) {
    const std::string& name = store_->symbols().Name(id.name);
    if (engine::LookupBuiltin(name, id.arity) != nullptr) {
      return FromInterval(BuiltinInterval(name, id.arity));
    }
    return FromInterval(LibraryInterval(name, id.arity, pattern));
  }
  const auto& clauses = program_->ClausesOf(id);
  if (clauses.empty()) {
    // Possibly dynamic: assert may add clauses at run time.
    return Det::kNondet;
  }
  PRORE_ASSIGN_OR_RETURN(const PredInfo* info, InfoOf(id));

  std::vector<DetInterval> body_ivs;
  body_ivs.reserve(clauses.size());
  for (size_t c = 0; c < clauses.size(); ++c) {
    AbstractEnv env = EnvFromHead(*store_, clauses[c].head, pattern);
    PRORE_ASSIGN_OR_RETURN(DetInterval iv,
                           WalkBody(*info->bodies[c], &env, lookup));
    body_ivs.push_back(iv);
  }

  if (ExclusiveUnder(id, pattern)) {
    // At most one clause head can match any concrete call in this
    // pattern: the bound is the worst single clause, and nothing
    // guarantees any head matches.
    int hi = 0;
    for (const DetInterval& iv : body_ivs) hi = std::max(hi, iv.hi);
    return FromInterval({0, hi});
  }

  // General case, right to left: once a clause-level cut executes, later
  // clauses are discarded — so a cut clause contributes max(own bound,
  // rest), a cut-free clause own bound + rest.
  int rest_hi = 0;
  for (size_t c = clauses.size(); c-- > 0;) {
    int hi = Cap0(body_ivs[c]).hi;
    rest_hi = info->has_cut[c] ? std::max(hi, rest_hi)
                               : std::min(DetInterval::kInf, hi + rest_hi);
  }
  // At least one solution only if some clause certainly matches, its body
  // certainly succeeds, and no earlier clause can cut and then fail.
  int lo = 0;
  bool cut_above = false;
  for (size_t c = 0; c < clauses.size(); ++c) {
    if (info->certain_head[c] && body_ivs[c].lo >= 1 && !cut_above) {
      lo = 1;
      break;
    }
    if (info->has_cut[c]) cut_above = true;
  }
  return FromInterval({lo, rest_hi});
}

Det DeterminismAnalysis::DetFor(const TermStore& store, const PredId& id,
                                const Mode& call_mode) const {
  auto exact = by_key.find(KeyName(store, id, call_mode));
  if (exact != by_key.end()) return exact->second;
  DetInterval hull{1, 0};  // empty; replaced by the first match
  bool any = false;
  ForEachKeyOf(keys, store, id, [&](const std::string& key,
                                    const CallKey& ck) {
    // A summary under pattern p bounds every call at least as bound as p
    // from above (instantiating removes solutions); the lower bound does
    // not transfer.
    if (!SatisfiesInput(call_mode, ck.pattern)) return;
    DetInterval iv = Cap0(ToInterval(by_key.at(key)));
    hull = any ? HullInterval(hull, iv) : iv;
    any = true;
  });
  return any ? FromInterval(hull) : Det::kNondet;
}

bool DeterminismAnalysis::ExclusiveUnder(const PredId& id,
                                         const Mode& call_mode) const {
  auto it = witnesses.find(id);
  if (it == witnesses.end()) return false;
  for (const engine::Witness& w : it->second) {
    bool covered = true;
    for (uint32_t k : w) {
      if (k >= call_mode.size() || call_mode[k] != ModeItem::kPlus) {
        covered = false;
        break;
      }
    }
    if (covered) return true;
  }
  return false;
}

}  // namespace prore::analysis::absint
