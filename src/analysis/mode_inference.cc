#include "analysis/mode_inference.h"

#include <algorithm>

#include "analysis/body.h"
#include "engine/builtins.h"
#include "term/symbol.h"

namespace prore::analysis {

using term::PredId;
using term::Tag;
using term::TermRef;
using term::TermStore;

void AddLibraryModes(TermStore* store, ModeTable* table) {
  auto add = [&](const char* name, const char* in, const char* out) {
    Mode min = std::move(ModeFromString(in)).value();
    Mode mout = std::move(ModeFromString(out)).value();
    PredId id{store->symbols().Intern(name),
              static_cast<uint32_t>(min.size())};
    table->Add(id, ModePair{std::move(min), std::move(mout)});
  };
  add("append", "(+,?,?)", "(+,?,?)");
  add("append", "(?,?,+)", "(+,+,+)");
  add("append", "(+,+,?)", "(+,+,+)");
  add("member", "(?,+)", "(+,+)");
  add("memberchk", "(?,+)", "(+,+)");
  add("select", "(?,+,?)", "(+,+,+)");
  add("select", "(?,?,+)", "(?,?,+)");
  add("reverse", "(+,?)", "(+,+)");
  add("reverse", "(?,+)", "(+,+)");
  add("length", "(+,?)", "(+,+)");
  add("length", "(?,+)", "(?,+)");
  add("between", "(+,+,?)", "(+,+,+)");
  add("nth0", "(?,+,?)", "(+,+,+)");
  add("nth1", "(?,+,?)", "(+,+,+)");
  add("last", "(+,?)", "(+,+)");
  add("sum_list", "(+,?)", "(+,+)");
  add("max_list", "(+,?)", "(+,+)");
  add("min_list", "(+,?)", "(+,+)");
  add("permutation", "(+,?)", "(+,+)");
  add("delete_one", "(?,+,?)", "(+,+,+)");
  add("delete_one", "(?,?,+)", "(?,?,+)");
  add("forall", "(?,?)", "(?,?)");
}

AbstractEnv EnvFromHead(const TermStore& store, TermRef head,
                        const Mode& input) {
  AbstractEnv env;
  head = store.Deref(head);
  // First pass: '?' positions make their variables unknown.
  for (uint32_t i = 0; i < store.arity(head) && i < input.size(); ++i) {
    if (input[i] != ModeItem::kAny) continue;
    std::vector<TermRef> vars;
    store.CollectVars(store.arg(head, i), &vars);
    for (TermRef v : vars) env.Set(store.var_id(v), VarState::kUnknown);
  }
  // Second pass: '+' positions ground their variables ('+' wins).
  for (uint32_t i = 0; i < store.arity(head) && i < input.size(); ++i) {
    if (input[i] != ModeItem::kPlus) continue;
    std::vector<TermRef> vars;
    store.CollectVars(store.arg(head, i), &vars);
    for (TermRef v : vars) env.Set(store.var_id(v), VarState::kGround);
  }
  // '-' positions leave variables free (the default); note that if the
  // head argument is a non-variable, the free caller argument gets bound
  // to it, which does not ground the head argument's own variables.
  return env;
}

namespace {

struct KeyHashing {
  static std::string Key(const TermStore& store, const PredId& id,
                         const Mode& mode) {
    return store.symbols().Name(id.name) + "/" + std::to_string(id.arity) +
           ":" + ModeSuffix(mode);
  }
};

/// Demand-driven fixpoint inference engine (shared walker also used by the
/// LegalityOracle for on-demand analysis of unseen modes).
class Inferencer {
 public:
  Inferencer(const TermStore& store, const reader::Program& program,
             const CallGraph& graph, const Declarations& decls,
             const InferenceOptions& opts, ModeAnalysis* out)
      : store_(store),
        program_(program),
        graph_(graph),
        decls_(decls),
        opts_(opts),
        out_(out) {
    AddLibraryModes(const_cast<TermStore*>(&store), &library_modes_);
    watchdog_.Arm(opts.watchdog, "mode_inference", opts.exec);
  }

  prore::Status Run() {
    std::vector<PredId> roots =
        decls_.entries.empty() ? graph_.EntryPoints() : decls_.entries;
    for (const PredId& root : roots) {
      if (!program_.Has(root)) continue;
      std::vector<Mode> root_modes;
      bool speculative_roots = false;
      const auto& declared = decls_.legal_modes.PairsFor(root);
      if (!declared.empty()) {
        for (const ModePair& pair : declared) root_modes.push_back(pair.input);
      } else if (root.arity <= opts_.max_enumerated_arity) {
        speculative_roots = true;
        // Every {+,-} combination, the way the paper's Table II calls each
        // predicate in each mode.
        uint32_t combos = 1u << root.arity;
        for (uint32_t bits = 0; bits < combos; ++bits) {
          Mode m(root.arity);
          for (uint32_t i = 0; i < root.arity; ++i) {
            m[i] = (bits >> i) & 1 ? ModeItem::kPlus : ModeItem::kMinus;
          }
          root_modes.push_back(std::move(m));
        }
      } else {
        speculative_roots = true;
        root_modes.push_back(Mode(root.arity, ModeItem::kAny));
      }
      for (const Mode& m : root_modes) {
        speculative_walk_ = speculative_roots;
        PRORE_RETURN_IF_ERROR(AnalyzeStatus(root, m));
      }
      speculative_walk_ = false;
    }
    // Global stabilization: demand-driven analysis may cache a key while a
    // mutually-recursive ancestor was still iterating. Recompute every key
    // against the current table until nothing changes — the global least
    // fixpoint.
    stabilizing_ = true;
    for (size_t round = 0; round < opts_.max_iterations; ++round) {
      bool changed = false;
      // Recomputing may add keys; iterate over a snapshot.
      std::vector<std::string> keys;
      keys.reserve(memo_.size());
      for (const auto& kv : memo_) keys.push_back(kv.first);
      for (const std::string& key : keys) {
        Record rec = memo_[key];
        bool unused = false;
        Mode next;
        PRORE_RETURN_IF_ERROR(ComputeOnce(rec.pred, rec.input, &next,
                                          &unused));
        if (next != memo_[key].output) {
          memo_[key].output = next;
          changed = true;
        }
      }
      if (!changed) break;
    }
    stabilizing_ = false;
    // Publish: observed inputs + their inferred outputs, plus declarations.
    // A recursive predicate's mode observed only under speculative roots
    // does NOT become a legal-mode pair: the enumeration assumed the entry
    // works in that mode, which nothing guarantees for recursion (this is
    // what keeps e.g. a free-mode prover call from being blessed).
    for (const auto& [key, rec] : memo_) {
      (void)key;
      RecordObserved(rec.pred, rec.input);
      out_->table.Add(rec.pred, ModePair{rec.input, rec.output});
      if (graph_.IsRecursive(rec.pred) && rec.speculative) continue;
      out_->legal_table.Add(rec.pred, ModePair{rec.input, rec.output});
    }
    for (const PredId& pred : graph_.Preds()) {
      for (const ModePair& pair : decls_.legal_modes.PairsFor(pred)) {
        out_->table.Add(pred, pair);
        out_->legal_table.Add(pred, pair);
      }
    }
    return prore::Status::OK();
  }

 private:
  struct Record {
    PredId pred;
    Mode input;
    Mode output;
    bool stable = false;
    /// True if every walk reaching this (pred, input) started from a
    /// *speculative* root mode (an undeclared entry's {+,-} enumeration).
    /// Speculative modes of recursive predicates must not become legal:
    /// nothing shows they terminate (the paper's §IV-D.7 caution).
    bool speculative = true;
  };

  void RecordObserved(const PredId& id, const Mode& input) {
    auto& list = out_->observed_inputs[id];
    if (std::find(list.begin(), list.end(), input) == list.end()) {
      list.push_back(input);
    }
  }

  prore::Status AnalyzeStatus(const PredId& id, const Mode& input) {
    Mode ignored;
    return Analyze(id, input, &ignored);
  }

  prore::Status Analyze(const PredId& id, const Mode& input, Mode* output) {
    std::string key = KeyHashing::Key(store_, id, input);
    auto it = memo_.find(key);
    if (it != memo_.end() && (it->second.stable || in_progress_.count(key))) {
      *output = it->second.output;
      return prore::Status::OK();
    }
    if (it == memo_.end()) {
      // Optimistic bottom: claim everything becomes ground, then weaken
      // to the least fixpoint.
      Record rec;
      rec.pred = id;
      rec.input = input;
      rec.output = Mode(id.arity, ModeItem::kPlus);
      rec.speculative = speculative_walk_;
      memo_.emplace(key, std::move(rec));
    } else if (!speculative_walk_ && !stabilizing_) {
      it->second.speculative = false;  // reached from a declared walk too
    }
    in_progress_.insert(key);
    for (size_t iter = 0; iter < opts_.max_iterations; ++iter) {
      bool used_unstable = false;
      Mode next;
      prore::Status st = ComputeOnce(id, input, &next, &used_unstable);
      if (!st.ok()) {
        in_progress_.erase(key);
        return st;
      }
      Record& rec = memo_[key];
      if (next == rec.output) break;  // local fixpoint reached
      rec.output = next;
    }
    in_progress_.erase(key);
    // Mark stable: each key iterates locally to its own fixpoint; for
    // mutual recursion the outermost key of the cycle keeps iterating
    // until the whole cycle stops changing, which is the standard
    // demand-driven compromise (imprecision, never unsoundness upward).
    memo_[key].stable = true;
    *output = memo_[key].output;
    return prore::Status::OK();
  }

  prore::Status ComputeOnce(const PredId& id, const Mode& input, Mode* out,
                            bool* used_unstable) {
    // One watchdog step per clause sweep: the fixpoint loops multiply
    // these, so a pathological program trips here instead of hanging.
    PRORE_RETURN_IF_ERROR(watchdog_.Step());
    bool first = true;
    Mode combined;
    for (const reader::Clause& clause : program_.ClausesOf(id)) {
      AbstractEnv env = EnvFromHead(store_, clause.head, input);
      PRORE_ASSIGN_OR_RETURN(auto body, ParseBody(store_, clause.body));
      PRORE_RETURN_IF_ERROR(WalkBody(*body, &env, used_unstable));
      TermRef head = store_.Deref(clause.head);
      Mode clause_out(id.arity);
      for (uint32_t i = 0; i < id.arity; ++i) {
        clause_out[i] = env.ModeOf(store_, store_.arg(head, i));
      }
      if (first) {
        combined = clause_out;
        first = false;
      } else {
        for (uint32_t i = 0; i < id.arity; ++i) {
          if (combined[i] != clause_out[i]) combined[i] = ModeItem::kAny;
        }
      }
    }
    if (first) combined = Mode(id.arity, ModeItem::kAny);  // no clauses
    *out = ApplyOutput(input, combined);
    return prore::Status::OK();
  }

  prore::Status WalkBody(const BodyNode& node, AbstractEnv* env,
                         bool* used_unstable) {
    switch (node.kind) {
      case BodyKind::kTrue:
      case BodyKind::kFail:
      case BodyKind::kCut:
        return prore::Status::OK();
      case BodyKind::kConj:
        for (const auto& child : node.children) {
          PRORE_RETURN_IF_ERROR(WalkBody(*child, env, used_unstable));
        }
        return prore::Status::OK();
      case BodyKind::kDisj: {
        AbstractEnv left = *env;
        AbstractEnv right = *env;
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[0], &left,
                                       used_unstable));
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[1], &right,
                                       used_unstable));
        *env = AbstractEnv::Join(left, right);
        return prore::Status::OK();
      }
      case BodyKind::kIfThenElse: {
        AbstractEnv then_env = *env;
        AbstractEnv else_env = *env;
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[0], &then_env,
                                       used_unstable));
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[1], &then_env,
                                       used_unstable));
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[2], &else_env,
                                       used_unstable));
        *env = AbstractEnv::Join(then_env, else_env);
        return prore::Status::OK();
      }
      case BodyKind::kNeg: {
        // Negation never leaves bindings; analyze the inner goal for its
        // observed call modes only.
        AbstractEnv scratch = *env;
        return WalkBody(*node.children[0], &scratch, used_unstable);
      }
      case BodyKind::kSetPred: {
        AbstractEnv scratch = *env;
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[0], &scratch,
                                       used_unstable));
        // The result list gets bound (to a list of copies).
        TermRef goal = store_.Deref(node.goal);
        std::vector<TermRef> vars;
        store_.CollectVars(store_.arg(goal, 2), &vars);
        for (TermRef v : vars) {
          if (env->Get(store_.var_id(v)) == VarState::kFree) {
            env->Set(store_.var_id(v), VarState::kUnknown);
          }
        }
        return prore::Status::OK();
      }
      case BodyKind::kCatch: {
        // Either the goal completes (its bindings persist) or an exception
        // unwinds it, the catcher is unified with the ball, and the
        // recovery runs from the pre-goal environment. Join both futures.
        AbstractEnv goal_env = *env;
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[0], &goal_env,
                                       used_unstable));
        AbstractEnv rec_env = *env;
        TermRef goal = store_.Deref(node.goal);
        std::vector<TermRef> catcher_vars;
        store_.CollectVars(store_.arg(goal, 1), &catcher_vars);
        for (TermRef v : catcher_vars) {
          if (rec_env.Get(store_.var_id(v)) == VarState::kFree) {
            rec_env.Set(store_.var_id(v), VarState::kUnknown);
          }
        }
        PRORE_RETURN_IF_ERROR(WalkBody(*node.children[1], &rec_env,
                                       used_unstable));
        *env = AbstractEnv::Join(goal_env, rec_env);
        return prore::Status::OK();
      }
      case BodyKind::kCall:
        return WalkCall(node.goal, env, used_unstable);
    }
    return prore::Status::OK();
  }

  prore::Status WalkCall(TermRef goal, AbstractEnv* env,
                         bool* used_unstable) {
    goal = store_.Deref(goal);
    PredId callee = store_.pred_id(goal);
    Mode call_mode = env->CallModeOf(store_, goal);

    // =/2 needs bidirectional treatment.
    const std::string& name = store_.symbols().Name(callee.name);
    if (name == "=" && callee.arity == 2) {
      env->ApplyUnification(store_, store_.arg(goal, 0), store_.arg(goal, 1));
      return prore::Status::OK();
    }

    if (program_.Has(callee)) {
      RecordObserved(callee, call_mode);
      Mode output;
      std::string key = KeyHashing::Key(store_, callee, call_mode);
      if (in_progress_.count(key)) *used_unstable = true;
      PRORE_RETURN_IF_ERROR(Analyze(callee, call_mode, &output));
      // Output is relative to the callee's formal args == our actual args.
      ApplyOutputToGoal(goal, output, env);
      return prore::Status::OK();
    }
    // Built-in?
    if (engine::LookupBuiltin(name, callee.arity) != nullptr) {
      auto out = builtin_modes_.OutputFor(name, callee.arity, call_mode);
      ApplyOutputToGoal(goal, out.value_or(Mode(callee.arity, ModeItem::kAny)),
                        env);
      return prore::Status::OK();
    }
    // Library predicate (or unknown): use the library table.
    RecordObserved(callee, call_mode);
    auto out = library_modes_.OutputFor(callee, call_mode);
    ApplyOutputToGoal(goal, out.value_or(Mode(callee.arity, ModeItem::kAny)),
                      env);
    return prore::Status::OK();
  }

  void ApplyOutputToGoal(TermRef goal, const Mode& output, AbstractEnv* env) {
    env->ApplyCallOutput(store_, goal, output);
  }

  const TermStore& store_;
  const reader::Program& program_;
  const CallGraph& graph_;
  const Declarations& decls_;
  const InferenceOptions& opts_;
  ModeAnalysis* out_;
  bool speculative_walk_ = false;
  bool stabilizing_ = false;
  prore::Watchdog watchdog_;
  ModeTable library_modes_;
  const BuiltinModes& builtin_modes_ = BuiltinModes::Standard();
  std::unordered_map<std::string, Record> memo_;
  std::unordered_set<std::string> in_progress_;
};

}  // namespace

prore::Result<ModeAnalysis> InferModes(const TermStore& store,
                                       const reader::Program& program,
                                       const CallGraph& graph,
                                       const Declarations& decls,
                                       const InferenceOptions& opts) {
  ModeAnalysis analysis;
  Inferencer inf(store, program, graph, decls, opts, &analysis);
  PRORE_RETURN_IF_ERROR(inf.Run());
  // Library modes are part of the published tables so the oracle can check
  // calls into the library.
  AddLibraryModes(const_cast<TermStore*>(&store), &analysis.table);
  AddLibraryModes(const_cast<TermStore*>(&store), &analysis.legal_table);
  return analysis;
}

// ---- LegalityOracle ----------------------------------------------------------

LegalityOracle::LegalityOracle(const TermStore* store,
                               const reader::Program* program,
                               const CallGraph* graph,
                               const ModeAnalysis* analysis)
    : store_(store), program_(program), graph_(graph), analysis_(analysis) {}

LegalityOracle::LegalityOracle(const LegalityOracle* base)
    : store_(base->store_),
      program_(base->program_),
      graph_(base->graph_),
      analysis_(base->analysis_),
      base_(base) {}

void LegalityOracle::Absorb(const LegalityOracle& other) {
  for (const auto& [key, entry] : other.memo_) memo_.emplace(key, entry);
}

std::string LegalityOracle::Key(const PredId& id, const Mode& mode) const {
  return store_->symbols().Name(id.name) + "/" + std::to_string(id.arity) +
         ":" + ModeSuffix(mode);
}

bool LegalityOracle::IsLegalCall(const PredId& id, const Mode& call_mode) {
  const std::string& name = store_->symbols().Name(id.name);
  if (!program_->Has(id) &&
      engine::LookupBuiltin(name, id.arity) != nullptr) {
    return builtin_modes_.IsLegalCall(name, id.arity, call_mode);
  }
  if (program_->Has(id) && !graph_->IsRecursive(id)) {
    // Non-recursive predicates are judged structurally (do all their
    // goals' demands hold in this mode?), never by table pairs: a mode
    // "observed" under a speculative entry enumeration carries no
    // legality (the walk assumed the entry works in that mode).
    return Analyze(id, call_mode).legal;
  }
  // Recursive predicates and library predicates: declared or
  // (non-speculatively) observed legal modes only.
  return analysis_->legal_table.IsLegalCall(id, call_mode);
}

Mode LegalityOracle::Output(const PredId& id, const Mode& call_mode) {
  const std::string& name = store_->symbols().Name(id.name);
  if (!program_->Has(id) &&
      engine::LookupBuiltin(name, id.arity) != nullptr) {
    auto out = builtin_modes_.OutputFor(name, id.arity, call_mode);
    return out.value_or(ApplyOutput(call_mode, Mode(id.arity, ModeItem::kAny)));
  }
  if (auto out = analysis_->table.OutputFor(id, call_mode); out.has_value()) {
    return *out;
  }
  if (program_->Has(id) && !graph_->IsRecursive(id)) {
    const Entry& e = Analyze(id, call_mode);
    if (e.legal) return e.output;
  }
  return ApplyOutput(call_mode, Mode(id.arity, ModeItem::kAny));
}

const LegalityOracle::Entry& LegalityOracle::Analyze(const PredId& id,
                                                     const Mode& call_mode) {
  std::string key = Key(id, call_mode);
  auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  if (base_ != nullptr) {
    auto bit = base_->memo_.find(key);
    if (bit != base_->memo_.end()) return bit->second;
  }
  if (in_progress_.count(key) > 0) {
    // Defensive: shouldn't happen for non-recursive predicates.
    static const auto& kIllegal = *new Entry{false, {}};
    return kIllegal;
  }
  in_progress_.insert(key);
  Entry entry;
  entry.legal = true;
  bool first = true;
  Mode combined;
  for (const reader::Clause& clause : program_->ClausesOf(id)) {
    AbstractEnv env = EnvFromHead(*store_, clause.head, call_mode);
    auto body = ParseBody(*store_, clause.body);
    if (!body.ok()) {
      entry.legal = false;
      break;
    }
    // Walk the clause body sequentially, checking each call's legality.
    bool clause_ok = WalkCheck(**body, &env);
    if (!clause_ok) {
      entry.legal = false;
      break;
    }
    TermRef head = store_->Deref(clause.head);
    Mode clause_out(id.arity);
    for (uint32_t i = 0; i < id.arity; ++i) {
      clause_out[i] = env.ModeOf(*store_, store_->arg(head, i));
    }
    if (first) {
      combined = clause_out;
      first = false;
    } else {
      for (uint32_t i = 0; i < id.arity; ++i) {
        if (combined[i] != clause_out[i]) combined[i] = ModeItem::kAny;
      }
    }
  }
  if (first) combined = Mode(id.arity, ModeItem::kAny);
  entry.output = entry.legal
                     ? ApplyOutput(call_mode, combined)
                     : ApplyOutput(call_mode, Mode(id.arity, ModeItem::kAny));
  in_progress_.erase(key);
  return memo_.emplace(key, std::move(entry)).first->second;
}

void AdvanceEnvOverNode(const TermStore& store, const BodyNode& node,
                        LegalityOracle* oracle, AbstractEnv* env) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kFail:
    case BodyKind::kCut:
    case BodyKind::kNeg:
      return;
    case BodyKind::kConj:
      for (const auto& child : node.children) {
        AdvanceEnvOverNode(store, *child, oracle, env);
      }
      return;
    case BodyKind::kDisj: {
      AbstractEnv left = *env, right = *env;
      AdvanceEnvOverNode(store, *node.children[0], oracle, &left);
      AdvanceEnvOverNode(store, *node.children[1], oracle, &right);
      *env = AbstractEnv::Join(left, right);
      return;
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env, else_env = *env;
      AdvanceEnvOverNode(store, *node.children[0], oracle, &then_env);
      AdvanceEnvOverNode(store, *node.children[1], oracle, &then_env);
      AdvanceEnvOverNode(store, *node.children[2], oracle, &else_env);
      *env = AbstractEnv::Join(then_env, else_env);
      return;
    }
    case BodyKind::kSetPred: {
      term::TermRef goal = store.Deref(node.goal);
      std::vector<term::TermRef> vars;
      store.CollectVars(store.arg(goal, 2), &vars);
      for (term::TermRef v : vars) {
        if (env->Get(store.var_id(v)) == VarState::kFree) {
          env->Set(store.var_id(v), VarState::kUnknown);
        }
      }
      return;
    }
    case BodyKind::kCatch: {
      // Join "goal completed" with "recovery ran from the pre-goal env"
      // (the catcher may bind variables of the catcher pattern).
      AbstractEnv goal_env = *env, rec_env = *env;
      AdvanceEnvOverNode(store, *node.children[0], oracle, &goal_env);
      term::TermRef goal = store.Deref(node.goal);
      std::vector<term::TermRef> catcher_vars;
      store.CollectVars(store.arg(goal, 1), &catcher_vars);
      for (term::TermRef v : catcher_vars) {
        if (rec_env.Get(store.var_id(v)) == VarState::kFree) {
          rec_env.Set(store.var_id(v), VarState::kUnknown);
        }
      }
      AdvanceEnvOverNode(store, *node.children[1], oracle, &rec_env);
      *env = AbstractEnv::Join(goal_env, rec_env);
      return;
    }
    case BodyKind::kCall: {
      term::TermRef goal = store.Deref(node.goal);
      PredId callee = store.pred_id(goal);
      const std::string& name = store.symbols().Name(callee.name);
      if (name == "=" && callee.arity == 2) {
        env->ApplyUnification(store, store.arg(goal, 0), store.arg(goal, 1));
        return;
      }
      Mode mode = env->CallModeOf(store, goal);
      Mode output = oracle->Output(callee, mode);
      env->ApplyCallOutput(store, goal, output);
      return;
    }
  }
}

bool LegalityOracle::WalkCheck(const BodyNode& node, AbstractEnv* env) {
  switch (node.kind) {
    case BodyKind::kTrue:
    case BodyKind::kFail:
    case BodyKind::kCut:
      return true;
    case BodyKind::kConj:
      for (const auto& child : node.children) {
        if (!WalkCheck(*child, env)) return false;
      }
      return true;
    case BodyKind::kDisj: {
      AbstractEnv left = *env;
      AbstractEnv right = *env;
      if (!WalkCheck(*node.children[0], &left)) return false;
      if (!WalkCheck(*node.children[1], &right)) return false;
      *env = AbstractEnv::Join(left, right);
      return true;
    }
    case BodyKind::kIfThenElse: {
      AbstractEnv then_env = *env;
      AbstractEnv else_env = *env;
      if (!WalkCheck(*node.children[0], &then_env)) return false;
      if (!WalkCheck(*node.children[1], &then_env)) return false;
      if (!WalkCheck(*node.children[2], &else_env)) return false;
      *env = AbstractEnv::Join(then_env, else_env);
      return true;
    }
    case BodyKind::kNeg: {
      AbstractEnv scratch = *env;
      return WalkCheck(*node.children[0], &scratch);
    }
    case BodyKind::kSetPred: {
      AbstractEnv scratch = *env;
      if (!WalkCheck(*node.children[0], &scratch)) return false;
      term::TermRef goal = store_->Deref(node.goal);
      std::vector<term::TermRef> vars;
      store_->CollectVars(store_->arg(goal, 2), &vars);
      for (term::TermRef v : vars) {
        if (env->Get(store_->var_id(v)) == VarState::kFree) {
          env->Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      return true;
    }
    case BodyKind::kCatch: {
      AbstractEnv goal_env = *env, rec_env = *env;
      if (!WalkCheck(*node.children[0], &goal_env)) return false;
      term::TermRef goal = store_->Deref(node.goal);
      std::vector<term::TermRef> catcher_vars;
      store_->CollectVars(store_->arg(goal, 1), &catcher_vars);
      for (term::TermRef v : catcher_vars) {
        if (rec_env.Get(store_->var_id(v)) == VarState::kFree) {
          rec_env.Set(store_->var_id(v), VarState::kUnknown);
        }
      }
      if (!WalkCheck(*node.children[1], &rec_env)) return false;
      *env = AbstractEnv::Join(goal_env, rec_env);
      return true;
    }
    case BodyKind::kCall: {
      term::TermRef goal = store_->Deref(node.goal);
      PredId callee = store_->pred_id(goal);
      const std::string& name = store_->symbols().Name(callee.name);
      Mode call_mode = env->CallModeOf(*store_, goal);
      if (name == "=" && callee.arity == 2) {
        env->ApplyUnification(*store_, store_->arg(goal, 0),
                              store_->arg(goal, 1));
        return true;
      }
      if (!IsLegalCall(callee, call_mode)) return false;
      Mode output = Output(callee, call_mode);
      env->ApplyCallOutput(*store_, goal, output);
      return true;
    }
  }
  return true;
}

}  // namespace prore::analysis
