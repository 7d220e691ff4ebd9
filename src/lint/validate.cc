// The reorder validator: re-checks a reorderer transformation against the
// original program, so every optimizer run verifies its own output. The
// checks mirror the guarantees the reorderer claims (PL100..PL103); see
// validate.h for the catalogue.

#include "lint/validate.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/body.h"
#include "common/str_util.h"
#include "reader/writer.h"

namespace prore::lint {
namespace {

using analysis::AbstractEnv;
using analysis::BodyKind;
using analysis::BodyNode;
using analysis::Mode;
using analysis::ModeItem;
using analysis::VarState;
using reader::Clause;
using term::PredId;
using term::Tag;
using term::TermRef;
using term::TermStore;

size_t PlusCount(const Mode& mode) {
  size_t n = 0;
  for (ModeItem m : mode) {
    if (m == ModeItem::kPlus) ++n;
  }
  return n;
}

class Validator {
 public:
  Validator(TermStore* store, const ReorderCheckInput& in)
      : store_(store), in_(in) {
    for (const VersionInfo& v : in.versions) {
      const std::string& original = store_->symbols().Name(v.pred.name);
      if (v.version_name != original) {
        by_name_.emplace(v.version_name, &v);
        dispatched_.insert(v.pred);
      }
      by_pred_[v.pred].push_back(&v);
    }
  }

  std::vector<Diagnostic> Run() {
    CheckCoverage();
    for (const VersionInfo& v : in_.versions) CheckVersion(v);
    CheckDispatchers();
    sink_.Sort();
    return sink_.Take();
  }

 private:
  // Deduplicated reporting: transformed terms mostly have no source spans,
  // so identical findings from different walks would otherwise collide.
  void Report(const char* code, Severity severity, reader::SourceSpan span,
              std::string pred, std::string message) {
    Diagnostic d{code, severity, span, std::move(pred), std::move(message)};
    if (seen_.insert(d.ToString()).second) sink_.Report(std::move(d));
  }

  /// Span of a transformed goal: unrenamed goals keep their original
  /// TermRef, so the original program's span table often still knows them.
  reader::SourceSpan SpanOf(TermRef t) const {
    return in_.original->TermSpan(store_->Deref(t));
  }

  std::string NameOf(const PredId& id) const {
    return reader::PredName(*store_, id);
  }

  /// The original predicate a (possibly version-renamed) callee denotes.
  PredId MapCallee(const PredId& callee) const {
    const VersionInfo* v = VersionNamed(store_->symbols().Name(callee.name));
    if (v != nullptr && v->pred.arity == callee.arity) return v->pred;
    return callee;
  }

  /// The version emitted under `name`, here or in a callee group.
  const VersionInfo* VersionNamed(const std::string& name) const {
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    if (in_.callee_versions != nullptr) {
      auto cit = in_.callee_versions->find(name);
      if (cit != in_.callee_versions->end()) return &cit->second;
    }
    return nullptr;
  }

  // ---- PL103: predicate coverage ------------------------------------------

  void CheckCoverage() {
    for (const PredId& pred : in_.preds != nullptr
                                  ? *in_.preds
                                  : in_.original->pred_order()) {
      if (!in_.transformed->Has(pred)) {
        Report("PL103", Severity::kError, {}, NameOf(pred),
               "predicate has no definition in the transformed program");
      }
    }
  }

  // ---- Structural helpers --------------------------------------------------

  /// Variables that occur exactly once in one compared part of a clause.
  /// PL101 writes them as `_` in its keys: a singleton's name carries no
  /// meaning, and re-reading written text renames the unnamed ones (the
  /// writer renders them `_G<var_id>`, and var ids belong to the store).
  using Singletons = std::unordered_set<TermRef>;
  using VarCounts = std::unordered_map<TermRef, int>;

  void CountVars(TermRef t, VarCounts* counts) const {
    std::vector<TermRef> stack{t};
    while (!stack.empty()) {
      TermRef u = store_->Deref(stack.back());
      stack.pop_back();
      if (store_->tag(u) == Tag::kVar) {
        ++(*counts)[u];
      } else if (store_->tag(u) == Tag::kStruct) {
        for (uint32_t i = 0; i < store_->arity(u); ++i) {
          stack.push_back(store_->arg(u, i));
        }
      }
    }
  }

  /// Counts the variable occurrences of a body tree: leaves and the
  /// set-predicate and catch/3 wrappers hold their whole term as `goal`.
  void CountVars(const BodyNode& node, VarCounts* counts) const {
    switch (node.kind) {
      case BodyKind::kCall:
      case BodyKind::kSetPred:
      case BodyKind::kCatch:
        CountVars(node.goal, counts);
        return;
      default:
        for (const auto& child : node.children) CountVars(*child, counts);
        return;
    }
  }

  /// The singletons of one compared part: a head plus one body. A guarded
  /// clause is two parts (head + normal branch, head + optimistic branch),
  /// never one: the branches share goal terms, so counting over both would
  /// make every singleton look shared.
  Singletons SingletonsOf(TermRef head, const BodyNode& body) const {
    VarCounts counts;
    CountVars(head, &counts);
    CountVars(body, &counts);
    Singletons singles;
    for (const auto& [var, n] : counts) {
      if (n == 1) singles.insert(var);
    }
    return singles;
  }

  /// Appends a canonical form of `t`: `_` for a variable in `singles`, the
  /// writer's text for other variables and for numbers, and symbol ids for
  /// atoms and functors (keys only ever meet keys of the same store, so an
  /// id is as exact as a name and needs no quoting).
  void AppendKey(TermRef t, const Singletons& singles,
                 std::string* out) const {
    // A compound's last argument is written by the loop, not by recursion,
    // so a long list costs no stack; `open` counts the parentheses owed.
    size_t open = 0;
    for (t = store_->Deref(t); store_->tag(t) == Tag::kStruct;
         t = store_->Deref(store_->arg(t, store_->arity(t) - 1))) {
      const uint32_t n = store_->arity(t);
      out->append(prore::StrFormat("f%u/%u(", store_->symbol(t), n));
      for (uint32_t i = 0; i + 1 < n; ++i) {
        AppendKey(store_->arg(t, i), singles, out);
        out->push_back(',');
      }
      ++open;
    }
    switch (store_->tag(t)) {
      case Tag::kVar:
        if (singles.count(t) > 0) {
          out->push_back('_');
        } else {
          out->append(reader::WriteTerm(*store_, t));
        }
        break;
      case Tag::kInt:
        out->push_back('i');
        out->append(std::to_string(store_->int_value(t)));
        break;
      case Tag::kFloat:
        out->push_back('d');
        out->append(reader::WriteTerm(*store_, t));
        break;
      case Tag::kAtom:
        out->push_back('a');
        out->append(std::to_string(store_->symbol(t)));
        break;
      case Tag::kStruct:
        break;  // unreachable: the loop above consumed compounds
    }
    out->append(open, ')');
  }

  /// A renaming-insensitive key for one goal: the original predicate name
  /// plus the argument keys. Emitted goals reuse the original argument
  /// TermRefs, so equal goals key equally; a re-parsed copy does too, as
  /// long as its variables keep their names or stay singletons.
  std::string GoalKey(TermRef goal, const Singletons& singles) const {
    TermRef g = store_->Deref(goal);
    std::string key;
    if (!store_->IsCallable(g)) {
      AppendKey(g, singles, &key);
      return key;
    }
    key = NameOf(MapCallee(store_->pred_id(g)));
    for (uint32_t i = 0; i < store_->arity(g); ++i) {
      key += "|";
      AppendKey(store_->arg(g, i), singles, &key);
    }
    return key;
  }

  /// Collects goal keys in execution order. Set-predicates contribute one
  /// key from their outer arguments (their inner conjunction may be
  /// legitimately reordered) plus the inner calls.
  void CollectKeys(const BodyNode& node, const Singletons& singles,
                   std::vector<std::string>* out) const {
    switch (node.kind) {
      case BodyKind::kTrue:
      case BodyKind::kFail:
      case BodyKind::kCut:
        return;
      case BodyKind::kCall:
        out->push_back(GoalKey(node.goal, singles));
        return;
      case BodyKind::kSetPred: {
        TermRef g = store_->Deref(node.goal);
        std::string key = NameOf(store_->pred_id(g));
        key += '|';
        AppendKey(store_->arg(g, 0), singles, &key);
        key += '|';
        AppendKey(store_->arg(g, 2), singles, &key);
        out->push_back(std::move(key));
        CollectKeys(*node.children[0], singles, out);
        return;
      }
      case BodyKind::kCatch: {
        // Opaque: one key from the catcher pattern plus the inner calls
        // (the reorderer never rearranges inside catch/3, but callees may
        // be renamed by unfolding).
        TermRef g = store_->Deref(node.goal);
        std::string key = NameOf(store_->pred_id(g));
        key += '|';
        AppendKey(store_->arg(g, 1), singles, &key);
        out->push_back(std::move(key));
        for (const auto& child : node.children) {
          CollectKeys(*child, singles, out);
        }
        return;
      }
      case BodyKind::kConj:
      case BodyKind::kDisj:
      case BodyKind::kIfThenElse:
      case BodyKind::kNeg:
        for (const auto& child : node.children) {
          CollectKeys(*child, singles, out);
        }
        return;
    }
  }

  /// True if the goal is pinned: the reorderer promises not to move it
  /// relative to other pinned goals (side-effect built-ins and calls to
  /// fixed predicates).
  bool IsPinned(const std::string& key) const {
    auto it = pinned_keys_.find(key);
    return it != pinned_keys_.end();
  }

  void NotePinned(const BodyNode& node, const Singletons& singles) {
    std::vector<TermRef> goals;
    analysis::CollectCalledGoals(*store_, node, &goals);
    for (TermRef goal : goals) {
      TermRef g = store_->Deref(goal);
      if (!store_->IsCallable(g)) continue;
      PredId callee = MapCallee(store_->pred_id(g));
      const std::string& bare = store_->symbols().Name(callee.name);
      bool pinned = analysis::IsSideEffectBuiltin(bare, callee.arity) ||
                    (in_.fixity != nullptr && in_.original->Has(callee) &&
                     in_.fixity->IsFixed(callee));
      if (pinned) pinned_keys_.insert(GoalKey(g, singles));
    }
  }

  static int CountCuts(const BodyNode& node) {
    int n = node.kind == BodyKind::kCut ? 1 : 0;
    for (const auto& child : node.children) n += CountCuts(*child);
    return n;
  }

  /// `(ground(A), ... -> Optimistic ; Normal)` — the §V-D run-time guard
  /// wrapper. Returns the normal branch and exposes the optimistic one.
  const BodyNode* StripGuard(const BodyNode& body,
                             const BodyNode** optimistic) const {
    *optimistic = nullptr;
    if (body.kind != BodyKind::kIfThenElse) return &body;
    std::vector<TermRef> cond_goals;
    analysis::CollectCalledGoals(*store_, *body.children[0], &cond_goals);
    if (cond_goals.empty()) return &body;
    for (TermRef goal : cond_goals) {
      TermRef g = store_->Deref(goal);
      if (store_->tag(g) != Tag::kStruct || store_->arity(g) != 1 ||
          store_->symbols().Name(store_->symbol(g)) != "ground") {
        return &body;
      }
    }
    *optimistic = body.children[1].get();
    return body.children[2].get();
  }

  /// Structural equality of original vs transformed term, tolerating only
  /// the version renaming of callable functors. Leaves compare by identity
  /// (the emitter reuses the original TermRefs for everything it does not
  /// rebuild).
  bool EqualModuloVersions(TermRef a, TermRef b) const {
    a = store_->Deref(a);
    b = store_->Deref(b);
    if (a == b) return true;
    if (store_->tag(a) != store_->tag(b)) return false;
    switch (store_->tag(a)) {
      case Tag::kVar:
        return false;  // distinct refs = distinct variables
      case Tag::kInt:
        return store_->int_value(a) == store_->int_value(b);
      case Tag::kFloat:
        return store_->float_value(a) == store_->float_value(b);
      case Tag::kAtom:
      case Tag::kStruct: {
        if (store_->arity(a) != store_->arity(b)) return false;
        PredId pa = store_->pred_id(a);
        if (pa != MapCallee(store_->pred_id(b))) return false;
        for (uint32_t i = 0; i < store_->arity(a); ++i) {
          if (!EqualModuloVersions(store_->arg(a, i), store_->arg(b, i))) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  /// Body-tree equality modulo version renaming. Comparing trees rather
  /// than raw terms tolerates the emitter's normalizations (`false` ->
  /// `fail`, `not` -> `\+`, `call(G)` unwrapping) that preserve meaning.
  bool EqualTree(const BodyNode& a, const BodyNode& b) const {
    if (a.kind != b.kind || a.children.size() != b.children.size()) {
      return false;
    }
    if (a.kind == BodyKind::kCall) {
      return EqualModuloVersions(a.goal, b.goal);
    }
    if (a.kind == BodyKind::kSetPred) {
      TermRef ga = store_->Deref(a.goal);
      TermRef gb = store_->Deref(b.goal);
      if (store_->pred_id(ga) != store_->pred_id(gb) ||
          !EqualModuloVersions(store_->arg(ga, 0), store_->arg(gb, 0)) ||
          !EqualModuloVersions(store_->arg(ga, 2), store_->arg(gb, 2))) {
        return false;
      }
    }
    for (size_t i = 0; i < a.children.size(); ++i) {
      if (!EqualTree(*a.children[i], *b.children[i])) return false;
    }
    return true;
  }

  // ---- PL101: clause preservation ------------------------------------------

  struct BodyShape {
    std::vector<std::string> sequence;  // goal keys, execution order
    std::vector<std::string> sorted;    // the multiset
    std::vector<std::string> pinned;    // pinned subsequence, in order
    int cuts = 0;
  };

  BodyShape ShapeOf(const BodyNode& body, const Singletons& singles) const {
    BodyShape s;
    CollectKeys(body, singles, &s.sequence);
    s.sorted = s.sequence;
    std::sort(s.sorted.begin(), s.sorted.end());
    for (const std::string& key : s.sequence) {
      if (IsPinned(key)) s.pinned.push_back(key);
    }
    s.cuts = CountCuts(body);
    return s;
  }

  static bool SameShape(const BodyShape& a, const BodyShape& b) {
    return a.sorted == b.sorted && a.pinned == b.pinned && a.cuts == b.cuts;
  }

  void CheckVersion(const VersionInfo& v) {
    const std::string& original_name = store_->symbols().Name(v.pred.name);
    PredId vid = v.pred;
    if (v.version_name != original_name) {
      vid = PredId{store_->symbols().Intern(v.version_name), v.pred.arity};
      // A version merged into a structurally identical twin leaves no
      // clauses of its own; the twin is checked under its own entry.
      if (!in_.transformed->Has(vid)) return;
    } else if (!in_.transformed->Has(vid)) {
      return;  // PL103 already reported
    }
    const auto& orig_clauses = in_.original->ClausesOf(v.pred);
    const auto& trans_clauses = in_.transformed->ClausesOf(vid);
    const std::string where = NameOf(vid);
    CheckBodyModes(v, vid, trans_clauses);

    if (in_.no_reorder.count(v.pred) > 0) {
      if (orig_clauses.size() != trans_clauses.size()) {
        Report("PL101", Severity::kError, {}, where,
               prore::StrFormat(
                   "no-reorder predicate changed clause count: %zu -> %zu",
                   orig_clauses.size(), trans_clauses.size()));
        return;
      }
      for (size_t i = 0; i < orig_clauses.size(); ++i) {
        bool same = EqualModuloVersions(orig_clauses[i].head,
                                        trans_clauses[i].head);
        if (same) {
          auto ta = analysis::ParseBody(*store_, orig_clauses[i].body);
          auto tb = analysis::ParseBody(*store_, trans_clauses[i].body);
          if (ta.ok() != tb.ok()) {
            same = false;
          } else if (ta.ok()) {
            same = EqualTree(*ta.value(), *tb.value());
          }
        }
        if (!same) {
          Report("PL101", Severity::kError,
                 orig_clauses[i].span, where,
                 prore::StrFormat("no-reorder predicate: clause %zu is not "
                                  "identical to the original",
                                  i + 1));
        }
      }
      return;
    }

    // Reorderable predicate: match clauses by head (the emitter reuses the
    // original head argument TermRefs), then require each body to keep its
    // goal multiset, cut count and pinned-goal order.
    //
    // Keys are written, not ref-identity: emitted clauses reuse the
    // original TermRefs so both key equally, and a re-parsed program (the
    // analysis cache re-validating an adopted entry) still matches as long
    // as every variable keeps its source name or stays a singleton of its
    // part. Colliding head keys are fine — the shape check disambiguates.
    auto head_key = [this](TermRef head, const Singletons& singles) {
      TermRef h = store_->Deref(head);
      std::string key;
      for (uint32_t i = 0; i < store_->arity(h); ++i) {
        AppendKey(store_->arg(h, i), singles, &key);
        key += ',';
      }
      return key;
    };
    std::vector<std::unique_ptr<BodyNode>> orig_bodies(orig_clauses.size());
    std::vector<Singletons> orig_singles(orig_clauses.size());
    for (size_t i = 0; i < orig_clauses.size(); ++i) {
      auto body = analysis::ParseBody(*store_, orig_clauses[i].body);
      if (!body.ok()) continue;
      orig_bodies[i] = std::move(body).value();
      orig_singles[i] = SingletonsOf(orig_clauses[i].head, *orig_bodies[i]);
      NotePinned(*orig_bodies[i], orig_singles[i]);
    }
    std::multimap<std::string, size_t> by_head;
    std::vector<BodyShape> orig_shapes(orig_clauses.size());
    for (size_t i = 0; i < orig_clauses.size(); ++i) {
      if (orig_bodies[i] == nullptr) continue;
      orig_shapes[i] = ShapeOf(*orig_bodies[i], orig_singles[i]);
      by_head.emplace(head_key(orig_clauses[i].head, orig_singles[i]), i);
    }
    std::vector<bool> consumed(orig_clauses.size(), false);
    for (size_t t = 0; t < trans_clauses.size(); ++t) {
      auto body = analysis::ParseBody(*store_, trans_clauses[t].body);
      if (!body.ok()) {
        Report("PL101", Severity::kError, {}, where,
               prore::StrFormat("clause %zu: transformed body is not "
                                "analyzable: %s",
                                t + 1, body.status().ToString().c_str()));
        continue;
      }
      const TermRef head = trans_clauses[t].head;
      const BodyNode* optimistic = nullptr;
      const BodyNode* normal = StripGuard(*body.value(), &optimistic);
      const Singletons singles = SingletonsOf(head, *normal);
      const std::string key = head_key(head, singles);
      BodyShape shape = ShapeOf(*normal, singles);
      // The optimistic branch is its own part: it must key its head and
      // body like the original too, under its own singletons.
      bool optimistic_ok = true;
      BodyShape opt_shape;
      if (optimistic != nullptr) {
        const Singletons opt_singles = SingletonsOf(head, *optimistic);
        optimistic_ok = head_key(head, opt_singles) == key;
        opt_shape = ShapeOf(*optimistic, opt_singles);
      }
      auto [lo, hi] = by_head.equal_range(key);
      bool matched = false;
      bool any_candidate = false;
      for (auto it = lo; it != hi; ++it) {
        size_t i = it->second;
        if (consumed[i]) continue;
        any_candidate = true;
        if (!SameShape(orig_shapes[i], shape)) continue;
        if (optimistic != nullptr &&
            (!optimistic_ok || !SameShape(orig_shapes[i], opt_shape))) {
          continue;
        }
        consumed[i] = true;
        matched = true;
        break;
      }
      if (!matched) {
        Report("PL101", Severity::kError, {}, where,
               any_candidate
                   ? prore::StrFormat(
                         "clause %zu does not preserve its original body "
                         "(goals lost or duplicated, cut count changed, "
                         "or a pinned goal moved)",
                         t + 1)
                   : prore::StrFormat(
                         "clause %zu has no matching original clause",
                         t + 1));
      }
    }
    for (size_t i = 0; i < orig_clauses.size(); ++i) {
      if (orig_bodies[i] != nullptr && !consumed[i]) {
        Report("PL101", Severity::kError, orig_clauses[i].span, where,
               prore::StrFormat("original clause %zu is missing from the "
                                "transformed predicate",
                                i + 1));
      }
    }
  }

  // ---- PL100: legality of transformed bodies -------------------------------

  void CheckBodyModes(const VersionInfo& v, const PredId& vid,
                      const std::vector<Clause>& clauses) {
    if (in_.oracle == nullptr) return;
    if (v.mode.size() != v.pred.arity) return;
    const std::string where = NameOf(vid);
    // The check is differential: walk the *original* clauses under the
    // same input mode first, collecting the callees whose demands the
    // original program already cannot prove (the oracle is conservative —
    // e.g. it cannot see that findall/3 grounds its result). Only
    // violations the transformation introduced are reported.
    baseline_.clear();
    collecting_baseline_ = true;
    for (const Clause& clause : in_.original->ClausesOf(v.pred)) {
      auto body = analysis::ParseBody(*store_, clause.body);
      if (!body.ok()) continue;
      AbstractEnv env =
          analysis::EnvFromHead(*store_, store_->Deref(clause.head), v.mode);
      WalkModes(*body.value(), &env, where);
    }
    collecting_baseline_ = false;
    for (const Clause& clause : clauses) {
      auto body = analysis::ParseBody(*store_, clause.body);
      if (!body.ok()) continue;  // PL101 reported it
      AbstractEnv env =
          analysis::EnvFromHead(*store_, store_->Deref(clause.head), v.mode);
      WalkModes(*body.value(), &env, where);
    }
  }

  /// Collects the instantiation facts a guard conjunction establishes:
  /// ground/1 grounds its argument's variables in the then-branch;
  /// '$var_test'/1 means "is an unbound variable" in the then-branch and
  /// "is bound" in the else-branch. Returns false for ordinary conditions.
  bool GuardFacts(const BodyNode& cond, std::vector<TermRef>* ground_args,
                  std::vector<TermRef>* var_args) const {
    switch (cond.kind) {
      case BodyKind::kConj:
        for (const auto& child : cond.children) {
          if (!GuardFacts(*child, ground_args, var_args)) return false;
        }
        return true;
      case BodyKind::kCall: {
        TermRef g = store_->Deref(cond.goal);
        if (store_->tag(g) != Tag::kStruct || store_->arity(g) != 1) {
          return false;
        }
        const std::string& name = store_->symbols().Name(store_->symbol(g));
        if (name == "ground") {
          ground_args->push_back(store_->arg(g, 0));
          return true;
        }
        if (name == "$var_test") {
          var_args->push_back(store_->arg(g, 0));
          return true;
        }
        return false;
      }
      default:
        return false;
    }
  }

  void WalkModes(const BodyNode& node, AbstractEnv* env,
                 const std::string& where) {
    switch (node.kind) {
      case BodyKind::kTrue:
      case BodyKind::kFail:
      case BodyKind::kCut:
        return;
      case BodyKind::kConj:
        for (const auto& child : node.children) {
          WalkModes(*child, env, where);
        }
        return;
      case BodyKind::kDisj: {
        AbstractEnv left = *env, right = *env;
        WalkModes(*node.children[0], &left, where);
        WalkModes(*node.children[1], &right, where);
        *env = AbstractEnv::Join(left, right);
        return;
      }
      case BodyKind::kIfThenElse: {
        AbstractEnv then_env = *env, else_env = *env;
        std::vector<TermRef> ground_args, var_args;
        if (GuardFacts(*node.children[0], &ground_args, &var_args)) {
          // The guard's own goals are instantiation tests — legal in any
          // mode — so only their refinement matters.
          for (TermRef a : ground_args) {
            std::vector<TermRef> vars;
            store_->CollectVars(a, &vars);
            for (TermRef var : vars) {
              then_env.Set(store_->var_id(var), VarState::kGround);
            }
          }
          for (TermRef a : var_args) {
            TermRef t = store_->Deref(a);
            if (store_->tag(t) == Tag::kVar) {
              then_env.Set(store_->var_id(t), VarState::kFree);
              // else-branch: the argument is bound (nonvar), though not
              // necessarily ground.
              if (else_env.Get(store_->var_id(t)) == VarState::kFree) {
                else_env.Set(store_->var_id(t), VarState::kUnknown);
              }
            }
          }
        } else {
          WalkModes(*node.children[0], &then_env, where);
        }
        WalkModes(*node.children[1], &then_env, where);
        WalkModes(*node.children[2], &else_env, where);
        *env = AbstractEnv::Join(then_env, else_env);
        return;
      }
      case BodyKind::kNeg: {
        AbstractEnv scratch = *env;
        WalkModes(*node.children[0], &scratch, where);
        return;
      }
      case BodyKind::kSetPred: {
        AbstractEnv scratch = *env;
        WalkModes(*node.children[0], &scratch, where);
        TermRef g = store_->Deref(node.goal);
        std::vector<TermRef> vars;
        store_->CollectVars(store_->arg(g, 2), &vars);
        for (TermRef var : vars) {
          if (env->Get(store_->var_id(var)) == VarState::kFree) {
            env->Set(store_->var_id(var), VarState::kUnknown);
          }
        }
        return;
      }
      case BodyKind::kCatch: {
        AbstractEnv goal_env = *env, rec_env = *env;
        WalkModes(*node.children[0], &goal_env, where);
        TermRef g = store_->Deref(node.goal);
        std::vector<TermRef> catcher_vars;
        store_->CollectVars(store_->arg(g, 1), &catcher_vars);
        for (TermRef var : catcher_vars) {
          if (rec_env.Get(store_->var_id(var)) == VarState::kFree) {
            rec_env.Set(store_->var_id(var), VarState::kUnknown);
          }
        }
        WalkModes(*node.children[1], &rec_env, where);
        *env = AbstractEnv::Join(goal_env, rec_env);
        return;
      }
      case BodyKind::kCall: {
        CheckCall(node.goal, *env, where);
        AdvanceCall(node.goal, env);
        return;
      }
    }
  }

  void CheckCall(TermRef goal, const AbstractEnv& env,
                 const std::string& where) {
    TermRef g = store_->Deref(goal);
    if (!store_->IsCallable(g)) return;
    PredId callee = store_->pred_id(g);
    const std::string& bare = store_->symbols().Name(callee.name);
    if (bare == "=" && callee.arity == 2) return;
    Mode call_mode = env.CallModeOf(*store_, g);

    const VersionInfo* version = VersionNamed(bare);
    if (version != nullptr && version->pred.arity == callee.arity) {
      if (collecting_baseline_) return;  // originals never call versions
      // Direct call to a specialized version: every '+' the version
      // assumes must be provably instantiated here.
      const Mode& assumed = version->mode;
      for (size_t i = 0; i < assumed.size() && i < call_mode.size(); ++i) {
        if (assumed[i] == ModeItem::kPlus &&
            call_mode[i] != ModeItem::kPlus) {
          Report("PL100", Severity::kError, SpanOf(g), where,
                 prore::StrFormat(
                     "call to %s assumes argument %zu instantiated "
                     "(mode %s) but the call mode is %s",
                     NameOf(callee).c_str(), i + 1,
                     analysis::ModeString(assumed).c_str(),
                     analysis::ModeString(call_mode).c_str()));
        }
      }
      return;
    }
    if (in_.original->Has(callee)) {
      // A call through the original name reaches the dispatcher, whose
      // run-time tests select a safe version — mode-legal by design.
      // Coverage (PL103) already guarantees the name still resolves.
      return;
    }
    bool illegal = false;
    const char* what = nullptr;
    const auto& builtin_pairs =
        in_.oracle->builtin_modes().PairsFor(bare, callee.arity);
    if (!builtin_pairs.empty()) {
      illegal = !in_.oracle->builtin_modes().IsLegalCall(bare, callee.arity,
                                                         call_mode);
      what = "built-in %s called in illegal mode %s";
    } else if (in_.modes != nullptr && in_.modes->legal_table.Has(callee)) {
      illegal = !in_.modes->legal_table.IsLegalCall(callee, call_mode);
      what = "call to %s in mode %s matches none of its legal modes";
    }
    if (!illegal) return;
    if (collecting_baseline_) {
      baseline_.insert(NameOf(callee));
      return;
    }
    if (baseline_.count(NameOf(callee)) > 0) return;
    Report("PL100", Severity::kError, SpanOf(g), where,
           prore::StrFormat(what, NameOf(callee).c_str(),
                            analysis::ModeString(call_mode).c_str()));
  }

  void AdvanceCall(TermRef goal, AbstractEnv* env) {
    TermRef g = store_->Deref(goal);
    if (!store_->IsCallable(g)) return;
    PredId callee = store_->pred_id(g);
    const std::string& bare = store_->symbols().Name(callee.name);
    if (bare == "=" && callee.arity == 2) {
      env->ApplyUnification(*store_, store_->arg(g, 0), store_->arg(g, 1));
      return;
    }
    Mode call_mode = env->CallModeOf(*store_, g);
    Mode output = in_.oracle->Output(MapCallee(callee), call_mode);
    env->ApplyCallOutput(*store_, g, output);
  }

  // ---- PL102: dispatcher shape ---------------------------------------------

  void CheckDispatchers() {
    for (const PredId& pred : dispatched_) {
      if (!in_.transformed->Has(pred)) continue;  // PL103 reported
      const std::string where = NameOf(pred);
      const auto& clauses = in_.transformed->ClausesOf(pred);
      if (clauses.size() != 1) {
        Report("PL102", Severity::kError, {}, where,
               prore::StrFormat(
                   "dispatcher must be a single clause, found %zu",
                   clauses.size()));
        continue;
      }
      TermRef head = store_->Deref(clauses[0].head);
      std::vector<TermRef> head_args(store_->arity(head));
      bool head_ok = true;
      std::set<TermRef> distinct;
      for (uint32_t i = 0; i < store_->arity(head); ++i) {
        head_args[i] = store_->Deref(store_->arg(head, i));
        if (store_->tag(head_args[i]) != Tag::kVar ||
            !distinct.insert(head_args[i]).second) {
          head_ok = false;
        }
      }
      if (!head_ok) {
        Report("PL102", Severity::kError, {}, where,
               "dispatcher head must be distinct variables");
        continue;
      }
      auto body = analysis::ParseBody(*store_, clauses[0].body);
      if (!body.ok()) {
        Report("PL102", Severity::kError, {}, where,
               "dispatcher body is not analyzable: " +
                   body.status().ToString());
        continue;
      }
      size_t min_plus = SIZE_MAX;
      for (const VersionInfo* v : by_pred_[pred]) {
        min_plus = std::min(min_plus, PlusCount(v->mode));
      }
      // -1 untested, 0 tested-unbound, 1 tested-bound, per argument.
      std::vector<int> path(head_args.size(), -1);
      CheckDispatchNode(*body.value(), pred, head_args, min_plus, &path,
                        where);
    }
  }

  void CheckDispatchNode(const BodyNode& node, const PredId& pred,
                         const std::vector<TermRef>& head_args,
                         size_t min_plus, std::vector<int>* path,
                         const std::string& where) {
    if (node.kind == BodyKind::kCall) {
      TermRef g = store_->Deref(node.goal);
      if (!store_->IsCallable(g)) {
        Report("PL102", Severity::kError, {}, where,
               "dispatcher leaf is not a callable goal");
        return;
      }
      PredId callee = store_->pred_id(g);
      const std::string& bare = store_->symbols().Name(callee.name);
      if (callee == pred) {
        Report("PL102", Severity::kError, {}, where,
               "dispatcher calls itself");
        return;
      }
      auto it = by_name_.find(bare);
      if (it == by_name_.end() || it->second->pred != pred) {
        Report("PL102", Severity::kError, {}, where,
               prore::StrFormat("dispatcher targets %s, which is not a "
                                "version of this predicate",
                                NameOf(callee).c_str()));
        return;
      }
      if (!in_.transformed->Has(callee)) {
        Report("PL102", Severity::kError, {}, where,
               prore::StrFormat("dispatcher targets missing predicate %s",
                                NameOf(callee).c_str()));
        return;
      }
      for (uint32_t i = 0; i < head_args.size(); ++i) {
        if (store_->arity(g) != head_args.size() ||
            store_->Deref(store_->arg(g, i)) != head_args[i]) {
          Report("PL102", Severity::kError, {}, where,
                 "dispatcher leaf does not pass the head arguments through");
          return;
        }
      }
      // The leaf must fit the var-test path, except for the designed
      // fallback: when no version matches a path, the least demanding
      // version takes it (its head unification re-checks at run time).
      const Mode& assumed = it->second->mode;
      bool compatible = true;
      for (size_t i = 0; i < assumed.size() && i < path->size(); ++i) {
        if (assumed[i] == ModeItem::kPlus && (*path)[i] != 1) {
          compatible = false;
        }
      }
      if (!compatible && PlusCount(assumed) != min_plus) {
        Report("PL102", Severity::kError, {}, where,
               prore::StrFormat(
                   "dispatcher routes a path to %s (mode %s) that does not "
                   "establish its assumptions",
                   NameOf(callee).c_str(),
                   analysis::ModeString(assumed).c_str()));
      }
      return;
    }
    if (node.kind == BodyKind::kIfThenElse) {
      const BodyNode& cond = *node.children[0];
      TermRef g = store_->Deref(cond.goal);
      int arg_index = -1;
      if (cond.kind == BodyKind::kCall && store_->tag(g) == Tag::kStruct &&
          store_->arity(g) == 1 &&
          store_->symbols().Name(store_->symbol(g)) == "$var_test") {
        TermRef tested = store_->Deref(store_->arg(g, 0));
        for (size_t i = 0; i < head_args.size(); ++i) {
          if (head_args[i] == tested) {
            arg_index = static_cast<int>(i);
            break;
          }
        }
      }
      if (arg_index < 0) {
        Report("PL102", Severity::kError, {}, where,
               "dispatcher condition is not a '$var_test' on a head "
               "argument");
        return;
      }
      int saved = (*path)[arg_index];
      (*path)[arg_index] = 0;  // then: unbound
      CheckDispatchNode(*node.children[1], pred, head_args, min_plus, path,
                        where);
      (*path)[arg_index] = 1;  // else: bound
      CheckDispatchNode(*node.children[2], pred, head_args, min_plus, path,
                        where);
      (*path)[arg_index] = saved;
      return;
    }
    Report("PL102", Severity::kError, {}, where,
           "dispatcher body has an unexpected shape (expected nested "
           "'$var_test' conditionals over version calls)");
  }

  TermStore* store_;
  const ReorderCheckInput& in_;
  DiagnosticSink sink_;
  std::set<std::string> seen_;
  std::unordered_map<std::string, const VersionInfo*> by_name_;
  std::unordered_map<PredId, std::vector<const VersionInfo*>,
                     term::PredIdHash>
      by_pred_;
  analysis::PredSet dispatched_;
  std::set<std::string> pinned_keys_;
  /// Callees whose demands the original program already failed to prove
  /// under the version mode being checked; not re-reported (PL100 is
  /// differential — it flags what the transformation *introduced*).
  std::set<std::string> baseline_;
  bool collecting_baseline_ = false;
};

}  // namespace

std::vector<Diagnostic> ValidateReorder(TermStore* store,
                                        const ReorderCheckInput& input) {
  Validator validator(store, input);
  return validator.Run();
}

}  // namespace prore::lint
