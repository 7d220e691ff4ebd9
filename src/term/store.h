#ifndef PRORE_TERM_STORE_H_
#define PRORE_TERM_STORE_H_

#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "term/symbol.h"

namespace prore::term {

/// Index of a term cell within a TermStore. Terms are cheap handles; all
/// structure lives in the store.
using TermRef = uint32_t;

/// Sentinel for "no term".
inline constexpr TermRef kNullTerm = 0xFFFFFFFFu;

/// The runtime term shapes.
enum class Tag : uint8_t {
  kVar,    ///< Logic variable; bound or unbound.
  kAtom,   ///< Constant symbol, e.g. foo, [], ','.
  kInt,    ///< 64-bit integer.
  kFloat,  ///< 64-bit IEEE double.
  kStruct  ///< Compound term name(arg1, ..., argN), N >= 1.
};

/// A predicate identity: name/arity, e.g. append/3.
struct PredId {
  Symbol name = 0;
  uint32_t arity = 0;

  bool operator==(const PredId&) const = default;
};

struct PredIdHash {
  size_t operator()(const PredId& p) const {
    // splitmix64 finalizer over the full (name, arity) pair. The obvious
    // (name << 8) ^ arity drops the symbol's top bits and folds arity >= 256
    // into the name byte.
    uint64_t x = (static_cast<uint64_t>(p.name) << 32) | p.arity;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

/// Thrown by TermStore when cell allocation fails — either the configured
/// cell limit (SetCellLimit) was reached or an injected failure fired
/// (FailAllocAfter). Derives from std::bad_alloc so generic OOM handlers
/// catch it, but carries a message distinguishing the cause. The engine
/// catches it at the solve loop and re-raises it as a catchable
/// `resource_error(memory)` ball instead of letting it escape a worker
/// thread.
class AllocError : public std::bad_alloc {
 public:
  explicit AllocError(const char* what) : what_(what) {}
  const char* what() const noexcept override { return what_; }

 private:
  const char* what_;
};

/// Arena of term cells. Terms are immutable once created, except that an
/// unbound kVar cell may be bound (and later reset during backtracking —
/// the engine's trail records which ones to reset).
///
/// The store grows monotonically; Watermark()/Truncate() let the engine
/// reclaim everything a query allocated once its answers have been copied
/// out, which is how C-Prolog-era systems reclaimed heap on completion.
class TermStore {
 public:
  TermStore() = default;
  TermStore(const TermStore&) = delete;
  TermStore& operator=(const TermStore&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  // ---- Construction -------------------------------------------------------

  /// A fresh unbound variable. `name_hint` is used only for printing;
  /// pass empty for anonymous/internal variables (printed _G<n>).
  TermRef MakeVar(std::string_view name_hint = "");
  TermRef MakeAtom(Symbol s);
  TermRef MakeAtom(std::string_view name) {
    return MakeAtom(symbols_.Intern(name));
  }
  TermRef MakeInt(int64_t value);
  TermRef MakeFloat(double value);
  /// name(args...); arity must be >= 1 (use MakeAtom for arity 0).
  TermRef MakeStruct(Symbol name, std::span<const TermRef> args);
  TermRef MakeStruct(std::string_view name, std::span<const TermRef> args) {
    return MakeStruct(symbols_.Intern(name), args);
  }

  /// '.'(head, tail) — list cons cell.
  TermRef MakeCons(TermRef head, TermRef tail);
  /// [] as an atom.
  TermRef MakeNil() { return MakeAtom(SymbolTable::kNil); }
  /// Builds a proper list from `items`.
  TermRef MakeList(std::span<const TermRef> items);

  // ---- Inspection (all operate on dereferenced terms) ---------------------

  /// Follows variable-binding chains to the representative term.
  TermRef Deref(TermRef t) const;

  Tag tag(TermRef t) const { return cells_[t].tag; }
  /// Atom symbol or struct functor name.
  Symbol symbol(TermRef t) const { return cells_[t].symbol; }
  int64_t int_value(TermRef t) const { return cells_[t].value; }
  double float_value(TermRef t) const;
  uint32_t arity(TermRef t) const {
    return cells_[t].tag == Tag::kStruct ? cells_[t].arity : 0;
  }
  TermRef arg(TermRef t, uint32_t i) const {
    return args_[static_cast<size_t>(cells_[t].value) + i];
  }
  /// Sequence number of a variable (stable id for printing/maps).
  uint32_t var_id(TermRef t) const { return cells_[t].symbol; }
  /// Print name hint for a variable ("" if anonymous).
  const std::string& var_name(TermRef t) const;

  /// PredId of an atom or struct (callable term). t must be dereferenced.
  PredId pred_id(TermRef t) const {
    return PredId{cells_[t].symbol, arity(t)};
  }

  bool IsUnboundVar(TermRef t) const {
    const Cell& c = cells_[t];
    return c.tag == Tag::kVar && c.value < 0;
  }
  bool IsNil(TermRef t) const {
    t = Deref(t);
    return tag(t) == Tag::kAtom && symbol(t) == SymbolTable::kNil;
  }
  bool IsCons(TermRef t) const {
    t = Deref(t);
    return tag(t) == Tag::kStruct && symbol(t) == SymbolTable::kDot &&
           arity(t) == 2;
  }
  /// True if t is an atom or a compound term (a callable goal shape).
  bool IsCallable(TermRef t) const {
    t = Deref(t);
    return tag(t) == Tag::kAtom || tag(t) == Tag::kStruct;
  }

  // ---- Variable binding (engine-controlled) --------------------------------

  /// Binds unbound variable `var` to `value`. Caller must trail it.
  void BindVar(TermRef var, TermRef value);
  /// Undoes BindVar (used when unwinding the trail).
  void ResetVar(TermRef var);

  // ---- Whole-term operations ----------------------------------------------

  /// Structural copy of `t` with every distinct unbound variable replaced
  /// by a fresh one. `var_map`, if given, records old-var-id -> new term and
  /// lets several terms (head + body of one clause) share renamings.
  TermRef Rename(TermRef t,
                 std::unordered_map<uint32_t, TermRef>* var_map = nullptr);

  /// Replaces this store's contents with a deep copy of `src` (cells, args,
  /// symbols, variable names and counter). Afterwards every TermRef valid in
  /// `src` denotes the identical term here, so a compiled Database built
  /// against `src` can be executed against the copy — each engine worker
  /// clones the frozen snapshot arena as its private, bindable heap.
  void CloneFrom(const TermStore& src);

  /// The id the next MakeVar will receive. Clause-skeleton compilation uses
  /// this to record the dense id range a Rename pass produced.
  uint32_t next_var_id() const { return next_var_id_; }

  /// Renames a compiled clause skeleton through a flat register file: the
  /// skeleton's variables carry dense ids in [var_base, var_base +
  /// regs.size()) and must all be unbound (guaranteed by skeleton
  /// compilation — skeleton terms are never unified directly). regs[i] is
  /// the fresh variable for skeleton variable var_base + i, kNullTerm until
  /// first use. Unlike Rename this performs no hashing and, after warm-up,
  /// no heap allocation beyond the term cells themselves.
  TermRef RenameSkeleton(TermRef t, uint32_t var_base,
                         std::vector<TermRef>& regs);

  /// Structural equality (==/2): variables equal only if identical.
  bool Equal(TermRef a, TermRef b) const;

  /// Standard order of terms (@</2): Var < Int < Atom < Struct;
  /// atoms alphabetically; structs by arity, then name, then args.
  /// Returns <0, 0, >0.
  int Compare(TermRef a, TermRef b) const;

  /// True if t contains no unbound variables.
  bool IsGround(TermRef t) const;

  /// Appends the distinct unbound variables of t, in first-occurrence order.
  void CollectVars(TermRef t, std::vector<TermRef>* out) const;

  // ---- Heap management -----------------------------------------------------

  /// Snapshot of the store's allocation state.
  struct Mark {
    size_t cells = 0;
    size_t args = 0;
  };

  /// Current allocation state; pass to Truncate to free later allocations.
  Mark Watermark() const { return Mark{cells_.size(), args_.size()}; }
  /// Frees everything allocated after `mark` was taken. No live term may
  /// reference the freed cells.
  void Truncate(const Mark& mark);

  size_t NumCells() const { return cells_.size(); }

  /// Caps the arena at `limit` cells; the allocation that would grow past
  /// it throws AllocError. 0 disables the cap (default). The limit is a
  /// robustness hook, not an accounting tool — the engine's
  /// max_heap_cells budget trips first on the cooperative path; this
  /// backstop catches allocations between budget checks.
  void SetCellLimit(size_t limit) { cell_limit_ = limit; }
  size_t cell_limit() const { return cell_limit_; }

  /// Raises a configured limit so at least `extra` more cells fit. The
  /// engine calls this before building a resource_error(memory) ball —
  /// the same re-arm-with-headroom idiom the call budget uses so the
  /// error handler itself has room to run. No-op when no limit is set.
  void AddCellHeadroom(size_t extra);

  /// Arms a single-shot injected failure: the `nth` NewCell from now
  /// (1-based) throws AllocError, then the trigger disarms itself —
  /// error handling after the trip allocates freely. 0 disarms. The chaos
  /// harness uses this as its deterministic OOM channel.
  void FailAllocAfter(uint64_t nth) { fail_alloc_countdown_ = nth; }

  /// Largest cell count seen since the last ResetHighWater (Truncate keeps
  /// it alive across reclamation). The engine reports per-query peak heap
  /// usage from this.
  size_t HighWaterCells() const {
    return high_water_cells_ > cells_.size() ? high_water_cells_
                                             : cells_.size();
  }
  void ResetHighWater() { high_water_cells_ = cells_.size(); }

 private:
  struct Cell {
    Tag tag;
    uint32_t arity = 0;   // kStruct: argument count.
    Symbol symbol = 0;    // kAtom/kStruct: name. kVar: var sequence id.
    int64_t value = 0;    // kInt: value. kStruct: args_ offset.
                          // kVar: binding (TermRef) or -1 if unbound.
  };

  TermRef NewCell(const Cell& c);

  SymbolTable symbols_;
  std::vector<Cell> cells_;
  std::vector<TermRef> args_;  // argument blocks for kStruct cells
  /// Argument scratch stack for RenameSkeleton (reused across calls so the
  /// per-struct argument buffer costs no allocation after warm-up).
  std::vector<TermRef> skel_scratch_;
  size_t high_water_cells_ = 0;
  size_t cell_limit_ = 0;            ///< 0 = uncapped
  uint64_t fail_alloc_countdown_ = 0;  ///< 0 = disarmed; 1 = next throws
  uint32_t next_var_id_ = 0;
  std::unordered_map<uint32_t, std::string> var_names_;
  std::string empty_name_;
};

}  // namespace prore::term

#endif  // PRORE_TERM_STORE_H_
