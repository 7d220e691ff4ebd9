#include "term/store.h"

#include <bit>
#include <cassert>

namespace prore::term {

TermRef TermStore::NewCell(const Cell& c) {
  if (fail_alloc_countdown_ != 0 && --fail_alloc_countdown_ == 0) {
    throw AllocError("injected term allocation failure");
  }
  if (cell_limit_ != 0 && cells_.size() >= cell_limit_) {
    throw AllocError("term store cell limit reached");
  }
  cells_.push_back(c);
  return static_cast<TermRef>(cells_.size() - 1);
}

void TermStore::AddCellHeadroom(size_t extra) {
  if (cell_limit_ == 0) return;
  size_t want = cells_.size() + extra;
  if (cell_limit_ < want) cell_limit_ = want;
}

TermRef TermStore::MakeVar(std::string_view name_hint) {
  Cell c;
  c.tag = Tag::kVar;
  c.symbol = next_var_id_++;
  c.value = -1;
  TermRef t = NewCell(c);
  if (!name_hint.empty()) var_names_.emplace(c.symbol, std::string(name_hint));
  return t;
}

TermRef TermStore::MakeAtom(Symbol s) {
  Cell c;
  c.tag = Tag::kAtom;
  c.symbol = s;
  return NewCell(c);
}

TermRef TermStore::MakeInt(int64_t value) {
  Cell c;
  c.tag = Tag::kInt;
  c.value = value;
  return NewCell(c);
}

TermRef TermStore::MakeFloat(double value) {
  Cell c;
  c.tag = Tag::kFloat;
  c.value = std::bit_cast<int64_t>(value);
  return NewCell(c);
}

double TermStore::float_value(TermRef t) const {
  return std::bit_cast<double>(cells_[t].value);
}

TermRef TermStore::MakeStruct(Symbol name, std::span<const TermRef> args) {
  assert(!args.empty() && "use MakeAtom for arity-0 terms");
  Cell c;
  c.tag = Tag::kStruct;
  c.symbol = name;
  c.arity = static_cast<uint32_t>(args.size());
  c.value = static_cast<int64_t>(args_.size());
  args_.insert(args_.end(), args.begin(), args.end());
  return NewCell(c);
}

TermRef TermStore::MakeCons(TermRef head, TermRef tail) {
  const TermRef args[] = {head, tail};
  return MakeStruct(SymbolTable::kDot, args);
}

TermRef TermStore::MakeList(std::span<const TermRef> items) {
  TermRef list = MakeNil();
  for (size_t i = items.size(); i-- > 0;) list = MakeCons(items[i], list);
  return list;
}

TermRef TermStore::Deref(TermRef t) const {
  while (true) {
    const Cell& c = cells_[t];
    if (c.tag != Tag::kVar || c.value < 0) return t;
    t = static_cast<TermRef>(c.value);
  }
}

const std::string& TermStore::var_name(TermRef t) const {
  auto it = var_names_.find(cells_[t].symbol);
  return it == var_names_.end() ? empty_name_ : it->second;
}

void TermStore::BindVar(TermRef var, TermRef value) {
  Cell& c = cells_[var];
  assert(c.tag == Tag::kVar && c.value < 0);
  c.value = static_cast<int64_t>(value);
}

void TermStore::ResetVar(TermRef var) {
  Cell& c = cells_[var];
  assert(c.tag == Tag::kVar);
  c.value = -1;
}

TermRef TermStore::Rename(TermRef t,
                          std::unordered_map<uint32_t, TermRef>* var_map) {
  std::unordered_map<uint32_t, TermRef> local;
  if (var_map == nullptr) var_map = &local;
  t = Deref(t);
  switch (tag(t)) {
    case Tag::kVar: {
      uint32_t id = var_id(t);
      auto it = var_map->find(id);
      if (it != var_map->end()) return it->second;
      TermRef fresh = MakeVar();
      var_map->emplace(id, fresh);
      return fresh;
    }
    case Tag::kAtom:
    case Tag::kInt:
    case Tag::kFloat:
      return t;  // Immutable leaves can be shared.
    case Tag::kStruct: {
      std::vector<TermRef> new_args(arity(t));
      bool changed = false;
      for (uint32_t i = 0; i < arity(t); ++i) {
        // Compare against the raw (not dereferenced) argument: if the
        // argument was a bound variable we must not share the original
        // struct, since backtracking may later unbind that variable.
        new_args[i] = Rename(arg(t, i), var_map);
        if (new_args[i] != arg(t, i)) changed = true;
      }
      if (!changed) return t;  // Ground subterm: share it.
      return MakeStruct(symbol(t), new_args);
    }
  }
  return t;
}

TermRef TermStore::RenameSkeleton(TermRef t, uint32_t var_base,
                                  std::vector<TermRef>& regs) {
  // Copy the cell fields up front: cells_ may reallocate while recursing
  // (MakeVar/MakeStruct push new cells).
  const Cell cell = cells_[t];
  switch (cell.tag) {
    case Tag::kVar: {
      assert(cell.value < 0 && "skeleton variables are never bound");
      uint32_t idx = cell.symbol - var_base;
      assert(idx < regs.size());
      TermRef r = regs[idx];
      if (r == kNullTerm) {
        r = MakeVar();
        regs[idx] = r;
      }
      return r;
    }
    case Tag::kAtom:
    case Tag::kInt:
    case Tag::kFloat:
      return t;
    case Tag::kStruct: {
      const size_t scratch_mark = skel_scratch_.size();
      const size_t args_base = static_cast<size_t>(cell.value);
      bool changed = false;
      for (uint32_t i = 0; i < cell.arity; ++i) {
        TermRef a = args_[args_base + i];
        TermRef r = RenameSkeleton(a, var_base, regs);
        changed |= (r != a);
        skel_scratch_.push_back(r);
      }
      TermRef out = t;  // ground subterms are shared, like Rename
      if (changed) {
        out = MakeStruct(
            cell.symbol,
            std::span<const TermRef>(skel_scratch_.data() + scratch_mark,
                                     cell.arity));
      }
      skel_scratch_.resize(scratch_mark);
      return out;
    }
  }
  return t;
}

void TermStore::CloneFrom(const TermStore& src) {
  symbols_.CloneFrom(src.symbols_);
  cells_ = src.cells_;
  args_ = src.args_;
  skel_scratch_.clear();
  high_water_cells_ = src.high_water_cells_;
  next_var_id_ = src.next_var_id_;
  var_names_ = src.var_names_;
}

bool TermStore::Equal(TermRef a, TermRef b) const {
  a = Deref(a);
  b = Deref(b);
  if (a == b) return true;
  if (tag(a) != tag(b)) return false;
  switch (tag(a)) {
    case Tag::kVar:
      return false;  // Distinct unbound variables.
    case Tag::kAtom:
      return symbol(a) == symbol(b);
    case Tag::kInt:
      return int_value(a) == int_value(b);
    case Tag::kFloat:
      return float_value(a) == float_value(b);
    case Tag::kStruct: {
      if (symbol(a) != symbol(b) || arity(a) != arity(b)) return false;
      for (uint32_t i = 0; i < arity(a); ++i) {
        if (!Equal(arg(a, i), arg(b, i))) return false;
      }
      return true;
    }
  }
  return false;
}

namespace {
// Standard order rank: Var < Int < Atom < Struct.
int OrderRank(Tag t) {
  switch (t) {
    case Tag::kVar:
      return 0;
    case Tag::kInt:
      return 1;
    case Tag::kFloat:
      return 1;
    case Tag::kAtom:
      return 2;
    case Tag::kStruct:
      return 3;
  }
  return 4;
}
}  // namespace

int TermStore::Compare(TermRef a, TermRef b) const {
  a = Deref(a);
  b = Deref(b);
  if (a == b) return 0;
  int ra = OrderRank(tag(a)), rb = OrderRank(tag(b));
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 1) {
    // Numbers compare by value; on numeric equality a float precedes an
    // integer (ISO standard order of terms).
    double x = tag(a) == Tag::kInt ? static_cast<double>(int_value(a))
                                   : float_value(a);
    double y = tag(b) == Tag::kInt ? static_cast<double>(int_value(b))
                                   : float_value(b);
    if (x < y) return -1;
    if (x > y) return 1;
    if (tag(a) == tag(b)) return 0;
    return tag(a) == Tag::kFloat ? -1 : 1;
  }
  switch (tag(a)) {
    case Tag::kVar:
      return var_id(a) < var_id(b) ? -1 : (var_id(a) == var_id(b) ? 0 : 1);
    case Tag::kInt:
    case Tag::kFloat:
      // Unreachable: numbers (rank 1) were fully handled above.
      return 0;
    case Tag::kAtom: {
      int c = symbols_.Name(symbol(a)).compare(symbols_.Name(symbol(b)));
      return c < 0 ? -1 : (c == 0 ? 0 : 1);
    }
    case Tag::kStruct: {
      if (arity(a) != arity(b)) return arity(a) < arity(b) ? -1 : 1;
      int c = symbols_.Name(symbol(a)).compare(symbols_.Name(symbol(b)));
      if (c != 0) return c < 0 ? -1 : 1;
      for (uint32_t i = 0; i < arity(a); ++i) {
        int ci = Compare(arg(a, i), arg(b, i));
        if (ci != 0) return ci;
      }
      return 0;
    }
  }
  return 0;
}

bool TermStore::IsGround(TermRef t) const {
  t = Deref(t);
  switch (tag(t)) {
    case Tag::kVar:
      return false;
    case Tag::kAtom:
    case Tag::kInt:
    case Tag::kFloat:
      return true;
    case Tag::kStruct:
      for (uint32_t i = 0; i < arity(t); ++i) {
        if (!IsGround(arg(t, i))) return false;
      }
      return true;
  }
  return true;
}

void TermStore::CollectVars(TermRef t, std::vector<TermRef>* out) const {
  t = Deref(t);
  switch (tag(t)) {
    case Tag::kVar: {
      for (TermRef v : *out) {
        if (v == t) return;
      }
      out->push_back(t);
      return;
    }
    case Tag::kAtom:
    case Tag::kInt:
    case Tag::kFloat:
      return;
    case Tag::kStruct:
      for (uint32_t i = 0; i < arity(t); ++i) CollectVars(arg(t, i), out);
      return;
  }
}

void TermStore::Truncate(const Mark& mark) {
  assert(mark.cells <= cells_.size() && mark.args <= args_.size());
  if (cells_.size() > high_water_cells_) high_water_cells_ = cells_.size();
  cells_.resize(mark.cells);
  args_.resize(mark.args);
}

}  // namespace prore::term
