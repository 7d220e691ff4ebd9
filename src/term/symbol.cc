#include "term/symbol.h"

#include <cassert>
#include <utility>

namespace prore::term {

SymbolTable::SymbolTable() {
  // Order must match the kXxx constants in the header.
  const char* kPredefined[] = {"[]", ".",  ",",    ";",  "->", ":-",  "!",
                               "true", "fail", "\\+", "call", "=", "{}", "-"};
  for (const char* name : kPredefined) Intern(name);
  assert(Intern("[]") == kNil);
  assert(Intern(":-") == kNeck);
  assert(Intern("-") == kMinus);
}

void SymbolTable::CloneFrom(const SymbolTable& other) {
  base_ = other.base_;
  base_size_ = other.base_size_;
  names_ = other.names_;
  index_ = other.index_;
}

void SymbolTable::Borrow(const SymbolTable& base) {
  assert(&base != this);
  base_ = &base;
  base_size_ = static_cast<Symbol>(base.size());
  names_.clear();
  index_.clear();
}

Symbol SymbolTable::Find(const std::string& name) const {
  if (base_ != nullptr) {
    // The base may have grown since Borrow; its later ids are not ours.
    if (Symbol s = base_->Find(name); s < base_size_) return s;
  }
  auto it = index_.find(name);
  return it == index_.end() ? kAbsent : it->second;
}

Symbol SymbolTable::Intern(std::string_view name) {
  // An owned copy before anything is appended: `name` may view a string of
  // names_ itself (CopyFrom passes another table's Name(), and that table
  // may borrow this one), which the append can move.
  std::string key(name);
  if (Symbol s = Find(key); s != kAbsent) return s;
  const Symbol s = static_cast<Symbol>(size());
  index_.emplace(key, s);
  names_.push_back(std::move(key));
  return s;
}

}  // namespace prore::term
