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
  names_ = other.names_;
  index_ = other.index_;
}

Symbol SymbolTable::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kAbsent : it->second;
}

Symbol SymbolTable::Intern(std::string_view name) {
  // An owned copy before anything is appended: `name` may view a string of
  // names_ itself (a caller passing Name()), which the append can move.
  std::string key(name);
  if (Symbol s = Find(key); s != kAbsent) return s;
  const Symbol s = static_cast<Symbol>(size());
  index_.emplace(key, s);
  names_.push_back(std::move(key));
  return s;
}

}  // namespace prore::term
