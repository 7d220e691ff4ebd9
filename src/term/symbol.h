#ifndef PRORE_TERM_SYMBOL_H_
#define PRORE_TERM_SYMBOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace prore::term {

/// An interned atom/functor name. Symbols are small integers valid within
/// one SymbolTable; equal names always intern to the same Symbol, so name
/// comparison is integer comparison.
using Symbol = uint32_t;

/// Interns names to Symbols. A handful of names the engine and reorderer
/// treat specially (',', ':-', '!', ...) are pre-interned with fixed ids.
class SymbolTable {
 public:
  SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the Symbol for `name`, interning it if new.
  Symbol Intern(std::string_view name);

  /// Replaces this table's contents with a copy of `other`, preserving every
  /// Symbol id. Used to seed a private per-worker store from a shared base
  /// so PredIds and Symbols are interchangeable between the two.
  void CloneFrom(const SymbolTable& other);

  /// The name of an interned symbol.
  const std::string& Name(Symbol s) const { return names_[s]; }

  size_t size() const { return names_.size(); }

  // Pre-interned symbols, in interning order (see constructor).
  // clang-format off
  static constexpr Symbol kNil       = 0;   // []
  static constexpr Symbol kDot      = 1;   // '.'  (list cons)
  static constexpr Symbol kComma    = 2;   // ','  (conjunction)
  static constexpr Symbol kSemicolon= 3;   // ';'  (disjunction)
  static constexpr Symbol kArrow    = 4;   // '->' (if-then)
  static constexpr Symbol kNeck     = 5;   // ':-' (clause / directive)
  static constexpr Symbol kCut      = 6;   // '!'
  static constexpr Symbol kTrue     = 7;   // true
  static constexpr Symbol kFail     = 8;   // fail
  static constexpr Symbol kNot      = 9;   // \+
  static constexpr Symbol kCall     = 10;  // call
  static constexpr Symbol kUnify    = 11;  // =
  static constexpr Symbol kCurly    = 12;  // {}
  static constexpr Symbol kMinus    = 13;  // -
  // clang-format on

  static constexpr Symbol kAbsent = 0xFFFFFFFFu;

  /// The Symbol of an interned `name`, kAbsent if there is none. Never
  /// interns, so it is safe wherever the table is only read.
  Symbol Find(const std::string& name) const;

 private:
  std::vector<std::string> names_;  ///< indexed by Symbol
  std::unordered_map<std::string, Symbol> index_;
};

}  // namespace prore::term

#endif  // PRORE_TERM_SYMBOL_H_
