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
///
/// A table may borrow another (Borrow): the ids the base had at that moment
/// resolve through the base, and names the borrower interns itself get ids
/// from the base's size upwards in a small local overlay.
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

  /// Makes this table a view of `base` without copying it: every id below
  /// base.size() (taken now) names what it names in `base`, and new names
  /// get ids from there upwards. Two invariants make that sound: `base` only
  /// ever appends, so those ids stay valid while it keeps growing, and
  /// nothing interns into `base` while another thread reads it through this
  /// table. `base` must outlive this table; it may itself borrow.
  void Borrow(const SymbolTable& base);

  /// The name of an interned symbol.
  const std::string& Name(Symbol s) const {
    return s < base_size_ ? base_->Name(s) : names_[s - base_size_];
  }

  size_t size() const { return base_size_ + names_.size(); }

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

 private:
  static constexpr Symbol kAbsent = 0xFFFFFFFFu;

  /// The Symbol of an interned `name`, kAbsent if there is none.
  Symbol Find(const std::string& name) const;

  const SymbolTable* base_ = nullptr;
  Symbol base_size_ = 0;  ///< ids below this resolve through base_
  std::vector<std::string> names_;  ///< ids base_size_, base_size_ + 1, ...
  std::unordered_map<std::string, Symbol> index_;
};

}  // namespace prore::term

#endif  // PRORE_TERM_SYMBOL_H_
