#ifndef PRORE_READER_OPS_H_
#define PRORE_READER_OPS_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace prore::reader {

/// Operator fixity classes, DEC-10 style.
enum class OpType {
  kXfx,  ///< infix, both args of strictly lower priority
  kXfy,  ///< infix, right arg may be equal priority
  kYfx,  ///< infix, left arg may be equal priority
  kFy,   ///< prefix, arg may be equal priority
  kFx,   ///< prefix, arg of strictly lower priority
  kXf,   ///< postfix (unused by the standard set but supported)
  kYf
};

struct OpDef {
  int priority = 0;
  OpType type = OpType::kXfx;
};

/// The DEC-10 Prolog operator table (the subset relevant to the paper's
/// programs). A name may be both a prefix and an infix operator (e.g. '-').
class OpTable {
 public:
  /// Constructs the standard table.
  OpTable();

  void Add(std::string_view name, int priority, OpType type);

  std::optional<OpDef> Infix(std::string_view name) const;
  std::optional<OpDef> Prefix(std::string_view name) const;

  /// True if `name` is an operator of any fixity.
  bool IsOp(std::string_view name) const;

 private:
  std::unordered_map<std::string, OpDef> infix_;
  std::unordered_map<std::string, OpDef> prefix_;
};

/// The standard table, built once on first use and immutable after that,
/// so any number of threads may read it. Parsers that meet an op/3
/// directive copy it before adding to it.
const OpTable& StandardOps();

}  // namespace prore::reader

#endif  // PRORE_READER_OPS_H_
