#include "reader/ops.h"

namespace prore::reader {

OpTable::OpTable() {
  Add(":-", 1200, OpType::kXfx);
  Add("-->", 1200, OpType::kXfx);
  Add(":-", 1200, OpType::kFx);
  Add("?-", 1200, OpType::kFx);
  Add(";", 1100, OpType::kXfy);
  Add("->", 1050, OpType::kXfy);
  Add(",", 1000, OpType::kXfy);
  Add("\\+", 900, OpType::kFy);
  Add("not", 900, OpType::kFy);
  Add("=", 700, OpType::kXfx);
  Add("\\=", 700, OpType::kXfx);
  Add("==", 700, OpType::kXfx);
  Add("\\==", 700, OpType::kXfx);
  Add("@<", 700, OpType::kXfx);
  Add("@>", 700, OpType::kXfx);
  Add("@=<", 700, OpType::kXfx);
  Add("@>=", 700, OpType::kXfx);
  Add("is", 700, OpType::kXfx);
  Add("=:=", 700, OpType::kXfx);
  Add("=\\=", 700, OpType::kXfx);
  Add("<", 700, OpType::kXfx);
  Add(">", 700, OpType::kXfx);
  Add("=<", 700, OpType::kXfx);
  Add(">=", 700, OpType::kXfx);
  Add("=..", 700, OpType::kXfx);
  Add("+", 500, OpType::kYfx);
  Add("-", 500, OpType::kYfx);
  Add("/\\", 500, OpType::kYfx);
  Add("\\/", 500, OpType::kYfx);
  Add("*", 400, OpType::kYfx);
  Add("/", 400, OpType::kYfx);
  Add("//", 400, OpType::kYfx);
  Add("mod", 400, OpType::kYfx);
  Add("rem", 400, OpType::kYfx);
  Add("<<", 400, OpType::kYfx);
  Add(">>", 400, OpType::kYfx);
  Add("**", 200, OpType::kXfx);
  Add("^", 200, OpType::kXfy);
  Add("-", 200, OpType::kFy);
  Add("+", 200, OpType::kFy);
}

void OpTable::Add(std::string_view name, int priority, OpType type) {
  OpDef def{priority, type};
  if (type == OpType::kFx || type == OpType::kFy) {
    prefix_[std::string(name)] = def;
  } else {
    infix_[std::string(name)] = def;
  }
}

std::optional<OpDef> OpTable::Infix(std::string_view name) const {
  auto it = infix_.find(std::string(name));
  if (it == infix_.end()) return std::nullopt;
  return it->second;
}

std::optional<OpDef> OpTable::Prefix(std::string_view name) const {
  auto it = prefix_.find(std::string(name));
  if (it == prefix_.end()) return std::nullopt;
  return it->second;
}

const OpTable& StandardOps() {
  static const OpTable kStandard;
  return kStandard;
}

bool OpTable::IsOp(std::string_view name) const {
  return infix_.count(std::string(name)) > 0 ||
         prefix_.count(std::string(name)) > 0;
}

}  // namespace prore::reader
