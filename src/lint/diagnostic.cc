#include "lint/diagnostic.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/json.h"
#include "common/str_util.h"

namespace prore::lint {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out;
  if (span.known()) {
    out += prore::StrFormat("%d:%d: ", span.line, span.column);
  }
  out += SeverityName(severity);
  out += ": ";
  out += code;
  out += ": ";
  out += message;
  if (!pred.empty()) {
    out += " [";
    out += pred;
    out += "]";
  }
  return out;
}

std::string Diagnostic::ToJson() const {
  std::string out = "{\"code\":";
  AppendJsonEscaped(&out, code);
  out += ",\"severity\":";
  AppendJsonEscaped(&out, SeverityName(severity));
  out += prore::StrFormat(",\"line\":%d,\"column\":%d", span.line,
                          span.column);
  out += ",\"pred\":";
  AppendJsonEscaped(&out, pred);
  out += ",\"message\":";
  AppendJsonEscaped(&out, message);
  out += "}";
  return out;
}

size_t DiagnosticSink::CountAtLeast(Severity s) const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity >= s) ++n;
  }
  return n;
}

void DiagnosticSink::Sort() {
  std::stable_sort(diags_.begin(), diags_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.span.line, a.span.column, a.code,
                                     a.pred, a.message) <
                            std::tie(b.span.line, b.span.column, b.code,
                                     b.pred, b.message);
                   });
}

std::string RenderText(const std::vector<Diagnostic>& diags,
                       std::string_view file) {
  std::string out;
  for (const Diagnostic& d : diags) {
    if (!file.empty()) {
      out += file;
      out += ":";
    }
    out += d.ToString();
    out += "\n";
  }
  return out;
}

std::string RenderJson(const std::vector<Diagnostic>& diags,
                       std::string_view file) {
  std::string out = "{\"file\":";
  AppendJsonEscaped(&out, file);
  out += ",\"diagnostics\":[";
  for (size_t i = 0; i < diags.size(); ++i) {
    if (i) out += ",";
    out += diags[i].ToJson();
  }
  size_t errors = 0, warnings = 0;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
  }
  out += prore::StrFormat("],\"errors\":%zu,\"warnings\":%zu}", errors,
                          warnings);
  return out;
}

std::string RenderSarif(
    const std::vector<std::pair<std::string, std::vector<Diagnostic>>>&
        file_diags) {
  // Rule metadata is keyed by code; first-seen order keeps the ruleIndex
  // assignment deterministic across runs.
  std::vector<std::string> rules;
  auto rule_index = [&rules](const std::string& code) {
    for (size_t i = 0; i < rules.size(); ++i) {
      if (rules[i] == code) return i;
    }
    rules.push_back(code);
    return rules.size() - 1;
  };

  std::string results;
  bool first_result = true;
  for (const auto& [file, diags] : file_diags) {
    for (const Diagnostic& d : diags) {
      if (!first_result) results += ",";
      first_result = false;
      size_t idx = rule_index(d.code);
      results += "{\"ruleId\":";
      AppendJsonEscaped(&results, d.code);
      results += prore::StrFormat(",\"ruleIndex\":%zu,\"level\":", idx);
      AppendJsonEscaped(&results, SeverityName(d.severity));
      results += ",\"message\":{\"text\":";
      std::string text = d.message;
      if (!d.pred.empty()) text += " [" + d.pred + "]";
      AppendJsonEscaped(&results, text);
      results += "},\"locations\":[{\"physicalLocation\":{"
                 "\"artifactLocation\":{\"uri\":";
      AppendJsonEscaped(&results, file);
      // SARIF regions are 1-based; clamp unknown spans (line 0) to 1.
      results += prore::StrFormat(
          "},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}",
          d.span.line > 0 ? d.span.line : 1,
          d.span.column > 0 ? d.span.column : 1);
    }
  }

  std::string out =
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"prolint\",\"informationUri\":"
      "\"https://example.invalid/prore\",\"rules\":[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i) out += ",";
    out += "{\"id\":";
    AppendJsonEscaped(&out, rules[i]);
    out += "}";
  }
  out += "]}},\"results\":[";
  out += results;
  out += "]}]}";
  return out;
}

Diagnostic FromParseStatus(const prore::Status& status) {
  Diagnostic d;
  d.code = "PL000";
  d.severity = Severity::kError;
  d.message = status.ToString();
  // Parser/lexer messages embed "line <L> column <C>" or "line <L>".
  const std::string& m = status.message();
  size_t pos = m.rfind("line ");
  if (pos != std::string::npos) {
    int line = 0, column = 0;
    if (std::sscanf(m.c_str() + pos, "line %d column %d", &line, &column) >=
            1 &&
        line > 0) {
      d.span.line = line;
      d.span.column = column > 0 ? column : 1;
    }
  }
  return d;
}

}  // namespace prore::lint
