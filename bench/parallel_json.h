#ifndef PRORE_BENCH_PARALLEL_JSON_H_
#define PRORE_BENCH_PARALLEL_JSON_H_

// Shared writer for BENCH_parallel.json: a single object with one array of
// entries per section ("pipeline" and "pipeline_sweep" from
// pipeline_scale, "engine" from mt_queries). Each run rewrites only its
// own section and preserves the others, so the benches can run in any
// order — or alone — and the file stays whole. The parser below handles
// exactly the format this writer emits (entry objects, no brackets or
// braces inside strings), which is all it ever sees.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace prore::bench {

inline const char* const kParallelSections[] = {"pipeline", "pipeline_sweep",
                                               "engine"};

/// Extracts the raw `[...]` array text of `key` from `json`, empty string
/// if absent.
inline std::string ExtractSection(const std::string& json,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\": [";
  size_t start = json.find(needle);
  if (start == std::string::npos) return "";
  size_t open = start + needle.size() - 1;
  int depth = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '[') ++depth;
    if (json[i] == ']' && --depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return "";
}

/// The whole text of `path`, empty if it cannot be read.
inline std::string ReadFileText(const char* path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The entry objects of `section` in `path`, each as its raw text.
inline std::vector<std::string> ReadSectionEntries(const char* path,
                                                   const std::string& section) {
  const std::string array = ExtractSection(ReadFileText(path), section);
  std::vector<std::string> out;
  int depth = 0;
  size_t start = 0;
  for (size_t i = 1; i + 1 < array.size(); ++i) {
    const char c = array[i];
    if (c == '{' || c == '[') {
      if (depth++ == 0) start = i;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      out.push_back(array.substr(start, i - start + 1));
    }
  }
  return out;
}

/// Rewrites `path` with `entries` under `section`, preserving the other
/// sections' existing content. Returns false on I/O failure.
inline bool WriteParallelSection(const char* path, const std::string& section,
                                 const std::vector<std::string>& entries) {
  const std::string existing = ReadFileText(path);

  std::string mine = "[\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    mine += "    " + entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
  }
  mine += "  ]";

  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  bool first = true;
  for (const char* key : kParallelSections) {
    std::string body =
        key == section ? mine : ExtractSection(existing, key);
    if (body.empty()) continue;
    if (!first) out << ",\n";
    out << "  \"" << key << "\": " << body;
    first = false;
  }
  out << "\n}\n";
  return out.good();
}

}  // namespace prore::bench

#endif  // PRORE_BENCH_PARALLEL_JSON_H_
