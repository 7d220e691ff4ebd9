#include "profile/profile.h"

#include <algorithm>
#include <cmath>

#include "analysis/callgraph.h"
#include "analysis/content_hash.h"
#include "common/json.h"
#include "common/str_util.h"

namespace prore::profile {

namespace {

/// Counts travel as JSON numbers (doubles on the wire), so the exact
/// range is the double-integer range; anything bigger must be a corrupt
/// file, not a real execution count.
constexpr double kMaxCount = 9007199254740992.0;  // 2^53

std::string HashToHex(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

bool HexToHash(const std::string& s, uint64_t* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

std::string PredKey(const term::TermStore& store, const term::PredId& id) {
  return store.symbols().Name(id.name) + "/" + std::to_string(id.arity);
}

/// Splits "name/arity". Prolog atoms may contain '/' themselves
/// (quoted), so the *last* slash separates the arity.
bool SplitPredKey(const std::string& key, std::string* name,
                  uint32_t* arity) {
  size_t slash = key.rfind('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= key.size()) {
    return false;
  }
  uint64_t a = 0;
  for (size_t i = slash + 1; i < key.size(); ++i) {
    char c = key[i];
    if (c < '0' || c > '9') return false;
    a = a * 10 + static_cast<uint64_t>(c - '0');
    if (a > 0xFFFFFFFFull) return false;
  }
  *name = key.substr(0, slash);
  *arity = static_cast<uint32_t>(a);
  return true;
}

/// Reads one non-negative integer count field; `where` names it in
/// errors ("predicate \"p/2\": ports.call").
prore::Status ReadCount(const JsonValue& obj, const char* field,
                        const std::string& where, uint64_t* out) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr) {
    *out = 0;  // absent counts read as zero (forward/backward compat)
    return prore::Status::OK();
  }
  if (!v->is_number()) {
    return prore::Status::InvalidArgument(prore::StrFormat(
        "profile: %s.%s must be a number", where.c_str(), field));
  }
  double d = v->number_value();
  if (d < 0) {
    return prore::Status::InvalidArgument(prore::StrFormat(
        "profile: %s.%s is negative (%g); counts cannot be negative — "
        "the file is corrupt, re-record it",
        where.c_str(), field, d));
  }
  if (d > kMaxCount || d != std::floor(d)) {
    return prore::Status::InvalidArgument(prore::StrFormat(
        "profile: %s.%s is not an exact non-negative integer (%g)",
        where.c_str(), field, d));
  }
  *out = static_cast<uint64_t>(d);
  return prore::Status::OK();
}

JsonValue PortsToJson(const engine::PortCounts& p) {
  JsonValue o = JsonValue::Object();
  o.Set("call", JsonValue::Number(static_cast<double>(p.call)));
  o.Set("exit", JsonValue::Number(static_cast<double>(p.exit)));
  o.Set("redo", JsonValue::Number(static_cast<double>(p.redo)));
  o.Set("fail", JsonValue::Number(static_cast<double>(p.fail)));
  o.Set("succ", JsonValue::Number(static_cast<double>(p.succ)));
  return o;
}

double Rate(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

prore::Result<PredHashMap> ComputeProfileHashes(
    const term::TermStore& store, const reader::Program& program) {
  PRORE_ASSIGN_OR_RETURN(analysis::CallGraph graph,
                         analysis::CallGraph::Build(store, program));
  analysis::DependencyGroups groups =
      analysis::ComputeDependencyGroups(graph);
  // Salt 0, no frozen set: a pure content hash, identical for the same
  // clauses no matter which tool computes it (the profile's staleness key
  // must not depend on reorder options or pipeline state).
  analysis::ContentHashes hashes =
      analysis::ComputeContentHashes(store, program, groups, 0);
  return std::move(hashes.pred_hash);
}

ProfileData FromCollector(const term::TermStore& store,
                          const reader::Program& program,
                          const engine::ProfileCollector& collector,
                          const PredHashMap& hashes) {
  ProfileData data;
  for (const auto& [id, counts] : collector.preds()) {
    PredProfile p;
    p.ports = counts.ports;
    p.clauses = counts.clauses;
    auto hit = hashes.find(id);
    if (hit != hashes.end() && program.Has(id)) {
      p.content_hash = hit->second;
      // Pad to the full clause count: untried clauses carry zeros, but
      // merge and staleness logic need the recorded shape to equal the
      // program's shape.
      size_t n = program.ClausesOf(id).size();
      if (p.clauses.size() < n) p.clauses.resize(n);
    }
    data.preds.emplace(PredKey(store, id), std::move(p));
  }
  for (const auto& [id, counts] : collector.builtins()) {
    PredProfile p;
    p.builtin = true;
    p.ports = counts.ports;
    data.preds.emplace(PredKey(store, id), std::move(p));
  }
  return data;
}

std::string ToJson(const ProfileData& data) {
  JsonValue root = JsonValue::Object();
  root.Set("format", JsonValue::String(kFormatName));
  root.Set("version", JsonValue::Number(kFormatVersion));
  root.Set("runs", JsonValue::Number(static_cast<double>(data.runs)));
  JsonValue preds = JsonValue::Array();
  for (const auto& [key, p] : data.preds) {
    JsonValue o = JsonValue::Object();
    o.Set("pred", JsonValue::String(key));
    if (p.builtin) {
      o.Set("builtin", JsonValue::Bool(true));
    } else {
      o.Set("hash", JsonValue::String(HashToHex(p.content_hash)));
    }
    o.Set("ports", PortsToJson(p.ports));
    if (!p.clauses.empty()) {
      JsonValue cs = JsonValue::Array();
      for (const engine::ClauseCounts& c : p.clauses) {
        JsonValue co = JsonValue::Object();
        co.Set("try", JsonValue::Number(static_cast<double>(c.tries)));
        co.Set("enter", JsonValue::Number(static_cast<double>(c.entries)));
        co.Set("first_exit",
               JsonValue::Number(static_cast<double>(c.first_exits)));
        co.Set("exit", JsonValue::Number(static_cast<double>(c.exits)));
        cs.push_back(std::move(co));
      }
      o.Set("clauses", std::move(cs));
    }
    preds.push_back(std::move(o));
  }
  root.Set("predicates", std::move(preds));
  return root.Dump();
}

prore::Result<ProfileData> FromJson(std::string_view text) {
  PRORE_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(text));
  if (!root.is_object()) {
    return prore::Status::InvalidArgument(
        "profile: top level must be a JSON object");
  }
  const JsonValue* format = root.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->string_value() != kFormatName) {
    return prore::Status::InvalidArgument(prore::StrFormat(
        "profile: missing or unrecognized \"format\" (expected \"%s\") — "
        "is this really a profile file?",
        kFormatName));
  }
  const JsonValue* version = root.Find("version");
  if (version == nullptr || !version->is_number() ||
      version->number_value() != kFormatVersion) {
    return prore::Status::InvalidArgument(prore::StrFormat(
        "profile: unsupported version %s (this build reads version %d); "
        "re-record the profile with a matching build",
        version != nullptr && version->is_number()
            ? std::to_string(static_cast<long long>(version->number_value()))
                  .c_str()
            : "<missing>",
        kFormatVersion));
  }
  ProfileData data;
  PRORE_RETURN_IF_ERROR(ReadCount(root, "runs", "document", &data.runs));
  if (root.Find("runs") == nullptr) data.runs = 1;
  const JsonValue* preds = root.Find("predicates");
  if (preds == nullptr || !preds->is_array()) {
    return prore::Status::InvalidArgument(
        "profile: missing \"predicates\" array");
  }
  for (const JsonValue& entry : preds->array()) {
    if (!entry.is_object()) {
      return prore::Status::InvalidArgument(
          "profile: predicates[] entries must be objects");
    }
    const JsonValue* key = entry.Find("pred");
    if (key == nullptr || !key->is_string()) {
      return prore::Status::InvalidArgument(
          "profile: predicates[] entry lacks a \"pred\" string");
    }
    std::string name;
    uint32_t arity = 0;
    if (!SplitPredKey(key->string_value(), &name, &arity)) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile: malformed predicate indicator \"%s\" (want "
          "name/arity)",
          key->string_value().c_str()));
    }
    const std::string where =
        prore::StrFormat("predicate \"%s\"", key->string_value().c_str());
    if (data.preds.count(key->string_value()) > 0) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile: duplicate %s — merge runs with Merge(), do not "
          "concatenate entries",
          where.c_str()));
    }
    PredProfile p;
    p.builtin = entry.GetBool("builtin", false);
    const JsonValue* hash = entry.Find("hash");
    if (!p.builtin) {
      if (hash == nullptr || !hash->is_string() ||
          !HexToHash(hash->string_value(), &p.content_hash)) {
        return prore::Status::InvalidArgument(prore::StrFormat(
            "profile: %s lacks a valid \"hash\" (16 lowercase hex "
            "digits); without it staleness cannot be checked",
            where.c_str()));
      }
    }
    const JsonValue* ports = entry.Find("ports");
    if (ports == nullptr || !ports->is_object()) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile: %s lacks a \"ports\" object", where.c_str()));
    }
    const std::string pw = where + ": ports";
    PRORE_RETURN_IF_ERROR(ReadCount(*ports, "call", pw, &p.ports.call));
    PRORE_RETURN_IF_ERROR(ReadCount(*ports, "exit", pw, &p.ports.exit));
    PRORE_RETURN_IF_ERROR(ReadCount(*ports, "redo", pw, &p.ports.redo));
    PRORE_RETURN_IF_ERROR(ReadCount(*ports, "fail", pw, &p.ports.fail));
    PRORE_RETURN_IF_ERROR(ReadCount(*ports, "succ", pw, &p.ports.succ));
    if (p.ports.succ > p.ports.call) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile: %s: succ (%llu) exceeds call (%llu) — a call cannot "
          "succeed more often than it happens; the file is corrupt",
          where.c_str(), static_cast<unsigned long long>(p.ports.succ),
          static_cast<unsigned long long>(p.ports.call)));
    }
    if (const JsonValue* clauses = entry.Find("clauses");
        clauses != nullptr) {
      if (!clauses->is_array()) {
        return prore::Status::InvalidArgument(prore::StrFormat(
            "profile: %s: \"clauses\" must be an array", where.c_str()));
      }
      size_t ci = 0;
      for (const JsonValue& co : clauses->array()) {
        if (!co.is_object()) {
          return prore::Status::InvalidArgument(prore::StrFormat(
              "profile: %s: clauses[%zu] must be an object", where.c_str(),
              ci));
        }
        const std::string cw =
            prore::StrFormat("%s: clauses[%zu]", where.c_str(), ci);
        engine::ClauseCounts c;
        PRORE_RETURN_IF_ERROR(ReadCount(co, "try", cw, &c.tries));
        PRORE_RETURN_IF_ERROR(ReadCount(co, "enter", cw, &c.entries));
        PRORE_RETURN_IF_ERROR(
            ReadCount(co, "first_exit", cw, &c.first_exits));
        PRORE_RETURN_IF_ERROR(ReadCount(co, "exit", cw, &c.exits));
        p.clauses.push_back(c);
        ++ci;
      }
    }
    data.preds.emplace(key->string_value(), std::move(p));
  }
  return data;
}

prore::Result<ProfileData> Merge(const ProfileData& a,
                                 const ProfileData& b) {
  ProfileData out = a;
  out.runs = a.runs + b.runs;
  for (const auto& [key, bp] : b.preds) {
    auto it = out.preds.find(key);
    if (it == out.preds.end()) {
      out.preds.emplace(key, bp);
      continue;
    }
    PredProfile& ap = it->second;
    if (ap.builtin != bp.builtin) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile merge: \"%s\" is a builtin in one input and a user "
          "predicate in the other — the inputs come from different "
          "programs",
          key.c_str()));
    }
    if (ap.content_hash != bp.content_hash) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile merge: \"%s\" was recorded against different clause "
          "content (hash %s vs %s); re-record both inputs against the "
          "current program",
          key.c_str(), HashToHex(ap.content_hash).c_str(),
          HashToHex(bp.content_hash).c_str()));
    }
    if (!ap.clauses.empty() && !bp.clauses.empty() &&
        ap.clauses.size() != bp.clauses.size()) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile merge: \"%s\" has %zu clauses in one input and %zu in "
          "the other; re-record against the current program",
          key.c_str(), ap.clauses.size(), bp.clauses.size()));
    }
    ap.ports.call += bp.ports.call;
    ap.ports.exit += bp.ports.exit;
    ap.ports.redo += bp.ports.redo;
    ap.ports.fail += bp.ports.fail;
    ap.ports.succ += bp.ports.succ;
    if (ap.clauses.size() < bp.clauses.size()) {
      ap.clauses.resize(bp.clauses.size());
    }
    for (size_t i = 0; i < bp.clauses.size(); ++i) {
      ap.clauses[i].tries += bp.clauses[i].tries;
      ap.clauses[i].entries += bp.clauses[i].entries;
      ap.clauses[i].first_exits += bp.clauses[i].first_exits;
      ap.clauses[i].exits += bp.clauses[i].exits;
    }
  }
  return out;
}

prore::Status ValidateAgainstProgram(const term::TermStore& store,
                                     const reader::Program& program,
                                     const ProfileData& data) {
  // Name the program's predicates once; the profile's keys use the same
  // rendering, so this is a plain string-set membership test and needs no
  // interning into the (const) store.
  std::unordered_map<std::string, bool> defined;
  for (const term::PredId& id : program.pred_order()) {
    defined.emplace(PredKey(store, id), true);
  }
  for (const auto& [key, p] : data.preds) {
    if (p.builtin) continue;
    if (defined.count(key) == 0) {
      return prore::Status::InvalidArgument(prore::StrFormat(
          "profile: predicate \"%s\" is not defined by this program — the "
          "profile was recorded against a different program",
          key.c_str()));
    }
  }
  return prore::Status::OK();
}

uint64_t Fingerprint(const ProfileData& data) {
  return analysis::HashBytes(0x70726f66696c6531ull, ToJson(data));
}

std::string ApplyReport::ToText() const {
  std::string out = prore::StrFormat(
      "profile: %zu predicate(s) applied, %zu stale, %zu below sample "
      "floor, %zu unknown",
      applied, stale, low_samples, unknown);
  for (const ApplyOutcome& o : outcomes) {
    switch (o.kind) {
      case ApplyOutcome::Kind::kApplied:
        break;  // the summary line covers the common case
      case ApplyOutcome::Kind::kStale:
        out += prore::StrFormat(
            "\nprofile: %s: clauses changed since recording; using the "
            "static model (re-record to re-enable)",
            o.pred.c_str());
        break;
      case ApplyOutcome::Kind::kLowSamples:
        out += prore::StrFormat(
            "\nprofile: %s: too few recorded calls; using the static "
            "model",
            o.pred.c_str());
        break;
      case ApplyOutcome::Kind::kUnknown:
        out += prore::StrFormat(
            "\nprofile: %s: not defined in this program; entry ignored",
            o.pred.c_str());
        break;
    }
  }
  return out;
}

prore::Result<ApplyReport> BuildEmpirical(term::TermStore* store,
                                          const reader::Program& program,
                                          const ProfileData& data,
                                          const ApplyOptions& options,
                                          cost::EmpiricalProfile* out) {
  PRORE_ASSIGN_OR_RETURN(PredHashMap hashes,
                         ComputeProfileHashes(*store, program));
  ApplyReport report;
  for (const auto& [key, p] : data.preds) {
    std::string name;
    uint32_t arity = 0;
    if (!SplitPredKey(key, &name, &arity)) continue;  // FromJson rejects
    term::PredId id{store->symbols().Intern(name), arity};
    ApplyOutcome outcome;
    outcome.pred = key;
    if (p.builtin) {
      // Builtins have no clauses to go stale; only the sample floor
      // applies.
      if (p.ports.call < options.min_calls) {
        outcome.kind = ApplyOutcome::Kind::kLowSamples;
        ++report.low_samples;
        report.outcomes.push_back(std::move(outcome));
        continue;
      }
      cost::EmpiricalPredStats stats;
      stats.calls = p.ports.call;
      stats.success_prob = Rate(p.ports.succ, p.ports.call);
      stats.expected_solutions = Rate(p.ports.exit, p.ports.call);
      out->builtins[id] = std::move(stats);
      ++report.applied;
      report.outcomes.push_back(std::move(outcome));
      continue;
    }
    if (!program.Has(id)) {
      outcome.kind = ApplyOutcome::Kind::kUnknown;
      ++report.unknown;
      report.outcomes.push_back(std::move(outcome));
      continue;
    }
    auto hit = hashes.find(id);
    if (hit == hashes.end() || hit->second != p.content_hash) {
      outcome.kind = ApplyOutcome::Kind::kStale;
      ++report.stale;
      report.outcomes.push_back(std::move(outcome));
      continue;
    }
    if (p.ports.call < options.min_calls) {
      outcome.kind = ApplyOutcome::Kind::kLowSamples;
      ++report.low_samples;
      report.outcomes.push_back(std::move(outcome));
      continue;
    }
    cost::EmpiricalPredStats stats;
    stats.calls = p.ports.call;
    stats.success_prob = Rate(p.ports.succ, p.ports.call);
    stats.expected_solutions = Rate(p.ports.exit, p.ports.call);
    // The hash matched, so the recorded clause shape is the current one;
    // anything else (e.g. a hand-edited file) keeps whole-pred stats but
    // contributes no per-clause data.
    if (p.clauses.size() == program.ClausesOf(id).size()) {
      for (const engine::ClauseCounts& c : p.clauses) {
        cost::EmpiricalClauseStats cs;
        // Below the per-clause floor, publish tries = 0: consumers fall
        // back to the static estimate for just that clause.
        if (c.tries >= options.min_tries) {
          cs.tries = c.tries;
          cs.match_prob = Rate(c.entries, c.tries);
          cs.success_prob = Rate(c.first_exits, c.tries);
          cs.expected_solutions = Rate(c.exits, c.tries);
        }
        stats.clauses.push_back(cs);
      }
    }
    out->preds[id] = std::move(stats);
    ++report.applied;
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace prore::profile
