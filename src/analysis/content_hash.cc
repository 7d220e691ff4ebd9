#include "analysis/content_hash.h"

#include <algorithm>
#include <string>

#include "reader/writer.h"

namespace prore::analysis {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t HashMix(uint64_t seed, uint64_t value) {
  // Non-commutative: Mix(a, b) != Mix(b, a), so sequences hash by order.
  return SplitMix64(seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) +
                            (seed >> 2)));
}

uint64_t HashBytes(uint64_t seed, std::string_view bytes) {
  uint64_t h = HashMix(seed, bytes.size());
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t chunk = 0;
    for (int b = 7; b >= 0; --b) {
      chunk = (chunk << 8) | static_cast<unsigned char>(bytes[i + b]);
    }
    h = HashMix(h, chunk);
  }
  uint64_t tail = 0;
  for (; i < bytes.size(); ++i) {
    tail = (tail << 8) | static_cast<unsigned char>(bytes[i]);
  }
  return HashMix(h, tail);
}

ContentHashes ComputeContentHashes(const term::TermStore& store,
                                   const reader::Program& program,
                                   const DependencyGroups& groups,
                                   uint64_t salt) {
  ContentHashes out;

  // Whole-program context folded into every group: directives (legal-mode
  // declarations reach any predicate) and the defined-name universe
  // (version naming probes it for collisions). Adding or removing a
  // predicate dirties everything; editing one predicate's clauses does not.
  uint64_t global = HashMix(0x70726f7265646873ull, salt);
  for (term::TermRef d : program.directives()) {
    global = HashBytes(global, reader::WriteTerm(store, d));
  }
  {
    std::vector<std::string> names;
    names.reserve(program.pred_order().size());
    for (const term::PredId& p : program.pred_order()) {
      names.push_back(reader::PredName(store, p));
    }
    std::sort(names.begin(), names.end());
    for (const std::string& n : names) global = HashBytes(global, n);
  }

  for (const term::PredId& p : program.pred_order()) {
    uint64_t h = HashBytes(0x636c61757365ull, reader::PredName(store, p));
    for (const reader::Clause& c : program.ClausesOf(p)) {
      h = HashBytes(h, reader::WriteClause(store, c));
    }
    out.pred_hash.emplace(p, h);
  }

  // Groups are topologically ordered (deps[i] all < i), so one forward
  // pass suffices: a group's hash folds in its direct callee groups'
  // finished hashes, which transitively cover the whole cone. Member and
  // dep hashes are combined order-insensitively (sorted values) so an
  // unrelated edit that shifts Tarjan's emission order cannot cause a
  // spurious miss.
  out.group_hash.resize(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    uint64_t h = global;
    std::vector<uint64_t> parts;
    parts.reserve(groups.groups[gi].size());
    for (const term::PredId& p : groups.groups[gi]) {
      parts.push_back(out.pred_hash.at(p));
    }
    std::sort(parts.begin(), parts.end());
    for (uint64_t part : parts) h = HashMix(h, part);
    std::vector<uint64_t> dep_parts;
    dep_parts.reserve(groups.deps[gi].size());
    for (size_t d : groups.deps[gi]) dep_parts.push_back(out.group_hash[d]);
    std::sort(dep_parts.begin(), dep_parts.end());
    for (uint64_t part : dep_parts) h = HashMix(h, part);
    out.group_hash[gi] = h;
  }
  return out;
}

}  // namespace prore::analysis
