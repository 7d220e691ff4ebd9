#include "src/gen.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SyntheticProgram LayeredProgram(uint64_t seed, int preds, int layers) {
  SyntheticProgram out;
  out.clusters = std::max(1, preds / 4);
  out.layers = std::max(1, std::min(layers, out.clusters));
  const int per_layer = (out.clusters + out.layers - 1) / out.layers;
  auto layer_of = [&](int c) { return c / per_layer; };

  // The structure comes from a fixed stream: cluster shapes (fact count
  // and the written goal order of the top clause) dealt from a balanced
  // deck, and links from each layer into the one below through a rotation,
  // so every lower cluster is called equally often. The seed then renumbers
  // the clusters within each layer. Every seed therefore gives a different
  // text of the same program, and the figures stay comparable across seeds.
  Rng structure(0x5eedull + static_cast<uint64_t>(preds));
  std::vector<int> shape(out.clusters);
  for (int c = 0; c < out.clusters; ++c) shape[c] = c;
  for (size_t i = shape.size(); i > 1; --i) {
    std::swap(shape[i - 1], shape[structure.Below(i)]);
  }
  std::vector<int> rotation(out.layers);
  for (int& r : rotation) r = static_cast<int>(structure.Below(per_layer));

  Rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(preds));
  std::vector<int> label(out.clusters);
  for (int c = 0; c < out.clusters; ++c) label[c] = c;
  for (int lo = 0; lo < out.clusters; lo += per_layer) {
    const int hi = std::min(out.clusters, lo + per_layer);
    for (int i = hi - 1; i > lo; --i) {
      std::swap(label[i], label[lo + rng.Below(i - lo + 1)]);
    }
  }
  std::vector<int> by_label(out.clusters);
  for (int c = 0; c < out.clusters; ++c) by_label[label[c]] = c;

  std::ostringstream src;
  for (int n = 0; n < out.clusters; ++n) {
    const int c = by_label[n];  // structural index of the cluster named n
    const std::string id = std::to_string(n);
    const int facts = 3 + (shape[c] / 24) % 4;
    for (int f = 0; f < facts; ++f) {
      src << "base" << id << "(" << f << ", " << (f + 1) << ").\n";
    }
    src << "left" << id << "(X, Y) :- base" << id << "(X, Y).\n";
    src << "left" << id << "(X, Y) :- base" << id << "(X, Z), base" << id
        << "(Z, Y).\n";
    src << "right" << id << "(X, Y) :- base" << id << "(Y, X).\n";

    std::vector<std::string> goals = {"left" + id + "(X, Z)",
                                      "right" + id + "(Z, Y)",
                                      "base" + id + "(X, _)"};
    const int layer = layer_of(c);
    if (layer > 0) {
      // The link top_d(Y, Y) holds for every Y a base fact of d starts
      // from, so it filters without multiplying answers, and calls chain
      // down through every layer.
      const int lo = (layer - 1) * per_layer;
      const int below = std::min(per_layer, out.clusters - lo);
      const int d = lo + (c - layer * per_layer + rotation[layer]) % below;
      goals.push_back("top" + std::to_string(label[d]) + "(Y, Y)");
    }
    for (int k = shape[c] % 24; k > 0; --k) {
      std::next_permutation(goals.begin(), goals.end());
    }
    src << "top" << id << "(X, Y) :- ";
    for (size_t i = 0; i < goals.size(); ++i) {
      src << (i ? ", " : "") << goals[i];
    }
    src << ".\n";

    // Every top predicate, in the modes a caller uses: all answers, first
    // argument bound, second argument bound.
    out.queries.push_back("top" + id + "(X, Y)");
    out.queries.push_back("top" + id + "(" + std::to_string(c % 3) + ", Y)");
    out.queries.push_back("top" + id + "(X, " + std::to_string(1 + c % 3) +
                          ")");
  }
  out.source = src.str();
  return out;
}

std::string EditedVariant(const std::string& source, uint64_t k) {
  std::vector<std::string> lines;
  std::vector<size_t> facts;
  std::istringstream in(source);
  for (std::string line; std::getline(in, line);) {
    const bool fact = !line.empty() && line.back() == '.' &&
                      line.find(":-") == std::string::npos &&
                      line.find('(') != std::string::npos &&
                      line[0] != '%' && line[0] != ' ';
    if (fact) facts.push_back(lines.size());
    lines.push_back(std::move(line));
  }
  std::string out;
  const size_t dup = facts.empty() ? lines.size() : facts[k % facts.size()];
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    out += '\n';
    if (i == dup) out += lines[i] + '\n';
  }
  return out;
}

}  // namespace perfbench
