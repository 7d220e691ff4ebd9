// Seeded input generator for the benchmark: layered synthetic programs in
// the clause shape of bench/pipeline_scale, their query sets, and the
// one-predicate edits the server mix loads. Everything is a pure function
// of (seed, size), so the same seed always yields the same text.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// A generated program plus the queries the benchmark runs on it.
struct SyntheticProgram {
  std::string source;
  std::vector<std::string> queries;  ///< goals without the trailing dot
  int clusters = 0;
  int layers = 0;
};

/// A program of `preds` predicates (rounded down to a multiple of four):
/// clusters of base/left/right/top as in bench/pipeline_scale, stacked in
/// `layers` layers. Every top predicate above layer 0 also calls the top
/// predicate of a cluster in the layer below, so the dependency groups form
/// several waves instead of one flat wave of independent clusters. The
/// clusters' shapes (fact count, written goal order of the top clause,
/// which is what gives the reorderer work) and links are fixed for a size;
/// the seed numbers the clusters within each layer. The queries call every
/// top predicate.
SyntheticProgram LayeredProgram(uint64_t seed, int preds, int layers = 5);

/// `source` with one clause of one predicate duplicated: the edit a
/// client makes between two loads. `k` selects the predicate (fact
/// predicates only, so the edit stays a well-formed fact), letting every
/// load in a run carry a different variant.
std::string EditedVariant(const std::string& source, uint64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
