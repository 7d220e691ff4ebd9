#ifndef PRORE_CORE_ANALYSIS_CACHE_H_
#define PRORE_CORE_ANALYSIS_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint/diagnostic.h"

namespace prore::core {

/// One cached per-dependency-group transform result, keyed by the group's
/// content hash (analysis/content_hash.h). Everything is stored as plain
/// values — rendered clause text, name/arity strings, mode strings — so an
/// entry is valid across requests whose TermStores (and hence TermRefs and
/// Symbol ids) differ. The canonical writer/parser round-trip is a fixed
/// point (variables re-render under their parsed names), which is what
/// makes a cache-hit merge bit-identical to the cold run that produced the
/// entry. The round-trip does rename one kind of variable: an unnamed one
/// (source `_`) is written `_G<var_id>` and re-read as a variable of that
/// name. Such variables are singletons, and the re-validation of a hit
/// (PL101) compares clauses up to renaming of singletons, so the renamed
/// entry still matches the original clauses it was made from.
///
/// An entry carries what a reply needs and nothing more: no abstract-
/// interpretation dump (PipelineResult::absint_report gets no section for
/// a replayed group; the only reader of that dump, `prore --report`, runs
/// without a cache).
///
/// Only clean groups are cached: a group that degraded, tripped a
/// watchdog, or disabled a stage recomputes every time — caching a
/// transient fault would pin it.
struct GroupCacheEntry {
  /// Rendered clauses of the group's owned predicates (members plus their
  /// specialized versions and dispatchers), in merge emission order.
  std::string program_text;

  /// Per-(pred, mode) reorderer reports, serialized by name.
  struct Report {
    std::string pred_name;  ///< bare name, no arity suffix
    uint32_t arity = 0;
    std::string mode;  ///< ModeString form, e.g. "(+,-)"
    std::string version_name;
    bool clauses_changed = false;
    bool goals_changed = false;
    double predicted_original_cost = 0.0;
    double predicted_new_cost = 0.0;
  };
  std::vector<Report> reports;

  /// Per-predicate pipeline outcomes for the owned members.
  struct Outcome {
    std::string pred_name;
    uint32_t arity = 0;
    int level = 0;  ///< LadderLevel as int
    int attempts = 1;
    int retries = 0;
    std::string fault_class;
    std::vector<std::string> triggers;
    bool clauses_changed = false;
    bool goals_changed = false;
  };
  std::vector<Outcome> outcomes;

  /// Diagnostics attributed to owned predicates (notes/warnings only —
  /// error findings would have quarantined the group, which is not cached).
  std::vector<lint::Diagnostic> diagnostics;

  /// Whole-group pipeline attempts recorded by the producing run.
  int runs = 1;
};

/// A bounded, thread-safe, LRU content-hash cache of per-group transform
/// results. Lookups and insertions are cheap (one mutex, hash map + LRU
/// list); entries are shared_ptr-immutable so a hit can be read without
/// holding the lock while a concurrent insert evicts.
///
/// The cache is self-verifying at the consumer: the pipeline re-runs the
/// PL100-PL103 reorder validator over every hit's parsed output before
/// trusting it, and calls Invalidate() on failure — a corrupt entry
/// degrades to a recompute, never to wrong output.
class AnalysisCache {
 public:
  explicit AnalysisCache(size_t max_entries = 1024)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  /// The entry for `key`, or null. A hit refreshes LRU recency.
  std::shared_ptr<const GroupCacheEntry> Lookup(uint64_t key);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when full.
  void Insert(uint64_t key, GroupCacheEntry entry);

  /// Drops the entry for `key` (validator-rejected hit). No-op if absent.
  void Invalidate(uint64_t key);

  /// Test hook: applies `mutate` to a private copy of the entry for `key`
  /// and stores the mutated copy, simulating corruption. Returns false if
  /// the key is absent.
  bool CorruptForTest(uint64_t key,
                      const std::function<void(GroupCacheEntry*)>& mutate);

  /// Test hook: every resident key, most recently used first.
  std::vector<uint64_t> KeysForTest() const;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  Stats stats() const;

  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const GroupCacheEntry> entry;
    std::list<uint64_t>::iterator lru_it;
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  std::unordered_map<uint64_t, Slot> entries_;
  std::list<uint64_t> lru_;  ///< front = most recent
  Stats stats_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_ANALYSIS_CACHE_H_
