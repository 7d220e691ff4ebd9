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

#include "core/reorderer.h"
#include "lint/diagnostic.h"

namespace prore::core {

/// One cached per-dependency-group transform result, keyed by the group's
/// cache key: its content hash (analysis/content_hash.h), a fingerprint of
/// the whole-program analysis facts its transform read about its members
/// (core::ProgramAnalysis::FactsFingerprint), and the keys of its callee
/// groups. Everything is stored as plain values — rendered clause text,
/// name/arity strings, mode strings — so an entry is valid across requests
/// whose TermStores (and hence TermRefs and Symbol ids) differ. The
/// canonical writer/parser round-trip is a fixed point (variables
/// re-render under their parsed names), which is what makes a cache-hit
/// merge bit-identical to the cold run that produced the entry. The
/// round-trip does rename one kind of variable: an unnamed one (source
/// `_`) is written `_G<var_id>` and re-read as a variable of that name.
/// Such variables are singletons, and the re-validation of a hit (PL101)
/// compares clauses up to renaming of singletons, so the renamed entry
/// still matches the original clauses it was made from.
///
/// An entry carries what a reply needs and what the group's callers read,
/// nothing more: no abstract-interpretation dump (PipelineResult::
/// absint_report is empty when the analyses were skipped; its only reader,
/// `prore --report`, runs without a cache).
///
/// Only clean groups are cached: every member settled at full strength on
/// the first attempt, and so did every callee group. A group that
/// degraded, tripped a watchdog, or disabled a stage recomputes every time
/// — caching a transient fault would pin it.
struct GroupCacheEntry {
  /// Rendered clauses of the group's predicates (members plus their
  /// specialized versions and dispatchers), members in program order.
  std::string program_text;

  /// Per-(pred, mode) reorderer reports, serialized by name, build order.
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

  /// The reorderer's notes about the group (PL210/PL211).
  std::vector<lint::Diagnostic> notes;
  /// Validator findings for the group (notes/warnings only — an error
  /// finding would have quarantined the group, which is not cached).
  std::vector<lint::Diagnostic> diagnostics;

  /// What the group passes to its callers: settled stats per (member,
  /// mode) and the names of its specialized versions.
  VersionTable table;
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

  /// The program-level entry for `key` (a whole program's content hash
  /// and salt): the facts fingerprint of each of its dependency groups, in
  /// group order. With it an unedited program's group keys are known
  /// without running the analyses. Null if absent. Kept apart from the
  /// group entries, with its own bound and counters.
  std::shared_ptr<const std::vector<uint64_t>> LookupProgram(uint64_t key);
  void InsertProgram(uint64_t key, std::vector<uint64_t> group_facts);

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
    uint64_t program_hits = 0;
  };
  Stats stats() const;

  size_t size() const;

 private:
  /// Key -> shared immutable value, evicting the least recently used.
  template <typename Value>
  struct Lru {
    struct Slot {
      std::shared_ptr<const Value> value;
      std::list<uint64_t>::iterator lru_it;
    };
    std::unordered_map<uint64_t, Slot> slots;
    std::list<uint64_t> order;  ///< front = most recent

    std::shared_ptr<const Value> Find(uint64_t key);
    /// Returns the number of entries evicted to make room.
    size_t Put(uint64_t key, std::shared_ptr<const Value> value,
               size_t max_entries);
    bool Erase(uint64_t key);
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  Lru<GroupCacheEntry> entries_;
  Lru<std::vector<uint64_t>> programs_;
  Stats stats_;
};

}  // namespace prore::core

#endif  // PRORE_CORE_ANALYSIS_CACHE_H_
