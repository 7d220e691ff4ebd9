#include "core/analysis_cache.h"

#include <utility>

namespace prore::core {

template <typename Value>
std::shared_ptr<const Value> AnalysisCache::Lru<Value>::Find(uint64_t key) {
  auto it = slots.find(key);
  if (it == slots.end()) return nullptr;
  order.splice(order.begin(), order, it->second.lru_it);
  return it->second.value;
}

template <typename Value>
size_t AnalysisCache::Lru<Value>::Put(uint64_t key,
                                      std::shared_ptr<const Value> value,
                                      size_t max_entries) {
  auto it = slots.find(key);
  if (it != slots.end()) {
    it->second.value = std::move(value);
    order.splice(order.begin(), order, it->second.lru_it);
    return 0;
  }
  size_t evicted = 0;
  while (slots.size() >= max_entries) {
    slots.erase(order.back());
    order.pop_back();
    ++evicted;
  }
  order.push_front(key);
  slots.emplace(key, Slot{std::move(value), order.begin()});
  return evicted;
}

template <typename Value>
bool AnalysisCache::Lru<Value>::Erase(uint64_t key) {
  auto it = slots.find(key);
  if (it == slots.end()) return false;
  order.erase(it->second.lru_it);
  slots.erase(it);
  return true;
}

std::shared_ptr<const GroupCacheEntry> AnalysisCache::Lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = entries_.Find(key);
  ++(entry != nullptr ? stats_.hits : stats_.misses);
  return entry;
}

void AnalysisCache::Insert(uint64_t key, GroupCacheEntry entry) {
  auto shared = std::make_shared<const GroupCacheEntry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.insertions;
  stats_.evictions += entries_.Put(key, std::move(shared), max_entries_);
}

void AnalysisCache::Invalidate(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.Erase(key)) ++stats_.invalidations;
}

std::shared_ptr<const std::vector<uint64_t>> AnalysisCache::LookupProgram(
    uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto facts = programs_.Find(key);
  if (facts != nullptr) ++stats_.program_hits;
  return facts;
}

void AnalysisCache::InsertProgram(uint64_t key,
                                  std::vector<uint64_t> group_facts) {
  auto shared =
      std::make_shared<const std::vector<uint64_t>>(std::move(group_facts));
  std::lock_guard<std::mutex> lock(mu_);
  programs_.Put(key, std::move(shared), max_entries_);
}

bool AnalysisCache::CorruptForTest(
    uint64_t key, const std::function<void(GroupCacheEntry*)>& mutate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.slots.find(key);
  if (it == entries_.slots.end()) return false;
  GroupCacheEntry copy = *it->second.value;
  mutate(&copy);
  it->second.value = std::make_shared<const GroupCacheEntry>(std::move(copy));
  return true;
}

std::vector<uint64_t> AnalysisCache::KeysForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<uint64_t>(entries_.order.begin(), entries_.order.end());
}

AnalysisCache::Stats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.slots.size();
  return s;
}

size_t AnalysisCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.slots.size();
}

}  // namespace prore::core
