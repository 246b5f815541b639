// The one LRU mechanism under every reuse tier: serve::ResultCache's
// entries and its admission doorkeeper, core::PartialsMemo, and
// core::JoinCache.
//
// A BoundedLru maps string keys to values in recency order and holds two
// budgets: an entry count and a byte total, where each entry's byte charge
// is whatever its caller says it is. Over either budget it evicts from the
// oldest end, but never the newest entry: one oversized value may briefly
// exceed the byte budget, yet an insert is never a self-defeating no-op
// (the next insert evicts it).
//
// Lookups probe one hash index keyed by string_view into each entry's own
// key, so a lookup never allocates; a hit's recency refresh is a list
// splice. There is no lock here: each owner guards its BoundedLru with its
// own annotated util::Mutex (GUARDED_BY), so the tier's policy state
// (in-flight futures, switches, counters) shares that one critical section.
#ifndef OSUM_UTIL_BOUNDED_LRU_H_
#define OSUM_UTIL_BOUNDED_LRU_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace osum::util {

template <typename V>
class BoundedLru {
 public:
  struct Entry {
    std::string key;
    V value;
    size_t bytes = 0;
  };
  /// Iteration runs newest first.
  using iterator = typename std::list<Entry>::iterator;

  BoundedLru(size_t max_entries, size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  // The index holds views into the list's keys: copies would alias them.
  BoundedLru(const BoundedLru&) = delete;
  BoundedLru& operator=(const BoundedLru&) = delete;

  /// The entry for `key`, or end(). Leaves recency alone.
  iterator Find(std::string_view key) {
    auto it = index_.find(key);
    return it == index_.end() ? end() : it->second;
  }

  /// Marks `it` most recently used.
  void Touch(iterator it) { lru_.splice(lru_.begin(), lru_, it); }

  /// Insert-or-touch: a present key takes the new value and byte charge
  /// and becomes the newest entry; an absent key is added as the newest.
  /// Either way, entries past a budget are then evicted oldest first.
  void Put(std::string_view key, V value, size_t bytes) {
    iterator it = Find(key);
    if (it != end()) {
      bytes_ = bytes_ - it->bytes + bytes;
      it->value = std::move(value);
      it->bytes = bytes;
      Touch(it);
    } else {
      lru_.push_front(Entry{std::string(key), std::move(value), bytes});
      index_.emplace(std::string_view(lru_.front().key), lru_.begin());
      bytes_ += bytes;
    }
    EvictOverBudget();
  }

  /// Removes `it` (not counted as an eviction).
  void Erase(iterator it) {
    bytes_ -= it->bytes;
    index_.erase(std::string_view(it->key));
    lru_.erase(it);
  }

  void Clear() {
    index_.clear();
    lru_.clear();
    bytes_ = 0;
  }

  iterator begin() { return lru_.begin(); }
  iterator end() { return lru_.end(); }
  size_t size() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }
  uint64_t evictions() const { return evictions_; }

 private:
  void EvictOverBudget() {
    while (lru_.size() > 1 &&
           (lru_.size() > max_entries_ || bytes_ > max_bytes_)) {
      Erase(std::prev(lru_.end()));
      ++evictions_;
    }
  }

  const size_t max_entries_;
  const size_t max_bytes_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string_view, iterator> index_;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace osum::util

#endif  // OSUM_UTIL_BOUNDED_LRU_H_
