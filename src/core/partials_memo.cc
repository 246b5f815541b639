#include "core/partials_memo.h"

#include <utility>

namespace osum::core {

PartialsMemo::PartialsMemo(size_t max_entries, size_t max_bytes)
    : lru_(max_entries, max_bytes) {}

PartialPtr PartialsMemo::Lookup(const std::string& key) {
  util::MutexLock lock(mu_);
  if (!enabled_) return nullptr;
  auto it = lru_.Find(key);
  if (it == lru_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.Touch(it);
  return it->value;
}

bool PartialsMemo::Insert(const std::string& key, PartialPtr value) {
  if (value == nullptr) return false;
  util::MutexLock lock(mu_);
  if (!enabled_) return false;
  if (lru_.Find(key) != lru_.end()) {
    // Lost the race to another thread computing the same key: the
    // existing entry wins.
    ++discarded_inserts_;
    return false;
  }
  size_t bytes = value->approx_bytes;
  lru_.Put(key, std::move(value), bytes);
  ++inserts_;
  return true;
}

void PartialsMemo::SetEnabled(bool enabled) {
  util::MutexLock lock(mu_);
  enabled_ = enabled;
  // Disabling flushes without counting evictions.
  if (!enabled_) lru_.Clear();
}

PartialsMemoMetrics PartialsMemo::metrics() const {
  util::MutexLock lock(mu_);
  PartialsMemoMetrics m;
  m.hits = hits_;
  m.misses = misses_;
  m.inserts = inserts_;
  m.discarded_inserts = discarded_inserts_;
  m.evictions = lru_.evictions();
  m.entries = lru_.size();
  m.approx_bytes = lru_.bytes();
  return m;
}

}  // namespace osum::core
