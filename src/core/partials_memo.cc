#include "core/partials_memo.h"

#include <utility>

namespace osum::core {

PartialsMemo::PartialsMemo(PartialsMemoOptions options)
    : enabled_(options.enabled),
      lru_(options.max_entries, options.max_bytes) {}

PartialPtr PartialsMemo::Lookup(const std::string& key, uint64_t* epoch_out) {
  util::MutexLock lock(mu_);
  if (epoch_out != nullptr) *epoch_out = epoch_;
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

bool PartialsMemo::Insert(const std::string& key, PartialPtr value,
                          uint64_t epoch_at_lookup) {
  if (value == nullptr) return false;
  util::MutexLock lock(mu_);
  if (!enabled_) return false;
  if (epoch_at_lookup != epoch_ || lru_.Find(key) != lru_.end()) {
    // Computed against a rebound context, or lost the race to another
    // thread computing the same key — either way the existing state wins.
    ++discarded_inserts_;
    return false;
  }
  size_t bytes = value->approx_bytes;
  lru_.Put(key, std::move(value), bytes);
  ++inserts_;
  return true;
}

void PartialsMemo::BumpEpoch() {
  util::MutexLock lock(mu_);
  ++epoch_;
  lru_.Clear();
}

void PartialsMemo::Configure(const PartialsMemoOptions& options) {
  util::MutexLock lock(mu_);
  enabled_ = options.enabled;
  // Disabling flushes without counting evictions.
  if (!enabled_) lru_.Clear();
  lru_.SetBudgets(options.max_entries, options.max_bytes);
}

bool PartialsMemo::enabled() const {
  util::MutexLock lock(mu_);
  return enabled_;
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
  m.epoch = epoch_;
  return m;
}

}  // namespace osum::core
