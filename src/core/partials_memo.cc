#include "core/partials_memo.h"

#include <utility>

namespace osum::core {

size_t ApproxPartialBytes(const PartialSynopsis& p) {
  size_t bytes = sizeof(PartialSynopsis);
  bytes += p.os.size() * sizeof(OsNode);
  for (size_t v = 0; v < p.os.size(); ++v) {
    bytes += p.os.node(static_cast<OsNodeId>(v)).children.capacity() *
             sizeof(OsNodeId);
  }
  return bytes;
}

PartialsMemo::PartialsMemo(PartialsMemoOptions options)
    : options_(options) {}

PartialPtr PartialsMemo::Lookup(const std::string& key, uint64_t* epoch_out) {
  util::MutexLock lock(mu_);
  if (epoch_out != nullptr) *epoch_out = epoch_;
  if (!options_.enabled) return nullptr;
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

bool PartialsMemo::Insert(const std::string& key, PartialPtr value,
                          uint64_t epoch_at_lookup) {
  if (value == nullptr) return false;
  util::MutexLock lock(mu_);
  if (!options_.enabled) return false;
  if (epoch_at_lookup != epoch_ || index_.count(key) != 0) {
    // Computed against a rebound context, or lost the race to another
    // thread computing the same key — either way the existing state wins.
    ++discarded_inserts_;
    return false;
  }
  size_t bytes = value->approx_bytes;
  lru_.push_front(Entry{key, std::move(value), bytes});
  index_.emplace(std::string_view(lru_.front().key), lru_.begin());
  bytes_ += bytes;
  ++inserts_;
  EvictOverBudget();
  return true;
}

void PartialsMemo::BumpEpoch() {
  util::MutexLock lock(mu_);
  ++epoch_;
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

void PartialsMemo::Configure(const PartialsMemoOptions& options) {
  util::MutexLock lock(mu_);
  options_ = options;
  if (!options_.enabled) {
    index_.clear();
    lru_.clear();
    bytes_ = 0;
    return;
  }
  EvictOverBudget();
}

bool PartialsMemo::enabled() const {
  util::MutexLock lock(mu_);
  return options_.enabled;
}

PartialsMemoMetrics PartialsMemo::metrics() const {
  util::MutexLock lock(mu_);
  PartialsMemoMetrics m;
  m.hits = hits_;
  m.misses = misses_;
  m.inserts = inserts_;
  m.discarded_inserts = discarded_inserts_;
  m.evictions = evictions_;
  m.entries = lru_.size();
  m.approx_bytes = bytes_;
  m.epoch = epoch_;
  return m;
}

void PartialsMemo::EvictOverBudget() {
  // Never evicts the most recent entry: one oversized tree may briefly
  // exceed the byte budget, but an insert must not be a self-defeating
  // no-op (mirrors serve::ResultCache).
  while (lru_.size() > 1 && (lru_.size() > options_.max_entries ||
                             bytes_ > options_.max_bytes)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(std::string_view(victim.key));
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace osum::core
