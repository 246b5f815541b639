#include "core/join_cache.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace osum::core {

namespace {

// (link, direction, parent tuple) packed into fixed-width bytes on the
// stack, and hashed for the doorkeeper: no formatting and no allocation
// per probe.
class JoinKey {
 public:
  JoinKey(graph::LinkTypeId link, rel::FkDirection dir,
          rel::TupleId parent_tuple) {
    std::memcpy(bytes_, &link, sizeof(link));
    bytes_[sizeof(link)] = static_cast<char>(dir);
    std::memcpy(bytes_ + sizeof(link) + 1, &parent_tuple,
                sizeof(parent_tuple));
    // The splitmix64 finalizer over the packed ids: distinct keys (of
    // links below 2^31) get distinct hashes, and 0 is kept for "empty".
    uint64_t h = uint64_t{link} << 33 | uint64_t{parent_tuple} << 1 |
                 static_cast<uint64_t>(dir);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    hash_ = h == 0 ? 1 : h;
  }

  std::string_view view() const { return {bytes_, sizeof(bytes_)}; }
  uint64_t hash() const { return hash_; }

 private:
  static_assert(sizeof(graph::LinkTypeId) == 4 && sizeof(rel::TupleId) == 4);
  char bytes_[sizeof(graph::LinkTypeId) + 1 + sizeof(rel::TupleId)];
  uint64_t hash_;
};

// What an entry costs beyond its ids, approximately: the recency-list node
// (key, vector header, charge, links) and its index slot.
constexpr size_t kEntryOverheadBytes = 128;

}  // namespace

JoinCache::JoinCache(OsBackend* inner, size_t max_bytes)
    : OsBackend(inner->db(), inner->links()),
      inner_(inner),
      lru_(std::numeric_limits<size_t>::max(), max_bytes),
      doorkeeper_(kDoorkeeperSlots, 0) {}

template <typename Prefix>
JoinCache::Probe JoinCache::Lookup(std::string_view key, uint64_t hash,
                                   Prefix prefix, List* out) {
  static_assert((kDoorkeeperSlots & (kDoorkeeperSlots - 1)) == 0);
  util::MutexLock lock(mu_);
  auto it = lru_.Find(key);
  if (it != lru_.end()) {
    ++hits_;
    lru_.Touch(it);
    const List& list = it->value;
    out->assign(list.begin(), list.begin() + prefix(list));
    return Probe::kHit;
  }
  ++misses_;
  uint64_t& seen = doorkeeper_[hash & (kDoorkeeperSlots - 1)];
  if (seen != hash) {
    seen = hash;
    return Probe::kPass;
  }
  seen = 0;
  ++admitted_;
  return Probe::kAdmit;
}

void JoinCache::Fill(std::string_view key, graph::LinkTypeId link,
                     rel::FkDirection dir, rel::TupleId parent_tuple,
                     List* out) {
  inner_->Fetch(link, dir, parent_tuple, out);
  List list(out->begin(), out->end());
  size_t bytes = kEntryOverheadBytes + list.size() * sizeof(rel::TupleId);
  util::MutexLock lock(mu_);
  if (lru_.Find(key) != lru_.end()) {
    // Another thread admitted the same join and filled it first; its
    // list is the same one.
    ++discarded_inserts_;
    return;
  }
  lru_.Put(key, std::move(list), bytes);
}

void JoinCache::Fetch(graph::LinkTypeId link, rel::FkDirection dir,
                      rel::TupleId parent_tuple,
                      std::vector<rel::TupleId>* out) {
  JoinKey key(link, dir, parent_tuple);
  auto all = [](const List& list) { return list.size(); };
  switch (Lookup(key.view(), key.hash(), all, out)) {
    case Probe::kHit:
      return;
    case Probe::kPass:
      inner_->Fetch(link, dir, parent_tuple, out);
      return;
    case Probe::kAdmit:
      Fill(key.view(), link, dir, parent_tuple, out);
      return;
  }
}

void JoinCache::FetchTop(graph::LinkTypeId link, rel::FkDirection dir,
                         rel::TupleId parent_tuple, size_t limit,
                         double min_importance,
                         std::vector<rel::TupleId>* out) {
  // Checked in every build type, as the database back end's own TOP-l
  // does: a forward FK join lists its FK index's order, which is
  // importance order only once the indexes are sorted. Backward and
  // junction joins are importance-ordered either way.
  const graph::LinkType& lt = links().link(link);
  if (!lt.via_junction && dir == rel::FkDirection::kForward &&
      !db().indexes_sorted()) {
    throw std::logic_error(
        "FetchTop requires Database::SortIndexesByImportance");
  }
  JoinKey key(link, dir, parent_tuple);
  const rel::Relation& target = Target(link, dir);
  auto top = [&](const List& list) {
    return rel::TopImportancePrefix(target, list, limit, min_importance);
  };
  switch (Lookup(key.view(), key.hash(), top, out)) {
    case Probe::kHit:
      return;
    case Probe::kPass:
      inner_->FetchTop(link, dir, parent_tuple, limit, min_importance, out);
      return;
    case Probe::kAdmit:
      Fill(key.view(), link, dir, parent_tuple, out);
      out->resize(top(*out));
      return;
  }
}

JoinCacheMetrics JoinCache::metrics() const {
  util::MutexLock lock(mu_);
  JoinCacheMetrics m;
  m.hits = hits_;
  m.misses = misses_;
  m.admitted = admitted_;
  m.discarded_inserts = discarded_inserts_;
  m.evictions = lru_.evictions();
  m.entries = lru_.size();
  m.approx_bytes = lru_.bytes();
  return m;
}

}  // namespace osum::core
