// Model-checked property harness for serve::ResultCache.
//
// A straight-line, single-threaded reference model reimplements the
// cache's documented semantics — LRU recency and eviction, entry/byte
// budgets, and the doorkeeper admission filter with its sighting cap — in
// ~60 lines of obviously-correct code. Seeded random op sequences (get /
// insert) then run against BOTH implementations and every observable must
// match exactly after every step: hit/miss outcomes, returned values,
// admission decisions, eviction counts, and occupancy. LRU order is
// verified observationally: under tight budgets any order divergence
// changes a later eviction victim and therefore a later hit/miss outcome.
//
// The whole harness is single-threaded and deterministic per (config,
// seed). It carries the `serve` label, so the TSan CI lane runs it too
// (trivially clean — it exists to prove the policy logic, while
// serve_cache_test's stress suites prove the locking).
#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/result_cache.h"
#include "util/rng.h"

namespace osum::serve {
namespace {

/// What the model predicts for one cache interaction.
struct ModelOutcome {
  bool hit = false;       // served from the committed table
  size_t approx = 0;      // value observable: CachedResult::approx_bytes
  bool negative = false;  // value observable: results.empty()
};

/// The reference model: no locks, no futures — just the documented policy
/// semantics, written linearly.
class ModelCache {
 public:
  ModelCache(size_t max_entries, size_t max_bytes, bool admission_enabled,
             size_t max_tracked)
      : max_entries_(max_entries),
        max_bytes_(max_bytes),
        admission_enabled_(admission_enabled),
        max_tracked_(max_tracked) {}

  std::optional<ModelOutcome> Lookup(const std::string& key) {
    auto it = Find(key);
    if (it == lru_.end()) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it);
    ++hits;
    if (it->negative) ++negative_hits;
    return ModelOutcome{true, it->approx, it->negative};
  }

  ModelOutcome GetOrCompute(const std::string& key, size_t approx,
                            bool negative) {
    if (std::optional<ModelOutcome> hit = Lookup(key)) return *hit;
    ++misses;
    if (!AdmitOrRecordSighting(key)) {
      ++admission_rejects;
    } else {
      lru_.push_front(Entry{key, approx, approx + key.size(), negative});
      bytes_ += lru_.front().bytes;
      while (lru_.size() > 1 &&
             (lru_.size() > max_entries_ || bytes_ > max_bytes_)) {
        bytes_ -= lru_.back().bytes;
        lru_.pop_back();
        ++evictions;
      }
    }
    return ModelOutcome{false, approx, negative};
  }

  // Observables compared against CacheMetrics after every op.
  uint64_t hits = 0, negative_hits = 0, misses = 0, evictions = 0;
  uint64_t admission_rejects = 0;
  size_t entries() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }
  size_t tracked_sightings() const { return sightings_.size(); }

 private:
  struct Entry {
    std::string key;
    size_t approx = 0;
    size_t bytes = 0;
    bool negative = false;
  };

  std::list<Entry>::iterator Find(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) return it;
    }
    return lru_.end();
  }

  bool AdmitOrRecordSighting(const std::string& key) {
    if (!admission_enabled_) return true;
    for (auto it = sightings_.begin(); it != sightings_.end(); ++it) {
      if (*it == key) {
        sightings_.erase(it);
        return true;
      }
    }
    sightings_.push_front(key);
    if (sightings_.size() > max_tracked_) sightings_.pop_back();
    return false;
  }

  const size_t max_entries_;
  const size_t max_bytes_;
  const bool admission_enabled_;
  const size_t max_tracked_;
  std::list<Entry> lru_;
  std::list<std::string> sightings_;  // newest first
  size_t bytes_ = 0;
};

/// A payload whose two observables (approx_bytes, negative) the harness
/// can predict. Positive payloads carry one default-constructed result so
/// CachedResult::negative() is false.
CachedResult Payload(size_t approx, bool negative) {
  CachedResult r;
  if (!negative) r.results.emplace_back();
  r.approx_bytes = approx;
  return r;
}

struct HarnessConfig {
  const char* name;
  size_t max_entries;
  size_t max_bytes;
  bool admission_enabled = false;
  size_t admission_max_tracked = 0;  // 0 = the cache's auto cap
};

/// Runs `ops` random operations for one (config, seed) pair, checking
/// every observable after every operation.
void RunSequence(const HarnessConfig& config, uint64_t seed, int ops) {
  SCOPED_TRACE(std::string(config.name) + " seed=" + std::to_string(seed));
  ResultCacheOptions options;
  options.max_entries = config.max_entries;
  options.max_bytes = config.max_bytes;
  options.admission_enabled = config.admission_enabled;
  options.admission_max_tracked = config.admission_max_tracked;
  ResultCache cache(options);

  size_t max_tracked = config.admission_max_tracked != 0
                           ? config.admission_max_tracked
                           : std::max<size_t>(8 * config.max_entries, 64);
  ModelCache model(config.max_entries, config.max_bytes,
                   config.admission_enabled, max_tracked);

  util::Rng rng(seed);
  // Key universe small enough to collide constantly; mixed lengths so the
  // byte budget charges differ per key.
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    std::string key = "q";  // GCC 12 -Wrestrict dislikes `"" + str`
    key += std::to_string(i);
    keys.push_back(std::move(key));
  }
  keys.push_back("a-deliberately-longer-canonical-key");
  keys.push_back("x");

  auto check_counters = [&](const char* when) {
    CacheMetrics m = cache.metrics();
    ASSERT_EQ(m.hits, model.hits) << when;
    ASSERT_EQ(m.negative_hits, model.negative_hits) << when;
    ASSERT_EQ(m.misses, model.misses) << when;
    ASSERT_EQ(m.evictions, model.evictions) << when;
    ASSERT_EQ(m.admission_rejects, model.admission_rejects) << when;
    ASSERT_EQ(m.entries, model.entries()) << when;
    ASSERT_EQ(m.approx_bytes, model.bytes()) << when;
    ASSERT_EQ(m.tracked_sightings, model.tracked_sightings()) << when;
    // Single-threaded: the concurrency-only counters must stay zero.
    ASSERT_EQ(m.coalesced_waits, 0u) << when;
    ASSERT_EQ(m.discarded_inserts, 0u) << when;
  };

  for (int op = 0; op < ops; ++op) {
    std::string op_trace = "op ";  // GCC 12 -Wrestrict dislikes `"" + str`
    op_trace += std::to_string(op);
    SCOPED_TRACE(op_trace);
    uint64_t dice = rng.NextU64(100);
    if (dice < 64) {
      // GetOrCompute with a fresh payload; the model predicts whether the
      // compute runs and which value comes back.
      const std::string& key = keys[rng.NextU64(keys.size())];
      size_t approx = 25 + 25 * rng.NextU64(12);
      bool negative = rng.NextU64(4) == 0;
      ModelOutcome expected = model.GetOrCompute(key, approx, negative);
      bool computed = false;
      ResultPtr got = cache.GetOrCompute(key, [&] {
        computed = true;
        return Payload(approx, negative);
      });
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(computed, !expected.hit) << "hit/miss divergence";
      ASSERT_EQ(got->approx_bytes, expected.approx);
      ASSERT_EQ(got->negative(), expected.negative);
    } else {
      const std::string& key = keys[rng.NextU64(keys.size())];
      std::optional<ModelOutcome> expected = model.Lookup(key);
      ResultPtr got = cache.Lookup(key);
      ASSERT_EQ(got != nullptr, expected.has_value());
      if (expected.has_value()) {
        ASSERT_EQ(got->approx_bytes, expected->approx);
        ASSERT_EQ(got->negative(), expected->negative);
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_counters("after op"));
  }

  // Closing pass: probing every key in a fixed order is order-sensitive
  // (each hit re-sorts the LRU), so any residual order divergence the
  // random walk missed surfaces here.
  for (const std::string& key : keys) {
    std::optional<ModelOutcome> expected = model.Lookup(key);
    ResultPtr got = cache.Lookup(key);
    ASSERT_EQ(got != nullptr, expected.has_value()) << key;
  }
  ASSERT_NO_FATAL_FAILURE(check_counters("final"));
}

TEST(ResultCachePropertyHarness, LegacyPolicyMatchesModel) {
  // No admission: the seed-era contract (LRU + budgets) must be
  // bit-compatible with the model.
  HarnessConfig config{"legacy", 6, 1500};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, AdmissionOnlyMatchesModel) {
  // A tiny sighting cap, so the cap path — the only way a sighting ages
  // out — runs hot.
  HarnessConfig config{"admission-only", 8, 1u << 20, true, 4};
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, ZeroWindowAdmissionMatchesModel) {
  // Sightings never age out by time (what the old zero window meant, now
  // the only behaviour), bounded by the cap alone, on tight budgets.
  HarnessConfig config{"zero-window", 6, 1500, true, 4};
  for (uint64_t seed = 61; seed <= 68; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, FullPolicyTightBudgetsMatchesModel) {
  // The doorkeeper on with its auto cap, and budgets tight enough that
  // eviction and admission interact on nearly every insert.
  HarnessConfig config{"full-tight", 4, 700, true};
  for (uint64_t seed = 31; seed <= 42; ++seed) {
    RunSequence(config, seed, 1500);
  }
}

TEST(ResultCachePropertyHarness, FullPolicyRoomyBudgetsMatchesModel) {
  HarnessConfig config{"full-roomy", 64, 1u << 20, true};
  for (uint64_t seed = 51; seed <= 58; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

}  // namespace
}  // namespace osum::serve
