// Model-checked property harness for serve::ResultCache.
//
// A straight-line, single-threaded reference model reimplements the
// cache's documented semantics — LRU recency and eviction, entry/byte
// budgets, TTL + negative-TTL lazy/sweep expiry, and the doorkeeper
// admission filter — in ~100 lines of obviously-correct code. Seeded
// random op sequences (get / insert / clock-advance / sweep) then run
// against BOTH implementations and every observable must match exactly
// after every step: hit/miss outcomes, returned values, admission
// decisions, expiry attribution, eviction counts, and occupancy. LRU
// order is verified observationally: under tight budgets any order
// divergence changes a later eviction victim and therefore a later
// hit/miss outcome.
//
// Time comes from a FakeClock, so every TTL/window behavior is exercised
// deterministically with zero sleeps; the whole harness is single-
// threaded and deterministic per (config, seed). It carries the `serve`
// label, so the TSan CI lane runs it too (trivially clean — it exists to
// prove the policy logic, while serve_cache_test's stress suites prove
// the locking).
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/clock.h"
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
  ModelCache(size_t max_entries, size_t max_bytes,
             const CachePolicyOptions& policy, size_t max_tracked)
      : max_entries_(max_entries),
        max_bytes_(max_bytes),
        policy_(policy),
        max_tracked_(max_tracked) {}

  void set_now(uint64_t now_micros) { now_ = now_micros; }

  std::optional<ModelOutcome> Lookup(const std::string& key) {
    auto it = Find(key);
    if (it == lru_.end()) return std::nullopt;
    if (EraseIfExpired(it)) return std::nullopt;
    lru_.splice(lru_.begin(), lru_, it);
    ++hits;
    if (it->negative) ++negative_hits;
    return ModelOutcome{true, it->approx, it->negative};
  }

  ModelOutcome GetOrCompute(const std::string& key, size_t approx,
                            bool negative) {
    auto it = Find(key);
    if (it != lru_.end() && !EraseIfExpired(it)) {
      lru_.splice(lru_.begin(), lru_, it);
      ++hits;
      if (it->negative) ++negative_hits;
      return ModelOutcome{true, it->approx, it->negative};
    }
    ++misses;
    if (!AdmitOrRecordSighting(key)) {
      ++admission_rejects;
    } else {
      uint64_t ttl =
          negative ? policy_.negative_ttl_micros : policy_.ttl_micros;
      lru_.push_front(Entry{key, approx, approx + key.size(),
                            ttl == 0 ? 0 : now_ + ttl, negative});
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

  size_t SweepExpired() {
    size_t swept = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
      auto next = std::next(it);
      if (EraseIfExpired(it)) ++swept;
      it = next;
    }
    while (policy_.admission_window_micros != 0 && !sightings_.empty() &&
           now_ >= sightings_.back().seen + policy_.admission_window_micros) {
      sightings_.pop_back();
    }
    return swept;
  }

  // Observables compared against CacheMetrics after every op.
  uint64_t hits = 0, negative_hits = 0, misses = 0, evictions = 0;
  uint64_t ttl_expiries = 0, negative_ttl_expiries = 0;
  uint64_t admission_rejects = 0;
  size_t entries() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }
  size_t tracked_sightings() const { return sightings_.size(); }

 private:
  struct Entry {
    std::string key;
    size_t approx = 0;
    size_t bytes = 0;
    uint64_t deadline = 0;
    bool negative = false;
  };
  struct Sighting {
    std::string key;
    uint64_t seen = 0;
  };

  std::list<Entry>::iterator Find(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) return it;
    }
    return lru_.end();
  }

  bool EraseIfExpired(std::list<Entry>::iterator it) {
    if (it->deadline == 0 || now_ < it->deadline) return false;
    (it->negative ? negative_ttl_expiries : ttl_expiries)++;
    // Expiry re-seeds the doorkeeper (the cache does the same): the
    // erased key's first recompute is re-admitted.
    if (policy_.admission_enabled) RecordSighting(it->key);
    bytes_ -= it->bytes;
    lru_.erase(it);
    return true;
  }

  void RecordSighting(const std::string& key) {
    for (auto it = sightings_.begin(); it != sightings_.end(); ++it) {
      if (it->key != key) continue;
      it->seen = now_;
      sightings_.splice(sightings_.begin(), sightings_, it);
      return;
    }
    sightings_.push_front(Sighting{key, now_});
    if (sightings_.size() > max_tracked_) sightings_.pop_back();
  }

  bool AdmitOrRecordSighting(const std::string& key) {
    if (!policy_.admission_enabled) return true;
    for (auto it = sightings_.begin(); it != sightings_.end(); ++it) {
      if (it->key != key) continue;
      if (policy_.admission_window_micros == 0 ||  // 0 = never ages
          now_ < it->seen + policy_.admission_window_micros) {
        sightings_.erase(it);
        return true;
      }
      break;  // aged out: fall through to record/refresh + reject
    }
    RecordSighting(key);
    return false;
  }

  const size_t max_entries_;
  const size_t max_bytes_;
  const CachePolicyOptions policy_;
  const size_t max_tracked_;
  uint64_t now_ = 0;
  std::list<Entry> lru_;
  std::list<Sighting> sightings_;
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
  CachePolicyOptions policy;
};

/// Runs `ops` random operations for one (config, seed) pair, checking
/// every observable after every operation.
void RunSequence(const HarnessConfig& config, uint64_t seed, int ops) {
  SCOPED_TRACE(std::string(config.name) + " seed=" + std::to_string(seed));
  auto clock = std::make_shared<FakeClock>();
  ResultCacheOptions options;
  options.max_entries = config.max_entries;
  options.max_bytes = config.max_bytes;
  options.policy = config.policy;
  options.clock = clock;
  ResultCache cache(options);

  size_t max_tracked = config.policy.admission_max_tracked != 0
                           ? config.policy.admission_max_tracked
                           : std::max<size_t>(8 * config.max_entries, 64);
  ModelCache model(config.max_entries, config.max_bytes, config.policy,
                   max_tracked);
  model.set_now(clock->NowMicros());

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
  // Clock deltas straddle every policy boundary: within TTL, at TTL, past
  // the window, and tiny nudges.
  const uint64_t deltas[] = {1,   50,  100, 250,  251, 400,
                             500, 501, 999, 1000, 1001, 5000};

  auto check_counters = [&](const char* when) {
    CacheMetrics m = cache.metrics();
    ASSERT_EQ(m.hits, model.hits) << when;
    ASSERT_EQ(m.negative_hits, model.negative_hits) << when;
    ASSERT_EQ(m.misses, model.misses) << when;
    ASSERT_EQ(m.evictions, model.evictions) << when;
    ASSERT_EQ(m.ttl_expiries, model.ttl_expiries) << when;
    ASSERT_EQ(m.negative_ttl_expiries, model.negative_ttl_expiries) << when;
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
    if (dice < 45) {
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
      ASSERT_EQ(computed, !expected.hit) << "admission/expiry divergence";
      ASSERT_EQ(got->approx_bytes, expected.approx);
      ASSERT_EQ(got->negative(), expected.negative);
    } else if (dice < 70) {
      const std::string& key = keys[rng.NextU64(keys.size())];
      std::optional<ModelOutcome> expected = model.Lookup(key);
      ResultPtr got = cache.Lookup(key);
      ASSERT_EQ(got != nullptr, expected.has_value());
      if (expected.has_value()) {
        ASSERT_EQ(got->approx_bytes, expected->approx);
        ASSERT_EQ(got->negative(), expected->negative);
      }
    } else if (dice < 85) {
      clock->AdvanceMicros(deltas[rng.NextU64(std::size(deltas))]);
      model.set_now(clock->NowMicros());
    } else {
      ASSERT_EQ(cache.SweepExpired(), model.SweepExpired());
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

/// TTLs chosen so the clock deltas above cross them often: positive 1000,
/// negative 250, admission window 500.
CachePolicyOptions FullPolicy() {
  CachePolicyOptions p;
  p.ttl_micros = 1000;
  p.negative_ttl_micros = 250;
  p.admission_enabled = true;
  p.admission_window_micros = 500;
  return p;
}

TEST(ResultCachePropertyHarness, LegacyPolicyMatchesModel) {
  // No TTLs, no admission: the seed-era contract (LRU + budgets) must be
  // bit-compatible with the model.
  HarnessConfig config{"legacy", 6, 1500, CachePolicyOptions{}};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, TtlOnlyMatchesModel) {
  CachePolicyOptions p;
  p.ttl_micros = 1000;
  p.negative_ttl_micros = 250;
  HarnessConfig config{"ttl-only", 8, 1u << 20, p};
  for (uint64_t seed = 11; seed <= 18; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, AdmissionOnlyMatchesModel) {
  CachePolicyOptions p;
  p.admission_enabled = true;
  p.admission_window_micros = 500;
  p.admission_max_tracked = 4;  // tiny: the sighting-cap path runs hot
  HarnessConfig config{"admission-only", 8, 1u << 20, p};
  for (uint64_t seed = 21; seed <= 28; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, FullPolicyTightBudgetsMatchesModel) {
  // Everything on at once, with budgets tight enough that eviction,
  // expiry and admission interact on nearly every insert.
  HarnessConfig config{"full-tight", 4, 700, FullPolicy()};
  for (uint64_t seed = 31; seed <= 42; ++seed) {
    RunSequence(config, seed, 1500);
  }
}

TEST(ResultCachePropertyHarness, FullPolicyRoomyBudgetsMatchesModel) {
  HarnessConfig config{"full-roomy", 64, 1u << 20, FullPolicy()};
  for (uint64_t seed = 51; seed <= 58; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

TEST(ResultCachePropertyHarness, ZeroWindowAdmissionMatchesModel) {
  // window 0 = sightings never age out (bounded by the cap alone); with
  // TTLs on so the expiry re-seed path also runs against this setting.
  CachePolicyOptions p;
  p.ttl_micros = 1000;
  p.negative_ttl_micros = 250;
  p.admission_enabled = true;
  p.admission_window_micros = 0;
  p.admission_max_tracked = 4;
  HarnessConfig config{"zero-window", 6, 1500, p};
  for (uint64_t seed = 61; seed <= 68; ++seed) {
    RunSequence(config, seed, 1200);
  }
}

}  // namespace
}  // namespace osum::serve
