// ResultCache unit behavior: LRU recency and eviction order, byte-budget
// enforcement, epoch invalidation, exception safety, the cache policy
// (doorkeeper admission, TTL + negative-TTL expiry on a FakeClock — zero
// sleeps), and the stampede guarantee (N concurrent misses for one key =>
// exactly 1 compute, preserved across TTL expiry) — the stress tests
// double as the TSan canary for the serving layer (run via scripts/ci.sh's
// thread-sanitizer lane, label serve;slow).
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/clock.h"
#include "serve/result_cache.h"

namespace osum::serve {
namespace {

/// A dummy payload of a chosen budget weight. Results stay empty — the
/// cache treats such values as *negative* answers, which is exactly what
/// the legacy LRU/budget tests want: no TTLs are configured there, so
/// negativity is inert.
CachedResult Payload(size_t approx_bytes) {
  CachedResult r;
  r.approx_bytes = approx_bytes;
  return r;
}

/// A positive payload: one (default) result, so negative() is false.
CachedResult PositivePayload(size_t approx_bytes) {
  CachedResult r;
  r.results.emplace_back();
  r.approx_bytes = approx_bytes;
  return r;
}

/// Options with explicit entry and byte budgets.
ResultCacheOptions Budgets(size_t max_entries, size_t max_bytes) {
  ResultCacheOptions o;
  o.max_entries = max_entries;
  o.max_bytes = max_bytes;
  return o;
}

TEST(ResultCacheLru, RecencyOrderGovernsEviction) {
  ResultCache cache(Budgets(/*max_entries=*/3, /*max_bytes=*/1 << 30));
  auto put = [&](const std::string& key) {
    cache.GetOrCompute(key, [] { return Payload(1); });
  };
  put("a");
  put("b");
  put("c");
  // Refresh "a": it must now outlive "b" when "d" overflows the cap.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  put("d");

  EXPECT_EQ(cache.Lookup("b"), nullptr);  // LRU victim
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 3u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(m.misses, 4u);
}

TEST(ResultCacheLru, HitRefreshesRecencyViaGetOrCompute) {
  ResultCache cache(Budgets(3, 1 << 30));
  for (const char* k : {"a", "b", "c"}) {
    cache.GetOrCompute(k, [] { return Payload(1); });
  }
  // GetOrCompute hit path must refresh recency just like Lookup.
  cache.GetOrCompute("a", [] {
    ADD_FAILURE() << "hit must not recompute";
    return Payload(1);
  });
  cache.GetOrCompute("d", [] { return Payload(1); });
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
}

TEST(ResultCacheBudget, BytesEvictOldestUntilUnderCap) {
  // Entry weight = approx_bytes + internal key size; internal keys are the
  // 2-byte caller keys plus the 2-byte epoch prefix "0\x1d" here.
  ResultCache cache(Budgets(/*max_entries=*/64, /*max_bytes=*/1000));
  cache.GetOrCompute("k1", [] { return Payload(396); });  // 400
  cache.GetOrCompute("k2", [] { return Payload(396); });  // 800
  EXPECT_EQ(cache.metrics().approx_bytes, 800u);
  EXPECT_EQ(cache.metrics().evictions, 0u);

  cache.GetOrCompute("k3", [] { return Payload(396); });  // 1200 -> evict k1
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.approx_bytes, 800u);
  EXPECT_EQ(m.entries, 2u);
  EXPECT_EQ(m.evictions, 1u);
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
  EXPECT_NE(cache.Lookup("k3"), nullptr);
}

TEST(ResultCacheBudget, OversizedEntrySurvivesItsOwnInsertOnly) {
  ResultCache cache(Budgets(64, 1000));
  cache.GetOrCompute("k1", [] { return Payload(398); });
  cache.GetOrCompute("xl", [] { return Payload(5000); });
  // The oversized entry evicted everything else but is itself kept (the
  // just-inserted entry is never its own victim).
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_NE(cache.Lookup("xl"), nullptr);
  // The next insert evicts it.
  cache.GetOrCompute("k2", [] { return Payload(398); });
  EXPECT_EQ(cache.Lookup("xl"), nullptr);
  EXPECT_NE(cache.Lookup("k2"), nullptr);
}

TEST(ResultCacheEpoch, BumpInvalidatesCommittedEntries) {
  ResultCache cache(Budgets(64, 1 << 30));
  ResultPtr v1 = cache.GetOrCompute("q", [] { return Payload(7); });
  EXPECT_NE(cache.Lookup("q"), nullptr);

  EXPECT_EQ(cache.BumpEpoch(), 1u);
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.metrics().entries, 0u);

  // Recompute under the new epoch produces a distinct cached object.
  ResultPtr v2 = cache.GetOrCompute("q", [] { return Payload(7); });
  EXPECT_NE(v1.get(), v2.get());
  EXPECT_EQ(cache.metrics().misses, 2u);
}

TEST(ResultCacheEpoch, InFlightComputeAcrossBumpIsDiscardedNotServed) {
  ResultCache cache(Budgets(64, 1 << 30));
  // The epoch moves while the compute is in flight: the caller still gets
  // its freshly computed value, but nothing is published.
  ResultPtr v = cache.GetOrCompute("q", [&] {
    cache.BumpEpoch();
    return Payload(7);
  });
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->approx_bytes, 7u);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.discarded_inserts, 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);
}

TEST(ResultCacheErrors, ComputeExceptionPropagatesAndCachesNothing) {
  ResultCache cache(Budgets(64, 1 << 30));
  EXPECT_THROW(cache.GetOrCompute(
                   "q",
                   []() -> CachedResult {
                     throw std::runtime_error("backend down");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.metrics().entries, 0u);
  // The in-flight slot was cleaned up: the key is computable again.
  ResultPtr v = cache.GetOrCompute("q", [] { return Payload(1); });
  EXPECT_NE(v, nullptr);
}

// The budgets bound the whole cache: 200 distinct keys through a 16-entry
// cache leave exactly the 16 most recent resident, and every other miss
// was an eviction.
TEST(ResultCacheLru, WholeCacheCapHoldsOverManyKeys) {
  ResultCache cache(Budgets(/*max_entries=*/16, /*max_bytes=*/1 << 30));
  for (int i = 0; i < 200; ++i) {
    cache.GetOrCompute("key-" + std::to_string(i),
                       [] { return Payload(1); });
  }
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 16u);
  EXPECT_EQ(m.misses, 200u);
  EXPECT_EQ(m.evictions, m.misses - m.entries);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(cache.Lookup("key-" + std::to_string(i)) != nullptr, i >= 184)
        << "key-" << i;
  }
}

/// Options with a policy and an injected FakeClock.
ResultCacheOptions WithPolicy(CachePolicyOptions policy,
                              std::shared_ptr<FakeClock> clock,
                              size_t max_entries = 64) {
  ResultCacheOptions o;
  o.max_entries = max_entries;
  o.max_bytes = 1 << 30;
  o.policy = policy;
  o.clock = std::move(clock);
  return o;
}

TEST(ResultCacheTtl, PositiveEntryExpiresLazilyAtDeadline) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.ttl_micros = 1000;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(7); });
  clock->AdvanceMicros(999);  // alive strictly less than the TTL
  EXPECT_NE(cache.Lookup("q"), nullptr);
  clock->AdvanceMicros(1);  // now == deadline: expired
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.ttl_expiries, 1u);
  EXPECT_EQ(m.negative_ttl_expiries, 0u);
  EXPECT_EQ(m.entries, 0u);
  // The expired key recomputes (a fresh miss), with a fresh deadline.
  bool computed = false;
  cache.GetOrCompute("q", [&] {
    computed = true;
    return PositivePayload(7);
  });
  EXPECT_TRUE(computed);
  EXPECT_EQ(cache.metrics().misses, 2u);
}

TEST(ResultCacheTtl, NegativeEntriesUseTheShorterNegativeTtl) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.ttl_micros = 1000;
  policy.negative_ttl_micros = 100;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("pos", [] { return PositivePayload(5); });
  cache.GetOrCompute("neg", [] { return Payload(5); });  // OK-empty
  clock->AdvanceMicros(100);
  // The negative entry is gone; the positive one has 900us to live.
  EXPECT_EQ(cache.Lookup("neg"), nullptr);
  EXPECT_NE(cache.Lookup("pos"), nullptr);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.negative_ttl_expiries, 1u);
  EXPECT_EQ(m.ttl_expiries, 0u);
  // A hit on a live negative entry is attributed as a negative hit.
  cache.GetOrCompute("neg", [] { return Payload(5); });
  EXPECT_NE(cache.Lookup("neg"), nullptr);
  EXPECT_EQ(cache.metrics().negative_hits, 1u);
}

TEST(ResultCacheTtl, ZeroTtlMeansEntriesNeverExpire) {
  auto clock = std::make_shared<FakeClock>();
  ResultCache cache(WithPolicy(CachePolicyOptions{}, clock));
  cache.GetOrCompute("q", [] { return PositivePayload(3); });
  clock->AdvanceMicros(1ull << 40);  // ~2 weeks of fake time
  EXPECT_NE(cache.Lookup("q"), nullptr);
  EXPECT_EQ(cache.metrics().ttl_expiries, 0u);
}

TEST(ResultCacheTtl, SweepErasesExpiredAndAttributesByKind) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.ttl_micros = 1000;
  policy.negative_ttl_micros = 100;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("pos1", [] { return PositivePayload(5); });
  cache.GetOrCompute("pos2", [] { return PositivePayload(5); });
  cache.GetOrCompute("neg1", [] { return Payload(5); });
  clock->AdvanceMicros(100);
  EXPECT_EQ(cache.SweepExpired(), 1u);  // just the negative
  clock->AdvanceMicros(900);
  EXPECT_EQ(cache.SweepExpired(), 2u);  // both positives hit 1000
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.ttl_expiries, 2u);
  EXPECT_EQ(m.negative_ttl_expiries, 1u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.approx_bytes, 0u);
  EXPECT_EQ(m.evictions, 0u);  // expiry is not eviction
}

TEST(ResultCacheAdmission, SecondSightingWithinWindowAdmits) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1000;
  ResultCache cache(WithPolicy(policy, clock));

  // First sighting: computed, returned, NOT cached.
  ResultPtr first = cache.GetOrCompute("q", [] { return PositivePayload(9); });
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->approx_bytes, 9u);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 1u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.tracked_sightings, 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);

  // Second sighting within the window: admitted (and the sighting is
  // consumed).
  clock->AdvanceMicros(999);
  bool computed = false;
  cache.GetOrCompute("q", [&] {
    computed = true;
    return PositivePayload(9);
  });
  EXPECT_TRUE(computed);  // admission caches the result; it can't conjure it
  m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.tracked_sightings, 0u);
  EXPECT_NE(cache.Lookup("q"), nullptr);
}

TEST(ResultCacheAdmission, SightingOutsideWindowRefreshesAndRejectsAgain) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1000;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1000);  // the sighting just aged out
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 2u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.tracked_sightings, 1u);  // refreshed, not duplicated
  // The refresh restarted the window: a sighting inside it now admits.
  clock->AdvanceMicros(500);
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);
}

TEST(ResultCacheAdmission, ZeroWindowMeansSightingsNeverAgeOut) {
  // Matches the TTL convention (0 = no time limit) — a zero window must
  // NOT mean "reject everything forever".
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 0;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1ull << 40);  // ~2 weeks later...
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);  // ...the 2nd sighting admits
  EXPECT_NE(cache.Lookup("q"), nullptr);
  // And the sweep never prunes timeless sightings.
  cache.GetOrCompute("r", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1ull << 40);
  EXPECT_EQ(cache.SweepExpired(), 0u);
  EXPECT_EQ(cache.metrics().tracked_sightings, 1u);
}

TEST(ResultCacheAdmission, BypassKnobAdmitsEverything) {
  auto clock = std::make_shared<FakeClock>();
  ResultCache cache(WithPolicy(CachePolicyOptions{}, clock));  // disabled
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 0u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.tracked_sightings, 0u);
}

TEST(ResultCacheAdmission, SightingCapEvictsOldestRecorded) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1'000'000;
  policy.admission_max_tracked = 2;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1);
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  clock->AdvanceMicros(1);
  cache.GetOrCompute("c", [] { return PositivePayload(1); });  // evicts a's
  EXPECT_EQ(cache.metrics().tracked_sightings, 2u);  // {c, b}
  // "b" kept its sighting: admitted. "a" lost its (evicted as the oldest
  // recorded): rejected and re-recorded — which in turn evicts "c".
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);  // "a" still not admitted
  EXPECT_EQ(m.admission_rejects, 4u);  // a, b, c, a
}

TEST(ResultCacheAdmission, SweepPrunesAgedOutSightings) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 1000;
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  clock->AdvanceMicros(600);
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  clock->AdvanceMicros(400);  // a's sighting is 1000 old; b's is 400 old
  EXPECT_EQ(cache.SweepExpired(), 0u);  // no cache entries to expire...
  EXPECT_EQ(cache.metrics().tracked_sightings, 1u);  // ...but a's pruned
}

TEST(ResultCacheAdmission, ExpiredHotKeyReadmitsOnFirstRecompute) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.admission_enabled = true;
  policy.admission_window_micros = 10'000;
  policy.ttl_micros = 1000;
  ResultCache cache(WithPolicy(policy, clock));

  // Two sightings admit the key; then its TTL elapses.
  cache.GetOrCompute("q", [] { return PositivePayload(3); });
  cache.GetOrCompute("q", [] { return PositivePayload(3); });
  EXPECT_EQ(cache.metrics().entries, 1u);
  clock->AdvanceMicros(1000);

  // The expiry left a sighting, so ONE recompute restores the entry —
  // a hot key does not pay the doorkeeper toll once per TTL period.
  bool computed = false;
  cache.GetOrCompute("q", [&] {
    computed = true;
    return PositivePayload(3);
  });
  EXPECT_TRUE(computed);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.ttl_expiries, 1u);
  EXPECT_EQ(m.admission_rejects, 1u);  // only the original first sighting
  EXPECT_NE(cache.Lookup("q"), nullptr);

  // Same via the sweep path: expire, sweep, recompute once -> cached.
  clock->AdvanceMicros(1000);
  EXPECT_EQ(cache.SweepExpired(), 1u);
  EXPECT_EQ(cache.metrics().tracked_sightings, 1u);
  cache.GetOrCompute("q", [] { return PositivePayload(3); });
  EXPECT_EQ(cache.metrics().entries, 1u);
  EXPECT_EQ(cache.metrics().admission_rejects, 1u);
}

TEST(ResultCacheEpoch, BumpInvalidatesRegardlessOfRemainingTtl) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.ttl_micros = 1'000'000;  // a whole fake second of validity
  ResultCache cache(WithPolicy(policy, clock));

  cache.GetOrCompute("q", [] { return PositivePayload(7); });
  EXPECT_NE(cache.Lookup("q"), nullptr);
  cache.BumpEpoch();
  // TTL had 999+ms to go; the epoch barrier wins anyway.
  EXPECT_EQ(cache.Lookup("q"), nullptr);
  bool computed = false;
  cache.GetOrCompute("q", [&] {
    computed = true;
    return PositivePayload(7);
  });
  EXPECT_TRUE(computed);
}

// The stampede guarantee, hammered: kThreads concurrent misses for the
// SAME key must coalesce onto exactly one compute. The sleep inside the
// compute keeps every other thread in the in-flight window, and the run
// under TSan proves the lock/future discipline is race-free.
TEST(ResultCacheStress, StampedeCoalescesToOneCompute) {
  ResultCache cache(ResultCacheOptions{});
  constexpr size_t kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<ResultPtr> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Rough rendezvous so the misses really are concurrent.
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(kThreads)) {
        std::this_thread::yield();
      }
      got[w] = cache.GetOrCompute("hot-key", [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return Payload(42);
      });
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  for (size_t w = 1; w < kThreads; ++w) {
    // Everyone observes the one published object.
    EXPECT_EQ(got[w].get(), got[0].get());
  }
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.misses, 1u);
  EXPECT_EQ(m.hits + m.coalesced_waits, kThreads - 1);
}

// Many keys x many threads: coalescing per key, no cross-key interference,
// caps enforced concurrently.
TEST(ResultCacheStress, ConcurrentMixedKeys) {
  ResultCacheOptions o;
  o.max_entries = 64;
  o.max_bytes = 1 << 30;
  ResultCache cache(o);
  constexpr size_t kThreads = 8;
  constexpr int kKeys = 16;
  constexpr int kRounds = 40;
  std::vector<std::atomic<int>> computes(kKeys);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        int k = static_cast<int>((round + w) % kKeys);
        ResultPtr v = cache.GetOrCompute("key-" + std::to_string(k), [&] {
          computes[k].fetch_add(1);
          return Payload(static_cast<size_t>(k));
        });
        if (v->approx_bytes != static_cast<size_t>(k)) {
          ADD_FAILURE() << "value for key " << k << " corrupted";
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Capacity (64) exceeds the key count, so nothing is ever evicted and
  // each key is computed exactly once no matter the interleaving.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(computes[k].load(), 1) << "key " << k;
  }
  EXPECT_EQ(cache.metrics().misses, static_cast<uint64_t>(kKeys));
}

// Stampede coalescing across TTL expiry (the ISSUE 5 acceptance clause):
// when an entry expires, N concurrent callers must trigger exactly ONE
// recompute — the first erases the stale entry and computes, the rest
// coalesce onto its in-flight future. Run for a positive and a negative
// entry (distinct TTLs), under TSan in CI.
TEST(ResultCacheStress, ExpiredEntryRecomputesExactlyOnce) {
  auto clock = std::make_shared<FakeClock>();
  CachePolicyOptions policy;
  policy.ttl_micros = 1000;
  policy.negative_ttl_micros = 100;
  ResultCacheOptions options;
  options.policy = policy;
  options.clock = clock;
  ResultCache cache(options);

  struct Case {
    const char* key;
    bool negative;
  };
  for (const Case& c : {Case{"pos-key", false}, Case{"neg-key", true}}) {
    auto make = [&] {
      return c.negative ? Payload(11) : PositivePayload(11);
    };
    cache.GetOrCompute(c.key, make);
    EXPECT_NE(cache.Lookup(c.key), nullptr) << c.key;
    clock->AdvanceMicros(1000);  // past both TTLs
    constexpr size_t kThreads = 8;
    std::atomic<int> computes{0};
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t w = 0; w < kThreads; ++w) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (ready.load() < static_cast<int>(kThreads)) {
          std::this_thread::yield();
        }
        ResultPtr got = cache.GetOrCompute(c.key, [&] {
          computes.fetch_add(1);
          // Hold the in-flight window open so late arrivals coalesce.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return make();
        });
        if (got == nullptr || got->negative() != c.negative) {
          ADD_FAILURE() << "bad value for " << c.key;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(computes.load(), 1) << c.key;
  }
  CacheMetrics m = cache.metrics();
  // Per case: insert-miss + exactly one expiry recompute-miss.
  EXPECT_EQ(m.misses, 4u);
  EXPECT_EQ(m.ttl_expiries, 1u);
  EXPECT_EQ(m.negative_ttl_expiries, 1u);
  EXPECT_EQ(m.entries, 2u);  // both keys live again under fresh deadlines
}

}  // namespace
}  // namespace osum::serve
