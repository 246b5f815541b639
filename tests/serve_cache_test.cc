// ResultCache unit behavior: LRU recency and eviction order, byte-budget
// enforcement, exception safety, doorkeeper admission, and the stampede
// guarantee (N concurrent misses for one key => exactly 1 compute) — the
// stress tests double as the TSan canary for the serving layer (run via
// scripts/ci.sh's thread-sanitizer lane, label serve;slow).
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/result_cache.h"

namespace osum::serve {
namespace {

/// A dummy payload of a chosen budget weight. Results stay empty, so the
/// cache treats it as a *negative* answer — which only changes how a hit
/// is counted.
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
  // Entry weight = approx_bytes + key size; the keys are 2 bytes here.
  ResultCache cache(Budgets(/*max_entries=*/64, /*max_bytes=*/1000));
  cache.GetOrCompute("k1", [] { return Payload(398); });  // 400
  cache.GetOrCompute("k2", [] { return Payload(398); });  // 800
  EXPECT_EQ(cache.metrics().approx_bytes, 800u);
  EXPECT_EQ(cache.metrics().evictions, 0u);

  cache.GetOrCompute("k3", [] { return Payload(398); });  // 1200 -> evict k1
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

/// Options with the doorkeeper on and room for every key.
ResultCacheOptions WithAdmission(size_t max_tracked = 0) {
  ResultCacheOptions o;
  o.max_entries = 64;
  o.max_bytes = 1 << 30;
  o.admission_enabled = true;
  o.admission_max_tracked = max_tracked;
  return o;
}

// The window is now unbounded: a sighting leaves only through the cap.
TEST(ResultCacheAdmission, SecondSightingWithinWindowAdmits) {
  ResultCache cache(WithAdmission());

  // First sighting: computed, returned, NOT cached.
  ResultPtr first = cache.GetOrCompute("q", [] { return PositivePayload(9); });
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->approx_bytes, 9u);
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 1u);
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.tracked_sightings, 1u);
  EXPECT_EQ(cache.Lookup("q"), nullptr);

  // Second sighting: admitted (and the sighting is consumed).
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

// What the old zero window meant is now the only behaviour: no amount of
// other traffic ages a sighting out, short of the sighting cap.
TEST(ResultCacheAdmission, ZeroWindowMeansSightingsNeverAgeOut) {
  ResultCache cache(WithAdmission());

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().tracked_sightings, 1u);
  // 100 other keys pass in between (the auto cap is 8 x 64 here).
  for (int i = 0; i < 100; ++i) {
    cache.GetOrCompute("other-" + std::to_string(i),
                       [] { return PositivePayload(1); });
  }
  EXPECT_EQ(cache.metrics().tracked_sightings, 101u);

  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);  // the 2nd sighting admits
  EXPECT_EQ(m.tracked_sightings, 100u);
  EXPECT_NE(cache.Lookup("q"), nullptr);
}

TEST(ResultCacheAdmission, BypassKnobAdmitsEverything) {
  ResultCache cache(ResultCacheOptions{});  // admission disabled
  cache.GetOrCompute("q", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.admission_rejects, 0u);
  EXPECT_EQ(m.entries, 1u);
  EXPECT_EQ(m.tracked_sightings, 0u);
}

TEST(ResultCacheAdmission, SightingCapEvictsOldestRecorded) {
  ResultCache cache(WithAdmission(/*max_tracked=*/2));

  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  cache.GetOrCompute("c", [] { return PositivePayload(1); });  // evicts a's
  EXPECT_EQ(cache.metrics().tracked_sightings, 2u);  // {c, b}
  // "b" kept its sighting: admitted. "a" lost its (evicted as the oldest
  // recorded): rejected and re-recorded.
  cache.GetOrCompute("b", [] { return PositivePayload(1); });
  EXPECT_EQ(cache.metrics().entries, 1u);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  cache.GetOrCompute("a", [] { return PositivePayload(1); });
  CacheMetrics m = cache.metrics();
  EXPECT_EQ(m.entries, 1u);  // "a" still not admitted
  EXPECT_EQ(m.admission_rejects, 4u);  // a, b, c, a
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

}  // namespace
}  // namespace osum::serve
