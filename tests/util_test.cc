// Unit tests for osum::util — RNG determinism, distributions, summaries,
// string helpers, the table printer, the thread-pool primitives, the
// annotated mutex/condvar wrappers behind the lint lane and the BoundedLru
// under the reuse tiers.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/bounded_lru.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace osum::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextU64(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextU64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.NextLogNormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The forked stream should not mirror the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == child.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Zipf, RankZeroMostFrequent) {
  Rng rng(41);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, InRange) {
  Rng rng(43);
  ZipfSampler zipf(10, 0.7);
  for (int i = 0; i < 2000; ++i) EXPECT_LT(zipf.Sample(&rng), 10u);
}

TEST(Zipf, SkewFollowsExponent) {
  Rng rng(47);
  ZipfSampler flat(50, 0.1), steep(50, 1.5);
  int flat_top = 0, steep_top = 0;
  for (int i = 0; i < 20000; ++i) {
    flat_top += flat.Sample(&rng) == 0;
    steep_top += steep.Sample(&rng) == 0;
  }
  EXPECT_GT(steep_top, flat_top * 3);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.5);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 4.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Median(), 0.0);
}

TEST(IoStats, DiffAndReset) {
  IoStats a{10, 100, 20};
  IoStats b{4, 40, 5};
  IoStats d = a - b;
  EXPECT_EQ(d.select_calls, 6u);
  EXPECT_EQ(d.tuples_read, 60u);
  EXPECT_EQ(d.index_probes, 15u);
  a.Reset();
  EXPECT_EQ(a.select_calls, 0u);
}

TEST(AtomicIoStats, CountSnapshotReset) {
  AtomicIoStats s;
  s.CountSelect(/*tuples=*/5, /*probes=*/1);
  s.CountSelect(/*tuples=*/0, /*probes=*/1);
  IoStats snap = s.Snapshot();
  EXPECT_EQ(snap.select_calls, 2u);
  EXPECT_EQ(snap.tuples_read, 5u);
  EXPECT_EQ(snap.index_probes, 2u);
  s.Reset();
  EXPECT_EQ(s.Snapshot().select_calls, 0u);
}

TEST(AtomicIoStats, ConcurrentCountsDontDropIncrements) {
  AtomicIoStats s;
  constexpr int kThreads = 4, kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s] {
      for (int i = 0; i < kPerThread; ++i) s.CountSelect(2, 1);
    });
  }
  for (std::thread& t : threads) t.join();
  IoStats snap = s.Snapshot();
  EXPECT_EQ(snap.select_calls, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(snap.tuples_read, uint64_t{kThreads} * kPerThread * 2);
}

TEST(ThreadPool, RunsAllSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, StopDrainsQueuedTasksAndIsIdempotent) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Stop();  // blocks until the queue drained and the workers joined
  EXPECT_EQ(ran.load(), 20);
  pool.Stop();  // second call is a no-op
  EXPECT_EQ(ran.load(), 20);
}  // destructor after Stop is also a no-op

TEST(ThreadPool, SubmitAfterStopIsRejectedNotDropped) {
  ThreadPool pool(2);
  pool.Stop();
  std::atomic<bool> ran{false};
  // The defined post-stop contract: the task is refused (and destroyed
  // unrun), never silently enqueued behind workers that already exited.
  EXPECT_FALSE(pool.Submit([&ran] { ran.store(true); }));
  EXPECT_FALSE(ran.load());
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(ToLower("FaLouTsos"), "faloutsos");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtil, TokenizeWords) {
  auto tokens = TokenizeWords("On Power-law Relationships of the Internet");
  ASSERT_EQ(tokens.size(), 7u);
  EXPECT_EQ(tokens[0], "on");
  EXPECT_EQ(tokens[1], "power");
  EXPECT_EQ(tokens[2], "law");
  EXPECT_EQ(tokens[6], "internet");
}

TEST(StringUtil, TokenizeEmptyAndPunctuation) {
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("--- !!! ...").empty());
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtil, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(12.5), "12.5");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("prelim-l", "prelim"));
  EXPECT_FALSE(StartsWith("os", "osum"));
}

// The memo and cache suites cover entry-budget eviction, lookup recency
// and the newest-survives rule; these cover what only the doorkeeper and
// future tiers use.
TEST(BoundedLru, ByteBudgetAloneEvictsOldestFirst) {
  BoundedLru<int> lru(/*max_entries=*/SIZE_MAX, /*max_bytes=*/100);
  lru.Put("a", 1, 40);
  lru.Put("b", 2, 40);
  lru.Put("c", 3, 40);  // 120 bytes: "a" goes
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.bytes(), 80u);
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.Find("a"), lru.end());

  // Re-charging a present key moves the ledger by the difference.
  lru.Put("b", 2, 90);  // 130 bytes: "c" is now the oldest and goes
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.bytes(), 90u);
  EXPECT_EQ(lru.evictions(), 2u);
  EXPECT_NE(lru.Find("b"), lru.end());
}

TEST(BoundedLru, PutOnAPresentKeyRefreshesRecencyAndValue) {
  BoundedLru<int> lru(/*max_entries=*/2, /*max_bytes=*/SIZE_MAX);
  lru.Put("a", 1, 0);
  lru.Put("b", 2, 0);
  lru.Put("a", 10, 0);  // touch: no eviction, "b" becomes the oldest
  EXPECT_EQ(lru.evictions(), 0u);
  lru.Put("c", 3, 0);
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.Find("b"), lru.end());
  ASSERT_NE(lru.Find("a"), lru.end());
  EXPECT_EQ(lru.Find("a")->value, 10);
  std::vector<std::string> newest_first;
  for (const auto& entry : lru) newest_first.push_back(entry.key);
  EXPECT_EQ(newest_first, (std::vector<std::string>{"c", "a"}));
}


TEST(Mutex, LockUnlockExcludes) {
  Mutex mu;
  mu.Lock();
  // A held (non-reentrant) mutex refuses TryLock from another thread.
  std::thread prober([&] { EXPECT_FALSE(mu.TryLock()); });
  prober.join();
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(Mutex, MutexLockIsScoped) {
  Mutex mu;
  {
    MutexLock lock(mu);
    std::thread prober([&] { EXPECT_FALSE(mu.TryLock()); });
    prober.join();
  }
  // Scope exit released it.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(Mutex, GuardsCrossThreadIncrements) {
  Mutex mu;
  int counter = 0;  // deliberately not atomic: the mutex is the guard
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(CondVar, WaitWithPredicate) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return ready; });
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVar, WaitUntilTimesOutAndReportsIt) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  // Nothing ever notifies: WaitUntil must return false at the deadline
  // (and reacquire the mutex — the guarded read below proves it compiles
  // under the analysis).
  bool signaled = cv.WaitUntil(
      mu, std::chrono::steady_clock::now() + std::chrono::milliseconds(5));
  EXPECT_FALSE(signaled);
}

TEST(ThreadRole, HandoffBetweenThreads) {
  ThreadRole role;  // bound to this (constructing) thread
  EXPECT_TRUE(role.HeldByCurrentThread());
  std::thread other([&] {
    EXPECT_FALSE(role.HeldByCurrentThread());
    role.BindToCurrentThread();
    EXPECT_TRUE(role.HeldByCurrentThread());
    role.AssertHeld();
  });
  other.join();
  // The join is the synchronization point for taking the role back.
  EXPECT_FALSE(role.HeldByCurrentThread());
  role.BindToCurrentThread();
  role.AssertHeld();
}

// Compile-time misuse smoke for the lint lane. This block is the negative
// test of the thread-safety analysis: flip `#if 0` to `#if 1` and build
// with clang under -DOSUM_LINT=ON (scripts/lint.sh) — every statement
// below must fail to compile with a -Wthread-safety error. It stays
// disabled here because GCC (the default test toolchain) would compile it
// happily: the macros are no-ops there, which is exactly why the lint
// lane exists.
#if 0
TEST(Mutex, CompileTimeMisuseSmoke) {
  struct Guarded {
    Mutex mu;
    int value GUARDED_BY(mu) = 0;
  } g;
  g.value = 1;        // error: writing GUARDED_BY field without the lock
  g.mu.Lock();        // error at scope end: mutex still held
}
#endif

TEST(TablePrinter, AlignedOutput) {
  TablePrinter t({"l", "value"});
  t.AddRow({"5", "0.9"});
  t.AddRow("10", {0.75});
  std::ostringstream os;
  t.Print(os);
  std::string s = os.str();
  EXPECT_NE(s.find("| l "), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

}  // namespace
}  // namespace osum::util
