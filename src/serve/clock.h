// Injectable time source for the serving layer's request deadlines.
//
// QueryService measures every deadline against this interface (the
// admission-time and dequeue-time budget checks), and net::Server stamps
// absolute deadlines on the same clock, so tests drive expiry with a
// FakeClock and zero sleeps: a behavior that can only be observed by
// waiting cannot be tested deterministically. Production uses the
// process-wide SystemClock (steady, monotonic — a wall-clock jump must
// not expire every pending request at once).
#ifndef OSUM_SERVE_CLOCK_H_
#define OSUM_SERVE_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace osum::serve {

/// Monotonic microsecond time source. Implementations must be
/// thread-safe: the service and the server read the clock from every
/// serving thread.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Microseconds since an arbitrary fixed origin; never decreases.
  virtual uint64_t NowMicros() const = 0;
};

/// The production clock: std::chrono::steady_clock.
class SystemClock : public Clock {
 public:
  uint64_t NowMicros() const override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Shared instance for a service constructed without a clock (the
  /// clock is stateless; one is plenty).
  static std::shared_ptr<const SystemClock> Instance() {
    static std::shared_ptr<const SystemClock> instance =
        std::make_shared<const SystemClock>();
    return instance;
  }
};

/// Test clock: starts at an arbitrary nonzero origin (so "0 micros" never
/// aliases a real timestamp) and only moves when told to. Advancing is
/// atomic and may race with readers — monotonicity is preserved.
class FakeClock : public Clock {
 public:
  explicit FakeClock(uint64_t start_micros = 1'000'000)
      : now_micros_(start_micros) {}

  uint64_t NowMicros() const override {
    return now_micros_.load(std::memory_order_acquire);
  }

  void AdvanceMicros(uint64_t delta) {
    now_micros_.fetch_add(delta, std::memory_order_acq_rel);
  }
  void AdvanceSeconds(uint64_t seconds) {
    AdvanceMicros(seconds * 1'000'000ull);
  }

 private:
  std::atomic<uint64_t> now_micros_;
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_CLOCK_H_
