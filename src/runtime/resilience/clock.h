#ifndef COSTSENSE_RUNTIME_RESILIENCE_CLOCK_H_
#define COSTSENSE_RUNTIME_RESILIENCE_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace costsense::runtime::resilience {

/// Injectable time source for the resilience layer. The run-deadline
/// budget, backoff sleeps and injected latency faults all read and advance
/// time through this interface, so tests and the deterministic fault-sweep
/// harness can substitute a manual clock and replay the exact same
/// timeout/backoff decisions at any thread count and machine speed.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual uint64_t NowNanos() = 0;

  /// Blocks (or simulates blocking) for `nanos`.
  virtual void SleepFor(uint64_t nanos) = 0;

  /// Process-wide steady-clock instance.
  static Clock& Real();
};

/// A virtual clock: NowNanos() returns a counter that only moves when
/// SleepFor() or Advance() is called. Sleeping advances the shared counter
/// immediately, so retry backoff costs zero wall time under test while
/// still being visible to deadline checks. The counter is shared by every
/// thread using this instance — one thread's sleep ages every thread's
/// budget, which is exactly the worst case a deadline test wants.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t start_nanos = 0) : now_(start_nanos) {}

  uint64_t NowNanos() override {
    return now_.load(std::memory_order_relaxed);
  }
  void SleepFor(uint64_t nanos) override { Advance(nanos); }

  void Advance(uint64_t nanos) {
    now_.fetch_add(nanos, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_;
};

}  // namespace costsense::runtime::resilience

#endif  // COSTSENSE_RUNTIME_RESILIENCE_CLOCK_H_
