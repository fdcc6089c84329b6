// Counter: a statistics counter for the per-packet paths, with one writer at
// a time.
//
// Most per-packet counters are already written under one lock (a NIC queue's
// ring lock, a uchan side's lock) or from one queue's thread only. For those
// a bus-locked fetch_add buys nothing: Add is a relaxed load plus a release
// store, so an increment is plain instructions, and a reader that sees the
// new value (load() acquires) also sees everything the writer did before
// counting. That makes every Counter a completion signal published after its
// side effects. A counter that threads write without such an order between
// them must stay a std::atomic with fetch_add; under ThreadSanitizer, Add
// also bumps a plain shadow word, so two unsynchronised writers are reported
// as a data race instead of silently losing an increment.
//
// PerQueueCounter is the total several queues write: one Counter per queue,
// each written only by its own queue, summed on read.

#ifndef SUD_SRC_BASE_COUNTER_H_
#define SUD_SRC_BASE_COUNTER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__SANITIZE_THREAD__)
#define SUD_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUD_THREAD_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SUD_ADDRESS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SUD_ADDRESS_SANITIZER 1
#endif
#endif

namespace sud {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
#ifdef SUD_THREAD_SANITIZER
    shadow_ += n;
#endif
    value_.store(value_.load(std::memory_order_relaxed) + n, std::memory_order_release);
  }
  uint64_t load(std::memory_order order = std::memory_order_acquire) const {
    return value_.load(order);
  }
  operator uint64_t() const { return load(); }  // NOLINT(google-explicit-constructor)

 private:
  std::atomic<uint64_t> value_{0};
#ifdef SUD_THREAD_SANITIZER
  uint64_t shadow_ = 0;
#endif
};

template <size_t kQueues>
class PerQueueCounter {
 public:
  void Add(size_t q, uint64_t n = 1) { slots_[q].Add(n); }
  uint64_t load(std::memory_order order = std::memory_order_acquire) const {
    uint64_t total = 0;
    for (const Counter& slot : slots_) {
      total += slot.load(order);
    }
    return total;
  }
  operator uint64_t() const { return load(); }  // NOLINT(google-explicit-constructor)
  const Counter& queue(size_t q) const { return slots_[q]; }

 private:
  std::array<Counter, kQueues> slots_{};
};

}  // namespace sud

#endif  // SUD_SRC_BASE_COUNTER_H_
