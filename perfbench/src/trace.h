// Span tracing for the perfbench harness.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions (nothing under src/ is instrumented).
// Each span carries its name, start, end, parent and request id. Spans nest
// per thread: the innermost open span on a thread is the parent of the next
// one, and a span's self time is its duration minus its children's. Records
// go into a buffer preallocated at construction and are written out once, at
// exit; per-name totals keep counting after the buffer fills.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Host monotonic time in nanoseconds.
int64_t NowNs();

enum class SpanKind : uint8_t {
  kLoop,         // the measured loop of one round (bench thread)
  kGen,          // load generation: building and injecting frames
  kDevicesRx,    // SimNic::DeliverFrame on the SUT NIC (link side 0)
  kUmlPump,      // DriverHost::Pump
  kKernXmit,     // NetSubsystem::Transmit / TransmitBatch on the SUT
  kPeerRx,       // frame check + SimNic::DeliverFrame on the peer (link side 1)
  kSink,         // the SUT stack's rx_sink: timestamp + frame check
  kHandoffWait,  // bench thread waiting on a driver pump thread
  kWait,         // bench thread waiting for generator threads and the drain
  kCount,
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);

struct SpanTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t count = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(SpanKind kind, uint64_t request, int64_t start_ns);
  void End(int64_t end_ns);

  // Sums over every thread that recorded. Read only after those threads
  // have finished (joined, or quiescent behind an acquire of their work).
  SpanTotals Totals(SpanKind kind) const;
  // Total duration of the spans whose parent was a kLoop span: with the
  // loop's self time it sums exactly to the loop's total.
  int64_t TopLevelNs() const;

  size_t stored() const;
  uint64_t dropped() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Record {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  // index into records_, -1 for a root or unstored parent
    uint64_t request = 0;
    uint32_t thread = 0;
    SpanKind kind = SpanKind::kLoop;
  };
  struct Open {
    SpanKind kind;
    int64_t start_ns;
    int64_t child_ns;
    int64_t slot;  // -1 when the buffer was full
    uint64_t request;
  };
  struct ThreadState {
    uint32_t id = 0;
    std::vector<Open> stack;
    std::array<SpanTotals, kSpanKinds> totals{};
    int64_t top_level_ns = 0;
  };

  ThreadState& Local();

  const uint64_t epoch_;
  std::vector<Record> records_;
  std::atomic<size_t> next_slot_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  // guarded by threads_mu_
};

// The tracer spans report to; nullptr (the default) turns spans into no-ops.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

// Records one span over its scope when a tracer is active.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, uint64_t request) : ScopedSpan(kind, request, 0, false) {}
  // Starts at `start_ns`, a timestamp the caller already took.
  ScopedSpan(SpanKind kind, uint64_t request, int64_t start_ns)
      : ScopedSpan(kind, request, start_ns, true) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ScopedSpan(SpanKind kind, uint64_t request, int64_t start_ns, bool has_start)
      : tracer_(ActiveTracer()) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind, request, has_start ? start_ns : NowNs());
    }
  }

  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
