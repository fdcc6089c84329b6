// The four perfbench workloads, each driving the full SUD stack that
// tests/harness.h assembles (devices, hw, drivers, uml, sud, kern), with the
// stack itself unmodified. A run is a sequence of rounds; each round builds a
// fresh NetBench (timed as set-up), warms the datapath, measures one closed
// loop of a fixed size, drains it and checks every frame it generated.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"

namespace perfbench {

struct Workload {
  // kRx: the link peer floods the SUT; kTx: the SUT transmits to the peer;
  // kRr: one request/response transaction in flight.
  enum class Shape { kRx, kTx, kRr };

  const char* name;
  Shape shape;
  uint32_t queues;
  bool threaded;          // kThreadedPerQueue (else kPumped)
  size_t payload_bytes;
  uint64_t warmup_ops;    // per round, untimed
  uint64_t measured_ops;  // per round: frames, or transactions on kRr
  uint64_t chunk_ops;     // operations per chunk (about 5-25 ms of work)

  // A transaction carries two packets: the request and the reply.
  uint32_t pkts_per_op() const { return shape == Shape::kRr ? 2 : 1; }
};

const Workload* FindWorkload(const std::string& name);

// Layer counters, sampled before and after the measured loop. Every field is
// a monotonic count except pool_outstanding, which is an absolute sample.
struct Counters {
  uint64_t uchan_crossings = 0;  // downcall flushes + driver wakeups
  uint64_t uchan_msgs = 0;
  uint64_t uchan_wakeups = 0;
  uint64_t uchan_kernel_ns = 0;
  uint64_t uchan_driver_ns = 0;
  uint64_t uchan_q_driver_ns[2] = {0, 0};
  uint64_t uchan_ring_full_retries = 0;
  uint64_t uchan_dropped_full = 0;
  uint64_t proxy_guard_copies = 0;
  uint64_t proxy_rx_bundles = 0;
  uint64_t proxy_xmit_batches = 0;
  uint64_t proxy_free_batches = 0;
  uint64_t proxy_xmit_dropped = 0;
  uint64_t iotlb_hits = 0;
  uint64_t iotlb_misses = 0;
  uint64_t nic_desc_dma = 0;
  uint64_t nic_rx_dropped_no_desc = 0;
  uint64_t driver_desc_windows = 0;
  uint64_t driver_tx_frames = 0;
  uint64_t driver_tx_desc = 0;
  uint64_t runtime_upcalls = 0;
  uint64_t runtime_irq_upcalls = 0;
  uint64_t runtime_rx_flushes = 0;
  uint64_t kern_irqs = 0;
  uint64_t cpu_kernel_ns = 0;
  uint64_t cpu_driver_ns = 0;
  uint64_t cpu_device_ns = 0;
  uint64_t stack_rx_pkts = 0;
  uint64_t queue_rx_pkts[2] = {0, 0};
  uint64_t pool_outstanding = 0;

  Counters& operator+=(const Counters& other);
  Counters operator-(const Counters& base) const;
};

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double loop_s = 0;
  uint64_t pkts = 0;       // packets delivered in the measured loop
  uint64_t attempted = 0;  // every packet the round generated and checked
  uint64_t failed = 0;     // of those, not delivered intact
  std::vector<std::string> errors;
  std::vector<double> latencies_us;      // one per measured packet or transaction
  std::vector<Chunk> chunks;             // the measured loop in completion order
  std::vector<double> handoff_waits_us;  // bench-thread waits on a pump thread
  Counters delta;                        // over the measured loop
};

// Runs rounds of one workload. The seed fixes every generated frame: payload
// bytes and source ports; the stack receives only those frames.
class Tracer;

class Runner {
 public:
  // `tracer` (may be null) records the spans of traced rounds.
  Runner(const Workload& workload, uint64_t seed, Tracer* tracer);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // `traced` activates the tracer over the measured loop only.
  RoundResult RunRound(bool traced);

  struct State;  // defined in workloads.cc; the link taps share it

 private:
  std::unique_ptr<State> state_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
