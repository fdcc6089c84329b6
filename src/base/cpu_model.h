// CpuModel: the CPU cost accounting behind the Figure 8 reproduction.
//
// The paper's evaluation reports throughput *and CPU utilisation* for an
// in-kernel e1000e versus the same driver running under SUD. The absolute
// numbers come from a 1.4 GHz Centrino; what the reproduction must preserve
// is the *shape*: identical throughput (the GbE link is the bottleneck), an
// 8-30% relative CPU overhead for streaming, and roughly 2x CPU for the
// latency-bound UDP_RR test where every transaction pays a ~4 us process
// wakeup (Section 5.1).
//
// CpuModel charges simulated nanoseconds to named accounts (kernel, driver
// process, idle). Each mechanism in the stack — syscall entry, uchan
// enqueue/dequeue, context switch, per-byte copy, checksum, IOTLB miss,
// process wakeup — charges its cost here. Benchmarks then report
// CPU% = busy_time / wall_time, exactly as netperf's CPU measurement does.
//
// Charge() is on the per-packet fast path of every bench, so accounts are a
// small fixed enum indexing a flat array rather than a map keyed by strings.
//
// Default constants are calibrated so that bench/fig8_netperf lands near the
// published table; every constant is overridable so the ablation benches can
// sweep them (e.g. abl_wakeup_latency sweeps kProcessWakeup).

#ifndef SUD_SRC_BASE_CPU_MODEL_H_
#define SUD_SRC_BASE_CPU_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/base/clock.h"

namespace sud {

// Cost constants, in simulated nanoseconds. Calibrated against a ~1.4 GHz
// core (the paper's Thinkpad X301): one "nanosecond" here is wall time on
// that machine, so 1 GbE interrupt/packet costs dominate realistically.
struct CpuCosts {
  SimTime syscall = 120;             // user->kernel->user crossing
  SimTime context_switch = 1600;     // address-space switch incl. TLB effects
  SimTime process_wakeup = 4000;     // waking a sleeping process (the 4 us in §5.1)
  SimTime interrupt_entry = 900;     // hardware interrupt dispatch
  SimTime uchan_msg = 90;            // enqueue or dequeue one ring message
  double per_byte_copy = 0.35;       // memcpy cost (~3 GB/s effective)
  double per_byte_checksum = 0.35;   // software checksum pass over payload
  SimTime skb_alloc = 250;           // socket-buffer construction (§6 "Optimized drivers")
  SimTime stack_work_per_pkt = 900;  // protocol + netfilter work per packet
  SimTime iotlb_miss = 150;          // IOMMU page-table walk
  SimTime dma_map = 300;             // in-kernel dma_map_single of an skb
  SimTime pci_config_access = 400;   // config-space read/write (mask path)
  SimTime irq_remap_update = 4500;   // rewriting an interrupt-remapping entry
  SimTime mmio_access = 60;          // one device register read/write
  SimTime iommu_seal = 90;           // one PTE permission flip (seal or unseal)
  SimTime iotlb_shootdown = 450;     // one synchronous IOTLB invalidation
};

// The accounts charged by the simulated stack.
enum class CpuAccount : uint8_t {
  kKernel = 0,
  kDriver,
  kDevice,
  kPeer,
  kCount,
};

// Well-known account handles (call sites read like the old string constants).
inline constexpr CpuAccount kAccountKernel = CpuAccount::kKernel;
inline constexpr CpuAccount kAccountDriver = CpuAccount::kDriver;
inline constexpr CpuAccount kAccountDevice = CpuAccount::kDevice;
inline constexpr CpuAccount kAccountPeer = CpuAccount::kPeer;  // the traffic generator

// Accumulates busy time per account. Not tied to SimClock advancement: the
// benchmark harness decides how charged time maps onto wall time (a single
// core runs accounts serially; a dual-core harness may overlap them).
//
// Charges are lock-free relaxed atomics: the multi-queue packet path charges
// from one thread per NIC queue concurrently (sharded uchans, per-queue
// proxies), and the only consistency the benches need is an eventually
// complete sum read after the workers quiesce.
class CpuModel {
 public:
  explicit CpuModel(CpuCosts costs = CpuCosts{}) : costs_(costs) { Reset(); }

  const CpuCosts& costs() const { return costs_; }
  void set_costs(const CpuCosts& costs) { costs_ = costs; }

  void Charge(CpuAccount account, SimTime nanos) {
    busy_[static_cast<size_t>(account)].fetch_add(nanos, std::memory_order_relaxed);
  }

  // Fractional per-byte charges (copy/checksum passes).
  void ChargeBytes(CpuAccount account, double ns_per_byte, uint64_t bytes) {
    busy_[static_cast<size_t>(account)].fetch_add(
        static_cast<SimTime>(ns_per_byte * static_cast<double>(bytes) + 0.5),
        std::memory_order_relaxed);
  }

  SimTime busy(CpuAccount account) const {
    return busy_[static_cast<size_t>(account)].load(std::memory_order_relaxed);
  }

  // Total across all accounts.
  SimTime total_busy() const {
    SimTime sum = 0;
    for (const auto& nanos : busy_) {
      sum += nanos.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (auto& nanos : busy_) {
      nanos.store(0, std::memory_order_relaxed);
    }
  }

  // Snapshot of all accounts (by value: the live array is atomic).
  std::array<SimTime, static_cast<size_t>(CpuAccount::kCount)> accounts() const {
    std::array<SimTime, static_cast<size_t>(CpuAccount::kCount)> snapshot{};
    for (size_t i = 0; i < snapshot.size(); ++i) {
      snapshot[i] = busy_[i].load(std::memory_order_relaxed);
    }
    return snapshot;
  }

 private:
  CpuCosts costs_;
  std::array<std::atomic<SimTime>, static_cast<size_t>(CpuAccount::kCount)> busy_{};
};

// --- Core-affinity wall-time mapping ----------------------------------------
//
// Figure 8's CPU% divides charged busy time across the testbed's cores, the
// way netperf's CPU measurement reports it. With one queue the whole story is
// the legacy two-core formula:
//
//   CPU% = 100 * busy / (cores * wall)
//
// With a multi-queue pump the charged time is not one lump: each queue's
// kernel-side work and each queue's driver-side work (the per-shard
// kernel_ns/driver_ns the uchan already collects) is an independent
// schedulable unit pinned to whatever core the scheduler picks for that pump
// thread. The wall clock of the run is then bounded below by the *busiest
// core* — the makespan of the assignment — not just by the wire time.
//
// ScheduleOnCores performs that mapping: greedy longest-processing-time
// assignment of the 2*queues per-queue units plus one `serial_ns` unit (work
// with no queue affinity: app copies, control-lane traffic) onto `cores`
// cores. The returned wall clock is max(min_wall_ns, makespan); CPU% is
// busy over cores*wall.
//
// Reduction property (tested in base_test): with cores=2 and one queue, as
// long as the wall floor dominates the busiest core (true for the link-bound
// stream tests), cpu_pct == 100 * busy / (2 * min_wall_ns) — exactly the
// legacy formula, so single-queue Figure 8 rows are unchanged by the mapping.
struct CoreSchedule {
  double wall_ns = 0;      // max(min_wall_ns, makespan_ns)
  double makespan_ns = 0;  // busiest core's assigned busy time
  double busy_ns = 0;      // every unit summed (serial + all queue units)
  double cpu_pct = 0;      // 100 * busy_ns / (cores * wall_ns)
  std::vector<double> core_busy_ns;  // per-core load after assignment
};

CoreSchedule ScheduleOnCores(const std::vector<uint64_t>& queue_kernel_ns,
                             const std::vector<uint64_t>& queue_driver_ns, double serial_ns,
                             double min_wall_ns, uint32_t cores);

// Convenience used by the benches: derives the serial unit as the remainder
// of `total_busy_ns` not attributed to any queue's shard charges (summed in
// kernel-then-driver order, the one convention both benches must share).
CoreSchedule ScheduleOnCoresWithTotal(const std::vector<uint64_t>& queue_kernel_ns,
                                      const std::vector<uint64_t>& queue_driver_ns,
                                      double total_busy_ns, double min_wall_ns, uint32_t cores);

}  // namespace sud

#endif  // SUD_SRC_BASE_CPU_MODEL_H_
