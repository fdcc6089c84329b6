// Kernel: the simulated Linux kernel instance.
//
// Owns the subsystems, the process table and interrupt dispatch, and tracks
// the one piece of execution context the paper's design hinges on: whether
// the current thread is in a *non-preemptable* (atomic) section. Proxy
// drivers consult InAtomicContext() to decide between a synchronous upcall
// (blocking allowed) and answering from mirrored state plus an asynchronous
// upcall (Section 3.1.1).

#ifndef SUD_SRC_KERN_KERNEL_H_
#define SUD_SRC_KERN_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/base/status.h"
#include "src/hw/machine.h"
#include "src/kern/audio.h"
#include "src/kern/input.h"
#include "src/kern/netdev.h"
#include "src/kern/process.h"
#include "src/kern/wireless.h"

namespace sud::kern {

class Kernel {
 public:
  explicit Kernel(hw::Machine* machine);

  hw::Machine& machine() { return *machine_; }
  ProcessTable& processes() { return processes_; }
  NetSubsystem& net() { return net_; }
  WirelessSubsystem& wireless() { return wireless_; }
  AudioSubsystem& audio() { return audio_; }
  InputSubsystem& input() { return input_; }

  // --- interrupt dispatch (the "APIC" side of Figure 4). Vector handlers
  // are registered by SUD's safe-PCI module.
  using IrqHandler = std::function<void(uint16_t source_id)>;
  Status RequestIrq(uint8_t vector, IrqHandler handler);
  Status FreeIrq(uint8_t vector);
  // Allocates a free vector (32..254).
  Result<uint8_t> AllocIrqVector();
  // Allocates `count` *contiguous* free vectors and returns the base — what
  // multi-message MSI requires: a multi-queue function signals queue q by
  // adding q to its data payload, so vectors base..base+count-1 must all
  // route to that device.
  Result<uint8_t> AllocIrqVectorRange(uint8_t count);
  uint64_t interrupts_handled() const {
    return interrupts_handled_.load(std::memory_order_relaxed);
  }
  uint64_t spurious_interrupts() const {
    return spurious_interrupts_.load(std::memory_order_relaxed);
  }

  // --- non-preemptable context tracking, per thread like a CPU's preempt
  // count: an interrupt handler on one thread leaves every other thread
  // free to block.
  bool InAtomicContext() const { return atomic_depth_ > 0; }
  class ScopedAtomic {
   public:
    explicit ScopedAtomic(Kernel&) { ++atomic_depth_; }
    ~ScopedAtomic() { --atomic_depth_; }
  };

 private:
  void HandleInterrupt(uint8_t vector, uint16_t source_id);

  hw::Machine* machine_;
  ProcessTable processes_;
  NetSubsystem net_;
  WirelessSubsystem wireless_;
  AudioSubsystem audio_;
  InputSubsystem input_;
  std::map<uint8_t, IrqHandler> irq_handlers_;
  uint8_t next_vector_ = 32;
  // Interrupts are delivered from every queue's pump thread under the
  // multi-queue NIC model; the counters are relaxed atomics so dispatch
  // stays lock-free.
  std::atomic<uint64_t> interrupts_handled_{0};
  std::atomic<uint64_t> spurious_interrupts_{0};
  static inline thread_local int atomic_depth_ = 0;
};

}  // namespace sud::kern

#endif  // SUD_SRC_KERN_KERNEL_H_
