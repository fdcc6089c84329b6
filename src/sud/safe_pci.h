// SafePciModule / SudDeviceContext: the safe PCI device access kernel module
// (the 2,800-line component of Figure 5).
//
// For each PCI device handed to an untrusted driver, SUD exports four device
// files (Figure 6): ctl (the uchan), mmio (the device's own registers only),
// and the two DMA allocators. SudDeviceContext is the kernel-side object
// behind that directory; every driver-reachable operation on it enforces the
// Section 3.2 rules:
//
//  * MMIO access is confined to the device's own page-aligned BARs.
//  * Legacy IO-port access is checked against the process IOPB, which only
//    ever contains the device's own ports (RequestIoRegion).
//  * PCI config space is reached *only* through a filtered syscall surface:
//    reads are open; writes to BARs, the MSI capability, the capability
//    pointer and other routing-sensitive registers are denied (a malicious
//    driver could otherwise relocate its BAR over another device, redirect
//    its MSI doorbell, or intercept other devices' transactions).
//  * The device's DMA is confined by the IOMMU context created at Bind time,
//    and peer-to-peer attacks by the ACS configuration forced on the
//    device's switch.
//  * Interrupts are forwarded by raising the queue shard's level-triggered
//    flag: it needs no ring slot, so a full ring never drops one and nothing
//    redelivers it. A second interrupt before the driver's interrupt_ack
//    masks MSI and pends the queue until that ack (Section 3.2.2); a storm
//    that masking cannot stop (stray DMA to the MSI address) escalates to
//    interrupt remapping (Intel + IR), unmapping the MSI page (AMD), or — on
//    the paper's Intel-without-IR testbed — is detected but unstoppable (§5.2).
//
// Multi-queue devices: Options::num_queues shards the ctl file into one
// uchan ring pair per device queue, with one multi-message MSI vector per
// queue. Shard q carries queue q's packet traffic (xmit upcalls, netif_rx
// and free-buffer downcalls, the queue's interrupt upcall and ack); shard 0
// additionally carries control traffic. Each shard has its own lock, so
// per-queue driver threads and the kernel's per-queue transmit paths never
// contend on a shared channel — the scaling the ROADMAP's multi-queue item
// asks for. There is deliberately no cross-shard ordering, as on real
// multi-queue NICs, where ordering is only ever per flow.
//
// The context owns the shards and is the one downcall boundary: Bind
// installs its own handler on every shard, which learns the shard index a
// downcall arrived on from the channel itself, so a malicious driver cannot
// cross-talk queues by lying in a marshalled field. Every downcall is
// schema-checked once there (wire::ValidateStructure, rejections counted in
// wire_rejects()); the context serves the generic interrupt_ack and
// request_region itself and forwards device-class messages, with the verdict,
// to the proxy's handler.
//
// The context builds its shards, DMA space and pool once, and a bind re-carves
// the pool under a new epoch. Teardown() shuts the uchans and reclaims all
// else (IOMMU context, DMA pages, IOPB grants, the MSI vectors), which is what
// makes `kill -9` + restart safe (Section 4.1).

#ifndef SUD_SRC_SUD_SAFE_PCI_H_
#define SUD_SRC_SUD_SAFE_PCI_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/hw/machine.h"
#include "src/kern/kernel.h"
#include "src/sud/dma_space.h"
#include "src/sud/proto.h"
#include "src/sud/shared_pool.h"
#include "src/sud/uchan.h"
#include "src/sud/wire_schema.h"

namespace sud {

class SafePciModule;

class SudDeviceContext {
 public:
  struct Options {
    // Shared buffers of kern::kRxDefaultBufferBytes each.
    uint32_t pool_buffers = 512;
    Uchan::Config uchan;
    // Uchan shards / MSI messages: one per device queue (clamped to
    // [1, kSudMaxQueues]). 1 reproduces the single-lane channel exactly.
    uint32_t num_queues = 1;
  };

  SudDeviceContext(kern::Kernel* kernel, hw::PciDevice* device, kern::Uid owner_uid,
                   Options options);
  ~SudDeviceContext();

  SudDeviceContext(const SudDeviceContext&) = delete;
  SudDeviceContext& operator=(const SudDeviceContext&) = delete;

  hw::PciDevice* device() { return device_; }
  kern::Uid owner_uid() const { return owner_uid_; }
  uint16_t source_id() const { return device_->address().source_id(); }
  uint32_t num_queues() const { return num_queues_; }

  // Binds the device to driver process `proc` (the driver opening the sud
  // files): UID check, IOMMU context creation, MSI setup, IRQ registration.
  // A bind that fails part-way undoes what it set up and leaves the device
  // ready for the next one.
  Status Bind(kern::Process* proc);
  bool bound() const { return bound_; }
  kern::Process* bound_process() { return process_; }

  // The proxy driver's dispatch for device-class downcalls: the message, the
  // shard it arrived on and the structural verdict (a rejected message
  // already carries kInvalidArgument; a proxy may salvage from it). Set it
  // before the driver binds; it survives rebinds.
  using DowncallHandler =
      std::function<void(UchanMsg&, uint16_t shard, wire::Malform verdict)>;
  void set_downcall_handler(DowncallHandler handler) { downcall_handler_ = std::move(handler); }

  // End-of-kernel-entry hook per shard (the proxy's NAPI rx-bundle delivery
  // point). Set and kept like the downcall handler.
  using FlushHandler = std::function<void(uint16_t shard)>;
  void set_downcall_flush_handler(FlushHandler handler) {
    downcall_flush_handler_ = std::move(handler);
  }

  // Structural (wire-schema) rejections at this boundary, per message.
  const wire::RejectStats& wire_rejects() const { return wire_rejects_; }

  // --- the four device files -------------------------------------------------
  // ctl: shard 0 (control + queue 0); ctl(q): queue q's ring pair.
  Uchan& ctl() { return *shards_[0]; }
  Uchan& ctl(uint16_t queue) { return *shards_[queue]; }
  // Sums every shard's counters (the single-lane view of the channel).
  Uchan::Stats AggregateCtlStats() const;
  DmaSpace& dma() { return dma_; }
  SharedBufferPool& pool() { return pool_; }

  // mmio file: register access confined to this device's own BARs.
  Result<uint32_t> MmioRead(int bar, uint64_t offset);
  Status MmioWrite(int bar, uint64_t offset, uint32_t value);

  // Filtered PCI config syscalls (Section 3.2.1).
  Result<uint32_t> ConfigRead(uint16_t offset, int width);
  Status ConfigWrite(uint16_t offset, int width, uint32_t value);

  // Legacy IO ports, checked against the bound process's IOPB.
  Result<uint8_t> IoPortRead(uint16_t port);
  Status IoPortWrite(uint16_t port, uint8_t value);
  // request_region downcall target: grant the device's own IO BAR ports.
  Status RequestIoRegion();

  // --- interrupt path ---------------------------------------------------------
  // interrupt_ack downcall target: driver finished handling queue `queue`'s
  // interrupt; unmask, re-fire held-back MSIs, then raise pended queues.
  Status InterruptAck(uint16_t queue);

  struct InterruptStats {
    uint64_t forwarded = 0;       // upcalls issued
    uint64_t coalesced = 0;       // arrived during handling, before masking
    uint64_t mask_events = 0;     // times MSI was masked
    uint64_t storm_escalations = 0;
    uint64_t unstoppable = 0;     // Intel-without-IR livelock interrupts
    uint64_t forged_received = 0; // interrupts whose MSI write came from another device
    bool remap_blocked = false;   // interrupt remapping entry blocked
    bool msi_page_unmapped = false;  // AMD escalation applied
  };
  const InterruptStats& interrupt_stats() const { return irq_stats_; }
  // Base of the contiguous vector range; queue q fires vector_base + q.
  uint8_t irq_vector() const { return vector_base_; }

  // Bind generation: bumped on every successful Bind and stamped into the
  // pool's handle epoch, so buffer ids from a dead (pre-restart) instance
  // can never be honored by the live one.
  uint32_t bind_generation() const { return bind_generation_.load(std::memory_order_relaxed); }
  // TX-staging buffers still in the driver's hands at Teardown, quarantined
  // with the dying epoch (cumulative across restarts): the counted in-flight
  // loss a crash can cause.
  uint64_t quarantined_buffers() const {
    return quarantined_buffers_.load(std::memory_order_relaxed);
  }

  // Full reclamation (driver killed / device revoked).
  void Teardown();

 private:
  // The handler Bind installs on every shard: the one structural check,
  // then the generic opcodes here and device-class ones to the proxy.
  void Downcall(UchanMsg& msg, uint16_t shard);
  // The mmio file's bound and BAR-window check, charged as one access.
  Status MmioAccess(int bar, uint64_t offset);
  Status IoPortAccess(uint16_t port);  // the io-port file's bound and IOPB check
  // Bind's steps after the IOMMU context: on failure Bind runs Release.
  Status Acquire(kern::Process* proc);
  // Undoes Acquire and the context, for Teardown and a failed Bind alike.
  void Release();
  void OnDeviceInterrupt(uint16_t queue, uint16_t source_id);
  void EscalateStorm();  // stops this device's MSI storm; caller holds irq_mu_
  bool ConfigWriteAllowed(uint16_t offset, int width, uint32_t value, std::string* why) const;

  friend class SafePciModule;

  kern::Kernel* kernel_;
  hw::PciDevice* device_;
  kern::Uid owner_uid_;
  Options options_;
  SafePciModule* module_ = nullptr;  // for cross-device forged-MSI escalation
  kern::Process* process_ = nullptr;
  uint32_t num_queues_ = 1;
  bool bound_ = false;
  std::atomic<uint32_t> bind_generation_{0};
  std::atomic<uint64_t> quarantined_buffers_{0};

  std::vector<std::unique_ptr<Uchan>> shards_;  // built once, like dma_ and pool_
  DmaSpace dma_{&kernel_->machine().dram(), &kernel_->machine().iommu(), source_id()};
  SharedBufferPool pool_{&dma_, options_.pool_buffers, kern::kRxDefaultBufferBytes};
  DowncallHandler downcall_handler_;
  FlushHandler downcall_flush_handler_;
  wire::RejectStats wire_rejects_;

  struct SpinLock {  // spins briefly, then yields its CPU to the holder
    void lock();
    void unlock() { flag.clear(std::memory_order_release); }
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
  };

  uint8_t vector_base_ = 0;
  // Vectors from vector_base_ this bind registered: a failed bind frees only
  // these, never an earlier bind's, which may belong to another device now.
  uint32_t irq_vectors_ = 0;
  // Serializes interrupt bookkeeping (in-flight flags, MSI mask flips, storm
  // counters) across the per-queue pump threads and the delivery thread.
  // Nothing under it waits on the driver, so it spins rather than sleeps.
  SpinLock irq_mu_;
  std::array<bool, kSudMaxQueues> irq_in_flight_{};
  // Genuine device MSIs swallowed while their queue's interrupt was in
  // flight (or the function masked): the signalled work already sits in the
  // descriptor ring, and a window-blocked sender may never produce another
  // edge — so InterruptAck raises exactly one interrupt per pended queue.
  std::array<bool, kSudMaxQueues> irq_pended_{};
  uint32_t interrupts_while_masked_ = 0;
  InterruptStats irq_stats_;

  // IO ports granted (for revocation at teardown).
  uint16_t granted_io_base_ = 0;
  uint16_t granted_io_count_ = 0;
};

// The module: tracks exported devices and owns their contexts. Also applies
// the fabric-wide policy (ACS on every switch) each time a device is
// exported, the only way a device becomes reachable by an untrusted driver.
class SafePciModule {
 public:
  struct Policy {
    bool enable_acs = true;  // tests disable this to demonstrate the attack
  };

  explicit SafePciModule(kern::Kernel* kernel) : SafePciModule(kernel, Policy{}) {}
  SafePciModule(kern::Kernel* kernel, Policy policy) : kernel_(kernel), policy_(policy) {}

  // Exports `device` for use by an untrusted driver owned by `owner_uid`
  // (the chown step of Section 4.1).
  Result<SudDeviceContext*> ExportDevice(hw::PciDevice* device, kern::Uid owner_uid) {
    return ExportDevice(device, owner_uid, SudDeviceContext::Options{});
  }
  Result<SudDeviceContext*> ExportDevice(hw::PciDevice* device, kern::Uid owner_uid,
                                         SudDeviceContext::Options options);
  Status RevokeDevice(hw::PciDevice* device);
  SudDeviceContext* Find(hw::PciDevice* device);

  // A context received an interrupt whose MSI write originated from another
  // device (a stray-DMA-forged vector): the attacker's context escalates its
  // storm, under its own interrupt lock.
  void ReportForgedMsi(uint16_t attacker_source_id);

 private:
  kern::Kernel* kernel_;
  Policy policy_;
  std::map<hw::PciDevice*, std::unique_ptr<SudDeviceContext>> contexts_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_SAFE_PCI_H_
