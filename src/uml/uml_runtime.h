// UmlRuntime: SUD-UML — the user-space kernel environment (5,000 lines in
// Figure 5).
//
// Implements DriverEnv for an untrusted driver process. The three
// SUD-specific departures from stock UML (Section 3.3) map to:
//
//  1. low-level PCI/DMA routines call the safe-PCI module: PciConfigRead/
//     Write become filtered syscalls, DmaAllocCoherent allocates through the
//     dma_coherent device file (which installs the IOMMU mapping), and
//     RequestIrq asks the kernel to forward interrupt upcalls;
//  2. the upcall dispatch loop (RunOnceQueue/ProcessPending) receives kernel
//     upcalls and invokes the registered driver callbacks — with the
//     idle-thread rule of Section 4.2: callbacks that may block are handed
//     to a (modelled) worker-thread pool, non-blocking ones run inline;
//  3. shared-memory state mirroring: netif_carrier_on/off and
//     WifiSetBitrates become downcalls that update the kernel's copy.
//
// Multi-queue: the ctl file is sharded (one uchan ring pair per device
// queue). The runtime keeps one NAPI rx accumulation array per queue and
// flushes each into its own shard, dispatches queue q's upcalls from
// RunOnceQueue/ProcessPendingQueue(q) (one pump thread per queue in
// DriverHost's per-queue mode), and acks queue q's interrupt on shard q so
// the ordering rx-before-ack holds per queue with no cross-queue lock.

#ifndef SUD_SRC_UML_UML_RUNTIME_H_
#define SUD_SRC_UML_UML_RUNTIME_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/kern/kernel.h"
#include "src/kern/net_limits.h"
#include "src/sud/proto.h"
#include "src/sud/safe_pci.h"
#include "src/sud/wire_schema.h"
#include "src/uml/driver_env.h"

namespace sud::uml {

class UmlRuntime : public DriverEnv {
 public:
  UmlRuntime(kern::Kernel* kernel, SudDeviceContext* ctx, kern::Process* proc);

  // --- DriverEnv ------------------------------------------------------------
  uint64_t Jiffies() override;
  Result<uint32_t> PciConfigRead(uint16_t offset, int width) override;
  Status PciConfigWrite(uint16_t offset, int width, uint32_t value) override;
  Status PciEnableDevice() override;
  Status PciSetMaster() override;
  Result<uint32_t> MmioRead32(int bar, uint64_t offset) override;
  Status MmioWrite32(int bar, uint64_t offset, uint32_t value) override;
  Result<uint8_t> IoRead8(uint16_t port) override;
  Status IoWrite8(uint16_t port, uint8_t value) override;
  Status RequestIoRegion() override;
  Result<uint16_t> IoBarBase() override;
  Result<DmaRegion> DmaAllocCoherent(uint64_t bytes) override;
  Result<DmaRegion> DmaAllocCaching(uint64_t bytes) override;
  Result<ByteSpan> DmaView(uint64_t iova, uint64_t len) override;
  Status RequestQueueIrqs(uint16_t num_queues, std::function<void(uint16_t)> handler) override;
  Status FreeIrq() override;
  Status RegisterNetdev(const uint8_t mac[6], NetDriverOps ops) override;
  Status NetifRx(std::span<const DmaFrag> frags, uint16_t queue = 0) override;
  void NetifCarrierOn() override;
  void NetifCarrierOff() override;
  void FreeTxBuffers(uint16_t queue, std::span<const int32_t> pool_buffer_ids) override;
  Status RegisterWifi(uint32_t supported_features, WifiDriverOps ops) override;
  void WifiBssChange(bool associated) override;
  void WifiSetBitrates(const std::vector<uint32_t>& rates) override;
  Status RegisterAudio(AudioDriverOps ops) override;
  void AudioPeriodElapsed() override;
  void SubmitKeyEvent(uint8_t usage_code) override;

  // --- dispatch loop ----------------------------------------------------------
  // Per-queue pump: processes one batch of shard q's upcalls, blocking up to
  // `timeout_ms`. This is the body of DriverHost's per-queue threads.
  Status RunOnceQueue(uint16_t queue, uint64_t timeout_ms);
  // Drains all pending upcalls on every shard without sleeping (the
  // single-threaded pump). Dequeues in WaitBatch bursts: one modeled
  // crossing per burst.
  void ProcessPending();
  // Drains one shard only (safe to call concurrently for different queues);
  // returns how many bursts it dispatched.
  size_t ProcessPendingQueue(uint16_t queue);

  // The dispatch counts come from each shard's pump only: one slot per shard.
  struct Stats {
    PerQueueCounter<kSudMaxQueues> upcalls_dispatched;
    PerQueueCounter<kSudMaxQueues> irq_upcalls;
    PerQueueCounter<kSudMaxQueues> worker_dispatches;  // blockable callbacks (modelled pool)
    PerQueueCounter<kSudMaxQueues> inline_dispatches;
    std::atomic<uint64_t> unknown_upcalls{0};
    PerQueueCounter<kSudMaxQueues> rx_batches_flushed;  // netif_rx arrays handed to the kernel
    // Malformed kEthUpXmit messages (count/payload mismatch, bogus pool ids,
    // over-cap or oversize fragments) rejected before any DMA arming.
    std::atomic<uint64_t> xmit_rejected{0};
    // Pump passes swallowed by the "uml.pump.stall.qN" fault sites (the
    // injected wedge the supervisor's watchdog must detect).
    std::atomic<uint64_t> injected_pump_stalls{0};
    // Transmit upcalls the driver refused (ring full, interface down, DMA
    // window unavailable): the frame is gone but its staging buffers were
    // returned — a counted drop on the TX conservation ledger.
    std::atomic<uint64_t> xmit_refused{0};
  };
  const Stats& stats() const { return stats_; }

  // Structural (wire-schema) rejections at the upcall boundary, per message.
  // Malformed xmit upcalls, structural or semantic (unresolvable pool ids,
  // oversize-for-pool lengths), also count in xmit_rejected above.
  const wire::RejectStats& wire_rejects() const { return wire_rejects_; }

  // Per-queue driver heartbeat: upcalls serviced on each shard. The
  // supervisor's watchdog reads these — a queue with pending upcalls whose
  // counter stops advancing is a wedged driver, no hand-fed report needed.
  uint64_t queue_progress(uint16_t queue) const {
    return queue < kSudMaxQueues ? queue_progress_.queue(queue).load() : 0;
  }

  SudDeviceContext* ctx() { return ctx_; }

 private:
  // Dispatches one upcall delivered on `shard` (the lane the wire-schema
  // validator certifies control messages against).
  void Dispatch(UchanMsg& msg, uint16_t shard);
  // Structural rejection: counts the message in wire_rejects_, preserves the
  // historical per-opcode counters, and answers kInvalidArgument.
  void RejectUpcall(UchanMsg& msg, wire::Malform verdict);
  // The one reply to a synchronous upcall: `status`'s code as the error, with
  // `payload`. The channel drops it when no sender waits (an async upcall).
  void Answer(const UchanMsg& request, const Status& status, std::vector<uint8_t> payload = {});
  Status SyncDowncall(uint32_t opcode, UchanMsg* msg);
  // Every control downcall funnels through these so the pending rx arrays
  // always enter the kernel *before* later downcalls on their shard (ring
  // order is per-shard; control rides shard 0).
  Status AsyncDowncall(UchanMsg msg);
  void FlushRxPendingQueue(uint16_t queue, bool enter_kernel);
  // interrupt_ack for queue q, on shard q (after flushing its rx array).
  Status InterruptAckQueue(uint16_t queue);
  // Calls the driver's interrupt handler for `queue`, read under irq_mu_
  // right before the call: a dispatch past FreeIrq finds none and skips it.
  void RunIrqHandler(uint16_t queue);

  kern::Kernel* kernel_;
  SudDeviceContext* ctx_;
  kern::Process* proc_;

  std::mutex irq_mu_;  // FreeIrq may run on another queue's pump thread
  std::shared_ptr<const std::function<void(uint16_t)>> irq_handler_;
  // NAPI rx batching: joins a netif_rx message carrying `frame_bytes` to
  // queue `queue`'s array, which enters the kernel in one crossing at 64
  // messages or 64 standard frames' bytes (jumbo chains flush sooner).
  Status QueueRxDowncall(UchanMsg msg, uint16_t queue, uint64_t frame_bytes);

  // Accumulated netif_rx downcalls and the upcall burst of each pump pass,
  // one array per queue: worker thread q touches only slot q.
  // rx_pending_bytes_ tracks the packet payload the rx array references.
  std::array<std::vector<UchanMsg>, kSudMaxQueues> rx_pending_;
  std::array<std::vector<UchanMsg>, kSudMaxQueues> upcall_batch_;
  std::array<uint64_t, kSudMaxQueues> rx_pending_bytes_{};
  // The driver's ops, set when it registers: an op that is still empty is
  // one the driver never registered, and its upcall is answered kUnavailable.
  NetDriverOps net_ops_;
  WifiDriverOps wifi_ops_;
  AudioDriverOps audio_ops_;
  Stats stats_;
  wire::RejectStats wire_rejects_;
  PerQueueCounter<kSudMaxQueues> queue_progress_;
  // The xmit upcall being dispatched, its fragments resolved against the
  // pool: one scratch list per shard, touched only by that shard's pump.
  std::array<std::array<TxFrag, kern::kMaxChainFrags>, kSudMaxQueues> xmit_frags_{};
};

}  // namespace sud::uml

#endif  // SUD_SRC_UML_UML_RUNTIME_H_
