// E1000eDriver: the Gigabit Ethernet driver of the paper's evaluation.
//
// Written once against DriverEnv and run both in-kernel (DirectEnv) and as
// an untrusted SUD process (UmlRuntime), like the paper runs the stock
// e1000e in both configurations. Programming model follows the real driver:
// legacy descriptor rings allocated with dma_alloc_coherent, head/tail
// doorbells, ICR/IMS interrupt handling, MDIC for the MII ioctl.
//
// Descriptor access goes through the shared hw::DescRingEngine in mapped
// mode: one cached DmaView window per descriptor cacheline serves the DD
// acquire-poll, the post-DD field reads and the re-arm writes — one window
// resolution per four descriptors where the old reap paid three separate
// DmaView calls per packet.
//
// Jumbo frames (mtu > 1500): the driver programs the per-queue RX buffer
// size register and RCTL.LPE, and reassembles the device's EOP descriptor
// chains — frames scattered across consecutive descriptors, DD per
// descriptor, EOP status on the last — delivering the whole frame as one
// fragment list in one netif_rx call. Reassembly is BOUNDED: a chain that
// exceeds kern::kMaxChainFrags descriptors or the interface's maximum frame
// size without an EOP (the torn/endless-chain attack a malicious device or
// corrupted ring can mount) is dropped, counted in rx_chain_dropped, and the
// ring re-armed — the driver must stay live no matter what the descriptor
// memory claims, because in the in-kernel configuration this code IS the
// trusted side of the descriptor interface.
//
// TX scatter/gather (NETIF_F_SG): every frame arrives as a fragment list
// (NetDriverOps::xmit) and is armed as a TX descriptor chain — every
// fragment report-status only, the last one CMD.EOP — symmetric with
// the RX EOP chains above. The reap completes on EOP only: a chain's pool
// buffers are freed together in the coalesced free-buffer batch once the
// EOP descriptor's DD lands, never while earlier fragments alone show DD.
//
// Multi-queue: constructed with N queues, the driver allocates N TX/RX ring
// pairs, programs each queue's register block, enables RSS (MRQC), programs
// the 128-entry RETA indirection table (identity layout, i % N — and
// ProgramReta() lets operators rebalance it at runtime) and requests one MSI
// message per queue (RequestQueueIrqs). Queue q's handler touches only
// queue q's rings and buffers, so under SUD each queue can be pumped by its
// own thread. TX completions are *coalesced*: a reap pass returns every
// freed shared-pool buffer in one FreeTxBuffers call (one free-buffer
// downcall message) instead of one downcall per buffer.
//
// The single-queue probe-order DMA allocations reproduce Figure 9's
// IO-virtual layout:
//   TX ring descriptors   4 KB   @ 0x42430000
//   RX ring descriptors   8 KB   @ 0x42431000
//   TX buffers            8 MB   @ 0x42433000
//   RX buffers            8 MB   @ 0x42C33000
// (plus Intel's implicit MSI mapping at 0xFEE00000.) With N queues the ring
// allocations repeat per queue (TX rings first, then RX rings) and the RX
// buffer arena is partitioned N ways (TX stays zero-copy out of shared-pool
// buffers, so it needs no per-queue slices).

#ifndef SUD_SRC_DRIVERS_E1000E_H_
#define SUD_SRC_DRIVERS_E1000E_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/devices/sim_nic.h"
#include "src/hw/desc_ring.h"
#include "src/kern/net_limits.h"
#include "src/kern/packet.h"
#include "src/uml/driver_env.h"

namespace sud::drivers {

class E1000eDriver : public uml::Driver {
 public:
  static constexpr uint32_t kTxDescriptors = 256;  // per queue
  static constexpr uint32_t kRxDescriptors = 512;  // per queue
  static constexpr uint64_t kTxBufferBytes = 8ull * 1024 * 1024;  // all queues
  static constexpr uint64_t kRxBufferBytes = 8ull * 1024 * 1024;  // all queues

  E1000eDriver() : E1000eDriver(1) {}
  explicit E1000eDriver(uint32_t num_queues) : E1000eDriver(num_queues, kern::kStdMtu) {}
  E1000eDriver(uint32_t num_queues, uint32_t mtu);

  const char* name() const override { return "e1000e"; }
  Status Probe(uml::DriverEnv& env) override;
  void Remove(uml::DriverEnv& env) override;

  uint32_t num_queues() const { return num_queues_; }
  uint32_t mtu() const { return mtu_; }
  // Bytes of RX buffer behind each RX descriptor (queue arena / ring size).
  uint32_t rx_buffer_size() const { return rx_buffer_size_; }

  // Programs the device's 128-entry RSS indirection table. `table` entries
  // are queue indices; callers rebalance flows by rewriting it (the
  // RETA-starvation attack programs it through this same path — the table
  // CONTENT is the attack, the mechanism is the legitimate one).
  Status ProgramReta(const std::array<uint8_t, devices::kNicRetaEntries>& table);
  // The identity layout Open() programs: entry i -> i % num_queues.
  static std::array<uint8_t, devices::kNicRetaEntries> IdentityReta(uint32_t num_queues);
  // Programs the device's 40-byte RSS hash key (RSSRK). The all-zero key is
  // the identity: steering stays bit-for-bit the historical unkeyed hash.
  // Open() deliberately does NOT program a key, so this — like ProgramReta —
  // is a post-open operator call the device clamps against regardless of
  // content.
  Status ProgramRssKey(const std::array<uint8_t, kern::kRssKeyBytes>& key);
  // Programs every open queue's EITR interrupt-moderation timer (256 ns
  // units; 0 = off, the reset default every historical row ran under).
  Status ProgramItr(uint32_t itr_units);

  struct Stats {
    std::atomic<uint64_t> tx_queued{0};          // frames (not descriptors)
    std::atomic<uint64_t> tx_desc_queued{0};     // TX descriptors armed
    std::atomic<uint64_t> tx_chains{0};          // frames armed as >1 descriptor
    std::atomic<uint64_t> tx_completed{0};
    std::atomic<uint64_t> rx_delivered{0};       // frames (not descriptors)
    std::atomic<uint64_t> rx_chains{0};          // multi-descriptor frames delivered
    std::atomic<uint64_t> rx_chain_dropped{0};   // torn/endless/oversize chains dropped
    std::atomic<uint64_t> interrupts{0};
    std::atomic<uint64_t> free_batches{0};  // coalesced completion downcalls
    // RX re-arm attempts repeated after a transient descriptor-write fault
    // (injected DMA-view failures): the re-arm barrier retries in place and
    // the tail doorbell never passes a slot that is still unarmed.
    std::atomic<uint64_t> rearm_retries{0};
  };
  const Stats& stats() const { return stats_; }
  // Descriptor-window accounting summed over every ring engine: DmaView
  // resolutions (one per cacheline) and descriptor accesses they served.
  uint64_t desc_window_maps() const;
  uint64_t desc_window_hits() const;

  // Test/introspection seams: the ring a queue's reap walks, where the next
  // reap will look, and the buffer slice behind a descriptor. The torn-chain
  // regression tests forge descriptor state through these, playing the
  // malicious device.
  uint64_t rx_ring_iova(uint16_t queue) const { return queues_[queue].rx_ring.iova; }
  uint32_t rx_next(uint16_t queue) const { return queues_[queue].rx_next; }
  uint64_t rx_buffer_iova(uint16_t queue, uint32_t index) const {
    return queues_[queue].rx_buffers_iova + static_cast<uint64_t>(index) * rx_buffer_size_;
  }

  // NAPI-style poll: reaps every queue. The in-kernel baseline calls this
  // from its (coalesced) interrupt/poll path; under SUD the same body runs
  // from the per-queue interrupt upcalls.
  void NapiPoll() {
    if (num_queues_ == 1) {
      IrqHandler();
    } else {
      for (uint32_t q = 0; q < num_queues_; ++q) {
        IrqHandlerQueue(q);
      }
    }
  }

 private:
  // DescRingEngine memory adapter: the driver's rings live in its own DMA
  // allocations, reachable through persistent DmaView windows.
  class EnvRingMem : public hw::RingMem {
   public:
    explicit EnvRingMem(E1000eDriver* driver) : driver_(driver) {}
    Status Read(uint64_t addr, ByteSpan out) override;
    Status Write(uint64_t addr, ConstByteSpan bytes) override;
    Result<ByteSpan> Map(uint64_t addr, uint64_t len) override;

   private:
    E1000eDriver* driver_;
  };

  // Per-queue ring state: owned exclusively by queue q's pump thread.
  struct QueueState {
    DmaRegion tx_ring{};
    DmaRegion rx_ring{};
    uint64_t rx_buffers_iova = 0;  // this queue's slice of the RX arena
    uint32_t tx_tail = 0;
    uint32_t tx_reap = 0;
    uint32_t rx_next = 0;
    std::unique_ptr<hw::DescRingEngine> tx_eng;
    std::unique_ptr<hw::DescRingEngine> rx_eng;
    // In-progress EOP chain: descriptor-order frags collected since the
    // chain's first descriptor (empty when no chain is pending).
    std::vector<DmaFrag> chain;
    uint32_t chain_start = 0;  // ring index of the chain's first descriptor
    uint64_t chain_bytes = 0;
    // Resync after a dropped chain: descriptors are recycled unparsed until
    // the EOP that terminates the dropped frame passes by.
    bool skip_to_eop = false;
    // RX slots whose re-arm failed even after the bounded retries, in ring
    // order. They form a BARRIER: the tail doorbell never advances past the
    // first of them — an unarmed slot handed back to the device still shows
    // stale DD state, and the device would re-deliver a stale frame from it.
    // Retried at the head of every reap pass.
    std::deque<uint32_t> pending_rearm;
    // Pool buffer ids in flight per TX slot (-1 when in-kernel bounce).
    std::vector<int32_t> tx_slot_buffer;
    // Whether the TX slot carries a frame's last fragment (CMD.EOP as we
    // armed it): the reap completes on EOP only — a chain's buffers are
    // freed together, never while the device may still be fetching the tail.
    std::vector<uint8_t> tx_slot_eop;
    // Scratch for the coalesced free pass (reused, no per-reap allocation).
    std::vector<int32_t> free_scratch;
  };

  Status Open();
  Status Stop();
  // Transmit: arms one descriptor per fragment — full frags report-status
  // only, the last one CMD.EOP — and rings the doorbell once for the whole
  // frame. Whole-frame-or-nothing: without room for every fragment the frame
  // is refused, never partially armed.
  Status Xmit(std::span<const uml::TxFrag> frags, uint16_t queue);
  Result<std::string> Ioctl(uint32_t cmd);
  // Legacy single-queue interrupt path: reads ICR (read-clears) and reaps.
  void IrqHandler();
  // Multi-queue (MSI-X style) path: the vector identifies the queue; no
  // shared cause register is touched.
  void IrqHandlerQueue(uint16_t queue);
  void ReapTxCompletions(uint16_t queue);
  void ReapRxRing(uint16_t queue);
  Status ArmRxDescriptor(uint16_t queue, uint32_t index);
  // Queues `index` for re-arm and drains the backlog (arm + one tail write).
  void ArmRxAndAdvanceTail(uint16_t queue, uint32_t index, uint64_t rx_base);
  // Arms as many pending slots as the DMA window allows, in ring order, with
  // bounded per-slot retries, then advances the tail to the last armed slot.
  // Stops (leaving the barrier in place) at the first slot that stays
  // unarmed.
  void DrainRearmBacklog(uint16_t queue, uint64_t rx_base);
  // Re-arms every descriptor of the pending chain and hands them back to the
  // device with one tail write; clears the chain state.
  void RecycleChain(uint16_t queue);
  uint64_t QueueRegBase(uint64_t base, uint16_t queue) const {
    return base + static_cast<uint64_t>(queue) * devices::kNicQueueRegStride;
  }

  uml::DriverEnv* env_ = nullptr;
  uint32_t num_queues_ = 1;
  uint32_t mtu_ = static_cast<uint32_t>(kern::kStdMtu);
  uint32_t rx_buffer_size_ = 0;
  EnvRingMem ring_mem_{this};
  DmaRegion tx_buffers_{};
  DmaRegion rx_buffers_{};
  std::array<QueueState, devices::kNicNumQueues> queues_;
  bool open_ = false;
  Stats stats_;
};

}  // namespace sud::drivers

#endif  // SUD_SRC_DRIVERS_E1000E_H_
