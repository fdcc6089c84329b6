// SimNic: an e1000e-class Gigabit Ethernet controller.
//
// Register-level model of the Intel 8254x/e1000e programming interface that
// the paper's headline driver targets: legacy 16-byte TX/RX descriptors in
// DMA memory, head/tail doorbells, an interrupt cause register with
// mask-set/mask-clear, receive-address (MAC) registers and an MDIC window to
// the PHY. The driver in src/drivers/e1000e.cc programs this device the same
// way the real e1000e programs real silicon.
//
// Multi-queue: the device exposes kNicNumQueues independent TX/RX descriptor
// ring pairs, each behind its own register block (0x100 stride, the 82574
// layout generalised), with receive-side scaling steering incoming frames by
// a flow hash (kern::FlowHash — the same function the kernel's transmit
// steering uses, so a flow maps to one queue in both directions). A
// driver-programmable 128-entry RSS indirection table (RETA, the 82574's
// 0x5C00 register block) maps hash buckets to queues once programmed;
// unprogrammed it behaves exactly like the historical hash % queues. Queue q
// signals completion on multi-message MSI vector index q. Queue 0 at the
// legacy offsets with MRQC unprogrammed behaves bit-for-bit like the
// single-queue device of earlier revisions.
//
// Descriptor engine: all descriptor DMA goes through the shared
// hw::DescRingEngine (one per queue per direction), which fetches
// descriptors in cacheline bursts — up to four per fabric transaction, never
// past the descriptors the device owns — and serves consumed descriptors
// from the burst snapshot. A driver that rewrites a descriptor after the
// burst was fetched (the mid-burst rewrite attack) changes nothing: the
// device uses its captured copy, exactly once.
//
// Jumbo frames: frames larger than the driver-programmed per-descriptor
// buffer size (the RX block's SRRCTL-style field; 2048 when unprogrammed)
// are scattered across consecutive descriptors as an EOP chain — DD
// published per descriptor in order, the EOP status bit set only on the
// last. Frames above the standard maximum require RCTL.LPE; chains are
// capped at kern::kMaxChainFrags descriptors no matter what buffer size a
// malicious driver programs, and a frame that cannot be scattered is dropped
// and counted, never partially published.
//
// TX scatter/gather: transmit descriptors whose CMD.EOP is clear continue
// the frame in the next descriptor; the device GATHERS the chain whole-
// frame-or-nothing — every fragment's data is fetched and appended before
// any completion publishes or a byte reaches the wire. The gather is bounded
// exactly like RX reassembly: a chain that outgrows kern::kMaxChainFrags
// descriptors or the jumbo frame maximum without presenting EOP (the forged
// endless/over-cap TX chain) is dropped whole, counted, its descriptors
// recycled with DD, and the ring resynced to the EOP that terminates the
// dropped frame; a torn chain (armed fragments, EOP never rung) simply
// parks — nothing of it ever reaches the wire. A data DMA fault mid-chain
// aborts the whole frame the same way (confined, the device stays live).
//
// Threading: with a sharded uchan, each queue is pumped by its own driver
// thread, and with threaded traffic-generator peers each queue's receive-side
// DMA runs on the delivering generator's thread. ALL of queue q's ring state
// — RX and TX rings, descriptor engines, backlog, doorbells — is guarded by
// the per-queue recursive lock queue_mu_[q]. Two invariants keep the locking
// sound:
//
//  1. Interrupts are raised OUTSIDE the queue locks. A synchronous in-kernel
//     dispatch can run a driver handler that re-enters the device through any
//     doorbell (reap, re-arm, even a reply transmit); raising after the lock
//     is released means that re-entry always finds the queue lock free.
//  2. The lock is never held across the EtherLink hop: the TX path stages a
//     frame, drops the lock, and transmits. Together with (1) — which
//     guarantees ProcessTxRing is only ever entered at recursion depth zero,
//     so its unlock really releases — two NICs on one link can never
//     deadlock against each other's queue locks.
//
// Consequence: per-queue TX wire order is guaranteed only while a single
// thread writes that queue's TDT AND no concurrent device-side reaper (Tick
// on another thread) is running; concurrent reapers still get exactly-once
// descriptor processing, but frames may interleave on the wire. Shared
// registers that the delivery threads read while the driver rewrites them
// (MRQC, RCTL, TCTL, the RETA bytes) and the cause/mask registers and stats
// are atomics; MRQC is clamped to the implemented queue count at write time
// and every RETA lookup is reduced modulo the live queue count, so receive
// steering is always in-bounds, even mid-rewrite.
//
// Everything the device does to memory goes through PciDevice::DmaRead/
// DmaWrite — i.e. through the switch, ACS and the IOMMU. A malicious driver
// can point descriptors anywhere it likes; whether the resulting DMA lands
// is decided entirely by the confinement hardware, which is the paper's
// central claim.

#ifndef SUD_SRC_DEVICES_SIM_NIC_H_
#define SUD_SRC_DEVICES_SIM_NIC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/counter.h"
#include "src/base/status.h"
#include "src/devices/ether_link.h"
#include "src/hw/desc_ring.h"
#include "src/hw/pci_device.h"

namespace sud::devices {

// Number of TX/RX descriptor ring pairs (and MSI messages) the device
// implements. Drivers may use any prefix of them.
inline constexpr uint32_t kNicNumQueues = 8;

// Register offsets (subset of the e1000e map).
inline constexpr uint64_t kNicRegCtrl = 0x0000;
inline constexpr uint64_t kNicRegStatus = 0x0008;
inline constexpr uint64_t kNicRegMdic = 0x0020;
inline constexpr uint64_t kNicRegIcr = 0x00c0;  // interrupt cause, read-clears
inline constexpr uint64_t kNicRegIms = 0x00d0;  // interrupt mask set
inline constexpr uint64_t kNicRegImc = 0x00d8;  // interrupt mask clear
inline constexpr uint64_t kNicRegRctl = 0x0100;
inline constexpr uint64_t kNicRegTctl = 0x0400;
// Queue 0 ring registers sit at the legacy offsets; queue q's block is the
// same layout at +q * kNicQueueRegStride.
inline constexpr uint64_t kNicQueueRegStride = 0x100;
inline constexpr uint64_t kNicRegRdbal = 0x2800;
inline constexpr uint64_t kNicRegRdbah = 0x2804;
inline constexpr uint64_t kNicRegRdlen = 0x2808;
// SRRCTL-style per-descriptor RX buffer size in bytes (0 = the 2048-byte
// default). Lives in the RX block so it shards per queue like the rest.
inline constexpr uint64_t kNicRegRdbsz = 0x280c;
inline constexpr uint64_t kNicRegRdh = 0x2810;
inline constexpr uint64_t kNicRegRdt = 0x2818;
inline constexpr uint64_t kNicRegTdbal = 0x3800;
inline constexpr uint64_t kNicRegTdbah = 0x3804;
inline constexpr uint64_t kNicRegTdlen = 0x3808;
inline constexpr uint64_t kNicRegTdh = 0x3810;
inline constexpr uint64_t kNicRegTdt = 0x3818;
inline constexpr uint64_t kNicRegRal0 = 0x5400;
inline constexpr uint64_t kNicRegRah0 = 0x5404;
// RSS indirection table: 128 byte-wide entries packed into 32 dwords at the
// 82574's RETA offset. Each byte names the queue its hash bucket steers to.
inline constexpr uint64_t kNicRegReta = 0x5c00;
inline constexpr uint32_t kNicRetaEntries = 128;
// RSS random key (RSSRK): the driver-programmable 40-byte hash key, 10
// dwords right after the RETA block (the 82574 layout). The device folds the
// key into the two endpoint salts of kern::FlowHashKeyed at write time; an
// all-zero (or never-programmed) key folds to zero salts, which reproduces
// the historical unkeyed steering bit-for-bit. ANY key value steers
// in-bounds — the hash feeds the same %-reductions the RETA path already
// clamps with — so a hostile key can skew the spread but never escape it.
inline constexpr uint64_t kNicRegRssrk = 0x5c80;
inline constexpr uint32_t kNicRssKeyDwords = 10;
// Per-queue interrupt throttle (EITR-style): minimum gap between MSI
// messages for queue q, in 256 ns units (bits 15:0; 0 disables moderation,
// which is the reset state — all historical interrupt behaviour is
// bit-identical until a driver programs a nonzero value). The throttle
// clock advances kNicItrUnitsPerTick units per SimNic::Tick; an event
// arriving inside the window sets a pending latch (counted in
// stats.itr_suppressed) and the expiring timer raises ONE deferred MSI for
// the whole window.
inline constexpr uint64_t kNicRegEitr = 0x1680;  // + 4 * queue
inline constexpr uint32_t kNicItrUnitNs = 256;
inline constexpr uint32_t kNicItrUnitsPerTick = 32;  // ~8.2 us of timer per Tick
// Multiple receive queues command: the number of RSS queues (0 or 1 =
// single-queue legacy behaviour; 2..kNicNumQueues = multi-queue mode with
// per-queue MSI messages and auto-cleared per-queue causes).
inline constexpr uint64_t kNicRegMrqc = 0x5818;

// CTRL bits.
inline constexpr uint32_t kNicCtrlReset = 1u << 26;
// STATUS bits.
inline constexpr uint32_t kNicStatusLinkUp = 1u << 1;
// RCTL/TCTL bits.
inline constexpr uint32_t kNicRctlEnable = 1u << 1;
// RCTL.LPE: long packet enable — frames above the standard 1514-byte
// maximum are dropped (and counted) unless the driver sets this.
inline constexpr uint32_t kNicRctlJumboEnable = 1u << 5;
inline constexpr uint32_t kNicTctlEnable = 1u << 1;
// Interrupt cause bits. Legacy aggregate bits are raised in single-queue
// mode; per-queue bits occupy [8..15] (RX queue q) and [16..23] (TX queue q).
inline constexpr uint32_t kNicIntTxDone = 1u << 0;   // TXDW
inline constexpr uint32_t kNicIntRx = 1u << 7;       // RXT0
inline constexpr uint32_t kNicIntLinkChange = 1u << 2;
inline constexpr uint32_t NicIntRxQueue(uint32_t q) { return 1u << (8 + q); }
inline constexpr uint32_t NicIntTxQueue(uint32_t q) { return 1u << (16 + q); }
inline constexpr uint32_t kNicIntAllQueues = 0x00ffff00u;
// RAH valid bit.
inline constexpr uint32_t kNicRahValid = 1u << 31;

// Legacy descriptor bits and layout now live in the shared engine
// (src/hw/desc_ring.h); the historical names remain for the drivers/tests.
inline constexpr uint8_t kNicDescCmdEop = hw::kDescCmdEop;
inline constexpr uint8_t kNicDescCmdReportStatus = hw::kDescCmdReportStatus;
inline constexpr uint8_t kNicDescStatusDone = hw::kDescStatusDone;
inline constexpr uint8_t kNicDescStatusEop = hw::kDescStatusEop;
using NicDescriptor = hw::RingDescriptor;

class SimNic : public hw::PciDevice, public EtherEndpoint {
 public:
  SimNic(std::string name, const uint8_t mac[6]);

  void ConnectLink(EtherLink* link, int side);

  // hw::PciDevice
  uint32_t MmioRead(int bar, uint64_t offset) override;
  void MmioWrite(int bar, uint64_t offset, uint32_t value) override;
  void Reset() override;
  // Device-autonomous work: drains each queue's RX backlog into freshly armed
  // descriptors and reaps any armed TX descriptors (real NICs fetch armed
  // descriptors on their own schedule, not only at the doorbell write — this
  // is what lets a second thread play "the device" against a doorbell
  // hammerer in the TX locking regression test).
  void Tick() override;

  // EtherEndpoint — a frame arrives from the wire. RSS-steers it to a queue.
  void DeliverFrame(ConstByteSpan frame) override;

  // The per-packet totals are written under each queue's lock, one slot per
  // queue (summed on read); the drop and fault counters stay atomics.
  using QueueTotal = PerQueueCounter<kNicNumQueues>;
  struct Stats {
    QueueTotal tx_frames;
    QueueTotal rx_frames;
    std::atomic<uint64_t> rx_dropped_no_desc{0};
    std::atomic<uint64_t> rx_dropped_oversize{0};  // LPE off, or chain cap hit
    QueueTotal rx_chain_frames;      // frames scattered over >1 descriptor
    QueueTotal rx_chain_descs;       // descriptors those frames used
    QueueTotal tx_chain_frames;      // frames gathered from >1 descriptor
    QueueTotal tx_chain_descs;       // descriptors those frames spanned
    // Forged endless/over-cap TX chains (and mid-chain data faults) dropped
    // whole: descriptors recycled, nothing on the wire, device live.
    std::atomic<uint64_t> tx_dropped_chain{0};
    std::atomic<uint64_t> dma_errors{0};  // descriptor/buffer DMA faulted (confined)
    // RX frames dropped whole because a descriptor fetch or buffer write
    // faulted: the conservation counter for the receive DMA path (dma_errors
    // above stays the raw fault diagnostic and overlaps tx_dropped_chain on
    // transmit faults, so audits sum THIS plus tx_dropped_chain instead).
    std::atomic<uint64_t> rx_dropped_dma{0};
    // Descriptor-engine fabric accounting, summed over every queue:
    // transactions that fetched descriptors (cacheline bursts), descriptors
    // they carried, and completion writebacks.
    QueueTotal desc_fetch_dma;
    QueueTotal desc_fetched;
    QueueTotal desc_writeback_dma;
    // Interrupt-moderation accounting: events whose MSI the EITR throttle
    // absorbed into the window's single deferred message.
    std::atomic<uint64_t> itr_suppressed{0};
    // RETA dword writes (32 per full table program): the audit counter the
    // forged-load-stats attack cells bound the reprogram rate with.
    std::atomic<uint64_t> reta_writes{0};
  };
  const Stats& stats() const { return stats_; }
  // Queue q's slots of the frame totals.
  struct QueueStats {
    const Counter& tx_frames;
    const Counter& rx_frames;
  };
  QueueStats queue_stats(uint32_t q) const {
    return {stats_.tx_frames.queue(q), stats_.rx_frames.queue(q)};
  }
  const uint8_t* mac() const { return mac_.data(); }
  bool link_up() const { return link_ != nullptr; }
  // RSS queues currently enabled by MRQC (1 when unprogrammed).
  uint32_t rss_queues() const;
  // The queue the device would steer `frame` to right now (RETA when
  // programmed, hash % queues otherwise). Exposed for tests/benches.
  uint32_t SteerQueue(ConstByteSpan frame) const;
  // Audit read-back of the live indirection table (the pre-masked bytes the
  // steering path actually consults) — what the attack matrix checks stays
  // in-bounds and what the supervisor replay test compares after recovery.
  std::array<uint8_t, kNicRetaEntries> RetaSnapshot() const;
  bool reta_programmed() const { return reta_programmed_.load(std::memory_order_relaxed); }

 private:
  // Per-queue ring doorbell/geometry registers (one block per queue).
  struct RingRegs {
    uint32_t bal = 0, bah = 0, len = 0, head = 0, tail = 0;
    uint32_t bufsz = 0;  // RX only: per-descriptor buffer bytes (0 = default)
    uint64_t base() const { return (static_cast<uint64_t>(bah) << 32) | bal; }
    uint32_t size() const { return len / 16; }
    // Armed descriptors the device owns, starting at `head`.
    uint32_t owned() const {
      return size() == 0 ? 0 : (tail + size() - head) % size();
    }
  };
  // DescRingEngine memory adapter: descriptor DMA through the fabric, with
  // faults folded into the device's dma_errors counter.
  class FabricRingMem : public hw::RingMem {
   public:
    explicit FabricRingMem(SimNic* nic) : nic_(nic) {}
    Status Read(uint64_t addr, ByteSpan out) override;
    Status Write(uint64_t addr, ConstByteSpan bytes) override;

   private:
    SimNic* nic_;
  };
  // One engine per queue per direction, all state under queue_mu_[q]. The
  // folded snapshots track what each engine's counters already contributed
  // to stats_ (engines count cumulatively; stats_ folds deltas per pass).
  struct QueueEngines {
    explicit QueueEngines(SimNic* nic) : mem(nic), rx(&mem), tx(&mem) {}
    FabricRingMem mem;
    hw::DescRingEngine rx;
    hw::DescRingEngine tx;
    hw::DescRingEngine::Stats rx_folded;
    hw::DescRingEngine::Stats tx_folded;
  };

  bool multi_queue() const { return mrqc_.load(std::memory_order_relaxed) > 1; }
  // Per-queue ring register decode shared by RX/TX reads and writes.
  static uint32_t* RingField(RingRegs& regs, uint64_t reg_offset, bool is_rx);
  static bool DecodeQueueReg(uint64_t offset, bool* is_rx, uint32_t* queue, uint64_t* reg_offset);
  // The usable per-descriptor RX buffer size queue q is programmed for.
  static uint32_t EffectiveRxBufBytes(const RingRegs& regs);
  // Reaps queue q's armed TX descriptors. Takes queue_mu_[q] itself; the lock
  // is released around each EtherLink::Transmit (see the threading comment).
  void ProcessTxRing(uint32_t q);
  // PublishStatus with bounded retries through transient DMA faults (each
  // fault counted in dma_errors): a swallowed completion writeback would
  // strand a descriptor the driver's in-order reap can never pass.
  Status PublishRetry(hw::DescRingEngine& engine, uint32_t index, uint8_t status);
  // Writes one frame into queue q's ring, scattering it across an EOP chain
  // when it exceeds the per-descriptor buffer size. The caller raises the RX
  // interrupt (one per delivered frame) AFTER releasing queue_mu_[q].
  enum class RxOutcome { kDelivered, kNoDesc, kDropped };
  RxOutcome ReceiveIntoRingLocked(uint32_t q, ConstByteSpan frame);
  // Returns how many backlogged frames entered the ring (the caller raises
  // that many RX interrupts after unlocking).
  uint64_t DrainBacklogLocked(uint32_t q);
  void RaiseRxInterrupt(uint32_t q, uint64_t count);
  // Folds one engine's counter growth since `folded` into stats_ (called at
  // the end of each ring pass, under the queue lock).
  void AccumulateEngineStats(uint32_t q, const hw::DescRingEngine& engine,
                             hw::DescRingEngine::Stats* folded);
  // Single-queue (legacy) cause assertion: level-ish on ICR & IMS edges.
  void SetInterruptCause(uint32_t bits);
  // Multi-queue cause assertion for queue q: MSI-X-style auto-clearing
  // causes — every event signals message q (the safe-PCI layer's in-flight
  // coalescing, masking and per-vector pending bits bound the storm).
  void RaiseQueueInterrupt(uint32_t q, uint32_t bits);

  std::array<uint8_t, 6> mac_;
  EtherLink* link_ = nullptr;
  int link_side_ = 0;

  // Register state. RCTL/TCTL/MRQC are atomics: the driver rewrites them on
  // its own thread while every delivering generator thread reads them on the
  // receive path (and any doorbell writer on the transmit path). MRQC is
  // stored pre-clamped to [0, kNicNumQueues].
  uint32_t ctrl_ = 0;
  std::atomic<uint32_t> icr_{0};
  std::atomic<uint32_t> ims_{0};
  std::atomic<uint32_t> rctl_{0};
  std::atomic<uint32_t> tctl_{0};
  std::atomic<uint32_t> mrqc_{0};
  std::array<RingRegs, kNicNumQueues> tx_q_{};
  std::array<RingRegs, kNicNumQueues> rx_q_{};
  uint32_t ral0_ = 0, rah0_ = 0;
  uint32_t mdic_ = 0;

  // RSS indirection table. Byte-wide atomics: the driver reprograms entries
  // while delivery threads steer by them; entries are stored pre-masked to
  // the implemented queue count and reduced modulo the live MRQC count at
  // lookup, so steering is in-bounds even mid-rewrite. reta_programmed_
  // keeps the unprogrammed device bit-compatible with hash % queues.
  std::array<std::atomic<uint8_t>, kNicRetaEntries> reta_{};
  std::atomic<bool> reta_programmed_{false};

  // RSS key (RSSRK) dwords plus the two endpoint salts they fold to. The
  // fold is recomputed at write time; delivery threads read the salts
  // relaxed — a lookup racing a reprogram may mix old/new salts for one
  // frame, which mis-SPREADS but can never mis-BOUND (the hash output is
  // %-reduced downstream regardless).
  std::array<std::atomic<uint32_t>, kNicRssKeyDwords> rssrk_{};
  std::atomic<uint64_t> rss_dst_salt_{0};
  std::atomic<uint64_t> rss_src_salt_{0};
  void RefoldRssKey();

  // EITR state: per-queue throttle value, remaining window units, and the
  // pending latch. All atomics — events arrive on delivery threads, the
  // timer advances on whichever thread calls Tick.
  std::array<std::atomic<uint32_t>, kNicNumQueues> eitr_{};
  std::array<std::atomic<uint32_t>, kNicNumQueues> itr_window_{};
  std::array<std::atomic<uint8_t>, kNicNumQueues> itr_pending_{};
  // True = this event's MSI is absorbed (window open, pending latched);
  // false = raise now (and a fresh window opens if moderation is on).
  bool ItrGate(uint32_t q);
  // One Tick of the queue's throttle clock: close expired windows and raise
  // the deferred MSI the pending latch owes. Called OUTSIDE the queue locks.
  void ItrTick(uint32_t q);

  // Frames that arrived while queue q had no armed RX descriptor.
  std::array<std::deque<std::vector<uint8_t>>, kNicNumQueues> rx_backlog_;
  static constexpr size_t kRxBacklogMax = 64;  // per queue

  // In-progress TX gather, all under queue_mu_[q]: the frame bytes fetched so
  // far and the consumed descriptors awaiting the chain's EOP (index plus the
  // armed status byte the completion writeback must preserve). A partial
  // chain parks here across doorbells — it never touches the wire. The
  // resync flag mirrors the RX reassembly bound: after a dropped chain,
  // descriptors are recycled (DD, unparsed) until the EOP that terminates
  // the dropped frame passes by.
  struct TxPendingDesc {
    uint32_t index;
    uint8_t status;
  };
  std::array<std::vector<uint8_t>, kNicNumQueues> tx_chain_frame_;
  // An empty buffer whose capacity the next gathered frame reuses: the frame
  // leaves in it for the link hop, and its buffer comes back as the spare.
  std::array<std::vector<uint8_t>, kNicNumQueues> tx_wire_spare_;
  std::array<std::vector<TxPendingDesc>, kNicNumQueues> tx_chain_descs_;
  std::array<bool, kNicNumQueues> tx_skip_to_eop_{};
  // Drops the pending chain plus descriptor `last` (recycling everything
  // with DD) and arms the resync unless `last` carried the EOP.
  void DropTxChainLocked(uint32_t q, const TxPendingDesc& last, bool eop);

  // Guards ALL of queue q's ring state: RX and TX ring registers, descriptor
  // processing (including the descriptor engines), and the backlog (it was
  // historically named rx_mu_, but the TX doorbell and reap paths take it
  // too — the rename matches its role). Still recursive as defence in depth:
  // interrupts are raised outside the locks (see the threading comment), so
  // no in-tree path re-enters while holding it, but a hostile driver
  // reaching MMIO from inside an MMIO-triggered callback must deadlock
  // itself, not the kernel.
  mutable std::array<std::recursive_mutex, kNicNumQueues> queue_mu_;

  std::array<std::unique_ptr<QueueEngines>, kNicNumQueues> engines_;

  Stats stats_;
};

}  // namespace sud::devices

#endif  // SUD_SRC_DEVICES_SIM_NIC_H_
