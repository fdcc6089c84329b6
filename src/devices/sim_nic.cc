#include "src/devices/sim_nic.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/kern/flow_table.h"
#include "src/kern/net_limits.h"
#include "src/kern/packet.h"

namespace sud::devices {

// The kern-side flow tracker observes load at RETA granularity (hash % 128
// on both sides); the two constants must never drift apart.
static_assert(kern::kFlowBuckets == kNicRetaEntries,
              "FlowTable bucket count must match the device RETA size");

namespace {
// MDIC register fields (simplified): [15:0] data, [20:16] phy reg,
// [27:26] op (1=write 2=read), [28] ready.
constexpr uint32_t kMdicOpWrite = 1u << 26;
constexpr uint32_t kMdicOpRead = 2u << 26;
constexpr uint32_t kMdicReady = 1u << 28;

// PHY registers: BMSR (1) reports link up; PHYID1 (2) identifies the PHY.
constexpr uint32_t kPhyBmsr = 1;
constexpr uint32_t kPhyId1 = 2;
constexpr uint16_t kPhyBmsrLinkUp = 1u << 2;
constexpr uint16_t kPhyId1Value = 0x02a8;

// Completion writebacks are retried through transient DMA faults: a
// swallowed writeback leaves a descriptor the driver's in-order reap can
// never pass (a published-but-holed ring), which is a wedge rather than a
// confinement. Bounded, because a malicious driver CAN make the fault
// persistent (ring pages mapped read-only) — then the hole wedges only that
// driver's own queue, which is the sandbox working.
constexpr int kWritebackRetries = 8;
}  // namespace

Status SimNic::PublishRetry(hw::DescRingEngine& engine, uint32_t index, uint8_t status) {
  Status published = engine.PublishStatus(index, status);
  for (int retry = 0; !published.ok() && retry < kWritebackRetries; ++retry) {
    stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
    published = engine.PublishStatus(index, status);
  }
  if (!published.ok()) {
    SUD_LOG_RL(kWarning) << name() << ": completion writeback failed after retries; "
                         << "descriptor " << index << " left unpublished";
  }
  return published;
}

Status SimNic::FabricRingMem::Read(uint64_t addr, ByteSpan out) {
  Status status = nic_->DmaRead(addr, out);
  if (!status.ok()) {
    nic_->stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status SimNic::FabricRingMem::Write(uint64_t addr, ConstByteSpan bytes) {
  Status status = nic_->DmaWrite(addr, bytes);
  if (!status.ok()) {
    nic_->stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

SimNic::SimNic(std::string name, const uint8_t mac[6])
    : PciDevice(std::move(name), /*vendor_id=*/0x8086, /*device_id=*/0x10d3,
                /*class_code=*/0x02, {hw::BarDesc{128 * 1024, /*is_io=*/false}}) {
  std::memcpy(mac_.data(), mac, 6);
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    engines_[q] = std::make_unique<QueueEngines>(this);
  }
  Reset();
}

void SimNic::ConnectLink(EtherLink* link, int side) {
  link_ = link;
  link_side_ = side;
  link->Attach(side, this);
}

void SimNic::Reset() {
  ctrl_ = 0;
  icr_.store(0, std::memory_order_relaxed);
  ims_.store(0, std::memory_order_relaxed);
  rctl_.store(0, std::memory_order_relaxed);
  tctl_.store(0, std::memory_order_relaxed);
  mrqc_.store(0, std::memory_order_relaxed);
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    // A (restarting or malicious) driver can hit CTRL reset from its own
    // thread while frames are being delivered: take each queue's lock so
    // ring registers and backlogs never tear mid-delivery.
    std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
    tx_q_[q] = RingRegs{};
    rx_q_[q] = RingRegs{};
    rx_backlog_[q].clear();
    tx_chain_frame_[q].clear();
    tx_chain_descs_[q].clear();
    tx_skip_to_eop_[q] = false;
    engines_[q]->rx.Invalidate();
    engines_[q]->tx.Invalidate();
  }
  for (uint32_t i = 0; i < kNicRetaEntries; ++i) {
    reta_[i].store(0, std::memory_order_relaxed);
  }
  reta_programmed_.store(false, std::memory_order_relaxed);
  for (uint32_t i = 0; i < kNicRssKeyDwords; ++i) {
    rssrk_[i].store(0, std::memory_order_relaxed);
  }
  rss_dst_salt_.store(0, std::memory_order_relaxed);
  rss_src_salt_.store(0, std::memory_order_relaxed);
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    eitr_[q].store(0, std::memory_order_relaxed);
    itr_window_[q].store(0, std::memory_order_relaxed);
    itr_pending_[q].store(0, std::memory_order_relaxed);
  }
  // Receive-address registers come up holding the EEPROM MAC, as on real HW.
  ral0_ = LoadLe32(mac_.data());
  rah0_ = kNicRahValid | LoadLe16(mac_.data() + 4);
  mdic_ = 0;
}

uint32_t SimNic::rss_queues() const {
  // mrqc_ is clamped to [0, kNicNumQueues] at write time, so this is always
  // in-bounds even while a driver rewrites MRQC mid-delivery.
  uint32_t queues = mrqc_.load(std::memory_order_relaxed);
  return queues == 0 ? 1 : queues;
}

uint32_t SimNic::SteerQueue(ConstByteSpan frame) const {
  uint32_t queues = rss_queues();
  if (queues <= 1) {
    return 0;
  }
  // Keyed hash under the programmed RSSRK. The unprogrammed (all-zero) key
  // folds to zero salts, making this the historical unkeyed FlowHash
  // bit-for-bit — every pre-key steering row stays byte-stable.
  kern::RssKeyFold fold{rss_dst_salt_.load(std::memory_order_relaxed),
                        rss_src_salt_.load(std::memory_order_relaxed)};
  uint32_t hash = kern::FlowHashKeyed(frame, fold);
  if (!reta_programmed_.load(std::memory_order_relaxed)) {
    // Unprogrammed table: the historical hash % queues, bit-for-bit.
    return hash % queues;
  }
  // Entries are stored pre-masked to the implemented queue count; the final
  // reduction keeps the lookup in-bounds even while MRQC shrinks mid-flight.
  uint8_t entry = reta_[hash % kNicRetaEntries].load(std::memory_order_relaxed);
  return entry % queues;
}

std::array<uint8_t, kNicRetaEntries> SimNic::RetaSnapshot() const {
  std::array<uint8_t, kNicRetaEntries> table;
  for (uint32_t i = 0; i < kNicRetaEntries; ++i) {
    table[i] = reta_[i].load(std::memory_order_relaxed);
  }
  return table;
}

void SimNic::RefoldRssKey() {
  uint8_t key[kNicRssKeyDwords * 4];
  for (uint32_t i = 0; i < kNicRssKeyDwords; ++i) {
    StoreLe32(key + 4 * i, rssrk_[i].load(std::memory_order_relaxed));
  }
  kern::RssKeyFold fold = kern::FoldRssKey(ConstByteSpan(key, sizeof(key)));
  rss_dst_salt_.store(fold.dst_salt, std::memory_order_relaxed);
  rss_src_salt_.store(fold.src_salt, std::memory_order_relaxed);
}

// Resolves a per-queue ring register: `reg_offset` is the offset within the
// queue's block (RDBAL/TDBAL-relative). One decode shared by RX/TX x
// read/write, so the register map lives in exactly one place.
uint32_t* SimNic::RingField(RingRegs& regs, uint64_t reg_offset, bool is_rx) {
  switch (reg_offset) {
    case 0x00: return &regs.bal;
    case 0x04: return &regs.bah;
    case 0x08: return &regs.len;
    case 0x0c: return is_rx ? &regs.bufsz : nullptr;  // SRRCTL-style, RX only
    case 0x10: return &regs.head;
    case 0x18: return &regs.tail;
    default: return nullptr;
  }
}

bool SimNic::DecodeQueueReg(uint64_t offset, bool* is_rx, uint32_t* queue, uint64_t* reg_offset) {
  if (offset >= kNicRegRdbal && offset < kNicRegRdbal + kNicNumQueues * kNicQueueRegStride) {
    *is_rx = true;
    *queue = static_cast<uint32_t>((offset - kNicRegRdbal) / kNicQueueRegStride);
  } else if (offset >= kNicRegTdbal &&
             offset < kNicRegTdbal + kNicNumQueues * kNicQueueRegStride) {
    *is_rx = false;
    *queue = static_cast<uint32_t>((offset - kNicRegTdbal) / kNicQueueRegStride);
  } else {
    return false;
  }
  *reg_offset = offset & (kNicQueueRegStride - 1);
  return true;
}

uint32_t SimNic::EffectiveRxBufBytes(const RingRegs& regs) {
  // Clamp + round down to the granularity (net_limits.h): a malicious
  // driver can program whatever it likes, the device scatters at a sane
  // size regardless.
  return kern::EffectiveRxBufferBytes(regs.bufsz);
}

uint32_t SimNic::MmioRead(int bar, uint64_t offset) {
  if (bar != 0) {
    return 0xffffffffu;
  }
  // Per-queue ring register blocks.
  bool is_rx = false;
  uint32_t q = 0;
  uint64_t reg_offset = 0;
  if (DecodeQueueReg(offset, &is_rx, &q, &reg_offset)) {
    std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
    uint32_t* field = RingField(is_rx ? rx_q_[q] : tx_q_[q], reg_offset, is_rx);
    return field != nullptr ? *field : 0;
  }
  if (offset >= kNicRegReta && offset < kNicRegReta + kNicRetaEntries) {
    uint32_t base = static_cast<uint32_t>(offset - kNicRegReta) & ~3u;
    uint32_t value = 0;
    for (uint32_t b = 0; b < 4; ++b) {
      value |= static_cast<uint32_t>(reta_[base + b].load(std::memory_order_relaxed)) << (8 * b);
    }
    return value;
  }
  if (offset >= kNicRegRssrk && offset < kNicRegRssrk + 4 * kNicRssKeyDwords) {
    return rssrk_[(offset - kNicRegRssrk) / 4].load(std::memory_order_relaxed);
  }
  if (offset >= kNicRegEitr && offset < kNicRegEitr + 4 * kNicNumQueues) {
    return eitr_[(offset - kNicRegEitr) / 4].load(std::memory_order_relaxed);
  }
  switch (offset) {
    case kNicRegCtrl:
      return ctrl_;
    case kNicRegStatus:
      return link_up() ? kNicStatusLinkUp : 0;
    case kNicRegMdic:
      return mdic_;
    case kNicRegIcr:
      // Read-to-clear.
      return icr_.exchange(0, std::memory_order_relaxed);
    case kNicRegIms:
      return ims_.load(std::memory_order_relaxed);
    case kNicRegRctl:
      return rctl_.load(std::memory_order_relaxed);
    case kNicRegTctl:
      return tctl_.load(std::memory_order_relaxed);
    case kNicRegMrqc:
      return mrqc_.load(std::memory_order_relaxed);
    case kNicRegRal0:
      return ral0_;
    case kNicRegRah0:
      return rah0_;
    default:
      return 0;
  }
}

void SimNic::MmioWrite(int bar, uint64_t offset, uint32_t value) {
  if (bar != 0) {
    return;
  }
  bool is_rx = false;
  uint32_t q = 0;
  uint64_t reg_offset = 0;
  if (DecodeQueueReg(offset, &is_rx, &q, &reg_offset)) {
    if (is_rx) {
      uint64_t drained = 0;
      {
        std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
        uint32_t* field = RingField(rx_q_[q], reg_offset, /*is_rx=*/true);
        if (field != nullptr) {
          *field = value;
          if (field == &rx_q_[q].tail) {
            drained = DrainBacklogLocked(q);
          }
        }
      }
      RaiseRxInterrupt(q, drained);
    } else {
      // TX ring registers live under the same per-queue lock as the RX side:
      // the doorbell write and the reap both mutate tx_q_[q], and a second
      // thread (the device's own Tick, or a racing doorbell) may be reaping
      // this ring concurrently.
      bool doorbell = false;
      {
        std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
        uint32_t* field = RingField(tx_q_[q], reg_offset, /*is_rx=*/false);
        if (field != nullptr) {
          *field = value;
          doorbell = field == &tx_q_[q].tail;
        }
      }
      if (doorbell) {
        ProcessTxRing(q);  // takes the queue lock itself
      }
    }
    return;
  }
  if (offset >= kNicRegReta && offset < kNicRegReta + kNicRetaEntries) {
    // Four byte-wide entries per dword, each pre-masked to the implemented
    // queue count so a concurrent lookup can never read an out-of-range
    // queue no matter what the driver wrote.
    uint32_t base = static_cast<uint32_t>(offset - kNicRegReta) & ~3u;
    for (uint32_t b = 0; b < 4; ++b) {
      reta_[base + b].store(static_cast<uint8_t>((value >> (8 * b)) % kNicNumQueues),
                            std::memory_order_relaxed);
    }
    reta_programmed_.store(true, std::memory_order_relaxed);
    stats_.reta_writes.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (offset >= kNicRegRssrk && offset < kNicRegRssrk + 4 * kNicRssKeyDwords) {
    rssrk_[(offset - kNicRegRssrk) / 4].store(value, std::memory_order_relaxed);
    RefoldRssKey();
    return;
  }
  if (offset >= kNicRegEitr && offset < kNicRegEitr + 4 * kNicNumQueues) {
    // Bits 15:0, like the hardware register. 0 turns moderation off; an open
    // window is left to expire on its own (the pending latch still flushes).
    eitr_[(offset - kNicRegEitr) / 4].store(value & 0xffffu, std::memory_order_relaxed);
    return;
  }
  switch (offset) {
    case kNicRegCtrl:
      if (value & kNicCtrlReset) {
        Reset();
      } else {
        ctrl_ = value;
      }
      break;
    case kNicRegMdic: {
      uint32_t phy_reg = (value >> 16) & 0x1f;
      uint16_t data = 0;
      if (value & kMdicOpRead) {
        if (phy_reg == kPhyBmsr) {
          data = link_up() ? kPhyBmsrLinkUp : 0;
        } else if (phy_reg == kPhyId1) {
          data = kPhyId1Value;
        }
      }
      // Writes are accepted and ignored (no PHY state we care about).
      mdic_ = (value & ~0xffffu) | data | kMdicReady;
      break;
    }
    case kNicRegIms: {
      uint32_t ims = ims_.fetch_or(value, std::memory_order_relaxed) | value;
      uint32_t pending = icr_.load(std::memory_order_relaxed) & ims;
      if (pending != 0) {
        // Setting a mask bit with a pending cause re-raises the interrupt —
        // in multi-queue mode per queue, on each queue's own MSI message
        // (otherwise a cause raised while its IMS bit was clear would be
        // lost forever: RaiseQueueInterrupt drops masked events).
        if (multi_queue()) {
          for (uint32_t q = 0; q < kNicNumQueues; ++q) {
            if ((pending & (NicIntRxQueue(q) | NicIntTxQueue(q))) != 0) {
              (void)RaiseMsi(static_cast<uint8_t>(q));
            }
          }
        } else {
          (void)RaiseMsi();
        }
      }
      break;
    }
    case kNicRegImc:
      ims_.fetch_and(~value, std::memory_order_relaxed);
      break;
    case kNicRegRctl:
      rctl_.store(value, std::memory_order_relaxed);
      if (value & kNicRctlEnable) {
        Tick();  // drain any backlog into freshly armed descriptors
      }
      break;
    case kNicRegTctl:
      tctl_.store(value, std::memory_order_relaxed);
      break;
    case kNicRegMrqc:
      // Clamped once at write time: receive steering reads this concurrently
      // on every delivering thread, and SteerQueue must always be handed an
      // in-bounds queue count no matter what the driver wrote.
      mrqc_.store(value > kNicNumQueues ? kNicNumQueues : value, std::memory_order_relaxed);
      break;
    case kNicRegRal0:
      ral0_ = value;
      break;
    case kNicRegRah0:
      rah0_ = value;
      break;
    default:
      break;
  }
}

void SimNic::AccumulateEngineStats(uint32_t q, const hw::DescRingEngine& engine,
                                   hw::DescRingEngine::Stats* folded) {
  const hw::DescRingEngine::Stats& s = engine.stats();
  stats_.desc_fetch_dma.Add(q, s.burst_fetches - folded->burst_fetches);
  stats_.desc_fetched.Add(q, s.descs_fetched - folded->descs_fetched);
  stats_.desc_writeback_dma.Add(q, s.writebacks - folded->writebacks);
  *folded = s;
}

bool SimNic::ItrGate(uint32_t q) {
  uint32_t eitr = eitr_[q].load(std::memory_order_relaxed);
  if (eitr == 0) {
    return false;  // moderation off: every event signals (historical behaviour)
  }
  if (itr_window_[q].load(std::memory_order_relaxed) != 0) {
    // Inside the throttle window: latch, count, absorb. (Two delivery
    // threads racing the window-open check can both signal — moderation is
    // a rate shaper, not a correctness fence; the kernel side's in-flight
    // coalescing already tolerates duplicate MSIs.)
    itr_pending_[q].store(1, std::memory_order_relaxed);
    stats_.itr_suppressed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  itr_window_[q].store(eitr, std::memory_order_relaxed);
  return false;
}

void SimNic::ItrTick(uint32_t q) {
  uint32_t remaining = itr_window_[q].load(std::memory_order_relaxed);
  if (remaining == 0) {
    return;
  }
  remaining = remaining > kNicItrUnitsPerTick ? remaining - kNicItrUnitsPerTick : 0;
  itr_window_[q].store(remaining, std::memory_order_relaxed);
  if (remaining != 0) {
    return;
  }
  // Window expired: the deferred MSI, but only if its cause is still both
  // pending and unmasked (the driver may have polled and acked meanwhile —
  // then the latch dissolves, exactly like a hardware timer finding ICR
  // clear).
  if (itr_pending_[q].exchange(0, std::memory_order_relaxed) == 0) {
    return;
  }
  uint32_t interesting = multi_queue() ? (NicIntRxQueue(q) | NicIntTxQueue(q)) : ~0u;
  if ((icr_.load(std::memory_order_relaxed) & ims_.load(std::memory_order_relaxed) &
       interesting) == 0) {
    return;
  }
  // Re-open the window before signalling: sustained load converges to one
  // MSI per window, the moderation contract.
  itr_window_[q].store(eitr_[q].load(std::memory_order_relaxed), std::memory_order_relaxed);
  if (multi_queue()) {
    (void)RaiseMsi(static_cast<uint8_t>(q));
  } else {
    (void)RaiseMsi();
  }
}

void SimNic::SetInterruptCause(uint32_t bits) {
  // MSIs are edge-triggered on the assertion of a new cause: if the
  // interrupt condition was already pending (driver has not read ICR yet),
  // no additional message is signalled, as on real hardware.
  uint32_t ims = ims_.load(std::memory_order_relaxed);
  uint32_t old_icr = icr_.fetch_or(bits, std::memory_order_relaxed);
  bool was_asserted = (old_icr & ims) != 0;
  if (!was_asserted && ((old_icr | bits) & ims) != 0 && !ItrGate(0)) {
    (void)RaiseMsi();
  }
}

void SimNic::RaiseQueueInterrupt(uint32_t q, uint32_t bits) {
  icr_.fetch_or(bits, std::memory_order_relaxed);
  if ((ims_.load(std::memory_order_relaxed) & bits) == 0) {
    return;
  }
  if (ItrGate(q)) {
    return;  // absorbed into the window's deferred MSI (ItrTick raises it)
  }
  // MSI-X-style auto-clear: each event signals its message; coalescing is
  // the kernel side's job (in-flight masking + per-vector pending), so a
  // wakeup can never be lost between the driver's poll and its ack.
  (void)RaiseMsi(static_cast<uint8_t>(q));
}

void SimNic::DropTxChainLocked(uint32_t q, const TxPendingDesc& last, bool eop) {
  // Bounded gather, mirroring the RX reassembly bound: drop the whole
  // pending frame, recycle every consumed descriptor with DD (the driver's
  // reap must stay live), and — unless this very descriptor carried the
  // terminating EOP — resync, recycling descriptors unparsed until it
  // arrives. Nothing of the dropped frame ever reaches the wire.
  hw::DescRingEngine& engine = engines_[q]->tx;
  stats_.tx_dropped_chain.fetch_add(1, std::memory_order_relaxed);
  for (const TxPendingDesc& pending : tx_chain_descs_[q]) {
    (void)PublishRetry(engine, pending.index,
                       static_cast<uint8_t>(pending.status | kNicDescStatusDone));
  }
  (void)PublishRetry(engine, last.index,
                     static_cast<uint8_t>(last.status | kNicDescStatusDone));
  tx_chain_frame_[q].clear();
  tx_chain_descs_[q].clear();
  tx_skip_to_eop_[q] = !eop;
}

void SimNic::ProcessTxRing(uint32_t q) {
  // Ring state (registers, descriptor DMA, head advance) mutates only under
  // queue_mu_[q]; the lock is dropped around the EtherLink hop so it is never
  // held while the peer NIC takes *its* queue lock in DeliverFrame — the
  // lock-order cycle two NICs on one link could otherwise build. Because the
  // head advances under the lock before the frame leaves, a concurrent
  // reaper (the device's Tick, or a racing doorbell write) processes each
  // descriptor exactly once — and because the engine serves consumed
  // descriptors from its cacheline burst snapshot, a driver rewriting a
  // descriptor after the fetch transmits nothing but what was armed.
  std::unique_lock<std::recursive_mutex> lock(queue_mu_[q]);
  RingRegs& regs = tx_q_[q];
  hw::DescRingEngine& engine = engines_[q]->tx;
  std::vector<uint8_t>& frame = tx_chain_frame_[q];
  std::vector<TxPendingDesc>& chain = tx_chain_descs_[q];
  // Completions published this pass — wire frames AND dropped/resynced
  // chains: the driver's reap needs a TXDW for recycled descriptors too, or
  // a dropped frame's buffers sit unreclaimed until the ring fills.
  bool completed_any = false;
  while ((tctl_.load(std::memory_order_relaxed) & kNicTctlEnable) != 0 && regs.size() != 0 &&
         regs.head != regs.tail) {
    engine.Configure(regs.base(), regs.size());
    Result<NicDescriptor> desc = engine.Fetch(regs.head, regs.owned());
    if (!desc.ok()) {
      // Descriptor fetch faulted in the IOMMU: the device stalls this queue,
      // which is precisely the "confined to its own sandbox" behaviour.
      break;
    }
    NicDescriptor d = desc.value();
    TxPendingDesc consumed{regs.head, d.status};
    bool eop = (d.cmd & kNicDescCmdEop) != 0;
    regs.head = (regs.head + 1) % regs.size();

    if (tx_skip_to_eop_[q]) {
      // Resyncing after a dropped chain: everything up to AND INCLUDING the
      // EOP that terminates the dropped frame belongs to it — recycled with
      // DD, never gathered, never transmitted.
      (void)PublishRetry(engine, consumed.index,
                         static_cast<uint8_t>(consumed.status | kNicDescStatusDone));
      completed_any = true;
      if (eop) {
        tx_skip_to_eop_[q] = false;
      }
      continue;
    }

    // Bound BEFORE any data DMA: a chain past the descriptor cap or the
    // jumbo frame maximum is the forged endless/over-cap TX chain.
    if (chain.size() + 1 > kern::kMaxChainFrags ||
        frame.size() + d.length > kern::kJumboMaxFrameBytes) {
      DropTxChainLocked(q, consumed, eop);
      completed_any = true;
      continue;
    }
    if (d.length > 0) {
      // The fragment lands straight in the gather buffer.
      size_t gathered = frame.size();
      frame.resize(gathered + d.length);
      Status status = DmaRead(d.buffer_addr, ByteSpan(frame.data() + gathered, d.length));
      if (!status.ok()) {
        // Whole-frame-or-nothing: a fault anywhere in the chain (a fragment
        // aimed outside the IOMMU mappings) aborts the entire frame. The
        // fault is the confinement working; the device stays live.
        stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
        DropTxChainLocked(q, consumed, eop);
        completed_any = true;
        continue;
      }
    }
    chain.push_back(consumed);
    if (!eop) {
      // The frame continues in the next descriptor. A torn chain (the rest
      // never armed) parks right here: no completion, no wire bytes.
      continue;
    }

    // Whole frame gathered: publish every fragment's completion in ring
    // order (DD release-published last per descriptor), then the wire hop.
    for (const TxPendingDesc& pending : chain) {
      (void)PublishRetry(engine, pending.index,
                         static_cast<uint8_t>(pending.status | kNicDescStatusDone));
    }
    stats_.tx_frames.Add(q);
    if (chain.size() > 1) {
      stats_.tx_chain_frames.Add(q);
      stats_.tx_chain_descs.Add(q, chain.size());
    }
    chain.clear();
    completed_any = true;
    if (link_ != nullptr && !frame.empty()) {
      // Move the gathered bytes out so the pending state is clean while the
      // lock is dropped for the hop; the gather continues in the spare's
      // capacity. A transmit that re-enters during the hop finds no spare
      // and grows its own, and the last one back is kept.
      std::vector<uint8_t> wire = std::move(tx_wire_spare_[q]);
      wire.swap(frame);
      lock.unlock();
      (void)link_->Transmit(link_side_, ConstByteSpan(wire.data(), wire.size()));
      lock.lock();
      wire.clear();
      tx_wire_spare_[q] = std::move(wire);
    } else {
      frame.clear();
    }
  }
  AccumulateEngineStats(q, engine, &engines_[q]->tx_folded);
  lock.unlock();
  if (completed_any) {
    // Raised after the lock is dropped: the MSI dispatch can synchronously
    // run an in-kernel driver's reap, which re-enters through the doorbell.
    if (multi_queue()) {
      RaiseQueueInterrupt(q, NicIntTxQueue(q));
    } else {
      SetInterruptCause(kNicIntTxDone);
    }
  }
}

SimNic::RxOutcome SimNic::ReceiveIntoRingLocked(uint32_t q, ConstByteSpan frame) {
  RingRegs& regs = rx_q_[q];
  uint32_t rctl = rctl_.load(std::memory_order_relaxed);
  if ((rctl & kNicRctlEnable) == 0 || regs.size() == 0) {
    return RxOutcome::kNoDesc;
  }
  // Long frames require RCTL.LPE, exactly like real silicon: without it an
  // oversize frame is dropped at the MAC, counted, and nothing is published.
  // Even with LPE the MAC has an absolute maximum (the jumbo frame size) —
  // nothing larger ever touches a descriptor.
  if ((frame.size() > kern::kStdMaxFrameBytes && (rctl & kNicRctlJumboEnable) == 0) ||
      frame.size() > kern::kJumboMaxFrameBytes) {
    stats_.rx_dropped_oversize.fetch_add(1, std::memory_order_relaxed);
    return RxOutcome::kDropped;
  }
  uint32_t bufsz = EffectiveRxBufBytes(regs);
  uint32_t needed = static_cast<uint32_t>((frame.size() + bufsz - 1) / bufsz);
  if (needed == 0) {
    needed = 1;
  }
  if (needed > kern::kMaxChainFrags) {
    // The chain cap: no buffer-size program a malicious driver picks can
    // make the device publish an unbounded descriptor chain.
    stats_.rx_dropped_oversize.fetch_add(1, std::memory_order_relaxed);
    return RxOutcome::kDropped;
  }
  // RDH == RDT means the ring is empty of armed descriptors; a chain needs
  // `needed` of them or the whole frame waits (no partial chains, ever).
  if (regs.owned() < needed) {
    return RxOutcome::kNoDesc;
  }
  uint64_t ring_base = regs.base();
  hw::DescRingEngine& engine = engines_[q]->rx;
  engine.Configure(ring_base, regs.size());
  // Pass 1: fetch the chain's descriptors (cacheline bursts) and DMA each
  // chunk into its buffer. Any fault — descriptor outside the IOMMU
  // mappings, buffer aimed at a victim — aborts the WHOLE frame before any
  // completion is published: the ring never carries a half-written chain.
  NicDescriptor chain_desc[kern::kMaxChainFrags];
  size_t off = 0;
  for (uint32_t i = 0; i < needed; ++i) {
    uint32_t index = (regs.head + i) % regs.size();
    uint32_t owned_here = (regs.tail + regs.size() - index) % regs.size();
    Result<NicDescriptor> desc = engine.Fetch(index, owned_here);
    if (!desc.ok()) {
      // The fetch faulted in the IOMMU (or an injected transient fault): the
      // whole frame is dropped, and counted — never a silent loss.
      stats_.rx_dropped_dma.fetch_add(1, std::memory_order_relaxed);
      AccumulateEngineStats(q, engine, &engines_[q]->rx_folded);
      return RxOutcome::kDropped;
    }
    chain_desc[i] = desc.value();
    size_t chunk = frame.size() - off < bufsz ? frame.size() - off : bufsz;
    Status status = DmaWrite(chain_desc[i].buffer_addr, frame.subspan(off, chunk));
    if (!status.ok()) {
      stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
      stats_.rx_dropped_dma.fetch_add(1, std::memory_order_relaxed);
      AccumulateEngineStats(q, engine, &engines_[q]->rx_folded);
      return RxOutcome::kDropped;
    }
    off += chunk;
  }
  // Pass 2: completion writeback in ring order — per descriptor the chunk
  // length first, then the status byte (DD, plus EOP only on the last)
  // release-published last, so a driver thread polling this chain
  // concurrently never observes DD with a stale length, in every mode.
  off = 0;
  for (uint32_t i = 0; i < needed; ++i) {
    uint32_t index = (regs.head + i) % regs.size();
    size_t chunk = frame.size() - off < bufsz ? frame.size() - off : bufsz;
    Status wrote = engine.WriteBackLength(index, static_cast<uint16_t>(chunk));
    for (int retry = 0; !wrote.ok() && retry < kWritebackRetries; ++retry) {
      stats_.dma_errors.fetch_add(1, std::memory_order_relaxed);
      wrote = engine.WriteBackLength(index, static_cast<uint16_t>(chunk));
    }
    uint8_t status = kNicDescStatusDone;
    if (i + 1 == needed) {
      status |= kNicDescStatusEop;
    }
    if (wrote.ok()) {
      wrote = PublishRetry(engine, index, status);
    }
    if (!wrote.ok()) {
      if (i == 0) {
        // Nothing published yet: the head has not advanced, so the frame can
        // still be dropped WHOLE and counted — the slot is reused for the
        // next delivery.
        stats_.rx_dropped_dma.fetch_add(1, std::memory_order_relaxed);
        AccumulateEngineStats(q, engine, &engines_[q]->rx_folded);
        return RxOutcome::kDropped;
      }
      // Mid-chain hole after retries: earlier descriptors are already
      // published, so the frame cannot be withdrawn. PublishRetry logged it;
      // only a persistently faulting (malicious) ring reaches this.
    }
    off += chunk;
  }
  regs.head = (regs.head + needed) % regs.size();
  stats_.rx_frames.Add(q);
  if (needed > 1) {
    stats_.rx_chain_frames.Add(q);
    stats_.rx_chain_descs.Add(q, needed);
  }
  AccumulateEngineStats(q, engine, &engines_[q]->rx_folded);
  // The interrupt is raised by the caller AFTER the queue lock is released:
  // a synchronous in-kernel dispatch can transmit a reply from inside the
  // handler, and its doorbell must find this queue's lock free (see the
  // threading comment in the header).
  return RxOutcome::kDelivered;
}

void SimNic::RaiseRxInterrupt(uint32_t q, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    if (multi_queue()) {
      RaiseQueueInterrupt(q, NicIntRxQueue(q));
    } else {
      SetInterruptCause(kNicIntRx);
    }
  }
}

void SimNic::DeliverFrame(ConstByteSpan frame) {
  uint32_t q = SteerQueue(frame);
  RxOutcome outcome;
  {
    std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
    outcome = ReceiveIntoRingLocked(q, frame);
    if (outcome == RxOutcome::kNoDesc) {
      if (rx_backlog_[q].size() >= kRxBacklogMax) {
        stats_.rx_dropped_no_desc.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      rx_backlog_[q].emplace_back(frame.begin(), frame.end());
    }
  }
  if (outcome == RxOutcome::kDelivered) {
    RaiseRxInterrupt(q, 1);
  }
}

uint64_t SimNic::DrainBacklogLocked(uint32_t q) {
  uint64_t drained = 0;
  while (!rx_backlog_[q].empty()) {
    const std::vector<uint8_t>& frame = rx_backlog_[q].front();
    RxOutcome outcome = ReceiveIntoRingLocked(q, ConstByteSpan(frame.data(), frame.size()));
    if (outcome == RxOutcome::kNoDesc) {
      break;
    }
    rx_backlog_[q].pop_front();
    if (outcome == RxOutcome::kDelivered) {
      ++drained;
    }
    // kDropped frames (oversize without LPE, chain cap, DMA fault) leave the
    // backlog too — already counted, and retrying them can never succeed.
  }
  return drained;
}

void SimNic::Tick() {
  for (uint32_t q = 0; q < kNicNumQueues; ++q) {
    uint64_t drained = 0;
    {
      std::lock_guard<std::recursive_mutex> lock(queue_mu_[q]);
      drained = DrainBacklogLocked(q);
    }
    RaiseRxInterrupt(q, drained);
    // Device-side TX reap: real silicon fetches armed descriptors on its own
    // schedule, not only at the doorbell edge. (No-op when head == tail.)
    ProcessTxRing(q);
    // The moderation timer advances on the device's own clock, outside every
    // queue lock (the deferred MSI can synchronously run a driver handler).
    ItrTick(q);
  }
}

}  // namespace sud::devices
