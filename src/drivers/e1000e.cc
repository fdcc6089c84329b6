#include "src/drivers/e1000e.h"

#include <algorithm>
#include <cstring>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/kern/netdev.h"

namespace sud::drivers {

using devices::NicDescriptor;
using hw::RingDescriptor;

Status E1000eDriver::EnvRingMem::Read(uint64_t addr, ByteSpan out) {
  Result<ByteSpan> view = driver_->env_->DmaView(addr, out.size());
  if (!view.ok()) {
    return view.status();
  }
  std::memcpy(out.data(), view.value().data(), out.size());
  return Status::Ok();
}

Status E1000eDriver::EnvRingMem::Write(uint64_t addr, ConstByteSpan bytes) {
  Result<ByteSpan> view = driver_->env_->DmaView(addr, bytes.size());
  if (!view.ok()) {
    return view.status();
  }
  std::memcpy(view.value().data(), bytes.data(), bytes.size());
  return Status::Ok();
}

Result<ByteSpan> E1000eDriver::EnvRingMem::Map(uint64_t addr, uint64_t len) {
  return driver_->env_->DmaView(addr, len);
}

E1000eDriver::E1000eDriver(uint32_t num_queues, uint32_t mtu)
    : num_queues_(std::clamp<uint32_t>(num_queues, 1, devices::kNicNumQueues)),
      mtu_(std::clamp<uint32_t>(mtu, 68, static_cast<uint32_t>(kern::kJumboMtu))) {
  rx_buffer_size_ = static_cast<uint32_t>(kRxBufferBytes / num_queues_ / kRxDescriptors);
}

std::array<uint8_t, devices::kNicRetaEntries> E1000eDriver::IdentityReta(uint32_t num_queues) {
  std::array<uint8_t, devices::kNicRetaEntries> table{};
  if (num_queues == 0) {
    num_queues = 1;
  }
  for (uint32_t i = 0; i < devices::kNicRetaEntries; ++i) {
    table[i] = static_cast<uint8_t>(i % num_queues);
  }
  return table;
}

Status E1000eDriver::ProgramReta(const std::array<uint8_t, devices::kNicRetaEntries>& table) {
  for (uint32_t i = 0; i < devices::kNicRetaEntries; i += 4) {
    uint32_t value = 0;
    for (uint32_t b = 0; b < 4; ++b) {
      value |= static_cast<uint32_t>(table[i + b]) << (8 * b);
    }
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegReta + i, value));
  }
  return Status::Ok();
}

Status E1000eDriver::ProgramRssKey(const std::array<uint8_t, kern::kRssKeyBytes>& key) {
  static_assert(kern::kRssKeyBytes == 4 * devices::kNicRssKeyDwords,
                "RSSRK register block and the kern key width must agree");
  for (uint32_t i = 0; i < devices::kNicRssKeyDwords; ++i) {
    uint32_t value = 0;
    for (uint32_t b = 0; b < 4; ++b) {
      value |= static_cast<uint32_t>(key[4 * i + b]) << (8 * b);
    }
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRssrk + 4 * i, value));
  }
  return Status::Ok();
}

Status E1000eDriver::ProgramItr(uint32_t itr_units) {
  for (uint32_t q = 0; q < num_queues_; ++q) {
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegEitr + 4 * q, itr_units));
  }
  return Status::Ok();
}

uint64_t E1000eDriver::desc_window_maps() const {
  uint64_t total = 0;
  for (uint32_t q = 0; q < num_queues_; ++q) {
    if (queues_[q].tx_eng != nullptr) {
      total += queues_[q].tx_eng->stats().window_maps;
    }
    if (queues_[q].rx_eng != nullptr) {
      total += queues_[q].rx_eng->stats().window_maps;
    }
  }
  return total;
}

uint64_t E1000eDriver::desc_window_hits() const {
  uint64_t total = 0;
  for (uint32_t q = 0; q < num_queues_; ++q) {
    if (queues_[q].tx_eng != nullptr) {
      total += queues_[q].tx_eng->stats().window_hits;
    }
    if (queues_[q].rx_eng != nullptr) {
      total += queues_[q].rx_eng->stats().window_hits;
    }
  }
  return total;
}

Status E1000eDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());

  // Read the MAC from the receive-address registers (EEPROM-loaded).
  Result<uint32_t> ral = env.MmioRead32(0, devices::kNicRegRal0);
  Result<uint32_t> rah = env.MmioRead32(0, devices::kNicRegRah0);
  if (!ral.ok() || !rah.ok()) {
    return Status(ErrorCode::kUnavailable, "cannot read mac registers");
  }
  uint8_t mac[6];
  StoreLe32(mac, ral.value());
  StoreLe16(mac + 4, static_cast<uint16_t>(rah.value() & 0xffff));

  // DMA allocations in the order that produces Figure 9's layout for one
  // queue (TX rings first, then RX rings, then the two buffer arenas).
  for (uint32_t q = 0; q < num_queues_; ++q) {
    Result<DmaRegion> tx_ring = env.DmaAllocCoherent(kTxDescriptors * 16);
    if (!tx_ring.ok()) {
      return Status(ErrorCode::kExhausted, "dma allocation failed in probe");
    }
    queues_[q].tx_ring = tx_ring.value();
  }
  for (uint32_t q = 0; q < num_queues_; ++q) {
    Result<DmaRegion> rx_ring = env.DmaAllocCoherent(kRxDescriptors * 16);
    if (!rx_ring.ok()) {
      return Status(ErrorCode::kExhausted, "dma allocation failed in probe");
    }
    queues_[q].rx_ring = rx_ring.value();
  }
  Result<DmaRegion> tx_buffers = env.DmaAllocCaching(kTxBufferBytes);
  Result<DmaRegion> rx_buffers = env.DmaAllocCaching(kRxBufferBytes);
  if (!tx_buffers.ok() || !rx_buffers.ok()) {
    return Status(ErrorCode::kExhausted, "dma allocation failed in probe");
  }
  tx_buffers_ = tx_buffers.value();
  rx_buffers_ = rx_buffers.value();
  // TX is zero-copy (shared-pool buffers under SUD, bounce slots in-kernel),
  // so only the RX arena is partitioned per queue.
  for (uint32_t q = 0; q < num_queues_; ++q) {
    queues_[q].rx_buffers_iova = rx_buffers_.iova + static_cast<uint64_t>(q) *
                                                        (kRxBufferBytes / num_queues_);
    queues_[q].tx_slot_buffer.assign(kTxDescriptors, -1);
    queues_[q].tx_slot_eop.assign(kTxDescriptors, 1);
    queues_[q].tx_eng = std::make_unique<hw::DescRingEngine>(&ring_mem_);
    queues_[q].tx_eng->Configure(queues_[q].tx_ring.iova, kTxDescriptors);
    queues_[q].rx_eng = std::make_unique<hw::DescRingEngine>(&ring_mem_);
    queues_[q].rx_eng->Configure(queues_[q].rx_ring.iova, kRxDescriptors);
  }

  uml::NetDriverOps ops;
  ops.open = [this]() { return Open(); };
  ops.stop = [this]() { return Stop(); };
  ops.xmit = [this](std::span<const uml::TxFrag> frags, uint16_t queue) {
    return Xmit(frags, queue);
  };
  ops.sg = true;  // frag skbs arrive as fragment lists, never linearized
  ops.ioctl = [this](uint32_t cmd) { return Ioctl(cmd); };
  ops.num_queues = static_cast<uint16_t>(num_queues_);
  ops.mtu = mtu_;
  SUD_RETURN_IF_ERROR(env.RegisterNetdev(mac, std::move(ops)));

  // Link state is shared-memory state (netif_carrier_*, Section 3.3).
  Result<uint32_t> status_reg = env.MmioRead32(0, devices::kNicRegStatus);
  if (status_reg.ok() && (status_reg.value() & devices::kNicStatusLinkUp) != 0) {
    env.NetifCarrierOn();
  } else {
    env.NetifCarrierOff();
  }
  return Status::Ok();
}

void E1000eDriver::Remove(uml::DriverEnv& env) {
  if (open_) {
    (void)Stop();
  }
}

Status E1000eDriver::ArmRxDescriptor(uint16_t queue, uint32_t index) {
  QueueState& qs = queues_[queue];
  RingDescriptor desc;
  desc.buffer_addr = qs.rx_buffers_iova + static_cast<uint64_t>(index) * rx_buffer_size_;
  return qs.rx_eng->Arm(index, desc);
}

namespace {
// Re-arm attempts per slot per drain pass before the barrier takes over.
constexpr int kRearmRetries = 4;
}  // namespace

void E1000eDriver::DrainRearmBacklog(uint16_t queue, uint64_t rx_base) {
  QueueState& qs = queues_[queue];
  bool advanced = false;
  uint32_t last = 0;
  while (!qs.pending_rearm.empty()) {
    uint32_t index = qs.pending_rearm.front();
    Status armed = ArmRxDescriptor(queue, index);
    for (int retry = 0; !armed.ok() && retry < kRearmRetries; ++retry) {
      stats_.rearm_retries.fetch_add(1, std::memory_order_relaxed);
      armed = ArmRxDescriptor(queue, index);
    }
    if (!armed.ok()) {
      // The slot is still unarmed: leave it (and everything behind it) in
      // the FIFO. The tail stops at the last slot that really is armed; the
      // next reap pass retries from here.
      break;
    }
    qs.pending_rearm.pop_front();
    last = index;
    advanced = true;
  }
  if (advanced) {
    (void)env_->MmioWrite32(0, rx_base + 0x18, last);
  }
}

void E1000eDriver::ArmRxAndAdvanceTail(uint16_t queue, uint32_t index, uint64_t rx_base) {
  queues_[queue].pending_rearm.push_back(index);
  DrainRearmBacklog(queue, rx_base);
}

Status E1000eDriver::Open() {
  // Arena sizing invariants (net_limits.h), asserted at ring setup: every
  // queue's ring of buffer slices must fit its share of the RX arena, the
  // device-effective scatter size must never exceed the driver's slice (a
  // chunk must always fit the buffer it lands in), and the interface's
  // maximum frame must be expressible as a bounded EOP chain. A
  // configuration that violates any of these would make the reassembly
  // bound unsound — refuse it rather than run with it.
  size_t max_frame = kern::MaxFrameBytes(mtu_);
  // (The per-queue slices tile by construction — rx_buffer_size_ is the
  // integer quotient arena / queues / ring — so the checkable invariants are
  // the slice floor and the two chain-bound relations below.)
  if (rx_buffer_size_ < kern::kRxMinBufferBytes) {
    return Status(ErrorCode::kInvalidArgument, "rx buffer slice below the scatter floor");
  }
  uint32_t device_chunk = mtu_ > kern::kStdMtu ? kern::EffectiveRxBufferBytes(rx_buffer_size_)
                                               : kern::EffectiveRxBufferBytes(0);
  if (device_chunk > rx_buffer_size_) {
    return Status(ErrorCode::kInvalidArgument, "device scatter size exceeds the buffer slice");
  }
  if ((max_frame + device_chunk - 1) / device_chunk > kern::kMaxChainFrags) {
    return Status(ErrorCode::kInvalidArgument, "mtu unreachable within the chain bound");
  }

  if (num_queues_ == 1) {
    SUD_RETURN_IF_ERROR(env_->RequestIrq([this]() { IrqHandler(); }));
  } else {
    SUD_RETURN_IF_ERROR(env_->RequestQueueIrqs(
        static_cast<uint16_t>(num_queues_),
        [this](uint16_t queue) { IrqHandlerQueue(queue); }));
  }

  // Program every queue's ring geometry.
  for (uint16_t q = 0; q < num_queues_; ++q) {
    QueueState& qs = queues_[q];
    uint64_t tx_base = QueueRegBase(devices::kNicRegTdbal, q);
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, tx_base + 0x0,
                                          static_cast<uint32_t>(qs.tx_ring.iova)));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, tx_base + 0x4,
                                          static_cast<uint32_t>(qs.tx_ring.iova >> 32)));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, tx_base + 0x8, kTxDescriptors * 16));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, tx_base + 0x10, 0));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, tx_base + 0x18, 0));
    uint64_t rx_base = QueueRegBase(devices::kNicRegRdbal, q);
    // Empty the ring (head == tail) before re-arming it. A device still
    // receiving on a previous driver instance's head and tail would fill
    // descriptors as they are armed, and those stale DD bits would later run
    // the reap ahead of the device, which then owns no descriptor at all.
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x10, 0));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x18, 0));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x0,
                                          static_cast<uint32_t>(qs.rx_ring.iova)));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x4,
                                          static_cast<uint32_t>(qs.rx_ring.iova >> 32)));
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x8, kRxDescriptors * 16));
    if (mtu_ > kern::kStdMtu) {
      // Jumbo only: tell the device how big each descriptor's buffer slice
      // is so it scatters EOP chains at our stride. (Unprogrammed, the
      // device assumes the 2048-byte default — the legacy register sequence
      // stays byte-identical for standard MTUs.)
      SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0xc, rx_buffer_size_));
    }

    // Arm every RX descriptor with one of our RX buffers.
    for (uint32_t i = 0; i < kRxDescriptors; ++i) {
      SUD_RETURN_IF_ERROR(ArmRxDescriptor(q, i));
    }
    qs.rx_next = 0;
    qs.chain.clear();
    qs.chain_bytes = 0;
    qs.skip_to_eop = false;
    qs.pending_rearm.clear();
    // Tail one behind head: the full ring minus one is armed, as on real HW.
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, rx_base + 0x18, kRxDescriptors - 1));
    qs.tx_tail = 0;
    qs.tx_reap = 0;
  }

  // Receive-side scaling: steer flows across the enabled queues with one
  // MSI message per queue (only programmed in multi-queue mode, so the
  // single-queue register sequence stays exactly the legacy one). The RETA
  // starts in the identity layout — the same steering the unprogrammed
  // hash % queues produced — and can be rebalanced live via ProgramReta.
  uint32_t ims = devices::kNicIntTxDone | devices::kNicIntRx;
  if (num_queues_ > 1) {
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegMrqc, num_queues_));
    SUD_RETURN_IF_ERROR(ProgramReta(IdentityReta(num_queues_)));
    for (uint16_t q = 0; q < num_queues_; ++q) {
      ims |= devices::NicIntRxQueue(q) | devices::NicIntTxQueue(q);
    }
  }
  // Enable interrupts for TX writeback and RX.
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegIms, ims));
  // Enable the MACs (LPE for jumbo-capable interfaces).
  uint32_t rctl = devices::kNicRctlEnable;
  if (mtu_ > kern::kStdMtu) {
    rctl |= devices::kNicRctlJumboEnable;
  }
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRctl, rctl));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable));
  open_ = true;
  return Status::Ok();
}

Status E1000eDriver::Stop() {
  open_ = false;
  (void)env_->MmioWrite32(0, devices::kNicRegImc, 0xffffffffu);
  (void)env_->MmioWrite32(0, devices::kNicRegRctl, 0);
  (void)env_->MmioWrite32(0, devices::kNicRegTctl, 0);
  return env_->FreeIrq();
}

Status E1000eDriver::Xmit(std::span<const uml::TxFrag> frags, uint16_t queue) {
  if (!open_) {
    return Status(ErrorCode::kUnavailable, "interface down");
  }
  if (queue >= num_queues_) {
    queue = 0;
  }
  // Bounded exactly like the RX reassembly: the runtime validated the list,
  // but the ring arming re-checks — a chain must fit the cap and the ring.
  if (frags.empty() || frags.size() > kern::kMaxChainFrags ||
      frags.size() >= kTxDescriptors) {
    return Status(ErrorCode::kInvalidArgument, "bad fragment chain");
  }
  QueueState& qs = queues_[queue];
  auto free_slots = [&qs]() {
    return (qs.tx_reap + kTxDescriptors - qs.tx_tail - 1) % kTxDescriptors;
  };
  if (free_slots() < frags.size()) {
    ReapTxCompletions(queue);
    if (free_slots() < frags.size()) {
      // Whole-chain-or-nothing: never arm a partial frame.
      return Status(ErrorCode::kQueueFull, "tx ring full");
    }
  }
  // Zero-copy: point each descriptor at its fragment where it already lives
  // (shared-pool buffers under SUD, bounce slots in-kernel).
  uint32_t chain_start = qs.tx_tail;
  for (size_t i = 0; i < frags.size(); ++i) {
    bool last = i + 1 == frags.size();
    RingDescriptor desc;
    desc.buffer_addr = frags[i].iova;
    desc.length = static_cast<uint16_t>(frags[i].len);
    // Full frags report-status only; the EOP lands on the last fragment.
    desc.cmd = static_cast<uint8_t>(devices::kNicDescCmdReportStatus |
                                    (last ? devices::kNicDescCmdEop : 0));
    Status armed = qs.tx_eng->Arm(qs.tx_tail, desc);
    if (!armed.ok()) {
      // Whole-chain-or-nothing, on failure too: rewind the partial arm (the
      // doorbell was never written, so the device has seen none of it) so no
      // stale no-EOP slot can prefix the next frame or double-free its
      // buffer id at reap time.
      while (qs.tx_tail != chain_start) {
        qs.tx_tail = (qs.tx_tail + kTxDescriptors - 1) % kTxDescriptors;
        qs.tx_slot_buffer[qs.tx_tail] = -1;
        qs.tx_slot_eop[qs.tx_tail] = 1;
      }
      return armed;
    }
    qs.tx_slot_buffer[qs.tx_tail] = frags[i].pool_buffer_id;
    qs.tx_slot_eop[qs.tx_tail] = last ? 1 : 0;
    qs.tx_tail = (qs.tx_tail + 1) % kTxDescriptors;
  }
  stats_.tx_queued.fetch_add(1, std::memory_order_relaxed);
  stats_.tx_desc_queued.fetch_add(frags.size(), std::memory_order_relaxed);
  if (frags.size() > 1) {
    stats_.tx_chains.fetch_add(1, std::memory_order_relaxed);
  }
  // One doorbell for the whole chain.
  return env_->MmioWrite32(0, QueueRegBase(devices::kNicRegTdbal, queue) + 0x18, qs.tx_tail);
}

void E1000eDriver::ReapTxCompletions(uint16_t queue) {
  QueueState& qs = queues_[queue];
  // TX completion coalescing: collect every freed pool buffer id and return
  // the batch in ONE free-buffer downcall at the end of the pass, instead of
  // one downcall per buffer.
  qs.free_scratch.clear();
  // Pass 1: find how far the DD'd descriptors extend, and within them the
  // last EOP boundary — the reap completes on EOP only, so a chain whose
  // tail fragments have no DD yet is left whole for the next pass (its
  // buffers stay owned by the device side until the frame is done).
  uint32_t scan = qs.tx_reap;
  uint32_t stop = qs.tx_reap;
  while (scan != qs.tx_tail) {
    // Acquire DD before trusting the descriptor: the device may be writing
    // back later descriptors of this ring concurrently (its own Tick, or the
    // doorbell path still mid-pass on another thread).
    if (!qs.tx_eng->Done(scan)) {
      break;
    }
    uint32_t next = (scan + 1) % kTxDescriptors;
    if (qs.tx_slot_eop[scan] != 0) {
      stop = next;
    }
    scan = next;
  }
  // Pass 2: retire every completed frame — all of a chain's buffer ids join
  // the one coalesced free batch together.
  while (qs.tx_reap != stop) {
    if (qs.tx_slot_buffer[qs.tx_reap] >= 0) {
      qs.free_scratch.push_back(qs.tx_slot_buffer[qs.tx_reap]);
      qs.tx_slot_buffer[qs.tx_reap] = -1;
    }
    if (qs.tx_slot_eop[qs.tx_reap] != 0) {
      stats_.tx_completed.fetch_add(1, std::memory_order_relaxed);
    }
    qs.tx_reap = (qs.tx_reap + 1) % kTxDescriptors;
  }
  if (!qs.free_scratch.empty()) {
    if (qs.free_scratch.size() > 1) {
      stats_.free_batches.fetch_add(1, std::memory_order_relaxed);
    }
    env_->FreeTxBuffers(queue, qs.free_scratch);
  }
}

void E1000eDriver::RecycleChain(uint16_t queue) {
  QueueState& qs = queues_[queue];
  if (qs.chain.empty()) {
    return;
  }
  for (size_t i = 0; i < qs.chain.size(); ++i) {
    qs.pending_rearm.push_back((qs.chain_start + static_cast<uint32_t>(i)) % kRxDescriptors);
  }
  DrainRearmBacklog(queue, QueueRegBase(devices::kNicRegRdbal, queue));
  qs.chain.clear();
  qs.chain_bytes = 0;
}

void E1000eDriver::ReapRxRing(uint16_t queue) {
  QueueState& qs = queues_[queue];
  uint64_t rx_base = QueueRegBase(devices::kNicRegRdbal, queue);
  size_t max_frame = kern::MaxFrameBytes(mtu_);
  // Slots a previous pass could not re-arm (transient DMA-view fault): retry
  // them first, so the ring recovers its capacity once the fault clears.
  DrainRearmBacklog(queue, rx_base);
  while (true) {
    // The device publishes DD last (release); pair it with an acquire load
    // before trusting the descriptor's other fields — the delivery may be
    // racing on another thread in ANY mode (threaded traffic-generator
    // peers deliver on their own threads even with one queue). A chain whose
    // continuation is not done yet simply waits here: partial chains are
    // never delivered and never recycled.
    if (!qs.rx_eng->Done(qs.rx_next)) {
      return;
    }
    // DD is set and acquire-ordered: the descriptor's fields are stable now.
    Result<NicDescriptor> desc = qs.rx_eng->ReadCompleted(qs.rx_next);
    if (!desc.ok()) {
      return;
    }
    uint32_t index = qs.rx_next;
    bool eop = (desc.value().status & devices::kNicDescStatusEop) != 0;
    qs.rx_next = (qs.rx_next + 1) % kRxDescriptors;

    if (qs.skip_to_eop) {
      // Resyncing after a dropped chain: everything up to AND INCLUDING the
      // EOP that terminates the dropped frame belongs to it — recycling it
      // as-is, never parsing mid-frame tail bytes as a fresh frame.
      ArmRxAndAdvanceTail(queue, index, rx_base);
      if (eop) {
        qs.skip_to_eop = false;
      }
      continue;
    }

    uint64_t buffer_iova =
        qs.rx_buffers_iova + static_cast<uint64_t>(index) * rx_buffer_size_;
    if (qs.chain.empty()) {
      qs.chain_start = index;
    }
    qs.chain.push_back(DmaFrag{buffer_iova, desc.value().length});
    qs.chain_bytes += desc.value().length;

    if (!eop) {
      // Bounded reassembly: a chain that outgrows the interface's maximum
      // frame or the descriptor cap without ever presenting EOP is the
      // torn/endless-chain attack (or a corrupted ring). Drop what was
      // collected, count it, recycle the descriptors, and skip to the EOP
      // boundary before parsing anything as a new frame — the driver stays
      // live no matter what descriptor memory claims.
      if (qs.chain.size() >= kern::kMaxChainFrags || qs.chain_bytes > max_frame) {
        stats_.rx_chain_dropped.fetch_add(1, std::memory_order_relaxed);
        RecycleChain(queue);
        qs.skip_to_eop = true;
      }
      continue;
    }

    // EOP: the frame is complete. Oversize totals are dropped like the
    // no-EOP overflow above (the device never produces them; forged rings
    // can).
    if (qs.chain_bytes > max_frame) {
      stats_.rx_chain_dropped.fetch_add(1, std::memory_order_relaxed);
      RecycleChain(queue);
      continue;
    }
    // One netif_rx per frame, then the frame's descriptors go back to the
    // device with one tail write (arm + tail write per one-descriptor frame).
    (void)env_->NetifRx(qs.chain, queue);
    stats_.rx_delivered.fetch_add(1, std::memory_order_relaxed);
    if (qs.chain.size() > 1) {
      stats_.rx_chains.fetch_add(1, std::memory_order_relaxed);
    }
    RecycleChain(queue);
  }
}

void E1000eDriver::IrqHandler() {
  stats_.interrupts.fetch_add(1, std::memory_order_relaxed);
  Result<uint32_t> icr = env_->MmioRead32(0, devices::kNicRegIcr);  // read-clears
  if (!icr.ok()) {
    return;
  }
  if ((icr.value() & devices::kNicIntTxDone) != 0) {
    ReapTxCompletions(0);
  }
  if ((icr.value() & devices::kNicIntRx) != 0) {
    ReapRxRing(0);
  }
}

void E1000eDriver::IrqHandlerQueue(uint16_t queue) {
  stats_.interrupts.fetch_add(1, std::memory_order_relaxed);
  if (queue >= num_queues_) {
    return;
  }
  // MSI-X style: the message number identifies the queue; there is no shared
  // cause register to read (and none this handler may touch — another
  // queue's thread might be in its own handler right now).
  ReapTxCompletions(queue);
  ReapRxRing(queue);
}

Result<std::string> E1000eDriver::Ioctl(uint32_t cmd) {
  if (cmd != kern::kIoctlGetMiiStatus) {
    return Status(ErrorCode::kInvalidArgument, "unsupported ioctl");
  }
  // MII read of BMSR through MDIC, like nic_read_mii in Figure 2.
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegMdic, (2u << 26) | (1u << 16)));
  Result<uint32_t> mdic = env_->MmioRead32(0, devices::kNicRegMdic);
  if (!mdic.ok()) {
    return mdic.status();
  }
  bool link_up = (mdic.value() & (1u << 2)) != 0;
  return std::string(link_up ? "link up 1000Mb/s" : "link down");
}

}  // namespace sud::drivers
