#include "src/drivers/malicious.h"

#include <cstring>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/hw/iommu.h"
#include "src/hw/pci_config.h"
#include "src/kern/net_limits.h"

namespace sud::drivers {

namespace {

// Writes one legacy NIC descriptor into driver-owned ring memory.
Status WriteDescRaw(uml::DriverEnv& env, uint64_t ring_iova, uint32_t index, uint64_t buffer_addr,
                    uint16_t len, uint8_t cmd) {
  Result<ByteSpan> view = env.DmaView(ring_iova + static_cast<uint64_t>(index) * 16, 16);
  if (!view.ok()) {
    return view.status();
  }
  uint8_t* raw = view.value().data();
  std::memset(raw, 0, 16);
  StoreLe64(raw, buffer_addr);
  StoreLe16(raw + 8, len);
  raw[11] = cmd;
  return Status::Ok();
}

}  // namespace

Status DmaAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  Result<DmaRegion> ring = env.DmaAllocCoherent(16 * 16);  // a tiny 16-slot ring
  if (!ring.ok()) {
    return ring.status();
  }
  ring_ = ring.value();
  return Status::Ok();
}

Status DmaAttackDriver::LaunchTxRead() {
  // TX descriptor whose "packet" is the attack target: the device will try
  // to DMA-*read* from it and transmit the loot.
  SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, 0, target_addr_, 64,
                                   devices::kNicDescCmdEop));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdlen, 16 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable));
  ++doorbell_writes_;
  return env_->MmioWrite32(0, devices::kNicRegTdt, 1);
}

Status DmaAttackDriver::LaunchRxWrite() {
  // Armed RX descriptor whose buffer is the target: the next incoming frame
  // makes the device DMA-*write* attacker-influenced bytes there.
  SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, 0, target_addr_, 0, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdlen, 16 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdt, 1));
  ++doorbell_writes_;
  return env_->MmioWrite32(0, devices::kNicRegRctl, devices::kNicRctlEnable);
}

Status MsiStormDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  Result<DmaRegion> ring = env.DmaAllocCoherent(256 * 16);
  if (!ring.ok()) {
    return ring.status();
  }
  ring_ = ring.value();
  return Status::Ok();
}

Status MsiStormDriver::Arm(uint32_t descriptors) {
  // Every RX buffer is the MSI doorbell. An incoming frame whose first two
  // bytes are (vector, 0) becomes an interrupt with that vector.
  for (uint32_t i = 0; i < descriptors && i < 256; ++i) {
    SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, i, hw::kMsiRangeBase, 0, 0));
  }
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdlen, 256 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegRdt, descriptors % 256));
  return env_->MmioWrite32(0, devices::kNicRegRctl, devices::kNicRctlEnable);
}

Status NeverAckDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  // Registers an IRQ handler that does nothing and never acknowledges.
  // Under SUD the runtime normally acks after the handler; this driver
  // bypasses the runtime loop, so interrupts stay unacknowledged.
  Result<DmaRegion> ring = env.DmaAllocCoherent(16 * 16);
  if (!ring.ok()) {
    return ring.status();
  }
  ring_ = ring.value();
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegIms, 0xffffffffu));
  return Status::Ok();
}

Status NeverAckDriver::TriggerInterrupt() {
  // Clear ICR (as a functioning interrupt handler would) so the next cause
  // asserts a fresh edge — but never send the SUD interrupt_ack downcall.
  (void)env_->MmioRead32(0, devices::kNicRegIcr);
  // A 1-descriptor transmit makes the device raise TXDW.
  SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, 0, ring_.iova + 128, 64,
                                   devices::kNicDescCmdEop));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdlen, 16 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable));
  return env_->MmioWrite32(0, devices::kNicRegTdt, 1);
}

Status UnresponsiveDriver::Probe(uml::DriverEnv& env) {
  // Registers a netdev with no ops. Were it serviced, the runtime would
  // answer each sync upcall kUnavailable (an op the driver never registered);
  // comatose, it leaves them unanswered, which is the hang the kernel must
  // survive.
  uint8_t mac[6] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  return env.RegisterNetdev(mac, uml::NetDriverOps{});
}

Status ConfigAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  struct Attempt {
    uint16_t offset;
    int width;
    uint32_t value;
  };
  const Attempt attempts[] = {
      {hw::kPciBar0, 4, 0xfee00000u},         // relocate BAR over the MSI window
      {hw::kPciBar0 + 4, 4, 0xe0000000u},     // relocate over a sibling device
      {hw::kMsiAddress, 4, 0x1000u},          // redirect MSI doorbell into DRAM
      {hw::kMsiData, 2, 0x00feu},             // forge the interrupt vector
      {hw::kMsiControl, 2, 0x0000u},          // disable kernel's mask control
      {hw::kPciCapPointer, 1, 0x00u},         // hide the capability chain
      {hw::kPciCommand, 2, 0xffffu},          // set every command bit (SERR etc.)
      {hw::kPciInterruptLine, 1, 0x0au},      // legacy interrupt rerouting
  };
  for (const Attempt& attempt : attempts) {
    ++outcome_.attempts;
    Status status = env.PciConfigWrite(attempt.offset, attempt.width, attempt.value);
    if (status.ok()) {
      ++outcome_.succeeded;
    } else {
      ++outcome_.denied;
    }
  }
  return Status::Ok();
}

Status IoPortAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  // Classic targets: keyboard controller, PIC, PCI config mechanism, and a
  // neighbour's probable IO BAR.
  const uint16_t targets[] = {0x60, 0x64, 0x20, 0xcf8, 0xcfc, 0xc000};
  for (uint16_t port : targets) {
    ++attempts_;
    if (!env.IoWrite8(port, 0xff).ok()) {
      ++denied_;
    }
  }
  return Status::Ok();
}

Status BogusRxDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  // Register a plausible netdev so netif_rx downcalls reach the proxy's
  // address validation (the attack surface under test).
  uint8_t mac[6] = {0xba, 0xdb, 0xad, 0x00, 0x00, 0x01};
  uml::NetDriverOps ops;
  ops.open = []() { return Status::Ok(); };
  ops.stop = []() { return Status::Ok(); };
  return env.RegisterNetdev(mac, std::move(ops));
}

Result<int> BogusRxDriver::Fire(int count) {
  int accepted = 0;
  const uint64_t wild_iovas[] = {0x0, 0x1000, 0xfee00000ull, 0xffffffff00000000ull, 0x42000000ull};
  for (int i = 0; i < count; ++i) {
    uint64_t iova = wild_iovas[i % (sizeof(wild_iovas) / sizeof(wild_iovas[0]))];
    DmaFrag frame{iova, (i % 2 == 0) ? 1514u : 0xffffu};
    if (env_->NetifRx({&frame, 1}).ok()) {
      // Async downcall: acceptance means the proxy processed it without
      // complaint — the flush path returns per-message errors via msg.error,
      // which NetifRx folds into its Status on the synchronous flush.
      ++accepted;
    }
  }
  return accepted;
}

Status RetaAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  // Full multi-queue mode, every hash bucket aimed at the victim, receive
  // enabled with NO descriptors armed anywhere: every delivered frame can
  // only pile into the victim queue's bounded backlog and then drop.
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegMrqc, devices::kNicNumQueues));
  SUD_RETURN_IF_ERROR(Concentrate());
  return env.MmioWrite32(0, devices::kNicRegRctl, devices::kNicRctlEnable);
}

Status RetaAttackDriver::Concentrate() {
  uint32_t packed = static_cast<uint32_t>(victim_queue_) * 0x01010101u;
  for (uint32_t i = 0; i < devices::kNicRetaEntries; i += 4) {
    SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegReta + i, packed));
  }
  return Status::Ok();
}

Status DupDeliveryDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  uint8_t mac[6] = {0xba, 0xdc, 0x8a, 0x00, 0x00, 0x07};
  uml::NetDriverOps ops;
  ops.open = []() { return Status::Ok(); };
  ops.stop = []() { return Status::Ok(); };
  SUD_RETURN_IF_ERROR(env.RegisterNetdev(mac, std::move(ops)));
  // One page: the whole attack is aimed at that page's seal refcount.
  Result<DmaRegion> buffers = env.DmaAllocCaching(hw::kPageSize);
  if (!buffers.ok()) {
    return buffers.status();
  }
  buffers_ = buffers.value();
  return Status::Ok();
}

Result<int> DupDeliveryDriver::DeliverSameBuffer(ConstByteSpan frame, int times) {
  Result<ByteSpan> view = env_->DmaView(buffers_.iova, frame.size());
  if (!view.ok()) {
    return view.status();
  }
  std::memcpy(view.value().data(), frame.data(), frame.size());
  DmaFrag delivery{buffers_.iova, static_cast<uint32_t>(frame.size())};
  int accepted = 0;
  for (int i = 0; i < times; ++i) {
    if (env_->NetifRx({&delivery, 1}).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Status ChainAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  // A plausible netdev so the chain downcalls reach the proxy's validation,
  // plus a real DMA region so the "oversize but in-bounds" chains cannot be
  // rejected for their addresses alone.
  uint8_t mac[6] = {0xba, 0xdc, 0x8a, 0x00, 0x00, 0x02};
  uml::NetDriverOps ops;
  ops.open = []() { return Status::Ok(); };
  ops.stop = []() { return Status::Ok(); };
  SUD_RETURN_IF_ERROR(env.RegisterNetdev(mac, std::move(ops)));
  Result<DmaRegion> buffers = env.DmaAllocCaching(64 * 1024);
  if (!buffers.ok()) {
    return buffers.status();
  }
  buffers_ = buffers.value();
  return Status::Ok();
}

Result<int> ChainAttackDriver::FireOversizeChains(int count) {
  // Every fragment is a real, mapped buffer — only the TOTAL is criminal:
  // eight 2048-byte fragments claim a 16 KB "frame", past the jumbo maximum.
  int accepted = 0;
  for (int i = 0; i < count; ++i) {
    std::vector<DmaFrag> frags(8, DmaFrag{buffers_.iova, 2048});
    if (env_->NetifRx(frags).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Result<int> ChainAttackDriver::FireOverCapChains(int count) {
  // More fragments than any legal chain can span (the endless-chain shape,
  // marshalled): tiny fragments, absurd count.
  int accepted = 0;
  for (int i = 0; i < count; ++i) {
    std::vector<DmaFrag> frags(kern::kMaxChainFrags + 8, DmaFrag{buffers_.iova, 64});
    if (env_->NetifRx(frags).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Result<int> ChainAttackDriver::FireWildChains(int count) {
  // A torn chain whose continuation points at kernel memory / the MSI page /
  // nowhere: the first fragment is legitimate, the rest must never be
  // dereferenced.
  const uint64_t wild_iovas[] = {0x0, 0x1000, 0xfee00000ull, 0xffffffff00000000ull};
  int accepted = 0;
  for (int i = 0; i < count; ++i) {
    std::vector<DmaFrag> frags;
    frags.push_back(DmaFrag{buffers_.iova, 1024});
    frags.push_back(DmaFrag{
        wild_iovas[static_cast<size_t>(i) % (sizeof(wild_iovas) / sizeof(wild_iovas[0]))],
        1024});
    if (env_->NetifRx(frags).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

Status TxChainAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  Result<DmaRegion> ring = env.DmaAllocCoherent(kRingSlots * 16);
  if (!ring.ok()) {
    return ring.status();
  }
  ring_ = ring.value();
  Result<DmaRegion> buffers = env.DmaAllocCaching(kRingSlots * kFragLen);
  if (!buffers.ok()) {
    return buffers.status();
  }
  buffers_ = buffers.value();
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegTdbal,
                                      static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegTdbah,
                                      static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegTdlen, kRingSlots * 16));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegTdh, 0));
  SUD_RETURN_IF_ERROR(env.MmioWrite32(0, devices::kNicRegTdt, 0));
  return env.MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable);
}

Status TxChainAttackDriver::ArmFrag(uint16_t len, uint8_t cmd, uint8_t pattern) {
  uint32_t slot = tail_ % kRingSlots;
  uint64_t buffer = buffers_.iova + static_cast<uint64_t>(slot) * kFragLen;
  Result<ByteSpan> view = env_->DmaView(buffer, kFragLen);
  if (!view.ok()) {
    return view.status();
  }
  std::memset(view.value().data(), pattern, kFragLen);
  SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, slot, buffer, len, cmd));
  tail_ = (tail_ + 1) % kRingSlots;
  return Status::Ok();
}

Status TxChainAttackDriver::Doorbell() {
  return env_->MmioWrite32(0, devices::kNicRegTdt, tail_);
}

Result<uint32_t> TxChainAttackDriver::FireEndlessChain(uint8_t pattern) {
  // The whole ring (minus the reserved slot), not a single EOP anywhere.
  uint32_t armed = 0;
  for (; armed < kRingSlots - 1; ++armed) {
    SUD_RETURN_IF_ERROR(ArmFrag(kFragLen, /*cmd=*/0, pattern));
  }
  SUD_RETURN_IF_ERROR(Doorbell());
  return armed;
}

Status TxChainAttackDriver::FireTornChain(uint32_t frags, uint8_t pattern) {
  for (uint32_t i = 0; i < frags; ++i) {
    SUD_RETURN_IF_ERROR(ArmFrag(kFragLen, /*cmd=*/0, pattern));
  }
  return Doorbell();
}

Status TxChainAttackDriver::FinishTornChain(uint8_t pattern) {
  SUD_RETURN_IF_ERROR(ArmFrag(kFragLen, devices::kNicDescCmdEop, pattern));
  return Doorbell();
}

Status TxChainAttackDriver::FireOverCapChain(uint32_t extra, uint8_t pattern) {
  // Tiny fragments so the DESCRIPTOR cap trips (the endless chain above
  // trips the byte bound first): more frags than any legal chain, EOP at the
  // very end — which the resync must consume with the dropped frame.
  constexpr uint16_t kTinyFrag = 64;
  uint32_t frags = static_cast<uint32_t>(kern::kMaxChainFrags) + extra;
  if (frags > kRingSlots - 1) {
    frags = kRingSlots - 1;
  }
  for (uint32_t i = 0; i + 1 < frags; ++i) {
    SUD_RETURN_IF_ERROR(ArmFrag(kTinyFrag, /*cmd=*/0, pattern));
  }
  SUD_RETURN_IF_ERROR(ArmFrag(kTinyFrag, devices::kNicDescCmdEop, pattern));
  return Doorbell();
}

Status TxChainAttackDriver::SendGoodFrame(uint8_t pattern, uint16_t len) {
  SUD_RETURN_IF_ERROR(ArmFrag(len, devices::kNicDescCmdEop, pattern));
  return Doorbell();
}

Status BufferReuseAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  uint8_t mac[6] = {0xba, 0xdf, 0x4e, 0x00, 0x00, 0x03};
  uml::NetDriverOps ops;
  ops.open = []() { return Status::Ok(); };
  ops.stop = []() { return Status::Ok(); };
  return env.RegisterNetdev(mac, std::move(ops));
}

Status BufferReuseAttackDriver::FireReusedFrees(int32_t id, int times) {
  // One coalesced completion batch that "frees" the same buffer id over and
  // over, plus an id the pool never handed out — the marshalled form of a
  // chain completing with duplicated fragment buffers.
  std::vector<int32_t> ids(static_cast<size_t>(times), id);
  ids.push_back(0x7ffffff0);
  env_->FreeTxBuffers(0, ids);
  return Status::Ok();
}

Status StaleReplayDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  uint8_t mac[6] = {0xba, 0xd5, 0x7a, 0x00, 0x00, 0x04};
  uml::NetDriverOps ops;
  ops.open = []() { return Status::Ok(); };
  ops.stop = []() { return Status::Ok(); };
  // Accept every transmit, stash the handle, never free: the handle leaks
  // into attacker-persisted storage and the staging buffer stays in flight
  // (what Teardown must quarantine when this instance is killed).
  ops.xmit = [this](std::span<const uml::TxFrag> frags, uint16_t) {
    for (const uml::TxFrag& frag : frags) {
      if (frag.pool_buffer_id >= 0) {
        notebook_->push_back(frag.pool_buffer_id);
      }
    }
    return Status::Ok();
  };
  return env.RegisterNetdev(mac, std::move(ops));
}

Status StaleReplayDriver::ReplayFrees() { return ReplayFreesWith({}); }

Status StaleReplayDriver::ReplayFreesWith(const std::vector<int32_t>& current) {
  std::vector<int32_t> ids = *notebook_;
  ids.insert(ids.end(), current.begin(), current.end());
  if (ids.empty()) {
    return Status(ErrorCode::kInvalidArgument, "nothing to replay");
  }
  env_->FreeTxBuffers(0, ids);
  return Status::Ok();
}

Status DescRewriteAttackDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  SUD_RETURN_IF_ERROR(env.PciEnableDevice());
  SUD_RETURN_IF_ERROR(env.PciSetMaster());
  Result<DmaRegion> ring = env.DmaAllocCoherent(16 * 16);
  if (!ring.ok()) {
    return ring.status();
  }
  ring_ = ring.value();
  Result<DmaRegion> buffers = env.DmaAllocCaching(16 * kFrameLen);
  if (!buffers.ok()) {
    return buffers.status();
  }
  buffers_ = buffers.value();
  return Status::Ok();
}

Status DescRewriteAttackDriver::ArmAndDoorbell(uint32_t descriptors, uint8_t pattern) {
  if (descriptors > 15) {
    descriptors = 15;  // 16-slot ring, tail must stay one short of head
  }
  Result<ByteSpan> buffers = env_->DmaView(buffers_.iova, buffers_.bytes);
  if (!buffers.ok()) {
    return buffers.status();
  }
  std::memset(buffers.value().data(), pattern, buffers.value().size());
  for (uint32_t i = 0; i < descriptors; ++i) {
    SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, i,
                                     buffers_.iova + static_cast<uint64_t>(i) * kFrameLen,
                                     kFrameLen, devices::kNicDescCmdEop));
  }
  armed_ = descriptors;
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdlen, 16 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable));
  return env_->MmioWrite32(0, devices::kNicRegTdt, descriptors);
}

Status DescRewriteAttackDriver::ArmChainAndDoorbell(uint32_t chain_frags, uint8_t pattern) {
  if (chain_frags == 0 || chain_frags > 14) {
    return Status(ErrorCode::kInvalidArgument, "chain must fit the 16-slot ring");
  }
  Result<ByteSpan> buffers = env_->DmaView(buffers_.iova, buffers_.bytes);
  if (!buffers.ok()) {
    return buffers.status();
  }
  std::memset(buffers.value().data(), pattern, buffers.value().size());
  // Slot 0: a single-descriptor lead frame — its wire hop is the rewrite
  // window. Slots 1..chain_frags: ONE frame as an SG chain, EOP only on the
  // last fragment.
  SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, 0, buffers_.iova, kFrameLen,
                                   devices::kNicDescCmdEop));
  for (uint32_t i = 1; i <= chain_frags; ++i) {
    uint8_t cmd = i == chain_frags ? devices::kNicDescCmdEop : 0;
    SUD_RETURN_IF_ERROR(WriteDescRaw(*env_, ring_.iova, i,
                                     buffers_.iova + static_cast<uint64_t>(i) * kFrameLen,
                                     kFrameLen, cmd));
  }
  armed_ = chain_frags + 1;
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbal,
                                        static_cast<uint32_t>(ring_.iova)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdbah,
                                        static_cast<uint32_t>(ring_.iova >> 32)));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdlen, 16 * 16));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTdh, 0));
  SUD_RETURN_IF_ERROR(env_->MmioWrite32(0, devices::kNicRegTctl, devices::kNicTctlEnable));
  return env_->MmioWrite32(0, devices::kNicRegTdt, armed_);
}

void DescRewriteAttackDriver::RewriteDescriptors(uint32_t from, uint32_t to,
                                                 uint64_t target_addr, uint16_t len) {
  for (uint32_t i = from; i < to && i < 15; ++i) {
    (void)WriteDescRaw(*env_, ring_.iova, i, target_addr, len, devices::kNicDescCmdEop);
  }
}

Status DescRewriteAttackDriver::RedoorbellSameTail() {
  return env_->MmioWrite32(0, devices::kNicRegTdt, armed_);
}

Status ResourceHogDriver::Probe(uml::DriverEnv& env) {
  env_ = &env;
  // Grab 1 MB at a time until the rlimit (or DRAM) stops us.
  for (int i = 0; i < 4096; ++i) {
    Result<DmaRegion> region = env.DmaAllocCoherent(1024 * 1024);
    if (!region.ok()) {
      hit_limit_ = true;
      break;
    }
    bytes_obtained_ += region.value().bytes;
  }
  return Status::Ok();
}

}  // namespace sud::drivers
