// Section 5.2's security evaluation as executable tests: every attack from
// the malicious-driver family is launched against the full stack, and the
// assertions state exactly what the paper claims SUD confines (and the one
// thing its testbed could not — the Intel-without-IR MSI livelock).

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/base/log.h"
#include "src/devices/wifi_nic.h"
#include "src/drivers/iwl.h"
#include "src/drivers/malicious.h"
#include "src/sud/proxy_wireless.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kDriverUid;
using testing::NetBench;

// ---- DMA attacks -------------------------------------------------------------

TEST(Security, ArbitraryDmaReadIsBlocked) {
  NetBench bench;
  // Plant a secret in "kernel" physical memory.
  uint64_t secret_paddr = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> secret(64, 0x5e);
  ASSERT_TRUE(bench.machine.dram().Write(secret_paddr, {secret.data(), secret.size()}).ok());

  auto attack = std::make_unique<drivers::DmaAttackDriver>(secret_paddr);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  LogCapture capture;
  ASSERT_TRUE(attack_ptr->LaunchTxRead().ok());  // the doorbell write itself succeeds

  // The device's descriptor pointed at the secret, but the DMA read faulted
  // in the IOMMU: nothing was transmitted and a fault was logged.
  EXPECT_EQ(bench.link.stats().frames[0], 0u);
  EXPECT_GE(bench.machine.iommu().faults().size(), 1u);
  EXPECT_TRUE(capture.Contains("iommu fault"));
  EXPECT_GE(bench.sut_nic.stats().dma_errors, 1u);
}

TEST(Security, ArbitraryDmaWriteIsBlocked) {
  NetBench bench;
  uint64_t victim_paddr = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> before(64);
  ASSERT_TRUE(bench.machine.dram().Read(victim_paddr, {before.data(), before.size()}).ok());

  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim_paddr);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->LaunchRxWrite().ok());

  // Trigger the device write with an incoming frame.
  std::vector<uint8_t> payload(64, 0xEE);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});

  // Victim memory is untouched; the IOMMU faulted the write.
  std::vector<uint8_t> after(64);
  ASSERT_TRUE(bench.machine.dram().Read(victim_paddr, {after.data(), after.size()}).ok());
  EXPECT_EQ(before, after);
  EXPECT_GE(bench.machine.iommu().faults().size(), 1u);
}

TEST(Security, DmaIntoAnotherDriversMemoryIsBlocked) {
  // Target the *physical* page backing the peer driver's first DMA region
  // (its TX descriptor ring). IOMMU contexts are per-requester-id, so the
  // attacker's device cannot reach it no matter what address it emits.
  NetBench bench;
  uint16_t peer_source = bench.peer_nic.address().source_id();
  auto peer_maps = bench.machine.iommu().WalkMappings(peer_source);
  ASSERT_FALSE(peer_maps.empty());
  // Pick a page inside the peer's RX *buffer* region (idle during this
  // test — the peer only transmits). The peer's DMA regions are allocated
  // contiguously from 0x42430000, so index by IOVA offset.
  uint64_t victim_paddr = 0;
  const uint64_t rx_buffers_iova = kDmaIovaBase + 0x803000;  // Figure 9 layout
  for (const hw::IoMapping& m : peer_maps) {
    if (!m.implicit_msi && m.iova_start <= rx_buffers_iova && rx_buffers_iova < m.iova_end) {
      victim_paddr = m.paddr_start + (rx_buffers_iova - m.iova_start) + 0x2000;
      break;
    }
  }
  ASSERT_NE(victim_paddr, 0u);
  std::vector<uint8_t> before(64);
  ASSERT_TRUE(bench.machine.dram().Read(victim_paddr, {before.data(), before.size()}).ok());

  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim_paddr);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->LaunchRxWrite().ok());
  std::vector<uint8_t> payload(64, 0x66);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});

  std::vector<uint8_t> after(64);
  ASSERT_TRUE(bench.machine.dram().Read(victim_paddr, {after.data(), after.size()}).ok());
  EXPECT_EQ(before, after);
  EXPECT_GE(bench.machine.iommu().faults().size(), 1u);
}

// ---- peer-to-peer attacks -----------------------------------------------------

TEST(Security, PeerToPeerDmaSucceedsWithoutAcs) {
  // The vulnerable configuration: ACS off, as PCI hardware powers up.
  NetBench::Options options;
  options.policy.enable_acs = false;
  NetBench bench(options);

  uint64_t victim_bar = bench.peer_nic.config().bar(0);
  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim_bar + devices::kNicRegTdbal);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  LogCapture capture;
  ASSERT_TRUE(attack_ptr->LaunchRxWrite().ok());
  std::vector<uint8_t> payload(64, 0xEE);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});

  // Without ACS the switch routed the DMA straight into the peer NIC's
  // registers: the attack lands (and the model logs it).
  EXPECT_GE(bench.sw->p2p_deliveries(), 1u);
  EXPECT_TRUE(capture.Contains("peer-to-peer"));
}

TEST(Security, PeerToPeerDmaBlockedWithAcs) {
  NetBench bench;  // default policy: ACS on (SUD's configuration)
  uint64_t victim_bar = bench.peer_nic.config().bar(0);
  uint32_t victim_tdbal_before = bench.peer_nic.MmioRead(0, devices::kNicRegTdbal);

  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim_bar + devices::kNicRegTdbal);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->LaunchRxWrite().ok());
  std::vector<uint8_t> payload(64, 0xEE);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});

  // P2P redirect forced the transaction up to the root, where the IOMMU
  // faulted it (BAR addresses are never mapped in IO page tables).
  EXPECT_EQ(bench.sw->p2p_deliveries(), 0u);
  EXPECT_GE(bench.machine.iommu().faults().size(), 1u);
  EXPECT_EQ(bench.peer_nic.MmioRead(0, devices::kNicRegTdbal), victim_tdbal_before);
}

TEST(Security, SourceValidationDropsSpoofedRequesterId) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  // Model a compromised device lying about its requester id (the hardware
  // misbehaviour ACS source validation exists for).
  bench.sut_nic.set_spoofed_source_id(bench.peer_nic.address().source_id());

  LogCapture capture;
  std::vector<uint8_t> payload(64, 0x1);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});

  EXPECT_GE(bench.sw->blocked_by_source_validation(), 1u);
  EXPECT_TRUE(capture.Contains("source validation"));
  bench.sut_nic.set_spoofed_source_id(std::nullopt);
}

// ---- interrupt attacks ---------------------------------------------------------

TEST(Security, UnackedInterruptsGetMasked) {
  NetBench bench;
  auto attack = std::make_unique<drivers::NeverAckDriver>();
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  // First interrupt: forwarded. Second (never acked): SUD masks MSI.
  ASSERT_TRUE(attack_ptr->TriggerInterrupt().ok());
  ASSERT_TRUE(attack_ptr->TriggerInterrupt().ok());
  ASSERT_TRUE(attack_ptr->TriggerInterrupt().ok());

  const SudDeviceContext::InterruptStats& stats = bench.ctx->interrupt_stats();
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_GE(stats.mask_events, 1u);
  EXPECT_TRUE(bench.sut_nic.config().msi_masked());
  // The SUT's vector fired at most twice (one forwarded + one that caused
  // the mask); the third trigger pended in the device. (interrupts_handled
  // is machine-global and also counts the peer NIC receiving our frames.)
  EXPECT_LE(bench.machine.msi().delivered(bench.ctx->irq_vector()), 2u);
}

TEST(Security, InterruptAckUnmasksAndRedelivers) {
  NetBench bench;
  auto attack = std::make_unique<drivers::NeverAckDriver>();
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->TriggerInterrupt().ok());
  ASSERT_TRUE(attack_ptr->TriggerInterrupt().ok());
  ASSERT_TRUE(bench.sut_nic.config().msi_masked());

  // The (eventually cooperative) driver acks: unmask + pended MSI fires.
  uint64_t handled_before = bench.kernel.interrupts_handled();
  ASSERT_TRUE(bench.ctx->InterruptAck(0).ok());
  EXPECT_FALSE(bench.sut_nic.config().msi_masked());
  EXPECT_GE(bench.kernel.interrupts_handled(), handled_before);
}

TEST(Security, StrayDmaMsiStormIsUnstoppableOnIntelWithoutIr) {
  // The paper's own negative result (§5.2): Intel VT-d's implicit MSI
  // mapping cannot be removed and the testbed lacked interrupt remapping.
  NetBench bench;  // default machine: Intel mode, no IR
  auto attack = std::make_unique<drivers::MsiStormDriver>(77);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->Arm(128).ok());

  LogCapture capture;
  // Every frame the peer sends is DMA'd to the MSI window: forged vectors.
  std::vector<uint8_t> payload(64);
  payload[0] = attack_ptr->forged_vector();
  for (int i = 0; i < 32; ++i) {
    auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, 1, 80,
                                   {payload.data(), payload.size()});
    // Bypass the packet header so byte 0 of the *frame* is the vector: write
    // the raw frame straight onto the link.
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  // MSI writes reached the controller despite any masking: VT-d's implicit
  // mapping allows them through. Deliveries happened (or were spurious).
  EXPECT_GE(bench.machine.msi().total_delivered(), 1u);
  EXPECT_TRUE(capture.Contains("stray") || capture.Contains("spurious") ||
              capture.Contains("forged") || capture.Contains("livelock") ||
              bench.kernel.spurious_interrupts() > 0);
}

TEST(Security, StrayDmaMsiStormBlockedWithInterruptRemapping) {
  NetBench::Options options;
  options.machine.interrupt_remapping = true;
  NetBench bench(options);
  auto attack = std::make_unique<drivers::MsiStormDriver>(77);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->Arm(128).ok());

  uint64_t handled_before = bench.kernel.interrupts_handled();
  std::vector<uint8_t> frame(64);
  frame[0] = 99;  // forged vector not in the remap table for this source
  for (int i = 0; i < 32; ++i) {
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  // The remapping table has no entry for (attacker source, vector 99):
  // every forged MSI was blocked before reaching the CPU.
  EXPECT_EQ(bench.kernel.interrupts_handled(), handled_before);
  EXPECT_GE(bench.machine.msi().blocked(), 32u);
}

TEST(Security, StrayDmaMsiStormStoppedOnAmdByUnmapping) {
  NetBench::Options options;
  options.machine.iommu_mode = hw::IommuMode::kAmdVi;
  NetBench bench(options);
  auto attack = std::make_unique<drivers::MsiStormDriver>(0);
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  ASSERT_TRUE(attack_ptr->Arm(128).ok());

  // Forge the SUT's own vector so deliveries hit its context and the storm
  // detector sees them.
  std::vector<uint8_t> frame(64);
  frame[0] = bench.ctx->irq_vector();
  for (int i = 0; i < 64; ++i) {
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  // AMD-Vi: SUD unmapped the attacker's MSI page; the storm stopped and
  // later writes fault instead of interrupting.
  EXPECT_TRUE(bench.ctx->interrupt_stats().msi_page_unmapped ||
              bench.ctx->interrupt_stats().mask_events > 0);
  uint64_t delivered_at_cutoff = bench.machine.msi().total_delivered();
  for (int i = 0; i < 16; ++i) {
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  if (bench.ctx->interrupt_stats().msi_page_unmapped) {
    EXPECT_EQ(bench.machine.msi().total_delivered(), delivered_at_cutoff);
  }
}

// ---- liveness attacks -----------------------------------------------------------

TEST(Security, SyncUpcallToUnresponsiveDriverIsInterruptable) {
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 30;  // fast test
  NetBench bench(options);
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                                uml::DriverHost::Mode::kComatose)
                  .ok());
  // ifconfig up: the open upcall gets no reply; the kernel thread does NOT
  // hang — it returns an error after the (interruptable) timeout.
  Status status = bench.kernel.net().BringUp("eth0");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTimedOut);
  (void)bench.host->Kill();
}

// Plays the driver of a comatose host for one synchronous upcall: waits for
// `opcode` on the control shard and answers it with `reply`.
void ForgeReply(SudDeviceContext* ctx, uint32_t opcode, UchanMsg reply) {
  std::vector<UchanMsg> batch;
  while (ctx->ctl().WaitBatch(2000, 8, &batch).ok()) {
    for (const UchanMsg& msg : batch) {
      if (msg.opcode == opcode) {
        ctx->ctl().Reply(msg, std::move(reply));
        return;
      }
    }
  }
}

TEST(Security, ReplyErrorCodeNamingNoErrorFailsBringUp) {
  // The driver's error code is its word: 256 would wrap to kOk in the enum's
  // byte, and ifconfig up would then succeed on a driver that said no.
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 2000;
  NetBench bench(options);
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                                uml::DriverHost::Mode::kComatose)
                  .ok());
  UchanMsg reply;
  reply.error = 256;
  std::thread driver(ForgeReply, bench.ctx, kEthUpOpen, std::move(reply));
  Status status = bench.kernel.net().BringUp("eth0");
  driver.join();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(bench.kernel.net().Find("eth0")->is_up());
  (void)bench.host->Kill();
}

TEST(Security, RaggedScanReplyIsRefusedBeforeDecoding) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::RadioEnvironment air;
  devices::WifiNic nic("iwl-nic", &air);
  ASSERT_TRUE(machine.AttachDevice(machine.AddSwitch("sw0"), &nic).ok());
  SafePciModule safe_pci(&kernel);
  SudDeviceContext::Options options;
  options.uchan.sync_timeout_ms = 2000;
  SudDeviceContext* ctx = safe_pci.ExportDevice(&nic, kDriverUid, options).value();
  WirelessProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "iwl-driver", kDriverUid);
  ASSERT_TRUE(
      host.Start(std::make_unique<drivers::IwlDriver>(), uml::DriverHost::Mode::kComatose).ok());
  // One whole scan record and one stray byte: a result list the scan parser
  // must never see.
  UchanMsg reply;
  reply.inline_data.assign(kWifiScanRecordBytes + 1, 0x41);
  std::thread driver(ForgeReply, ctx, kWifiUpScan, std::move(reply));
  Result<std::vector<kern::ScanResult>> results = kernel.wireless().Scan("wlan0");
  driver.join();
  EXPECT_EQ(results.status().code(), ErrorCode::kInvalidArgument);
  (void)host.Kill();
}

TEST(Security, AsyncUpcallsToFullRingReportHungDriver) {
  NetBench::Options options;
  options.sud.uchan.ring_entries = 4;
  NetBench bench(options);
  // A driver that registers but never processes its queue. Use the
  // unresponsive driver and force the netdev up administratively.
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                                uml::DriverHost::Mode::kComatose)
                  .ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  ASSERT_NE(netdev, nullptr);

  LogCapture capture;
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 1, 2, {});
  int drops = 0;
  for (int i = 0; i < 64; ++i) {
    if (!testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()})) {
      ++drops;
    }
  }
  EXPECT_GT(drops, 0);                                // kernel never blocked
  EXPECT_GE(bench.proxy->stats().hung_reports, 1u);   // and reported the hang
  EXPECT_TRUE(capture.Contains("hung"));
  (void)bench.host->Kill();
}

// ---- TOCTOU on shared packet buffers ---------------------------------------------

TEST(Security, ToctouFirewallBypassDefeatedByGuardCopy) {
  NetBench bench;
  auto attack = std::make_unique<drivers::DupDeliveryDriver>();
  drivers::DupDeliveryDriver* driver = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  bench.kernel.net().firewall().DenyPort(22);

  std::vector<uint8_t> payload(32, 0x9);
  auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, 1, 80,
                                 {payload.data(), payload.size()});
  int delivered_to_22 = 0;
  int delivered_total = 0;
  uint16_t shared_port = 0;
  // The sink runs after the firewall verdict: a driver racing the kernel
  // rewrites the dst port in its own buffer, the one the downcall named, and
  // only then does the stack read the delivered skb.
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb& skb) {
    Result<ByteSpan> shared = bench.ctx->dma().HostView(driver->buffer_iova(), frame.size());
    ASSERT_TRUE(shared.ok());
    kern::RewriteDstPortFixup(shared.value(), 22);
    shared_port = kern::PacketView{ConstByteSpan(shared.value().data(), frame.size())}.dst_port();
    ++delivered_total;
    if (skb.view().dst_port() == 22) {
      ++delivered_to_22;
    }
  });

  Result<int> accepted = driver->DeliverSameBuffer({frame.data(), frame.size()}, 1);
  ASSERT_TRUE(accepted.ok());
  ASSERT_EQ(accepted.value(), 1);
  bench.host->Pump();
  // The rewrite landed (the negative control: the attack is real), yet the
  // kernel checked and delivered its own copy: port 80, not 22.
  EXPECT_EQ(shared_port, 22);
  EXPECT_EQ(delivered_to_22, 0);
  EXPECT_EQ(delivered_total, 1);
}

// ---- driver-initiated interface abuse ---------------------------------------------

TEST(Security, SensitiveConfigWritesAreFiltered) {
  NetBench bench;
  auto attack = std::make_unique<drivers::ConfigAttackDriver>();
  auto* attack_ptr = attack.get();
  LogCapture capture;
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  const drivers::ConfigAttackDriver::Outcome& outcome = attack_ptr->outcome();
  EXPECT_EQ(outcome.attempts, 8u);
  EXPECT_EQ(outcome.succeeded, 0u);
  EXPECT_EQ(outcome.denied, 8u);
  EXPECT_TRUE(capture.Contains("filtered config write"));
  // BARs and MSI address unchanged.
  EXPECT_NE(bench.sut_nic.config().bar(0), 0xfee00000u);
  EXPECT_EQ(bench.sut_nic.config().msi_address(), hw::kMsiRangeBase);
}

TEST(Security, UngrantedIoPortsAreDenied) {
  NetBench bench;
  auto attack = std::make_unique<drivers::IoPortAttackDriver>();
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  EXPECT_EQ(attack_ptr->attempts(), 6u);
  EXPECT_EQ(attack_ptr->denied(), 6u);
}

TEST(Security, BogusNetifRxAddressesAreRejected) {
  NetBench bench;
  auto attack = std::make_unique<drivers::BogusRxDriver>();
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  Result<int> accepted = attack_ptr->Fire(20);
  ASSERT_TRUE(accepted.ok());
  bench.host->Pump();  // flush the batched downcalls into the proxy
  // Every wild address/length was rejected at validation; nothing reached
  // the stack.
  EXPECT_EQ(bench.proxy->stats().rx_malformed, 20u);
  EXPECT_EQ(bench.kernel.net().Find("eth0")->stats().rx_packets, 0u);
}

TEST(Security, ResourceHogStopsAtRlimit) {
  NetBench::Options options;
  NetBench bench(options);
  // 8 MB rlimit (pool memory is charged first).
  auto attack = std::make_unique<drivers::ResourceHogDriver>();
  auto* attack_ptr = attack.get();
  // Pre-create process limits through the host: adjust post-start.
  // Spawn with default limit; then verify ChargeMemory enforcement.
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());
  EXPECT_TRUE(attack_ptr->hit_limit());
  // The driver got at most its rlimit's worth of DMA memory.
  EXPECT_LE(attack_ptr->bytes_obtained(),
            bench.ctx->bound_process()->rlimits().memory_bytes);
}

// Forged multi-fragment netif_rx downcalls (oversize totals, over-cap
// fragment counts, fragments outside the driver's DMA space): the proxy
// rejects every one before dereferencing a byte, and nothing reaches the
// stack.
TEST(Security, ForgedChainDowncallsAreRejected) {
  NetBench bench;
  auto attack = std::make_unique<drivers::ChainAttackDriver>();
  auto* attack_ptr = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  ASSERT_TRUE(attack_ptr->FireOversizeChains(6).ok());
  ASSERT_TRUE(attack_ptr->FireOverCapChains(6).ok());
  ASSERT_TRUE(attack_ptr->FireWildChains(6).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.proxy->stats().rx_downcalls, 18u);
  EXPECT_EQ(bench.proxy->stats().rx_malformed, 18u);
  EXPECT_EQ(bench.kernel.net().Find("eth0")->stats().rx_packets, 0u);
}

// A netif_rx message whose advertised tail count disagrees with its payload
// (a hand-rolled malicious runtime, below even the attack driver's API) is
// rejected by the count/payload cross-check.
TEST(Security, ChainCountMismatchIsRejected) {
  NetBench bench;
  auto attack = std::make_unique<drivers::ChainAttackDriver>();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  UchanMsg msg;
  msg.opcode = kEthDownNetifRx;
  msg.args[0] = 0x42430000ull;
  msg.args[1] = 256;
  msg.args[2] = 7;                                  // claims seven tail fragments...
  msg.inline_data.resize(2 * kNetifRxFragBytes);  // ...carries two
  StoreLe64(msg.inline_data.data(), 0x42430000ull);
  StoreLe32(msg.inline_data.data() + 8, 256);
  StoreLe64(msg.inline_data.data() + 12, 0x42430000ull);
  StoreLe32(msg.inline_data.data() + 20, 256);
  Status status = bench.ctx->ctl().DowncallSync(msg);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bench.proxy->stats().rx_malformed, 1u);
}

// Every rule the one-message netif_rx layout adds — the tail count must match
// the payload, the head must not be empty, every tail fragment must lie in the
// driver's DMA space, head plus tail must fit the static cap and the
// interface's maximum — rejects the delivery before a byte is copied, and
// counts it exactly once.
TEST(Security, NetifRxLayoutRulesRejectBeforeAnyCopy) {
  NetBench bench;  // e1000e at the default 1500-byte MTU
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  const uint64_t kMapped = 0x42430000ull;  // a valid driver iova
  struct Case {
    const char* rule;
    uint64_t head_len;
    uint64_t tail_count;
    std::vector<DmaFrag> tail;
  };
  const Case cases[] = {
      {"tail count disagrees with the payload", 64, 3, {{kMapped, 64}}},
      {"zero-length head", 0, 0, {}},
      {"tail fragment outside the dma space", 64, 1, {{0xfee00000ull, 64}}},
      {"head plus tail over the static cap", 1500, 5, std::vector<DmaFrag>(5, {kMapped, 2048})},
      {"head plus tail over the interface maximum", 1000, 1, {{kMapped, 1000}}},
  };
  for (const Case& c : cases) {
    uint64_t malformed = bench.proxy->stats().rx_malformed;
    uint64_t errors = netdev->stats().driver_errors;
    uint64_t copies = bench.proxy->stats().guard_copies;
    UchanMsg msg;
    msg.opcode = kEthDownNetifRx;
    msg.args[0] = kMapped;
    msg.args[1] = c.head_len;
    msg.args[2] = c.tail_count;
    msg.inline_data.resize(c.tail.size() * kNetifRxFragBytes);
    for (size_t i = 0; i < c.tail.size(); ++i) {
      StoreLe64(msg.inline_data.data() + i * kNetifRxFragBytes, c.tail[i].iova);
      StoreLe32(msg.inline_data.data() + i * kNetifRxFragBytes + 8, c.tail[i].len);
    }
    EXPECT_EQ(bench.ctx->ctl().DowncallSync(msg).code(), ErrorCode::kInvalidArgument) << c.rule;
    EXPECT_EQ(bench.proxy->stats().rx_malformed - malformed, 1u) << c.rule;
    EXPECT_EQ(netdev->stats().driver_errors - errors, 1u) << c.rule;
    EXPECT_EQ(bench.proxy->stats().guard_copies - copies, 0u) << c.rule;
  }
  EXPECT_EQ(netdev->stats().rx_packets, 0u);
}

// The receive length bound follows the INTERFACE's declared MTU, not the
// global jumbo ceiling: a driver that registered a standard-MTU interface
// cannot push jumbo-sized netif_rx lengths through the proxy.
TEST(Security, JumboLengthsRejectedOnStandardMtuInterface) {
  NetBench bench;  // e1000e at the default 1500-byte MTU
  ASSERT_TRUE(bench.StartSut().ok());

  UchanMsg msg;
  msg.opcode = kEthDownNetifRx;
  msg.args[0] = 0x42430000ull;  // a perfectly valid driver iova
  msg.args[1] = kern::kJumboMaxFrameBytes;  // ...with a jumbo length
  Status status = bench.ctx->ctl().DowncallSync(msg);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bench.proxy->stats().rx_malformed, 1u);
  EXPECT_EQ(bench.kernel.net().Find("eth0")->stats().rx_packets, 0u);
}

// RETA starvation with nothing armed: every flow concentrates on the victim
// queue, whose BOUNDED backlog absorbs then drops — the other queues stay
// idle and the kernel stays live. The blast radius is the attacker's own
// queue, exactly.
TEST(Security, RetaStarvationDropsAreBounded) {
  NetBench bench;
  auto attack = std::make_unique<drivers::RetaAttackDriver>(/*victim_queue=*/0);
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  std::vector<uint8_t> payload(128, 0x44);
  constexpr int kFlood = 200;
  for (int i = 0; i < kFlood; ++i) {
    // Distinct flows that would normally spread across the 8 queues.
    auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB,
                                   static_cast<uint16_t>(31000 + i), 80,
                                   {payload.data(), payload.size()});
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  // Everything steered to queue 0: its 64-frame backlog fills, the rest
  // drops — bounded and counted, no other queue touched.
  EXPECT_EQ(bench.sut_nic.stats().rx_frames, 0u);  // nothing armed, nothing DMA'd
  EXPECT_EQ(bench.sut_nic.stats().rx_dropped_no_desc, static_cast<uint64_t>(kFlood - 64));
  for (uint32_t q = 1; q < devices::kNicNumQueues; ++q) {
    EXPECT_EQ(bench.sut_nic.queue_stats(q).rx_frames, 0u) << "queue " << q;
  }
}

// ---- TX scatter/gather attacks ----------------------------------------------

using testing::WireRecorder;  // the wire-side "other machine" (harness.h)

// Endless TX chain (a whole ring armed without CMD.EOP): the device's gather
// must drop at its bound — once, counted — recycle every descriptor with DD
// so the driver's reap stays live, and keep serving well-formed frames. The
// first EOP after the drop terminates the dropped frame (resync), exactly
// like the RX reassembly bound.
TEST(Security, EndlessTxChainIsBoundedAndDropped) {
  NetBench::Options options;
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder wire;
  bench.link.Attach(1, &wire);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  Result<uint32_t> armed = p->FireEndlessChain(0x5e);
  ASSERT_TRUE(armed.ok());
  EXPECT_EQ(wire.frames.size(), 0u);  // not one forged byte on the wire
  EXPECT_EQ(bench.sut_nic.stats().tx_dropped_chain, 1u);
  EXPECT_EQ(bench.sut_nic.stats().tx_frames, 0u);

  // Liveness: the resync eats the first EOP (it terminates the dropped
  // frame); the next frame transmits whole.
  ASSERT_TRUE(p->SendGoodFrame(0xa1, 64).ok());
  EXPECT_EQ(wire.frames.size(), 0u);
  ASSERT_TRUE(p->SendGoodFrame(0xa2, 64).ok());
  ASSERT_EQ(wire.frames.size(), 1u);
  EXPECT_EQ(wire.frames[0], std::vector<uint8_t>(64, 0xa2));
}

// Torn TX chain: fragments armed, the EOP never rung. Whole-frame-or-
// nothing means NOTHING reaches the wire while the chain is open — and the
// eventual EOP releases the complete frame exactly once.
TEST(Security, TornTxChainParksWithoutLeakingOrWedging) {
  NetBench::Options options;
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder wire;
  bench.link.Attach(1, &wire);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  ASSERT_TRUE(p->FireTornChain(3, 0x7c).ok());
  EXPECT_EQ(wire.frames.size(), 0u);
  EXPECT_EQ(bench.sut_nic.stats().tx_dropped_chain, 0u);  // parked, not dropped

  ASSERT_TRUE(p->FinishTornChain(0x7c).ok());
  ASSERT_EQ(wire.frames.size(), 1u);
  EXPECT_EQ(wire.frames[0].size(), 4u * p->frag_len());
  EXPECT_EQ(wire.frames[0], std::vector<uint8_t>(4u * p->frag_len(), 0x7c));
  EXPECT_EQ(bench.sut_nic.stats().tx_chain_frames, 1u);
  EXPECT_EQ(bench.sut_nic.stats().tx_chain_descs, 4u);
}

// Over-cap TX chain: more fragments than kern::kMaxChainFrags, EOP at the
// end. The descriptor cap trips (tiny fragments keep the byte bound out of
// the way), the chain drops whole, and the trailing EOP is consumed by the
// resync — garbage tail fragments can never be parsed as a fresh frame.
TEST(Security, OverCapTxChainDropsWholeAndResyncs) {
  NetBench::Options options;
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder wire;
  bench.link.Attach(1, &wire);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  ASSERT_TRUE(p->FireOverCapChain(4, 0x9d).ok());
  EXPECT_EQ(wire.frames.size(), 0u);
  EXPECT_EQ(bench.sut_nic.stats().tx_dropped_chain, 1u);

  ASSERT_TRUE(p->SendGoodFrame(0xa3, 64).ok());
  ASSERT_EQ(wire.frames.size(), 1u);
  EXPECT_EQ(wire.frames[0], std::vector<uint8_t>(64, 0xa3));
}

// Forged kEthUpXmit messages (tail count/payload mismatch, bogus pool ids,
// fragment lengths above one staging buffer, oversize totals, an empty
// head): the runtime re-validates every fragment against the pool and
// rejects the message before a single descriptor is armed.
TEST(Security, ForgedXmitUpcallsRejectedBeforeArming) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  // Two live pool buffers, so the bad-length case fails on its length alone.
  int32_t a = bench.ctx->pool().Alloc().value();
  int32_t b = bench.ctx->pool().Alloc().value();

  // `frags` is the whole frame, head first; `tail_count` is what args[1]
  // claims about the rest.
  auto forge = [&](uint64_t tail_count, std::vector<std::pair<int32_t, uint32_t>> frags) {
    UchanMsg msg;
    msg.opcode = kEthUpXmit;
    msg.args[0] = 0;
    msg.args[1] = tail_count;
    msg.buffer_id = frags[0].first;
    msg.buffer_len = frags[0].second;
    msg.inline_data.resize((frags.size() - 1) * kXmitFragBytes);
    for (size_t i = 1; i < frags.size(); ++i) {
      uint8_t* record = msg.inline_data.data() + (i - 1) * kXmitFragBytes;
      StoreLe32(record, static_cast<uint32_t>(frags[i].first));
      StoreLe32(record + 4, frags[i].second);
    }
    ASSERT_TRUE(bench.ctx->ctl().SendAsync(std::move(msg)).ok());
  };
  forge(2, {{a, 512}, {b, 512}});      // tail count disagrees with the payload
  forge(1, {{a, 512}, {60000, 512}});  // id the pool never issued
  forge(1, {{a, 4096}, {b, 512}});     // fragment larger than one buffer
  forge(5, {{a, 2048}, {b, 2048}, {a, 2048}, {b, 2048}, {a, 2048}, {b, 2048}});  // > jumbo
  forge(0, {{a, 0}});                  // zero-length head
  bench.host->Pump();

  EXPECT_EQ(bench.host->runtime()->stats().xmit_rejected, 5u);
  EXPECT_EQ(bench.sut_nic.stats().tx_frames, 0u);
  EXPECT_EQ(bench.sut_driver->stats().tx_queued, 0u);
  bench.ctx->pool().Free(a);
  bench.ctx->pool().Free(b);
}

// Buffer-id reuse across a chain's completion (the same pool buffer "freed"
// repeatedly, plus an id that never existed): the pool tolerates and counts
// every one, and its free list never grows past consistency.
TEST(Security, TxBufferIdReuseIsToleratedAndCounted) {
  NetBench bench;
  auto attack = std::make_unique<drivers::BufferReuseAttackDriver>();
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  uint32_t free_before = bench.ctx->pool().free_count();
  ASSERT_TRUE(p->FireReusedFrees(3, 5).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.ctx->pool().double_frees(), 6u);  // 5 reuses + 1 wild id
  EXPECT_EQ(bench.ctx->pool().free_count(), free_before);
}

// Mid-CHAIN descriptor rewrite: the chain's fragments are repointed at a
// secret while the device is mid-pass (after the cacheline burst fetch).
// Snapshot immunity holds fragment-wise: the chain transmits exactly the
// armed bytes, whole, exactly once.
TEST(Security, MidChainTxRewriteTransmitsArmedBytesOnly) {
  NetBench::Options options;
  options.start_peer = false;
  NetBench bench(options);
  uint64_t secret = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> secret_bytes(64, 0x5e);
  ASSERT_TRUE(bench.machine.dram().Write(secret, {secret_bytes.data(), 64}).ok());

  auto attack = std::make_unique<drivers::DescRewriteAttackDriver>();
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  drivers::DescRewritePeer peer;  // rewrites chain descs 1..3 mid-pass
  peer.driver = p;
  peer.target = secret;
  bench.link.Attach(1, &peer);

  ASSERT_TRUE(p->ArmChainAndDoorbell(3, 0xab).ok());
  ASSERT_EQ(peer.frames.size(), 2u);  // the lead frame + the WHOLE chain
  EXPECT_EQ(peer.frames[0].size(), 64u);
  EXPECT_EQ(peer.frames[1].size(), 192u);  // 3 fragments x 64 armed bytes
  for (const std::vector<uint8_t>& frame : peer.frames) {
    for (uint8_t byte : frame) {
      EXPECT_EQ(byte, 0xab);
    }
  }
  EXPECT_EQ(bench.machine.iommu().faults().size(), 0u);
  EXPECT_EQ(bench.sut_nic.stats().tx_chain_frames, 1u);
}

// Sealed TX grants are device-only. A driver that resolves a granted
// fragment's IOVA and opens it through its own DMA window — the way it
// reaches every buffer it owns — must find nothing there: a writable view
// would let it rewrite the kernel's page-cache page behind a sealed frame.
TEST(Security, DriverCannotMapGrantedTxPages) {
  NetBench::Options options;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  options.peer_mtu = static_cast<uint32_t>(kern::kJumboMtu);
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  std::vector<uint8_t> payload(8000, 0x3c);
  // One DRAM-frag frame, not pumped: the test pulls its xmit upcall itself.
  ASSERT_TRUE(bench.SutSendDramFragBurst(6000, 80, {payload.data(), payload.size()}, 1).ok());
  std::vector<UchanMsg> upcalls;
  ASSERT_TRUE(bench.ctx->ctl().WaitBatch(0, 16, &upcalls).ok());

  SharedBufferPool& pool = bench.ctx->pool();
  hw::Iommu& iommu = bench.machine.iommu();
  int granted = 0;
  int mapped = 0;
  for (const UchanMsg& msg : upcalls) {
    if (msg.opcode != kEthUpXmit) {
      continue;
    }
    for (size_t f = 0; f < wire::XmitFragCount(msg); ++f) {
      wire::XmitFrag frag = wire::XmitFragAt(msg, f);
      Result<uint64_t> iova = pool.BufferIova(frag.pool_id);
      ASSERT_TRUE(iova.ok());
      uint32_t slot = static_cast<uint32_t>(frag.pool_id) & (SharedBufferPool::kMaxBuffers - 1);
      if (slot >= pool.count()) {  // a grant, not a staged buffer
        ++granted;
        // The device reads the kernel page and can never write it.
        EXPECT_TRUE(iommu.Translate(bench.ctx->source_id(), iova.value(), frag.len, false).ok());
        EXPECT_FALSE(iommu.Translate(bench.ctx->source_id(), iova.value(), frag.len, true).ok());
        if (bench.host->runtime()->DmaView(iova.value(), frag.len).ok()) {
          ++mapped;
        }
      }
      pool.Free(frag.pool_id);  // the driver's TX reap: pages and mapping go
    }
  }
  EXPECT_EQ(granted, 4);
  EXPECT_EQ(mapped, 0);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(Security, WrongUidCannotBindDevice) {
  NetBench::Options options;
  options.start_sut = true;
  NetBench bench(options);
  kern::Process& intruder = bench.kernel.processes().Spawn("intruder", kDriverUid + 1);
  LogCapture capture;
  Status status = bench.ctx->Bind(&intruder);
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(capture.Contains("tried to bind"));
}

}  // namespace
}  // namespace sud
