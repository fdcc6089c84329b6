// Proxy-driver unit tests: the kernel-side translation layer's edge cases —
// pool exhaustion and hung-driver reporting on transmit, carrier mirroring
// order, ioctl timeouts, wireless mirror behaviour, audio write chunking.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/devices/audio_dev.h"
#include "src/drivers/iwl.h"
#include "src/drivers/snd_hda.h"
#include "src/sud/proxy_audio.h"
#include "src/sud/proxy_wireless.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kDriverUid;
using testing::kMacA;
using testing::kMacB;
using testing::NetBench;

TEST(EthernetProxyTest, XmitExhaustsPoolThenRecovers) {
  NetBench::Options options;
  options.sud.pool_buffers = 4;
  options.proxy.hung_threshold = 100;  // don't trip the hung report here
  NetBench bench(options);
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());

  auto frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {});
  // Without pumping, each xmit holds one pool buffer.
  int accepted = 0;
  for (int i = 0; i < 8; ++i) {
    if (testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()})) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(bench.proxy->stats().xmit_dropped, 4u);
  // Pumping lets the driver transmit and free the buffers; service resumes.
  bench.host->Pump();
  EXPECT_TRUE(testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()}));
}

// One transmit contract for every burst: the frames a full ring cannot take
// are the tail, counted by the proxy and by the stack, and each dropped
// frame's staged buffers — one or several — go straight back to the pool.
TEST(EthernetProxyTest, RingFullTailOfABurstIsCountedAndFreed) {
  NetBench::Options options;
  options.sud.uchan.ring_entries = 4;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  options.proxy.hung_threshold = 100;  // the tail, not the hung report, is under test
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  ASSERT_EQ(bench.ctx->ctl().pending_upcalls(), 0u);
  ASSERT_EQ(bench.ctx->pool().outstanding(), 0u);
  // From here on the driver never services its ring (comatose after open):
  // not even the ring-full retry may drain it.
  bench.ctx->ctl().set_user_pump(nullptr);

  // Six frames for four free slots; every other one a multi-buffer jumbo
  // frag frame, so the tail holds one of each kind.
  std::vector<uint8_t> small(64, 0x11);
  std::vector<uint8_t> jumbo(8000, 0x22);
  auto small_frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {small.data(), small.size()});
  auto jumbo_frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {jumbo.data(), jumbo.size()});
  std::vector<kern::SkbPtr> burst;
  size_t ring_buffers = 0;  // staged buffers of the frames that fit
  for (int i = 0; i < 6; ++i) {
    kern::SkbPtr skb =
        i % 2 == 1 ? kern::MakeFragSkb({jumbo_frame.data(), jumbo_frame.size()}, 2048, 2048)
                   : kern::MakeSkb({small_frame.data(), small_frame.size()});
    if (i < 4) {
      ring_buffers += skb->TxChunks(bench.ctx->pool().buffer_bytes());
    }
    burst.push_back(std::move(skb));
  }
  Result<size_t> sent = bench.kernel.net().TransmitBatch(netdev, std::move(burst));
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), 4u);
  EXPECT_EQ(bench.ctx->ctl().pending_upcalls(), 4u);
  EXPECT_EQ(bench.proxy->stats().xmit_dropped.load(), 2u);
  EXPECT_EQ(netdev->stats().tx_dropped.load(), 2u);
  EXPECT_EQ(netdev->stats().tx_packets.load(), 4u);
  EXPECT_GT(ring_buffers, 4u);  // the jumbo frames staged several buffers each
  EXPECT_EQ(bench.ctx->pool().outstanding(), ring_buffers);
}

TEST(EthernetProxyTest, CarrierMirrorFollowsDriverDowncalls) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  ASSERT_TRUE(netdev->carrier());  // probe mirrored link-up

  // The driver flips carrier via the mirror macros; order is preserved
  // within the downcall stream.
  bench.host->runtime()->NetifCarrierOff();
  bench.host->runtime()->NetifCarrierOn();
  bench.host->runtime()->NetifCarrierOff();
  bench.host->Pump();
  EXPECT_FALSE(netdev->carrier());
}

TEST(EthernetProxyTest, IoctlAgainstDeadDriverTimesOut) {
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 25;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  // Kill the process but keep the proxy: the next ioctl must not hang.
  bench.ctx->ctl().Shutdown();
  Result<std::string> result = bench.proxy->Ioctl(kern::kIoctlGetMiiStatus);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
}

TEST(EthernetProxyTest, UnknownDowncallOpcodeRejected) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  UchanMsg msg;
  msg.opcode = 0xdead;
  Status status = bench.ctx->ctl().DowncallSync(msg);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

// ---- multi-queue: RSS steering, shard isolation, coalesced completions -----

TEST(MultiQueueProxyTest, RssSteeringIsDeterministicAcrossDeviceAndKernel) {
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  ASSERT_EQ(netdev->num_queues(), 4);

  // One flow: every packet must land on the queue the shared hash names —
  // in the device (RSS) and in the kernel's per-queue accounting alike.
  std::vector<uint8_t> payload(64, 0x7);
  auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, 40001, 4242,
                                 {payload.data(), payload.size()});
  uint16_t expected_queue =
      kern::FlowQueue(ConstByteSpan(frame.data(), frame.size()), 4);
  for (int i = 0; i < 20; ++i) {
    (void)bench.PeerSend(40001, 4242, {payload.data(), payload.size()});
  }
  bench.host->Pump();
  for (uint16_t q = 0; q < 4; ++q) {
    EXPECT_EQ(netdev->queue_stats(q).rx_packets.load(), q == expected_queue ? 20u : 0u)
        << "queue " << q;
    EXPECT_EQ(bench.sut_nic.queue_stats(q).rx_frames.load(), q == expected_queue ? 20u : 0u);
  }
  // Steering is a pure function of the flow: recomputing yields the same
  // queue (determinism), and the netif_rx messages rode only that shard.
  // (Shard 0 additionally carries control traffic — carrier mirroring at
  // probe — so isolation is asserted on the other shards.)
  EXPECT_EQ(kern::FlowQueue(ConstByteSpan(frame.data(), frame.size()), 4), expected_queue);
  for (uint16_t q = 1; q < 4; ++q) {
    uint64_t rx_downcalls = bench.ctx->ctl(q).stats().downcalls_async;
    if (q == expected_queue) {
      EXPECT_GE(rx_downcalls, 20u);
    } else {
      EXPECT_EQ(rx_downcalls, 0u) << "netif_rx leaked onto shard " << q;
    }
  }
}

TEST(MultiQueueProxyTest, FlowsSpreadAcrossQueuesAndNothingIsLostOrDuplicated) {
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  uint64_t delivered = 0;
  netdev->set_rx_sink([&](const kern::Skb&) { ++delivered; });

  std::vector<uint8_t> payload(256, 0x9);
  constexpr int kTotal = 512;
  ASSERT_TRUE(bench.PeerSendFlowBurst(21000, 80, {payload.data(), payload.size()}, kTotal,
                                      /*flows=*/32)
                  .ok());
  bench.host->Pump();
  EXPECT_EQ(delivered, kTotal);
  uint64_t per_queue_sum = 0;
  int queues_used = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    uint64_t rx = netdev->queue_stats(q).rx_packets.load();
    per_queue_sum += rx;
    queues_used += rx > 0 ? 1 : 0;
  }
  EXPECT_EQ(per_queue_sum, kTotal);  // exactly once each: no loss, no dup
  EXPECT_GE(queues_used, 2) << "32 flows all hashed to one queue";
}

TEST(MultiQueueProxyTest, TxSteeringUsesPerQueueShards) {
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  // 16 distinct flows out of the SUT: the kernel partitions the burst by the
  // same hash, each slice crossing its own shard.
  std::vector<uint8_t> payload(200, 0x3);
  std::vector<kern::SkbPtr> skbs;
  int expected_per_queue[4] = {0, 0, 0, 0};
  for (uint16_t f = 0; f < 16; ++f) {
    auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 6000 + f, 7000,
                                   {payload.data(), payload.size()});
    expected_per_queue[kern::FlowQueue({frame.data(), frame.size()}, 4)]++;
    skbs.push_back(kern::MakeSkb({frame.data(), frame.size()}));
  }
  Result<size_t> accepted =
      bench.kernel.net().TransmitBatch(bench.kernel.net().Find("eth0"), std::move(skbs));
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value(), 16u);
  bench.host->Pump();
  for (uint16_t q = 0; q < 4; ++q) {
    // Shards with traffic also carry their queue's interrupt upcalls, so the
    // async-upcall count is a lower bound; quiet queues must stay silent.
    uint64_t upcalls = bench.ctx->ctl(q).stats().upcalls_async;
    if (expected_per_queue[q] == 0) {
      EXPECT_EQ(upcalls, 0u) << "xmit upcalls leaked onto shard " << q;
    } else {
      EXPECT_GE(upcalls, static_cast<uint64_t>(expected_per_queue[q]))
          << "xmit upcalls on shard " << q;
    }
    EXPECT_EQ(bench.sut_nic.queue_stats(q).tx_frames.load(),
              static_cast<uint64_t>(expected_per_queue[q]));
  }
  EXPECT_EQ(bench.peer_nic.stats().rx_frames.load(), 16u);
}

TEST(EthernetProxyTest, TxCompletionsCoalesceIntoOneFreeBufferMessage) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  std::vector<uint8_t> payload(300, 0x4);
  ASSERT_TRUE(bench.SutSendBurst(5001, 5002, {payload.data(), payload.size()}, 8).ok());
  bench.host->Pump();
  // All 8 buffers came back to the pool...
  EXPECT_EQ(bench.ctx->pool().free_count(), bench.ctx->pool().count());
  EXPECT_EQ(bench.sut_driver->stats().tx_completed.load(), 8u);
  // ...and the reap pass returned them in coalesced messages, not 8 singles.
  EXPECT_GE(bench.sut_driver->stats().free_batches.load(), 1u);
  EXPECT_GE(bench.proxy->stats().free_batches.load(), 1u);
  Uchan::Stats ctl = bench.ctx->ctl().stats();
  // 8 xmit-related downcalls would have been 8 frees; coalescing keeps the
  // total async-downcall count well below that.
  EXPECT_LT(ctl.downcalls_async, 8u);
}

TEST(EthernetProxyTest, MalformedFreeBufferBatchIsToleratedAndCounted) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  // Hold two real buffers so the frees below have something to release.
  int32_t a = bench.ctx->pool().Alloc().value();
  int32_t b = bench.ctx->pool().Alloc().value();
  UchanMsg msg;
  msg.opcode = kEthDownFreeBuffer;
  msg.args[0] = 100;  // lies about the count
  msg.inline_data.resize(8);
  StoreLe32(msg.inline_data.data(), static_cast<uint32_t>(a));
  StoreLe32(msg.inline_data.data() + 4, static_cast<uint32_t>(b));
  ASSERT_TRUE(bench.ctx->ctl().DowncallSync(msg).ok());
  // Only the ids actually carried were freed; the bogus count was flagged.
  EXPECT_EQ(bench.ctx->pool().free_count(), bench.ctx->pool().count());
  EXPECT_GE(bench.kernel.net().Find("eth0")->stats().driver_errors.load(), 1u);
}

TEST(MultiQueueProxyTest, ThreadedPerQueuePumpDeliversEverything) {
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
  bench.MaskPeerIrq();
  std::atomic<uint64_t> delivered{0};
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  netdev->set_rx_sink([&](const kern::Skb&) { delivered.fetch_add(1); });
  std::vector<uint8_t> payload(1024, 0x6);
  constexpr uint64_t kTotal = 2048;
  for (uint64_t sent = 0; sent < kTotal; sent += 128) {
    ASSERT_TRUE(bench.PeerSendFlowBurst(31000, 80, {payload.data(), payload.size()}, 128,
                                        /*flows=*/64)
                    .ok());
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (delivered.load() < sent + 128 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  EXPECT_EQ(delivered.load(), kTotal);
  uint64_t per_queue = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    per_queue += netdev->queue_stats(q).rx_packets.load();
  }
  EXPECT_EQ(per_queue, kTotal);
}

// ---- fault injection through the proxy --------------------------------------
// The injector is process-global: restore the disarmed, schedule-free state
// on exit so neighbouring tests never see a stale fault.

class ProxyFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Get().Disarm();
    FaultInjector::Get().ClearSchedules();
  }
};

TEST_F(ProxyFaultTest, DuplicatedNetifRxDowncallsRejectedBySeqCheck) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uint64_t delivered = 0;
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  netdev->set_rx_sink([&](const kern::Skb&) { ++delivered; });

  // Duplicate EVERY netif_rx downcall: the channel replays each message with
  // its original seq before the real delivery.
  FaultInjector::Get().Configure("uchan.down.dup", FaultInjector::EveryNth(1));
  FaultInjector::Get().Arm(21);
  std::vector<uint8_t> payload(128, 0xab);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bench.PeerSend(30000, 80, {payload.data(), payload.size()}).ok());
  }
  bench.host->Pump();
  FaultInjector::Get().Disarm();

  // The proxy's monotonic-seq check rejected every replay before any guard
  // copy: the stack saw each frame exactly once, and the rejections are
  // visible in their own counter (neither a loss nor a delivery).
  EXPECT_EQ(delivered, 8u);
  EXPECT_EQ(netdev->stats().rx_packets.load(), 8u);
  uint64_t dups = bench.ctx->ctl().stats().injected_dups;
  EXPECT_EQ(dups, 8u);
  EXPECT_EQ(bench.proxy->stats().rx_dups_rejected.load(), dups);
}

TEST_F(ProxyFaultTest, InjectedPoolExhaustionCountsTxBackpressureAndRecovers) {
  NetBench::Options options;
  options.proxy.hung_threshold = 100;  // backpressure, not hung-driver, is under test
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");

  // Every shared-pool allocation fails: transmit meets the same counted
  // backpressure path as a real pool exhausted by a slow driver.
  FaultInjector::Get().Configure("sud.pool.alloc", FaultInjector::EveryNth(1));
  FaultInjector::Get().Arm(31);
  auto frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()}));
  }
  EXPECT_EQ(bench.proxy->stats().xmit_dropped.load(), 4u);
  EXPECT_EQ(netdev->stats().tx_no_buffer.load(), 4u);
  // Failed allocations leaked nothing: the pool is still whole.
  EXPECT_EQ(bench.ctx->pool().free_count(), bench.ctx->pool().count());

  // Clearing the fault restores service with no residue.
  FaultInjector::Get().Disarm();
  ASSERT_TRUE(testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()}));
  bench.host->Pump();
  EXPECT_EQ(bench.peer_nic.stats().rx_frames.load(), 1u);
  EXPECT_EQ(bench.ctx->pool().free_count(), bench.ctx->pool().count());
}

// An administrator's manual kill -9 + restart (no supervisor, so no
// OnDriverRestart) binds a fresh uchan whose seqs restart at 1. The proxy's
// netif_rx dedup watermarks must restart with the new driver generation at
// register_netdev, or every post-restart delivery below the old high-water
// mark is rejected as a duplicate.
TEST(EthernetProxyTest, ManualRestartResetsRxDedupWatermark) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uint64_t delivered = 0;
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  netdev->set_rx_sink([&](const kern::Skb&) { ++delivered; });

  std::vector<uint8_t> payload(64, 0x5a);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bench.PeerSend(30000, 80, {payload.data(), payload.size()}).ok());
    bench.host->Pump();
  }
  EXPECT_EQ(delivered, 8u);

  // The §4.1 administrator dance, bypassing the supervisor entirely.
  ASSERT_TRUE(bench.host->Kill().ok());
  // The dead driver's Stop upcall fails fast — the interface still comes down.
  (void)bench.kernel.net().BringDown("eth0");
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());

  delivered = 0;
  netdev->set_rx_sink([&](const kern::Skb&) { ++delivered; });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bench.PeerSend(30000, 80, {payload.data(), payload.size()}).ok());
    bench.host->Pump();
  }
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(bench.proxy->stats().rx_dups_rejected.load(), 0u);
}

class WifiProxyBench {
 public:
  WifiProxyBench() : kernel(&machine), safe_pci(&kernel) {
    devices::BssInfo bss{};
    snprintf(bss.ssid, sizeof(bss.ssid), "lab");
    bss.channel = 6;
    air.AddAccessPoint(bss);
    nic = std::make_unique<devices::WifiNic>("wifi", &air);
    sw = &machine.AddSwitch("sw0");
    (void)machine.AttachDevice(*sw, nic.get());
    ctx = safe_pci.ExportDevice(nic.get(), kDriverUid).value();
    proxy = std::make_unique<WirelessProxy>(&kernel, ctx);
    host = std::make_unique<uml::DriverHost>(&kernel, ctx, "iwl", kDriverUid);
  }

  hw::Machine machine;
  kern::Kernel kernel;
  devices::RadioEnvironment air;
  std::unique_ptr<devices::WifiNic> nic;
  hw::PcieSwitch* sw;
  SafePciModule safe_pci;
  SudDeviceContext* ctx;
  std::unique_ptr<WirelessProxy> proxy;
  std::unique_ptr<uml::DriverHost> host;
};

// ---- Sealed (zero-copy) delivery lifecycle across driver crashes --------

// A sealed delivery's skb can outlive the driver that delivered it (a socket
// queue holds it across a crash). The release hook must then QUARANTINE —
// counted, no unseal — in both windows: dropped while the driver is dead
// (context revoked) and dropped after a successor rebound (epoch moved on).
// Unsealing either way would write-enable a page the dying epoch no longer
// owns.
TEST(SealedDeliveryTest, HeldSkbAcrossRestartQuarantinesInsteadOfUnsealing) {
  NetBench::Options options;
  options.proxy.sealed_delivery = true;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  bench.proxy->set_hold_rx_for_test(true);
  std::vector<uint8_t> payload(128, 0x5a);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(bench.PeerSend(30000, 80, {payload.data(), payload.size()}).ok());
    bench.host->Pump();
  }
  EXPECT_EQ(bench.proxy->stats().sealed_deliveries.load(), 2u);
  std::vector<kern::SkbPtr> held = bench.proxy->TakeHeldRx();
  ASSERT_EQ(held.size(), 2u);

  ASSERT_TRUE(bench.host->Kill().ok());
  // Window 1: dead, not yet rebound. The context is revoked; the release
  // must count a quarantine, not fault trying to unseal.
  uint64_t q_before = bench.proxy->stats().sealed_quarantined.load();
  held.pop_back();
  EXPECT_EQ(bench.proxy->stats().sealed_quarantined.load(), q_before + 1);

  (void)bench.kernel.net().BringDown("eth0");
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());
  // Window 2: a successor owns the address space (fresh bind generation,
  // possibly the very same iovas). The dying epoch's release must not
  // write-enable the new epoch's pages.
  held.clear();
  EXPECT_EQ(bench.proxy->stats().sealed_quarantined.load(), q_before + 2);

  // The successor's sealed path is whole.
  bench.proxy->set_hold_rx_for_test(false);
  uint64_t delivered_before = bench.proxy->stats().sealed_deliveries.load();
  ASSERT_TRUE(bench.PeerSend(30001, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.proxy->stats().sealed_deliveries.load(), delivered_before + 1);
}

// TX grants are pool-tracked in-flight work: a crash with grants outstanding
// must quarantine them like staged buffers, the successor must see a whole
// pool, and a dead epoch's grant id replayed against the fresh pool must be
// a counted rejection that fires no release hook.
TEST(SealedTxTest, OutstandingGrantsQuarantineAndStaleGrantIdsAreRejected) {
  NetBench::Options options;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  options.peer_mtu = static_cast<uint32_t>(kern::kJumboMtu);
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  std::vector<uint8_t> payload(8000, 0x3c);
  // Stage DRAM-frag transmits WITHOUT pumping: the grants stay outstanding.
  ASSERT_TRUE(bench.SutSendDramFragBurst(6000, 80, {payload.data(), payload.size()}, 4).ok());
  EXPECT_GT(bench.proxy->stats().tx_grants.load(), 0u);
  uint32_t grants = bench.ctx->pool().active_grants();
  ASSERT_GT(grants, 0u);
  uint32_t outstanding = bench.ctx->pool().outstanding();
  // A dead epoch's grant id, harvested the way StaleReplayDriver harvests
  // buffer ids (here: minted directly against the same pool).
  bool release_fired = false;
  Result<int32_t> stale_grant = bench.ctx->pool().GrantExternal(
      0x7f000000, 512, [&release_fired] { release_fired = true; });
  ASSERT_TRUE(stale_grant.ok());
  outstanding = bench.ctx->pool().outstanding();

  uint64_t q_before = bench.ctx->quarantined_buffers();
  ASSERT_TRUE(bench.host->Kill().ok());
  // Every outstanding unit of in-flight work — staged buffers AND grants —
  // lands in quarantine accounting.
  EXPECT_EQ(bench.ctx->quarantined_buffers() - q_before, outstanding);

  (void)bench.kernel.net().BringDown("eth0");
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>(1, bench.mtu_)).ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());
  // The successor's pool is whole: no grants, nothing outstanding.
  EXPECT_EQ(bench.ctx->pool().active_grants(), 0u);
  EXPECT_EQ(bench.ctx->pool().outstanding(), 0u);
  // The dead epoch's grant id against the fresh pool: counted rejection, and
  // the old release hook must NOT fire (that unmap belongs to a dead epoch).
  uint64_t rejects_before = bench.ctx->pool().double_frees();
  bench.ctx->pool().Free(stale_grant.value());
  EXPECT_EQ(bench.ctx->pool().double_frees(), rejects_before + 1);
  EXPECT_FALSE(release_fired);
  EXPECT_EQ(bench.ctx->pool().active_grants(), 0u);

  // Sealed TX service resumes.
  uint64_t frames_before = bench.proxy->stats().tx_grant_frames.load();
  ASSERT_TRUE(bench.SutSendDramFragBurst(6100, 80, {payload.data(), payload.size()}, 2).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.proxy->stats().tx_grant_frames.load(), frames_before + 2);
}

// Grants follow the frags, not a switch: heap-owned frags always stage
// copies, DRAM-backed ones cross as read-only grants.
TEST(SealedTxTest, OnlyDramBackedFragsMintGrants) {
  NetBench::Options options;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  options.peer_mtu = static_cast<uint32_t>(kern::kJumboMtu);
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  std::vector<uint8_t> payload(8000, 0x3c);
  ASSERT_TRUE(bench.SutSendFragBurst(6000, 80, {payload.data(), payload.size()}, 4).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.peer_nic.stats().rx_frames.load(), 4u);
  EXPECT_EQ(bench.proxy->stats().tx_grants.load(), 0u);
  EXPECT_EQ(bench.proxy->stats().tx_grant_frames.load(), 0u);

  ASSERT_TRUE(bench.SutSendDramFragBurst(6000, 80, {payload.data(), payload.size()}, 4).ok());
  bench.host->Pump();
  EXPECT_EQ(bench.peer_nic.stats().rx_frames.load(), 8u);
  EXPECT_EQ(bench.proxy->stats().tx_grant_frames.load(), 4u);
  EXPECT_GT(bench.proxy->stats().tx_grants.load(), 0u);
  EXPECT_EQ(bench.ctx->pool().outstanding(), 0u);  // every buffer and grant came back
}

// Grants are minted on the transmit path (this thread) and retired on the
// pump thread that reaps the frame, while the transmit path maps the next
// frame's grant and allocates its pages: the grant map and the page
// allocator are shared across the two threads (a TSan target).
TEST(SealedTxTest, ThreadedReapRetiresEveryGrant) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
  std::vector<uint8_t> payload(1200, 0x3c);
  for (int i = 0; i < 400; ++i) {
    (void)bench.SutSendDramFragBurst(7000, 80, {payload.data(), payload.size()}, 1);
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bench.ctx->pool().outstanding() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(bench.ctx->pool().outstanding(), 0u);
  EXPECT_GT(bench.proxy->stats().tx_grant_frames.load(), 0u);
}

TEST(WirelessProxyTest, EnableFeaturesNeverBlocksInAtomicContext) {
  WifiProxyBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::IwlDriver>()).ok());
  bench.host->Pump();

  // Drive the op under the kernel's atomic guard many times: the proxy must
  // answer from the mirror every time (no sync upcalls, no violations).
  for (int i = 0; i < 50; ++i) {
    Result<uint32_t> enabled =
        bench.kernel.wireless().EnableFeatures("wlan0", kern::kWifiFeatureQos);
    ASSERT_TRUE(enabled.ok());
    EXPECT_EQ(enabled.value(), kern::kWifiFeatureQos);
  }
  EXPECT_EQ(bench.proxy->stats().atomic_violations, 0u);
  EXPECT_EQ(bench.proxy->stats().feature_upcalls_queued, 50u);
  // The driver eventually observes every async notification.
  bench.host->Pump();
  auto* driver = static_cast<drivers::IwlDriver*>(bench.host->driver());
  EXPECT_EQ(driver->feature_updates(), 50u);
}

TEST(WirelessProxyTest, ScanFromAtomicContextIsRefusedNotDeadlocked) {
  WifiProxyBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::IwlDriver>()).ok());
  kern::Kernel::ScopedAtomic atomic(bench.kernel);
  Result<std::vector<kern::ScanResult>> result = bench.proxy->Scan();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(bench.proxy->stats().atomic_violations, 1u);
}

TEST(WirelessProxyTest, BitrateMirrorSurvivesDriverRestart) {
  WifiProxyBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::IwlDriver>()).ok());
  bench.host->Pump();
  kern::WirelessDevice* wdev = bench.kernel.wireless().Find("wlan0");
  ASSERT_EQ(wdev->bitrates().size(), 11u);

  ASSERT_TRUE(bench.host->Restart(std::make_unique<drivers::IwlDriver>()).ok());
  bench.host->Pump();
  // Same wlan0 (the proxy reuses its registration), mirror repopulated.
  EXPECT_EQ(bench.kernel.wireless().Find("wlan0"), wdev);
  EXPECT_EQ(wdev->bitrates().size(), 11u);
}

TEST(AudioProxyTest, LargeWriteSplitsAcrossBuffers) {
  hw::Machine machine;
  kern::Kernel kernel(&machine);
  devices::AudioDev card("hda", &machine.clock());
  auto& sw = machine.AddSwitch("sw0");
  (void)machine.AttachDevice(sw, &card);
  SafePciModule safe_pci(&kernel);
  SudDeviceContext* ctx = safe_pci.ExportDevice(&card, kDriverUid).value();
  AudioProxy proxy(&kernel, ctx);
  uml::DriverHost host(&kernel, ctx, "hda", kDriverUid);
  ASSERT_TRUE(host.Start(std::make_unique<drivers::SndHdaDriver>()).ok());

  kern::PcmDevice* pcm = kernel.audio().Find("pcm0");
  kern::PcmConfig config;
  config.buffer_bytes = 65536;
  ASSERT_TRUE(pcm->ops()->OpenStream(config).ok());

  // 10 KB write with 2 KB pool buffers: five upcalls, all bytes delivered.
  std::vector<uint8_t> samples(10240, 0x5a);
  ASSERT_TRUE(pcm->ops()->WriteSamples({samples.data(), samples.size()}).ok());
  host.Pump();
  EXPECT_EQ(proxy.stats().write_upcalls, 5u);
  auto* driver = static_cast<drivers::SndHdaDriver*>(host.driver());
  EXPECT_EQ(driver->stats().bytes_written, 10240u);
  // All pool buffers returned after the driver consumed them.
  EXPECT_EQ(ctx->pool().free_count(), ctx->pool().count());
}

}  // namespace
}  // namespace sud
