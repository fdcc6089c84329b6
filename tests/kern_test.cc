// Simulated-kernel unit tests: packets, processes/IOPB/rlimits, the netdev
// subsystem + firewall, the wireless atomic-context path, audio, input and
// interrupt dispatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "src/base/log.h"
#include "src/hw/machine.h"
#include "src/kern/kernel.h"

namespace sud::kern {
namespace {

constexpr uint8_t kMacA[6] = {1, 2, 3, 4, 5, 6};
constexpr uint8_t kMacB[6] = {6, 5, 4, 3, 2, 1};

TEST(Packet, BuildAndParse) {
  std::vector<uint8_t> payload = {10, 20, 30};
  auto frame = BuildPacket(kMacA, kMacB, 1111, 2222, {payload.data(), payload.size()});
  PacketView view{{frame.data(), frame.size()}};
  ASSERT_TRUE(view.valid());
  EXPECT_EQ(memcmp(view.dst_mac(), kMacA, 6), 0);
  EXPECT_EQ(memcmp(view.src_mac(), kMacB, 6), 0);
  EXPECT_EQ(view.src_port(), 1111);
  EXPECT_EQ(view.dst_port(), 2222);
  EXPECT_EQ(view.payload_len(), 3);
  EXPECT_TRUE(view.ChecksumOk());
  EXPECT_EQ(view.payload()[1], 20);
}

TEST(Packet, RawPortRewriteBreaksChecksum) {
  auto frame = BuildPacket(kMacA, kMacB, 1, 80, {});
  RewriteDstPortRaw({frame.data(), frame.size()}, 22);
  PacketView view{{frame.data(), frame.size()}};
  EXPECT_EQ(view.dst_port(), 22);
  EXPECT_FALSE(view.ChecksumOk());
}

TEST(Packet, FixupPortRewriteKeepsChecksumValid) {
  auto frame = BuildPacket(kMacA, kMacB, 1, 80, {});
  RewriteDstPortFixup({frame.data(), frame.size()}, 22);
  PacketView view{{frame.data(), frame.size()}};
  EXPECT_EQ(view.dst_port(), 22);
  EXPECT_TRUE(view.ChecksumOk());
}

TEST(Skb, AppendFragSpillsInlineToHeapAndVerifies) {
  // A frame assembled from EOP-chain fragments must be byte-identical to the
  // same frame assigned whole, across the inline->heap spill boundary.
  std::vector<uint8_t> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 13);
  }
  auto frame = BuildPacket(kMacA, kMacB, 40, 50, {payload.data(), payload.size()});

  Skb chained;
  for (size_t off = 0; off < frame.size(); off += 2048) {
    size_t chunk = std::min<size_t>(2048, frame.size() - off);
    ASSERT_TRUE(chained.AppendFrag({frame.data() + off, chunk}, 16384));
  }
  EXPECT_EQ(chained.data_len(), frame.size());
  EXPECT_EQ(std::memcmp(chained.data(), frame.data(), frame.size()), 0);
  EXPECT_TRUE(chained.VerifyChecksumPrivate());
  EXPECT_TRUE(chained.checksum_verified);

  // A first fragment already larger than the inline capacity (the zero-length
  // prefix spill) must also land intact — regression for the spill path.
  Skb big_first;
  ASSERT_TRUE(big_first.AppendFrag({frame.data(), 4096}, 16384));
  ASSERT_TRUE(big_first.AppendFrag({frame.data() + 4096, frame.size() - 4096}, 16384));
  EXPECT_EQ(big_first.data_len(), frame.size());
  EXPECT_EQ(std::memcmp(big_first.data(), frame.data(), frame.size()), 0);

  // The bound: an append that would exceed max_len copies nothing.
  Skb bounded;
  ASSERT_TRUE(bounded.AppendFrag({frame.data(), 1000}, 1500));
  EXPECT_FALSE(bounded.AppendFrag({frame.data(), 1000}, 1500));
  EXPECT_EQ(bounded.data_len(), 1000u);

  // A corrupted fragment fails the private-copy verification.
  Skb corrupt;
  ASSERT_TRUE(corrupt.AppendFrag({frame.data(), frame.size()}, 16384));
  corrupt.mutable_span()[frame.size() - 1] ^= 0xff;
  EXPECT_FALSE(corrupt.VerifyChecksumPrivate());
}

TEST(Skb, FragSkbCarriesHeadAndFragsWithoutCopying) {
  // The TX scatter/gather shape: linear head plus page-like fragments. The
  // head keeps serving span()/view() (flow hashing parses headers from it);
  // total_len() is what the wire will carry.
  std::vector<uint8_t> payload(6000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  auto frame = BuildPacket(kMacA, kMacB, 40, 50, {payload.data(), payload.size()});

  SkbPtr skb = MakeFragSkb({frame.data(), frame.size()}, /*head_len=*/1024,
                           /*frag_len=*/2048);
  EXPECT_FALSE(skb->is_linear());
  EXPECT_EQ(skb->data_len(), 1024u);
  EXPECT_EQ(skb->total_len(), frame.size());
  EXPECT_EQ(skb->nr_frags(), 3u);  // 6022 - 1024 = 4998 -> 2048 + 2048 + 902
  // The fragments tile the frame exactly.
  size_t off = skb->data_len();
  for (size_t i = 0; i < skb->nr_frags(); ++i) {
    ConstByteSpan frag = skb->tx_frag(i);
    EXPECT_EQ(std::memcmp(frag.data(), frame.data() + off, frag.size()), 0) << "frag " << i;
    off += frag.size();
  }
  EXPECT_EQ(off, frame.size());
  // The head still parses as the packet (ports live in the first 22 bytes).
  EXPECT_EQ(skb->view().dst_port(), 50);
}

TEST(Skb, LinearizeIsBitIdenticalToTheOriginalFrame) {
  // The non-SG fallback: a linearized frag skb must be byte-for-byte the
  // frame it was built from — the digest a non-SG driver (ne2k) puts on the
  // wire equals the digest the SG chain path produces.
  std::vector<uint8_t> payload(5000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 5);
  }
  auto frame = BuildPacket(kMacA, kMacB, 60, 70, {payload.data(), payload.size()});

  SkbPtr skb = MakeFragSkb({frame.data(), frame.size()}, 512, 1500);
  ASSERT_FALSE(skb->is_linear());
  ASSERT_TRUE(skb->Linearize(16384));
  EXPECT_TRUE(skb->is_linear());
  EXPECT_EQ(skb->nr_frags(), 0u);
  EXPECT_EQ(skb->data_len(), frame.size());
  EXPECT_EQ(skb->total_len(), frame.size());
  EXPECT_EQ(std::memcmp(skb->data(), frame.data(), frame.size()), 0);
  EXPECT_TRUE(skb->VerifyChecksumPrivate());

  // The bound: a frame the cap cannot hold linearizes NOTHING (the caller
  // drops it whole — transmit never truncates).
  SkbPtr bounded = MakeFragSkb({frame.data(), frame.size()}, 512, 1500);
  EXPECT_FALSE(bounded->Linearize(2048));
  EXPECT_FALSE(bounded->is_linear());
  EXPECT_EQ(bounded->data_len(), 512u);

  // A small frame (or degenerate split parameters) stays linear outright.
  SkbPtr small = MakeFragSkb({frame.data(), 200}, 512, 1500);
  EXPECT_TRUE(small->is_linear());
  EXPECT_EQ(small->data_len(), 200u);
}

TEST(Process, IopbGrantsAndRevocations) {
  ProcessTable table;
  Process& proc = table.Spawn("drv", 1000);
  EXPECT_FALSE(proc.MayAccessIoPort(0xc000));
  proc.GrantIoPorts(0xc000, 32);
  EXPECT_TRUE(proc.MayAccessIoPort(0xc000));
  EXPECT_TRUE(proc.MayAccessIoPort(0xc01f));
  EXPECT_FALSE(proc.MayAccessIoPort(0xc020));
  EXPECT_EQ(proc.granted_io_ports(), 32u);
  proc.RevokeIoPorts(0xc000, 32);
  EXPECT_FALSE(proc.MayAccessIoPort(0xc000));
}

TEST(Process, MemoryRlimit) {
  ProcessTable table;
  Process& proc = table.Spawn("drv", 1000);
  proc.rlimits().memory_bytes = 1024;
  EXPECT_TRUE(proc.ChargeMemory(1000).ok());
  EXPECT_EQ(proc.ChargeMemory(100).code(), ErrorCode::kExhausted);
  proc.UncchargeMemory(500);
  EXPECT_TRUE(proc.ChargeMemory(100).ok());
}

// A charge near 2^64 must not wrap the rlimit check: it is refused, and the
// count stays where it was.
TEST(Process, MemoryChargeThatWouldWrapIsRefused) {
  ProcessTable table;
  Process& proc = table.Spawn("drv", 1000);
  ASSERT_TRUE(proc.ChargeMemory(17838080).ok());
  EXPECT_EQ(proc.ChargeMemory(UINT64_MAX - 8191).code(), ErrorCode::kExhausted);
  EXPECT_EQ(proc.ChargeMemory(UINT64_MAX).code(), ErrorCode::kExhausted);
  EXPECT_EQ(proc.memory_used(), 17838080u);
}

TEST(Process, KillMarksDead) {
  ProcessTable table;
  Process& proc = table.Spawn("drv", 1000);
  EXPECT_TRUE(proc.alive());
  EXPECT_TRUE(table.Kill(proc.pid()).ok());
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(table.alive_processes().size(), 0u);
  EXPECT_EQ(table.Kill(99999).code(), ErrorCode::kNotFound);
}

TEST(Process, DistinctUidsPerDriver) {
  ProcessTable table;
  Process& a = table.Spawn("drv-a", 1001);
  Process& b = table.Spawn("drv-b", 1002);
  EXPECT_NE(a.pid(), b.pid());
  EXPECT_NE(a.uid(), b.uid());
}

class FakeOps : public NetDeviceOps {
 public:
  Status Open() override {
    ++opens;
    return open_result;
  }
  Status Stop() override {
    ++stops;
    return Status::Ok();
  }
  size_t StartXmitBatch(std::span<SkbPtr> skbs, uint16_t queue) override {
    xmit_queues.push_back(queue);
    return skbs.size();
  }
  Result<std::string> Ioctl(uint32_t cmd) override { return std::string("ok"); }

  int opens = 0, stops = 0;
  std::vector<uint16_t> xmit_queues;  // the queue of every transmit call
  Status open_result = Status::Ok();
};

TEST(NetSubsystem, RegisterUpDownLifecycle) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeOps ops;
  ASSERT_TRUE(kernel.net().RegisterNetdev("eth0", kMacA, &ops).ok());
  EXPECT_EQ(kernel.net().RegisterNetdev("eth0", kMacA, &ops).status().code(),
            ErrorCode::kAlreadyExists);

  ASSERT_TRUE(kernel.net().BringUp("eth0").ok());
  EXPECT_EQ(ops.opens, 1);
  ASSERT_TRUE(kernel.net().BringUp("eth0").ok());  // idempotent
  EXPECT_EQ(ops.opens, 1);
  ASSERT_TRUE(kernel.net().BringDown("eth0").ok());
  EXPECT_EQ(ops.stops, 1);
  ASSERT_TRUE(kernel.net().UnregisterNetdev("eth0").ok());
  EXPECT_EQ(kernel.net().Find("eth0"), nullptr);
}

TEST(NetSubsystem, OpenFailurePropagates) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeOps ops;
  ops.open_result = Status(ErrorCode::kTimedOut, "driver hung");
  ASSERT_TRUE(kernel.net().RegisterNetdev("eth0", kMacA, &ops).ok());
  EXPECT_EQ(kernel.net().BringUp("eth0").code(), ErrorCode::kTimedOut);
  EXPECT_FALSE(kernel.net().Find("eth0")->is_up());
}

// A single send is a one-frame burst: on a multi-queue interface it reaches
// the driver on the queue its flow hashes to, and counts there.
TEST(NetSubsystem, TransmitCountsInTheSteeredQueue) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeOps ops;
  NetDevice* dev = kernel.net().RegisterNetdev("eth0", kMacA, &ops).value();
  constexpr uint16_t kQueues = 4;
  dev->set_num_queues(kQueues);
  ASSERT_TRUE(kernel.net().BringUp("eth0").ok());
  std::array<uint64_t, kQueues> expected{};
  for (uint16_t port = 1; port <= 16; ++port) {
    auto frame = BuildPacket(kMacB, kMacA, port, 80, {});
    uint16_t queue = FlowQueue({frame.data(), frame.size()}, kQueues);
    ++expected[queue];
    ASSERT_TRUE(kernel.net().Transmit(dev, MakeSkb({frame.data(), frame.size()})).ok());
    EXPECT_EQ(ops.xmit_queues.back(), queue) << "port " << port;
  }
  size_t used = 0;
  for (uint16_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(dev->queue_stats(q).tx_packets.load(), expected[q]) << "queue " << q;
    used += expected[q] > 0 ? 1 : 0;
  }
  EXPECT_GT(used, 1u);  // the flows really spread
  EXPECT_EQ(dev->stats().tx_packets.load(), 16u);
  EXPECT_EQ(dev->stats().tx_dropped.load(), 0u);
}

TEST(NetSubsystem, NetifRxChecksumAndFirewall) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeOps ops;
  NetDevice* dev = kernel.net().RegisterNetdev("eth0", kMacA, &ops).value();
  kernel.net().firewall().DenyPort(23);

  int delivered = 0;
  dev->set_rx_sink([&](const Skb&) { ++delivered; });

  auto good = BuildPacket(kMacA, kMacB, 1, 80, {});
  EXPECT_TRUE(kernel.net().NetifRx(dev, MakeSkb({good.data(), good.size()})).ok());

  auto denied = BuildPacket(kMacA, kMacB, 1, 23, {});
  EXPECT_EQ(kernel.net().NetifRx(dev, MakeSkb({denied.data(), denied.size()})).code(),
            ErrorCode::kPermissionDenied);

  auto corrupt = BuildPacket(kMacA, kMacB, 1, 80, {});
  corrupt[corrupt.size() - 1] ^= 0xff;  // break checksum... payload empty; flip header
  RewriteDstPortRaw({corrupt.data(), corrupt.size()}, 81);
  EXPECT_EQ(kernel.net().NetifRx(dev, MakeSkb({corrupt.data(), corrupt.size()})).code(),
            ErrorCode::kInvalidArgument);

  std::vector<uint8_t> runt = {1, 2, 3};
  EXPECT_EQ(kernel.net().NetifRx(dev, MakeSkb({runt.data(), runt.size()})).code(),
            ErrorCode::kInvalidArgument);

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(dev->stats().rx_packets, 1u);
  EXPECT_EQ(dev->stats().rx_dropped, 3u);
  EXPECT_EQ(dev->stats().rx_bad_checksum, 1u);
  EXPECT_EQ(dev->stats().driver_errors, 1u);  // the runt
}

// rx_packets is the completion signal threaded callers poll: it may count a
// frame only once the sink has run for it, or a poller reads a sink digest
// that is missing the last frame.
TEST(NetSubsystem, NetifRxCountsAfterTheSinkRuns) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeOps ops;
  NetDevice* dev = kernel.net().RegisterNetdev("eth0", kMacA, &ops).value();
  constexpr uint16_t kQueue = 1;
  std::vector<std::pair<uint64_t, uint64_t>> seen;  // (device, queue) inside the sink
  dev->set_rx_sink([&](const Skb&) {
    seen.emplace_back(dev->stats().rx_packets.load(), dev->queue_stats(kQueue).rx_packets.load());
  });
  auto frame = BuildPacket(kMacA, kMacB, 1, 80, {});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(kernel.net().NetifRx(dev, MakeSkb({frame.data(), frame.size()}), kQueue).ok());
  }
  using Counts = std::vector<std::pair<uint64_t, uint64_t>>;
  EXPECT_EQ(seen, (Counts{{0, 0}, {1, 1}, {2, 2}}));
  EXPECT_EQ(dev->stats().rx_packets, 3u);
  EXPECT_EQ(dev->queue_stats(kQueue).rx_packets, 3u);
}

class FakeWifiOps : public WirelessOps {
 public:
  explicit FakeWifiOps(Kernel* kernel) : kernel_(kernel) {}
  uint32_t EnableFeatures(uint32_t requested) override {
    was_atomic = kernel_->InAtomicContext();
    return requested & kWifiFeatureQos;
  }
  Result<std::vector<ScanResult>> Scan() override { return std::vector<ScanResult>{}; }
  Status Associate(const std::string&) override { return Status::Ok(); }
  bool was_atomic = false;

 private:
  Kernel* kernel_;
};

TEST(Wireless, EnableFeaturesRunsAtomically) {
  hw::Machine machine;
  Kernel kernel(&machine);
  FakeWifiOps ops(&kernel);
  ASSERT_TRUE(kernel.wireless()
                  .Register("wlan0", &ops, kWifiFeatureQos | kWifiFeaturePowerSave)
                  .ok());
  Result<uint32_t> enabled =
      kernel.wireless().EnableFeatures("wlan0", kWifiFeatureQos | kWifiFeatureHt40);
  ASSERT_TRUE(enabled.ok());
  EXPECT_EQ(enabled.value(), kWifiFeatureQos);
  EXPECT_TRUE(ops.was_atomic);  // the stack held the "spinlock"
  EXPECT_FALSE(kernel.InAtomicContext());
  EXPECT_EQ(kernel.wireless().Find("wlan0")->enabled_features(), kWifiFeatureQos);
}

TEST(Wireless, OverclaimedFeaturesAreClampedAndLogged) {
  hw::Machine machine;
  Kernel kernel(&machine);
  // An ops that claims a feature it never advertised.
  class LyingOps : public FakeWifiOps {
   public:
    using FakeWifiOps::FakeWifiOps;
    uint32_t EnableFeatures(uint32_t) override { return 0xffffffffu; }
  } ops(&kernel);
  ASSERT_TRUE(kernel.wireless().Register("wlan0", &ops, kWifiFeatureQos).ok());
  LogCapture capture;
  Result<uint32_t> enabled = kernel.wireless().EnableFeatures("wlan0", kWifiFeatureQos);
  ASSERT_TRUE(enabled.ok());
  EXPECT_EQ(enabled.value(), kWifiFeatureQos);  // clamped to supported
  EXPECT_TRUE(capture.Contains("clamping"));
}

TEST(Kernel, IrqDispatchAndSpurious) {
  hw::Machine machine;
  Kernel kernel(&machine);
  int fired = 0;
  uint8_t vector = kernel.AllocIrqVector().value();
  ASSERT_TRUE(kernel.RequestIrq(vector, [&](uint16_t) { ++fired; }).ok());
  EXPECT_EQ(kernel.RequestIrq(vector, [&](uint16_t) {}).code(), ErrorCode::kAlreadyExists);

  ASSERT_TRUE(machine.msi().HandleWrite(0x100, hw::kMsiRangeBase, vector).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(kernel.interrupts_handled(), 1u);

  ASSERT_TRUE(machine.msi().HandleWrite(0x100, hw::kMsiRangeBase, 200).ok());
  EXPECT_EQ(kernel.spurious_interrupts(), 1u);

  ASSERT_TRUE(kernel.FreeIrq(vector).ok());
  EXPECT_EQ(kernel.FreeIrq(vector).code(), ErrorCode::kNotFound);
}

TEST(Kernel, IrqHandlersRunAtomically) {
  hw::Machine machine;
  Kernel kernel(&machine);
  bool was_atomic = false;
  uint8_t vector = kernel.AllocIrqVector().value();
  ASSERT_TRUE(
      kernel.RequestIrq(vector, [&](uint16_t) { was_atomic = kernel.InAtomicContext(); }).ok());
  ASSERT_TRUE(machine.msi().HandleWrite(0x100, hw::kMsiRangeBase, vector).ok());
  EXPECT_TRUE(was_atomic);
  EXPECT_FALSE(kernel.InAtomicContext());
}

// The atomic context is the CURRENT thread's: while one thread sits in an
// interrupt handler, another thread may still block (a wireless scan, an
// association), as on a real multi-core kernel.
TEST(Kernel, AtomicContextBelongsToTheHandlersThreadOnly) {
  hw::Machine machine;
  Kernel kernel(&machine);
  std::atomic<bool> in_handler{false};
  std::atomic<bool> release{false};
  uint8_t vector = kernel.AllocIrqVector().value();
  ASSERT_TRUE(kernel.RequestIrq(vector, [&](uint16_t) {
    in_handler.store(true);
    while (!release.load()) {
      std::this_thread::yield();
    }
  }).ok());
  std::thread irq([&] { (void)machine.msi().HandleWrite(0x100, hw::kMsiRangeBase, vector); });
  while (!in_handler.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(kernel.InAtomicContext());
  release.store(true);
  irq.join();
  EXPECT_FALSE(kernel.InAtomicContext());
}

TEST(Audio, RegisterAndPeriodCallback) {
  hw::Machine machine;
  Kernel kernel(&machine);
  class FakePcm : public PcmOps {
   public:
    Status OpenStream(const PcmConfig&) override { return Status::Ok(); }
    Status CloseStream() override { return Status::Ok(); }
    Status WriteSamples(ConstByteSpan) override { return Status::Ok(); }
  } ops;
  PcmDevice* pcm = kernel.audio().Register("pcm0", &ops).value();
  int periods = 0;
  pcm->set_period_callback([&]() { ++periods; });
  pcm->NotifyPeriodElapsed();
  pcm->NotifyPeriodElapsed();
  EXPECT_EQ(periods, 2);
  EXPECT_EQ(pcm->periods(), 2u);
}

TEST(Input, QueueAndOverflow) {
  InputSubsystem input;
  input.SubmitKey(0x04);
  input.SubmitKey(0x05);
  EXPECT_EQ(input.pending(), 2u);
  EXPECT_EQ(input.PopEvent()->usage_code, 0x04);
  EXPECT_EQ(input.PopEvent()->usage_code, 0x05);
  EXPECT_FALSE(input.PopEvent().has_value());
  for (int i = 0; i < 2000; ++i) {
    input.SubmitKey(1);
  }
  EXPECT_GT(input.dropped(), 0u);
}

}  // namespace
}  // namespace sud::kern
