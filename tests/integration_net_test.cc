// End-to-end tests of the full SUD stack with the e1000e driver: traffic in
// both directions, ioctls, carrier mirroring, liveness, kill/restart.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/base/log.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kMacA;
using testing::kMacB;
using testing::NetBench;

TEST(IntegrationNet, SutDriverProbesAndOpens) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  ASSERT_NE(netdev, nullptr);
  EXPECT_TRUE(netdev->is_up());
  // MAC propagated from the device EEPROM through the register file.
  EXPECT_EQ(0, memcmp(netdev->dev_addr(), kMacA, 6));
  // Carrier mirrored on (link present).
  EXPECT_TRUE(netdev->carrier());
}

TEST(IntegrationNet, PeerToSutDelivery) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());

  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb& skb) {
    ++received;
    EXPECT_TRUE(skb.checksum_verified);
    EXPECT_EQ(skb.view().dst_port(), 80);
  });

  std::vector<uint8_t> payload(64, 0xab);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bench.PeerSend(1234, 80, ConstByteSpan(payload.data(), payload.size())).ok());
    bench.host->Pump();  // interrupt upcall -> driver -> netif_rx downcall
  }
  EXPECT_EQ(received, 10);
  EXPECT_EQ(bench.sut_driver->stats().rx_delivered, 10u);
  EXPECT_EQ(bench.kernel.net().Find("eth0")->stats().rx_packets, 10u);
}

TEST(IntegrationNet, SutToPeerDelivery) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());

  int received = 0;
  bench.peer_env->netdev()->set_rx_sink([&](const kern::Skb& skb) { ++received; });

  std::vector<uint8_t> payload(128, 0x5a);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bench.SutSend(5555, 80, ConstByteSpan(payload.data(), payload.size())).ok());
  }
  EXPECT_EQ(received, 10);
  EXPECT_EQ(bench.sut_driver->stats().tx_queued, 10u);
  // TX completions free the shared buffers back to the pool.
  bench.host->Pump();
  EXPECT_EQ(bench.ctx->pool().free_count(), bench.ctx->pool().count());
}

TEST(IntegrationNet, IoctlMiiStatusRoundTrip) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  Result<std::string> result = bench.proxy->Ioctl(kern::kIoctlGetMiiStatus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value(), "link up 1000Mb/s");
}

TEST(IntegrationNet, FirewallDropsDeniedPort) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  bench.kernel.net().firewall().DenyPort(22);

  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });

  std::vector<uint8_t> payload(32, 0x01);
  ASSERT_TRUE(bench.PeerSend(1234, 22, ConstByteSpan(payload.data(), payload.size())).ok());
  bench.host->Pump();
  ASSERT_TRUE(bench.PeerSend(1234, 80, ConstByteSpan(payload.data(), payload.size())).ok());
  bench.host->Pump();

  EXPECT_EQ(received, 1);  // only the port-80 packet
  EXPECT_EQ(bench.kernel.net().firewall().rejected(), 1u);
}

TEST(IntegrationNet, InterruptsFlowThroughSud) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  std::vector<uint8_t> payload(64, 0x11);
  ASSERT_TRUE(bench.PeerSend(1, 80, ConstByteSpan(payload.data(), payload.size())).ok());
  bench.host->Pump();
  EXPECT_GE(bench.ctx->interrupt_stats().forwarded, 1u);
  EXPECT_GE(bench.sut_driver->stats().interrupts, 1u);
  EXPECT_GE(bench.kernel.interrupts_handled(), 1u);
}

TEST(IntegrationNet, BringDownStopsDriver) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  ASSERT_TRUE(bench.kernel.net().BringDown("eth0").ok());
  EXPECT_FALSE(bench.kernel.net().Find("eth0")->is_up());
  // Transmit on a downed interface is refused by the kernel.
  auto frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {});
  Status status = bench.kernel.net().Transmit(
      "eth0", kern::MakeSkb(ConstByteSpan(frame.data(), frame.size())));
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
}

TEST(IntegrationNet, KillReclaimsEverything) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uint16_t source = bench.sut_nic.address().source_id();
  EXPECT_GT(bench.machine.iommu().MappedBytes(source), 0u);

  ASSERT_TRUE(bench.host->Kill().ok());

  // IOMMU context gone: the device can no longer DMA anywhere.
  EXPECT_FALSE(bench.machine.iommu().HasContext(source));
  // Bus mastering was cut.
  EXPECT_FALSE(bench.sut_nic.config().bus_master_enabled());
  // Process is dead.
  EXPECT_FALSE(bench.kernel.processes().Find(bench.ctx->bound_process() == nullptr
                                                 ? 0
                                                 : bench.ctx->bound_process()->pid()) != nullptr &&
               false);
}

TEST(IntegrationNet, RestartAfterKillWorks) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  ASSERT_TRUE(bench.host->Kill().ok());

  // The admin downs the dead interface; the Stop upcall fails benignly
  // (interruptable upcall to a dead driver) but the interface goes down.
  Status down = bench.kernel.net().BringDown("eth0");
  EXPECT_FALSE(down.ok());
  EXPECT_FALSE(bench.kernel.net().Find("eth0")->is_up());

  // Restart a fresh driver instance; it re-registers and traffic flows again.
  auto fresh = std::make_unique<drivers::E1000eDriver>();
  drivers::E1000eDriver* fresh_ptr = fresh.get();
  ASSERT_TRUE(bench.host->Start(std::move(fresh)).ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());

  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x22);
  ASSERT_TRUE(bench.PeerSend(9, 80, ConstByteSpan(payload.data(), payload.size())).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(fresh_ptr->stats().rx_delivered, 1u);
}

TEST(IntegrationNet, CpuModelChargesBothAccounts) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  bench.machine.cpu().Reset();
  std::vector<uint8_t> payload(512, 0x77);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(bench.PeerSend(1, 80, ConstByteSpan(payload.data(), payload.size())).ok());
    bench.host->Pump();
  }
  EXPECT_GT(bench.machine.cpu().busy(kAccountKernel), 0u);
  EXPECT_GT(bench.machine.cpu().busy(kAccountDriver), 0u);
}

// Full-stack determinism of the threaded traffic-generator peers: N
// generator threads feeding a threaded-per-queue SUT must deliver exactly
// the same per-queue frame counts and per-flow digests as a serial replay of
// the same flows into a pumped SUT — RSS pinning plus windowed pacing leaves
// the interleaving no room to change the outcome.
TEST(IntegrationNet, ThreadedPeersMatchSerialPerQueueCountsAndChecksums) {
  constexpr uint32_t kQueues = 4;
  constexpr uint64_t kTotal = 2000;
  constexpr uint32_t kWindow = 32;
  std::vector<uint8_t> payload(256, 0x6b);

  struct RunResult {
    std::vector<uint64_t> rx_per_queue;
    std::vector<uint64_t> gen_frames;
    std::vector<uint64_t> gen_hash;
    uint64_t delivered = 0;
    uint64_t bad_checksum = 0;
  };
  auto collect = [&](NetBench& bench) {
    RunResult result;
    kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
    for (uint32_t q = 0; q < kQueues; ++q) {
      result.rx_per_queue.push_back(netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets);
      result.gen_frames.push_back(bench.link.peer_stats(q).frames.load());
      result.gen_hash.push_back(bench.link.peer_stats(q).frame_hash.load());
    }
    result.delivered = netdev->stats().rx_packets;
    result.bad_checksum = netdev->stats().rx_bad_checksum;
    return result;
  };

  // Serial replay into a pumped SUT.
  NetBench::Options options;
  options.nic_queues = kQueues;
  RunResult serial;
  {
    NetBench bench(options);
    ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kPumped).ok());
    bench.MaskPeerIrq();
    bench.link.RunPeersSerial(
        bench.BuildQueueFlows(kQueues, {payload.data(), payload.size()}, kTotal, kWindow),
        [&]() { bench.host->Pump(); },
        /*side=*/1);
    for (int spin = 0; spin < 1000 && collect(bench).delivered < kTotal; ++spin) {
      bench.host->Pump();
    }
    serial = collect(bench);
  }

  // Threaded generation into a threaded-per-queue SUT.
  RunResult threaded;
  {
    NetBench bench(options);
    ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
    bench.MaskPeerIrq();
    bench.link.StartPeers(
        bench.BuildQueueFlows(kQueues, {payload.data(), payload.size()}, kTotal, kWindow),
        /*side=*/1);
    bench.link.JoinPeers();
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (collect(bench).delivered < kTotal && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    threaded = collect(bench);
    ASSERT_TRUE(bench.host->Kill().ok());
  }

  EXPECT_EQ(serial.delivered, kTotal);
  EXPECT_EQ(threaded.delivered, serial.delivered);
  EXPECT_EQ(serial.bad_checksum, 0u);
  EXPECT_EQ(threaded.bad_checksum, 0u);
  for (uint32_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(threaded.rx_per_queue[q], serial.rx_per_queue[q]) << "queue " << q;
    EXPECT_EQ(threaded.gen_frames[q], serial.gen_frames[q]) << "queue " << q;
    EXPECT_EQ(threaded.gen_hash[q], serial.gen_hash[q]) << "queue " << q;
    // One flow per queue, evenly split: the counts themselves are known.
    EXPECT_EQ(serial.rx_per_queue[q], kTotal / kQueues) << "queue " << q;
  }
}

// Jumbo conservation + determinism: 9000-byte-MTU frames that EOP-chain
// across 3 descriptors per frame (4 queues -> 4 KB buffers), serial-pumped
// vs threaded-per-queue. Both runs must deliver every frame, with equal
// per-queue counts and an order-independent FNV digest of the DELIVERED
// frames equal to the generators' digest — reassembly must never tear,
// truncate or substitute a frame, no matter the interleaving.
TEST(IntegrationNet, JumboEopChainsSurviveSerialAndThreadedDelivery) {
  constexpr uint32_t kQueues = 4;
  constexpr uint64_t kTotal = 800;
  constexpr uint32_t kWindow = 32;
  std::vector<uint8_t> payload(9000 - kern::kTransportHeaderSize, 0x6b);

  struct RunResult {
    std::vector<uint64_t> rx_per_queue;
    uint64_t delivered = 0;
    uint64_t delivered_digest = 0;
    uint64_t gen_digest = 0;
    uint64_t bad_checksum = 0;
    uint64_t chain_frames = 0;
    double frags_per_chain = 0;
  };
  auto run = [&](uml::DriverHost::Mode mode) {
    NetBench::Options options;
    options.nic_queues = kQueues;
    options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
    NetBench bench(options);
    EXPECT_TRUE(bench.StartSut(mode).ok());
    bench.MaskPeerIrq();
    kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
    // Order-independent digest: safe to accumulate from any pump thread
    // because the sink runs under the per-queue delivery path and the sum is
    // atomic.
    std::atomic<uint64_t> digest{0};
    netdev->set_rx_sink([&digest](const kern::Skb& skb) {
      digest.fetch_add(devices::EtherLink::FrameHash(skb.span()), std::memory_order_relaxed);
    });
    auto flows = bench.BuildQueueFlows(kQueues, {payload.data(), payload.size()}, kTotal,
                                       kWindow);
    if (mode == uml::DriverHost::Mode::kThreadedPerQueue) {
      bench.link.StartPeers(std::move(flows), /*side=*/1);
      bench.link.JoinPeers();
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (netdev->stats().rx_packets.load() < kTotal &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    } else {
      bench.link.RunPeersSerial(std::move(flows), [&]() { bench.host->Pump(); }, /*side=*/1);
      for (int spin = 0; spin < 1000 && netdev->stats().rx_packets.load() < kTotal; ++spin) {
        bench.host->Pump();
      }
    }
    RunResult result;
    for (uint32_t q = 0; q < kQueues; ++q) {
      result.rx_per_queue.push_back(netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets);
      result.gen_digest += bench.link.peer_stats(q).frame_hash.load();
    }
    result.delivered = netdev->stats().rx_packets;
    result.delivered_digest = digest.load();
    result.bad_checksum = netdev->stats().rx_bad_checksum;
    result.chain_frames = bench.sut_nic.stats().rx_chain_frames.load();
    result.frags_per_chain =
        result.chain_frames > 0
            ? static_cast<double>(bench.sut_nic.stats().rx_chain_descs.load()) /
                  result.chain_frames
            : 0;
    if (mode == uml::DriverHost::Mode::kThreadedPerQueue) {
      EXPECT_TRUE(bench.host->Kill().ok());
    }
    return result;
  };

  RunResult serial = run(uml::DriverHost::Mode::kPumped);
  RunResult threaded = run(uml::DriverHost::Mode::kThreadedPerQueue);

  EXPECT_EQ(serial.delivered, kTotal);
  EXPECT_EQ(threaded.delivered, kTotal);
  EXPECT_EQ(serial.bad_checksum, 0u);
  EXPECT_EQ(threaded.bad_checksum, 0u);
  // Every frame chained (9014 bytes over 4 KB buffers = 3 descriptors).
  EXPECT_EQ(serial.chain_frames, kTotal);
  EXPECT_EQ(threaded.chain_frames, kTotal);
  EXPECT_DOUBLE_EQ(serial.frags_per_chain, 3.0);
  EXPECT_DOUBLE_EQ(threaded.frags_per_chain, 3.0);
  // Conservation at the byte level: what the kernel accepted is bit-for-bit
  // what the generators sent, in both modes.
  EXPECT_EQ(serial.delivered_digest, serial.gen_digest);
  EXPECT_EQ(threaded.delivered_digest, threaded.gen_digest);
  for (uint32_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(threaded.rx_per_queue[q], serial.rx_per_queue[q]) << "queue " << q;
  }
}

// TX scatter/gather determinism: the SUT transmits jumbo FRAG skbs across 4
// queues — every frame a 5-fragment kEthUpXmit upcall and a 5-descriptor
// TX chain — serial-pumped vs threaded-per-queue. Both modes must put every
// frame on the wire whole (per-queue device counts equal and known, the
// order-independent FNV digest of the wire frames equal to the digest of the
// frames as built), with zero linearize copies: gather must never tear,
// truncate or interleave a chain, no matter the thread interleaving.
TEST(IntegrationNet, TxScatterGatherSerialVsThreadedDeterminism) {
  constexpr uint32_t kQueues = 4;
  constexpr uint64_t kPerQueue = 64;
  constexpr int kBurst = 8;  // frames per queue per paced round
  std::vector<uint8_t> payload(9000 - kern::kTransportHeaderSize, 0x6b);

  // One frame per queue, source ports searched so the kernel's transmit
  // steering pins flow q to queue q (the same pinning BuildQueueFlows uses
  // on the receive side).
  std::array<std::vector<uint8_t>, kQueues> flow_frames;
  uint64_t expected_digest = 0;
  uint16_t next_port = 43000;
  for (uint32_t q = 0; q < kQueues; ++q) {
    for (;; ++next_port) {
      auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, next_port, 80,
                                     {payload.data(), payload.size()});
      if (kern::FlowQueue({frame.data(), frame.size()}, kQueues) == q) {
        flow_frames[q] = std::move(frame);
        ++next_port;
        break;
      }
    }
    expected_digest +=
        kPerQueue * devices::EtherLink::FrameHash({flow_frames[q].data(),
                                                   flow_frames[q].size()});
  }

  struct WireRecorder : devices::EtherEndpoint {
    std::atomic<uint64_t> frames{0};
    std::atomic<uint64_t> digest{0};
    // The count is the completion signal the test waits on, so it moves
    // after the digest: a reader that sees N frames sees their N hashes.
    void DeliverFrame(ConstByteSpan frame) override {
      digest.fetch_add(devices::EtherLink::FrameHash(frame), std::memory_order_relaxed);
      frames.fetch_add(1, std::memory_order_release);
    }
  };

  struct RunResult {
    std::vector<uint64_t> tx_per_queue;
    uint64_t wire_frames = 0;
    uint64_t wire_digest = 0;
    uint64_t tx_linearized = 0;
    uint64_t chain_frames = 0;
    double frags_per_chain = 0;
  };
  auto run = [&](uml::DriverHost::Mode mode) {
    NetBench::Options options;
    options.nic_queues = kQueues;
    options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
    options.start_peer = false;
    NetBench bench(options);
    WireRecorder wire;
    bench.link.Attach(1, &wire);
    EXPECT_TRUE(bench.StartSut(mode).ok());
    kern::NetDevice* netdev = bench.kernel.net().Find("eth0");

    // Paced rounds: kBurst frag skbs per queue per round, then wait for the
    // round to reach the wire (and the staging pool to refill) so neither
    // the uchan rings nor the pool can overflow — the counts stay exact.
    uint64_t sent = 0;
    for (uint64_t round = 0; round < kPerQueue / kBurst; ++round) {
      std::vector<kern::SkbPtr> skbs;
      for (uint32_t q = 0; q < kQueues; ++q) {
        for (int i = 0; i < kBurst; ++i) {
          skbs.push_back(kern::MakeFragSkb({flow_frames[q].data(), flow_frames[q].size()},
                                           /*head_len=*/2048, /*frag_len=*/2048));
        }
      }
      Result<size_t> accepted = bench.kernel.net().TransmitBatch(netdev, std::move(skbs));
      EXPECT_TRUE(accepted.ok());
      EXPECT_EQ(accepted.value(), static_cast<size_t>(kBurst) * kQueues);
      sent += kBurst * kQueues;
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while ((wire.frames.load() < sent ||
              bench.ctx->pool().free_count() < bench.ctx->pool().count()) &&
             std::chrono::steady_clock::now() < deadline) {
        if (mode == uml::DriverHost::Mode::kPumped) {
          bench.host->Pump();
        } else {
          std::this_thread::yield();
        }
      }
    }

    RunResult result;
    for (uint32_t q = 0; q < kQueues; ++q) {
      result.tx_per_queue.push_back(bench.sut_nic.queue_stats(q).tx_frames.load());
    }
    result.wire_frames = wire.frames.load();
    result.wire_digest = wire.digest.load();
    result.tx_linearized = netdev->stats().tx_linearized.load();
    result.chain_frames = bench.sut_nic.stats().tx_chain_frames.load();
    result.frags_per_chain =
        result.chain_frames > 0
            ? static_cast<double>(bench.sut_nic.stats().tx_chain_descs.load()) /
                  result.chain_frames
            : 0;
    if (mode == uml::DriverHost::Mode::kThreadedPerQueue) {
      EXPECT_TRUE(bench.host->Kill().ok());
    }
    return result;
  };

  RunResult serial = run(uml::DriverHost::Mode::kPumped);
  RunResult threaded = run(uml::DriverHost::Mode::kThreadedPerQueue);

  EXPECT_EQ(serial.wire_frames, kPerQueue * kQueues);
  EXPECT_EQ(threaded.wire_frames, kPerQueue * kQueues);
  // Byte-level conservation: the wire carried bit-for-bit the frames the
  // stack sent, in both modes.
  EXPECT_EQ(serial.wire_digest, expected_digest);
  EXPECT_EQ(threaded.wire_digest, expected_digest);
  // Zero linearize copies (the SG path), every frame a 5-descriptor chain
  // (8970 bytes over 2048-byte pool buffers: 2048 + 3x2048 + 778).
  EXPECT_EQ(serial.tx_linearized, 0u);
  EXPECT_EQ(threaded.tx_linearized, 0u);
  EXPECT_EQ(serial.chain_frames, kPerQueue * kQueues);
  EXPECT_EQ(threaded.chain_frames, kPerQueue * kQueues);
  EXPECT_DOUBLE_EQ(serial.frags_per_chain, 5.0);
  EXPECT_DOUBLE_EQ(threaded.frags_per_chain, 5.0);
  for (uint32_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(serial.tx_per_queue[q], kPerQueue) << "queue " << q;
    EXPECT_EQ(threaded.tx_per_queue[q], serial.tx_per_queue[q]) << "queue " << q;
  }
}

// UDP_RR client as a threaded EtherLink peer vs the serial replay of the
// same flow: both must complete every transaction with identical request
// digests and identical SUT counters. The serving loop is the same in both
// runs (request lands; pump; reply; pump); what differs is whose thread
// transmits the requests — the wire-level reply ack (link frames from the
// SUT side) is what sequences the client in both.
TEST(IntegrationNet, RrThreadedClientMatchesSerialReplay) {
  constexpr uint64_t kTransactions = 200;
  std::vector<uint8_t> payload(64, 0x5a);
  auto request = kern::BuildPacket(kMacA, kMacB, 7001, 7002,
                                   {payload.data(), payload.size()});
  const uint64_t request_digest =
      kTransactions * devices::EtherLink::FrameHash({request.data(), request.size()});

  struct RunResult {
    uint64_t requests_seen = 0;
    uint64_t client_frames = 0;
    uint64_t client_hash = 0;
    bool gave_up = false;
    uint64_t rx_packets = 0;
    uint64_t tx_packets = 0;
  };
  auto collect = [&](NetBench& bench) {
    RunResult result;
    kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
    result.client_frames = bench.link.peer_stats(0).frames.load();
    result.client_hash = bench.link.peer_stats(0).frame_hash.load();
    result.gave_up = bench.link.peer_stats(0).gave_up.load();
    result.rx_packets = netdev->stats().rx_packets.load();
    result.tx_packets = netdev->stats().tx_packets.load();
    return result;
  };
  auto make_flow = [&](NetBench& bench, uint64_t replies_base) {
    devices::EtherLink::RrFlow flow;
    flow.request = request;
    flow.transactions = kTransactions;
    // Wire-level ack: a transaction is complete once the SUT's reply frame
    // finished its DMA into the peer endpoint (frames[0] counts after
    // delivery).
    flow.replies = [link = &bench.link, replies_base]() {
      return link->stats().frames[0].load() - replies_base;
    };
    return flow;
  };
  auto send_reply = [&](NetBench& bench, kern::NetDevice* netdev) {
    auto reply = kern::BuildPacket(kMacB, kMacA, 7002, 7001,
                                   {payload.data(), payload.size()});
    (void)bench.kernel.net().Transmit(netdev,
                                      kern::MakeSkb({reply.data(), reply.size()}));
  };

  // Serial replay: the client transmits on the bench thread, `serve` pumps
  // the SUT and answers each pending request until the reply hits the wire.
  RunResult serial;
  {
    NetBench bench;
    ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kPumped).ok());
    kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
    uint64_t requests = 0;
    uint64_t replied = 0;
    netdev->set_rx_sink([&](const kern::Skb&) { ++requests; });
    uint64_t replies_base = bench.link.stats().frames[0].load();
    bench.link.RunRrPeersSerial({make_flow(bench, replies_base)}, [&]() {
      bench.host->Pump();
      if (requests > replied) {
        send_reply(bench, netdev);
        bench.host->Pump();
        ++replied;
      }
    });
    serial = collect(bench);
    serial.requests_seen = requests;
  }

  // Threaded client: same flow, requests transmitted from the client's own
  // thread; the bench thread runs the identical serving loop.
  RunResult threaded;
  {
    NetBench bench;
    ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kPumped).ok());
    kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
    std::atomic<uint64_t> requests{0};
    netdev->set_rx_sink([&](const kern::Skb&) {
      requests.fetch_add(1, std::memory_order_relaxed);
    });
    uint64_t requests_base = bench.link.stats().frames[1].load();
    uint64_t replies_base = bench.link.stats().frames[0].load();
    bench.link.StartRrPeers({make_flow(bench, replies_base)}, /*side=*/1);
    for (uint64_t txn = 0; txn < kTransactions; ++txn) {
      while (bench.link.stats().frames[1].load() < requests_base + txn + 1) {
        std::this_thread::yield();
      }
      bench.host->Pump();  // request reaches the rx sink
      send_reply(bench, netdev);
      bench.host->Pump();  // reply reaches the wire -> acks the client
    }
    bench.link.JoinPeers();
    threaded = collect(bench);
    threaded.requests_seen = requests.load();
  }

  EXPECT_FALSE(serial.gave_up);
  EXPECT_FALSE(threaded.gave_up);
  EXPECT_EQ(serial.client_frames, kTransactions);
  EXPECT_EQ(threaded.client_frames, serial.client_frames);
  EXPECT_EQ(serial.client_hash, request_digest);
  EXPECT_EQ(threaded.client_hash, serial.client_hash);
  EXPECT_EQ(serial.requests_seen, kTransactions);
  EXPECT_EQ(threaded.requests_seen, serial.requests_seen);
  EXPECT_EQ(serial.rx_packets, kTransactions);
  EXPECT_EQ(threaded.rx_packets, serial.rx_packets);
  EXPECT_EQ(serial.tx_packets, kTransactions);
  EXPECT_EQ(threaded.tx_packets, serial.tx_packets);
}

// Concurrent transmit ENTRY: one kernel thread per flow calling
// NetSubsystem::Transmit simultaneously (the multi-core stack), against a
// serial replay of the same flows. The shared state on that path — staging
// pool, per-queue uchan rings, proxy/netdev counters — must keep the counts
// exact and the wire digest bit-identical under any interleaving.
TEST(IntegrationNet, ConcurrentTxSendersMatchSerialPerQueue) {
  constexpr uint32_t kQueues = 4;
  constexpr uint64_t kPerQueue = 256;
  constexpr uint64_t kWindow = 16;  // in-flight cap per sender, under ring depth
  std::vector<uint8_t> payload(256, 0x3c);

  // One frame per queue, source ports searched so transmit steering pins
  // flow q to queue q (the TxScatterGather pinning).
  std::array<std::vector<uint8_t>, kQueues> flow_frames;
  uint64_t expected_digest = 0;
  uint16_t next_port = 45000;
  for (uint32_t q = 0; q < kQueues; ++q) {
    for (;; ++next_port) {
      auto frame = kern::BuildPacket(kMacA, kMacB, next_port, 80,
                                     {payload.data(), payload.size()});
      if (kern::FlowQueue({frame.data(), frame.size()}, kQueues) == q) {
        flow_frames[q] = std::move(frame);
        ++next_port;
        break;
      }
    }
    expected_digest += kPerQueue * devices::EtherLink::FrameHash(
                                       {flow_frames[q].data(), flow_frames[q].size()});
  }

  struct WireRecorder : devices::EtherEndpoint {
    std::atomic<uint64_t> frames{0};
    std::atomic<uint64_t> digest{0};
    // The count is the completion signal the test waits on, so it moves
    // after the digest: a reader that sees N frames sees their N hashes.
    void DeliverFrame(ConstByteSpan frame) override {
      digest.fetch_add(devices::EtherLink::FrameHash(frame), std::memory_order_relaxed);
      frames.fetch_add(1, std::memory_order_release);
    }
  };

  struct RunResult {
    std::vector<uint64_t> tx_per_queue;
    uint64_t wire_frames = 0;
    uint64_t wire_digest = 0;
    uint64_t tx_packets = 0;
  };
  auto run = [&](uml::DriverHost::Mode mode) {
    NetBench::Options options;
    options.nic_queues = kQueues;
    options.start_peer = false;
    NetBench bench(options);
    WireRecorder wire;
    bench.link.Attach(1, &wire);
    EXPECT_TRUE(bench.StartSut(mode).ok());
    kern::NetDevice* netdev = bench.kernel.net().Find("eth0");

    // One sender's budget: window-paced against the NIC's per-queue transmit
    // counter (frames the driver actually pushed through), retrying when the
    // burst outruns the staging pool or the ring. `drain` is what a blocked
    // sender does while it waits — pump on the serial host, yield when the
    // driver threads drain on their own.
    auto send_flow = [&](uint32_t q, const std::function<void()>& drain) {
      uint64_t sent = 0;
      while (sent < kPerQueue) {
        while (sent - bench.sut_nic.queue_stats(static_cast<uint16_t>(q))
                          .tx_frames.load() >= kWindow) {
          drain();
        }
        Status status = bench.kernel.net().Transmit(
            netdev, kern::MakeSkb({flow_frames[q].data(), flow_frames[q].size()}));
        if (status.ok()) {
          ++sent;
        } else {
          drain();
        }
      }
    };

    if (mode == uml::DriverHost::Mode::kPumped) {
      for (uint32_t q = 0; q < kQueues; ++q) {
        send_flow(q, [&]() { bench.host->Pump(); });
      }
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (wire.frames.load() < kPerQueue * kQueues &&
             std::chrono::steady_clock::now() < deadline) {
        bench.host->Pump();
      }
    } else {
      std::vector<std::thread> senders;
      for (uint32_t q = 0; q < kQueues; ++q) {
        senders.emplace_back(
            [&, q]() { send_flow(q, []() { std::this_thread::yield(); }); });
      }
      for (std::thread& sender : senders) {
        sender.join();
      }
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (wire.frames.load() < kPerQueue * kQueues &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }

    RunResult result;
    for (uint32_t q = 0; q < kQueues; ++q) {
      result.tx_per_queue.push_back(
          bench.sut_nic.queue_stats(static_cast<uint16_t>(q)).tx_frames.load());
    }
    result.wire_frames = wire.frames.load();
    result.wire_digest = wire.digest.load();
    result.tx_packets = netdev->stats().tx_packets.load();
    if (mode == uml::DriverHost::Mode::kThreadedPerQueue) {
      EXPECT_TRUE(bench.host->Kill().ok());
    }
    return result;
  };

  RunResult serial = run(uml::DriverHost::Mode::kPumped);
  RunResult threaded = run(uml::DriverHost::Mode::kThreadedPerQueue);

  EXPECT_EQ(serial.wire_frames, kPerQueue * kQueues);
  EXPECT_EQ(threaded.wire_frames, serial.wire_frames);
  EXPECT_EQ(serial.wire_digest, expected_digest);
  EXPECT_EQ(threaded.wire_digest, expected_digest);
  EXPECT_EQ(serial.tx_packets, kPerQueue * kQueues);
  EXPECT_EQ(threaded.tx_packets, serial.tx_packets);
  for (uint32_t q = 0; q < kQueues; ++q) {
    EXPECT_EQ(serial.tx_per_queue[q], kPerQueue) << "queue " << q;
    EXPECT_EQ(threaded.tx_per_queue[q], serial.tx_per_queue[q]) << "queue " << q;
  }
}

// The torn/endless-chain regressions, played against the driver's reap by
// forging descriptor state in ring memory (the "malicious device" of the
// SoK's device-side attack surface — this driver also runs in-kernel, where
// its robustness IS the kernel's). A ring full of DD-without-EOP descriptors
// must be dropped in bounded chains; a partial (torn) chain must neither
// deliver nor wedge; real traffic must flow again afterwards.
TEST(IntegrationNet, TornAndEndlessEopChainsAreBoundedAndDropped) {
  NetBench::Options options;
  options.start_sut = false;
  // Multi-queue: NapiPoll reaps every queue unconditionally (MSI-X style, no
  // ICR gate), which lets the test drive the reap against forged ring state
  // that raised no interrupt. 4 KB buffers per descriptor.
  options.nic_queues = 4;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSutInKernel().ok());
  bench.MaskPeerIrq();
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  drivers::E1000eDriver* driver = bench.sut_driver;

  // Forge: every descriptor of the ring claims DD, none claims EOP (the
  // endless chain). Write through the driver's own DMA view, as corrupted
  // descriptor memory would appear.
  uint64_t ring = driver->rx_ring_iova(0);
  for (uint32_t i = 0; i < drivers::E1000eDriver::kRxDescriptors; ++i) {
    Result<ByteSpan> view = bench.sut_env->DmaView(ring + i * 16ull, 16);
    ASSERT_TRUE(view.ok());
    StoreLe16(view.value().data() + 8, 2048);                       // plausible length
    view.value().data()[12] = devices::kNicDescStatusDone;          // DD, no EOP
  }
  driver->NapiPoll();
  // Bounded: the first over-cap run was dropped as one chain, the rest of
  // the no-EOP ring was recycled in resync mode (nothing mid-frame is ever
  // parsed as a fresh frame), nothing was delivered, and the reap
  // terminated.
  EXPECT_EQ(driver->stats().rx_chain_dropped.load(), 1u);
  EXPECT_EQ(driver->stats().rx_delivered.load(), 0u);
  EXPECT_EQ(netdev->stats().rx_packets.load(), 0u);

  // Torn continuation: two more DD-no-EOP descriptors. Still resyncing (the
  // dropped chain's EOP never appeared): recycled unparsed, no delivery, no
  // additional drop, no wedge.
  uint32_t parked = driver->rx_next(0);
  for (uint32_t i = 0; i < 2; ++i) {
    uint32_t index = (parked + i) % drivers::E1000eDriver::kRxDescriptors;
    Result<ByteSpan> view = bench.sut_env->DmaView(ring + index * 16ull, 16);
    ASSERT_TRUE(view.ok());
    StoreLe16(view.value().data() + 8, 1024);
    view.value().data()[12] = devices::kNicDescStatusDone;
  }
  driver->NapiPoll();
  EXPECT_EQ(driver->stats().rx_delivered.load(), 0u);
  EXPECT_EQ(driver->stats().rx_chain_dropped.load(), 1u);

  // The (forged) EOP that finally terminates the torn chain is consumed by
  // the resync too — garbage tail bytes never reach the stack at all.
  uint32_t eop_index = (parked + 2) % drivers::E1000eDriver::kRxDescriptors;
  Result<ByteSpan> eop_view = bench.sut_env->DmaView(ring + eop_index * 16ull, 16);
  ASSERT_TRUE(eop_view.ok());
  StoreLe16(eop_view.value().data() + 8, 512);
  eop_view.value().data()[12] = devices::kNicDescStatusDone | devices::kNicDescStatusEop;
  driver->NapiPoll();
  EXPECT_EQ(netdev->stats().rx_packets.load(), 0u);
  EXPECT_EQ(netdev->stats().rx_dropped.load(), 0u);
  EXPECT_EQ(driver->stats().rx_delivered.load(), 0u);

  // And the interface is still alive: a real jumbo frame delivers end to end.
  std::vector<uint8_t> payload(9000 - kern::kTransportHeaderSize, 0x3c);
  ASSERT_TRUE(bench.PeerSend(33011, 80, {payload.data(), payload.size()}).ok());
  driver->NapiPoll();
  EXPECT_EQ(netdev->stats().rx_packets.load(), 1u);
}

}  // namespace
}  // namespace sud
