// DriverHost lifecycle tests: pumped and per-queue threaded modes, comatose
// drivers, restart semantics, resource reclamation across repeated kill
// cycles, and rlimit / scheduling-policy plumbing (§4.1).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/drivers/malicious.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::NetBench;

TEST(DriverHost, StartProbeFailureTearsDownCleanly) {
  NetBench bench;
  // A driver whose probe fails outright.
  class FailingDriver : public uml::Driver {
   public:
    const char* name() const override { return "failing"; }
    Status Probe(uml::DriverEnv& env) override {
      return Status(ErrorCode::kUnavailable, "no firmware");
    }
  };
  Status status = bench.host->Start(std::make_unique<FailingDriver>());
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(bench.host->running());
  // Everything reclaimed: the device can be started again.
  EXPECT_FALSE(bench.machine.iommu().HasContext(bench.sut_nic.address().source_id()));
  EXPECT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
}

// A bind that fails part-way (no contiguous DRAM left for the shared pool)
// undoes what it set up, and the host kills the process it spawned. A
// leftover IOMMU context would refuse every later bind, so a restart under
// memory pressure would leave the device unusable for good.
TEST(DriverHost, FailedBindLeavesTheDeviceReusable) {
  NetBench bench;
  hw::PhysicalMemory& dram = bench.machine.dram();
  std::vector<std::pair<uint64_t, uint64_t>> hog;  // (paddr, pages)
  for (uint64_t pages = 4096; pages > 0; pages /= 2) {
    for (Result<uint64_t> paddr = dram.AllocPages(pages); paddr.ok();
         paddr = dram.AllocPages(pages)) {
      hog.emplace_back(paddr.value(), pages);
    }
  }
  Status failed = bench.host->Start(std::make_unique<drivers::E1000eDriver>());
  EXPECT_EQ(failed.code(), ErrorCode::kExhausted) << failed.ToString();
  EXPECT_FALSE(bench.host->running());
  EXPECT_FALSE(bench.machine.iommu().HasContext(bench.sut_nic.address().source_id()));
  // No handler is left on the failed bind's vector.
  EXPECT_EQ(bench.kernel.FreeIrq(bench.ctx->irq_vector()).code(), ErrorCode::kNotFound);
  ASSERT_NE(bench.host->process(), nullptr);
  EXPECT_FALSE(bench.host->process()->alive());
  EXPECT_EQ(bench.host->process()->memory_used(), 0u);

  for (const auto& [paddr, pages] : hog) {
    dram.FreePages(paddr, pages);
  }
  ASSERT_TRUE(bench.StartSut().ok());
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x1);
  ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
}

TEST(DriverHost, DoubleStartRefused) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  EXPECT_EQ(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).code(),
            ErrorCode::kAlreadyExists);
}

TEST(DriverHost, KillWithoutStartIsAnError) {
  NetBench bench;
  EXPECT_EQ(bench.host->Kill().code(), ErrorCode::kUnavailable);
}

TEST(DriverHost, RepeatedKillRestartCyclesLeakNothing) {
  NetBench bench;
  uint64_t pages_baseline = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
    if (cycle == 0) {
      pages_baseline = bench.machine.dram().allocated_pages();
    } else {
      // Same footprint every cycle: no leaked DMA pages.
      EXPECT_EQ(bench.machine.dram().allocated_pages(), pages_baseline) << "cycle " << cycle;
    }
    ASSERT_TRUE(bench.host->Kill().ok());
  }
  // After the final kill, only the peer's allocations remain.
  EXPECT_LT(bench.machine.dram().allocated_pages(), pages_baseline);
}

TEST(DriverHost, ThreadedModeServicesUpcalls) {
  NetBench bench;
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::E1000eDriver>(),
                          uml::DriverHost::Mode::kThreadedPerQueue)
                  .ok());
  // A one-queue device gets exactly one pump thread.
  EXPECT_EQ(bench.host->thread_count(), 1u);
  // The open upcall is answered by the driver thread, not a pump.
  Status up = bench.kernel.net().BringUp("eth0");
  EXPECT_TRUE(up.ok()) << up.ToString();

  // Atomic: the sink runs on the driver thread while this thread polls.
  std::atomic<int> received{0};
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0xaa);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  }
  // Give the driver thread time to drain.
  for (int spin = 0; spin < 100 && received < 5; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received, 5);
  ASSERT_TRUE(bench.host->Kill().ok());
}

// Tearing a bench down with threaded transmits still in flight: the SUT's
// pump threads keep putting frames on the wire into the peer NIC, whose
// interrupt runs the peer driver, until the host has stopped them.
TEST(DriverHost, TeardownWithThreadedTransmitsInFlightStopsThePumpsFirst) {
  for (int round = 0; round < 4; ++round) {
    NetBench bench;
    ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
    std::vector<uint8_t> payload(64, 0x5a);
    for (int burst = 0; burst < 64; ++burst) {
      (void)bench.SutSendBurst(7000, 9, {payload.data(), payload.size()}, 8);
    }
  }
}

TEST(DriverHost, KillUnblocksSleepingThread) {
  NetBench bench;
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::E1000eDriver>(),
                          uml::DriverHost::Mode::kThreadedPerQueue)
                  .ok());
  // The driver thread is asleep in Wait; Kill must join promptly.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(bench.host->Kill().ok());
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 1000);
}

TEST(DriverHost, ComatoseDriverHoldsResourcesUntilKilled) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::UnresponsiveDriver>()).ok());
  // Upcalls pile up unserviced.
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 1, 2, {});
  for (int i = 0; i < 4; ++i) {
    (void)testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()});
  }
  bench.host->Pump();  // services nothing: the driver is comatose
  EXPECT_GT(bench.ctx->ctl().pending_upcalls(), 0u);
  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_TRUE(bench.ctx->ctl().is_shutdown());
}

// A threaded host starts no pump for a comatose driver either: its upcalls
// stay pending as on a pumped host.
TEST(DriverHost, ComatoseDriverOnAThreadedHostGetsNoPumpThreads) {
  NetBench::Options options;
  options.nic_queues = 2;
  NetBench bench(options);
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                          uml::DriverHost::Mode::kThreadedPerQueue)
                  .ok());
  EXPECT_EQ(bench.host->thread_count(), 0u);
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 1, 2, {});
  ASSERT_TRUE(testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()}));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(bench.ctx->ctl().pending_upcalls(), 1u);
  ASSERT_TRUE(bench.host->Kill().ok());
}

// An `ifconfig up` blocked in a synchronous upcall while restarts rebind the
// device under it: each rebind must leave the shard the sender waits on
// alive, and the sender must come back refused, never answered by a later
// instance.
TEST(DriverHost, RestartsUnderABlockedSyncUpcallKeepItsShard) {
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 5;
  NetBench bench(options);
  auto restart = [&] {
    return bench.host->Restart(std::make_unique<drivers::UnresponsiveDriver>());
  };
  ASSERT_TRUE(restart().ok());
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::atomic<int> attempts{0};
  std::atomic<int> unexpected{0};
  std::thread ifconfig([&] {
    started = true;
    do {
      // Timed out on a live instance, or refused by a shard shut mid-restart.
      ErrorCode code = bench.kernel.net().BringUp("eth0").code();
      if (code != ErrorCode::kTimedOut && code != ErrorCode::kUnavailable) {
        ++unexpected;
      }
      ++attempts;
    } while (!done);
  });
  while (!started) {
    std::this_thread::yield();
  }
  int restarted = 0;
  for (int i = 0; i < 300 && restart().ok(); ++i) {
    ++restarted;
  }
  done = true;
  ifconfig.join();
  EXPECT_EQ(restarted, 300);
  EXPECT_GT(attempts.load(), 0);
  EXPECT_EQ(unexpected.load(), 0);
  // The last instance still sits on the same shard, and still never answers.
  EXPECT_EQ(bench.kernel.net().BringUp("eth0").code(), ErrorCode::kTimedOut);
  ASSERT_TRUE(bench.host->Kill().ok());
}

// A kernel transmit racing administrator restarts (ROADMAP 1(h)): the
// transmit path reaches the context's pool with no lock against a rebind, so
// each bind must re-carve that pool under a new epoch, never free it.
TEST(DriverHost, TransmitRacingRestartsKeepsThePool) {
  NetBench bench;
  const auto threaded = uml::DriverHost::Mode::kThreadedPerQueue;
  ASSERT_TRUE(bench.StartSut(threaded).ok());
  std::vector<uint8_t> payload(64, 0x4d);
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 7100, 80,
                                 {payload.data(), payload.size()});
  std::atomic<bool> done{false};
  std::atomic<int> attempts{0};
  std::thread sender([&] {
    while (!done) {
      (void)bench.kernel.net().Transmit("eth0", kern::MakeSkb({frame.data(), frame.size()}));
      ++attempts;
    }
  });
  int restarted = 0;
  for (int i = 0; i < 300; ++i) {
    if (bench.host->Restart(std::make_unique<drivers::E1000eDriver>(), threaded).ok() &&
        bench.kernel.net().BringUp("eth0").ok()) {
      ++restarted;
    }
  }
  done = true;
  sender.join();
  EXPECT_EQ(restarted, 300);
  EXPECT_GT(attempts.load(), 0);
  // One pool throughout, at the last bind's epoch, and it drains.
  EXPECT_EQ(bench.ctx->pool().epoch(), bench.ctx->bind_generation());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (bench.ctx->pool().outstanding() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(bench.ctx->pool().outstanding(), 0u);
  ASSERT_TRUE(bench.host->Kill().ok());
}

TEST(DriverHost, RestartSwapsDriverType) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  // Restart straight into a different (malicious) driver: the §4.1 scenario
  // of an administrator replacing a binary.
  ASSERT_TRUE(bench.host->Restart(std::make_unique<drivers::ConfigAttackDriver>()).ok());
  auto* attack = static_cast<drivers::ConfigAttackDriver*>(bench.host->driver());
  EXPECT_EQ(attack->outcome().succeeded, 0u);
  // And back to the honest one.
  ASSERT_TRUE(bench.host->Restart(std::make_unique<drivers::E1000eDriver>()).ok());
  EXPECT_TRUE(bench.host->running());
}

TEST(DriverHost, ProcessCarriesPolicyAndLimits) {
  NetBench bench;
  ASSERT_TRUE(bench.host->Start(std::make_unique<drivers::E1000eDriver>()).ok());
  kern::Process* proc = bench.host->process();
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->uid(), testing::kDriverUid);
  EXPECT_EQ(proc->sched_policy(), kern::SchedPolicy::kNormal);
  proc->set_sched_policy(kern::SchedPolicy::kFifo);  // sched_setscheduler
  EXPECT_EQ(proc->sched_policy(), kern::SchedPolicy::kFifo);
  // The e1000e's DMA footprint (rings + 16 MB buffers + pool) is charged.
  EXPECT_GT(proc->memory_used(), 16u * 1024 * 1024);
  EXPECT_LE(proc->memory_used(), proc->rlimits().memory_bytes);
}

// A two-queue driver whose queue-1 interrupt handler parks on a latch the
// test releases (bounded, so a broken run fails instead of hanging), and
// whose ndo_stop frees its interrupts, as e1000e's does.
class ParkingIrqDriver : public uml::Driver {
 public:
  const char* name() const override { return "parking-irq"; }
  Status Probe(uml::DriverEnv& env) override {
    SUD_RETURN_IF_ERROR(env.RequestQueueIrqs(2, [this](uint16_t queue) { OnIrq(queue); }));
    uml::NetDriverOps ops;
    ops.open = [] { return Status::Ok(); };
    ops.stop = [&env] { return env.FreeIrq(); };
    ops.num_queues = 2;
    return env.RegisterNetdev(testing::kMacA, std::move(ops));
  }

  std::array<std::atomic<int>, 2> calls{};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};

 private:
  void OnIrq(uint16_t queue) {
    if (calls[queue].fetch_add(1) > 0 || queue != 1) {
      return;
    }
    parked = true;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

// An interrupt needs no ring slot (ROADMAP 1(e)): a kernel thread that keeps
// the shard's upcall ring full of one-frame transmits while TX completions
// raise interrupts cannot leave the last completions unreaped.
TEST(DriverHost, FullUpcallRingNeverWedgesTxCompletions) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  std::vector<uint8_t> payload(64, 0x5a);
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 7000, 80,
                                 {payload.data(), payload.size()});
  std::thread sender([&] {
    auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    while (std::chrono::steady_clock::now() < until) {
      (void)bench.kernel.net().Transmit(netdev, kern::MakeSkb({frame.data(), frame.size()}));
    }
  });
  sender.join();
  EXPECT_GT(bench.ctx->ctl().stats().ring_full_retries, 0u);  // the ring did fill
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bench.ctx->pool().outstanding() != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(bench.ctx->pool().outstanding(), 0u);
  EXPECT_GT(bench.peer_nic.stats().rx_frames.load(), 0u);
}

// Polls `done` for up to 5 s.
template <typename Pred>
bool WaitFor(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ifconfig down while another queue's interrupt handler runs: ndo_stop frees
// the irq on the control pump while queue 1's pump thread is inside its
// handler. The in-flight dispatch must finish (ack included) without calling
// the freed handler again for its post-ack re-poll.
TEST(DriverHost, FreeIrqDuringInterruptDispatchIsSafe) {
  NetBench::Options options;
  options.nic_queues = 2;
  NetBench bench(options);
  auto owned = std::make_unique<ParkingIrqDriver>();
  ParkingIrqDriver* driver = owned.get();
  ASSERT_TRUE(
      bench.host->Start(std::move(owned), uml::DriverHost::Mode::kThreadedPerQueue).ok());
  ASSERT_EQ(bench.host->thread_count(), 2u);
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());

  // Queue 1's interrupt upcall, on its own shard, as safe-PCI forwards one.
  UchanMsg irq;
  irq.opcode = kOpInterrupt;
  irq.args[0] = 1;
  ASSERT_TRUE(bench.ctx->ctl(1).SendAsync(std::move(irq)).ok());
  ASSERT_TRUE(WaitFor([&] { return driver->parked.load(); }));

  ASSERT_TRUE(bench.kernel.net().BringDown("eth0").ok());  // Stop -> FreeIrq
  driver->release = true;
  ASSERT_TRUE(WaitFor([&] { return bench.host->queue_progress(1) >= 1; }));
  EXPECT_EQ(driver->calls[1].load(), 1);  // no re-poll after FreeIrq
  ASSERT_TRUE(bench.host->Kill().ok());
}

}  // namespace
}  // namespace sud
