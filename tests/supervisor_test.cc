// Shadow-driver-style recovery tests: the supervisor detects dead and hung
// drivers and restores service without administrator involvement.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/drivers/malicious.h"
#include "src/kern/rss_rebalancer.h"
#include "src/uml/supervisor.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::NetBench;

std::unique_ptr<uml::Driver> MakeE1000e() { return std::make_unique<drivers::E1000eDriver>(); }

TEST(Supervisor, NoActionWhileHealthy) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeE1000e);
  supervisor.ShadowNetdev("eth0");
  EXPECT_FALSE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.restarts(), 0u);
}

TEST(Supervisor, RecoversFromKilledDriver) {
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeE1000e);
  supervisor.ShadowNetdev("eth0");

  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_TRUE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.restarts(), 1u);

  // Service restored: interface up, traffic flows.
  EXPECT_TRUE(bench.kernel.net().Find("eth0")->is_up());
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x1);
  ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
}

TEST(Supervisor, RecoversFromHungDriver) {
  NetBench::Options options;
  options.sud.uchan.ring_entries = 4;
  options.sud.uchan.sync_timeout_ms = 25;
  NetBench bench(options);
  // A comatose driver: probe succeeds, then it services nothing.
  ASSERT_TRUE(bench.host
                  ->Start(std::make_unique<drivers::UnresponsiveDriver>(),
                          uml::DriverHost::Mode::kComatose)
                  .ok());
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeE1000e);
  supervisor.ShadowNetdev("eth0");
  supervisor.AttachProxy(bench.proxy.get());

  // The kernel piles up transmits until the proxy reports the driver hung.
  auto frame = kern::BuildPacket(testing::kMacB, testing::kMacA, 1, 2, {});
  for (int i = 0; i < 16; ++i) {
    (void)testing::ProxyXmit(*bench.proxy, {frame.data(), frame.size()});
  }
  ASSERT_GE(bench.proxy->stats().hung_reports, 1u);

  EXPECT_TRUE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.stats().hung_recoveries, 1u);
  // The replacement is a real e1000e; the interface works again.
  EXPECT_TRUE(bench.kernel.net().Find("eth0")->is_up());
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x2);
  ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
}

TEST(Supervisor, RecoversWithoutShadowNetdev) {
  // No ShadowNetdev call: the supervisor has no recorded interface to
  // replay. Recovery must still complete — only the config replay (bring-up,
  // MTU) is skipped, leaving the fresh interface administratively down.
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeE1000e);

  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_TRUE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.restarts(), 1u);

  // Without replay the kernel's up flag is stale: the netdev still claims
  // up from before the kill, but the fresh driver never saw an Open upcall —
  // the administrator must cycle the interface by hand (the exact toil the
  // shadow replay automates).
  kern::NetDevice* dev = bench.kernel.net().Find("eth0");
  ASSERT_NE(dev, nullptr);
  ASSERT_TRUE(bench.kernel.net().BringDown("eth0").ok());
  ASSERT_TRUE(bench.kernel.net().BringUp("eth0").ok());
  int received = 0;
  dev->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x3);
  ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
}

TEST(Supervisor, FailedReplacementStillConsumesBudget) {
  // A replacement whose Start fails must still burn a restart from the
  // budget: otherwise a persistently-broken factory gives the supervisor an
  // infinite retry loop instead of a march toward gave_up().
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  class ProbeFailDriver : public uml::Driver {
   public:
    const char* name() const override { return "probe-fail"; }
    Status Probe(uml::DriverEnv&) override {
      return Status(ErrorCode::kUnavailable, "replacement firmware missing");
    }
  };
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 3;
  uml::DriverSupervisor supervisor(
      &bench.kernel, bench.host.get(), []() { return std::make_unique<ProbeFailDriver>(); },
      sup_options);
  supervisor.ShadowNetdev("eth0");

  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_FALSE(supervisor.CheckAndRecover());  // Start failed: no recovery...
  EXPECT_EQ(supervisor.restarts(), 1u);        // ...but the budget moved.
  EXPECT_EQ(supervisor.stats().dead_recoveries, 1u);
  EXPECT_FALSE(supervisor.gave_up());

  EXPECT_FALSE(supervisor.CheckAndRecover());
  EXPECT_FALSE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.restarts(), 3u);
  EXPECT_FALSE(supervisor.CheckAndRecover());  // past max: terminal give-up
  EXPECT_TRUE(supervisor.gave_up());
  EXPECT_EQ(supervisor.restarts(), 3u);
}

TEST(Supervisor, RecoveryRacesConcurrentKill) {
  // An administrator's kill -9 racing the supervisor's own recovery: the
  // host's lifecycle lock and the supervisor's mutex must serialize the two
  // so neither sees a half-torn-down context. Outcome-wise any interleaving
  // is fine; the invariant is no crash, no deadlock, and a final recovery
  // that restores service.
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 64;  // headroom: every kill below may cost one
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeE1000e,
                                   sup_options);
  supervisor.ShadowNetdev("eth0");

  std::atomic<bool> done{false};
  std::thread recoverer([&]() {
    while (!done.load(std::memory_order_relaxed)) {
      (void)supervisor.CheckAndRecover();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 8; ++i) {
    (void)bench.host->Kill();  // may race a restart that already replaced it
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_relaxed);
  recoverer.join();

  // Whatever the final interleaving left behind, one more supervision step
  // must land in a running, serviceable state.
  (void)supervisor.CheckAndRecover();
  ASSERT_TRUE(bench.host->running());
  EXPECT_FALSE(supervisor.gave_up());
  EXPECT_GE(supervisor.restarts(), 1u);
  EXPECT_TRUE(bench.kernel.net().Find("eth0")->is_up());
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x4);
  ASSERT_TRUE(bench.PeerSend(1, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 1);
}

TEST(Supervisor, KillMidRebalanceReplaysRetaViaConfigHook) {
  // A kill -9 lands after the RSS rebalancer has moved the RETA off identity.
  // A naively restarted driver re-initialises the device to the identity
  // table, silently undoing the balancer's work until its next control tick.
  // The supervisor's config-replay hook must restore the rebalanced table as
  // part of recovery, exactly like it replays bring-up and MTU.
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor supervisor(
      &bench.kernel, bench.host.get(),
      []() -> std::unique_ptr<uml::Driver> {
        return std::make_unique<drivers::E1000eDriver>(4);
      });
  supervisor.ShadowNetdev("eth0");

  // Derive a genuine rebalanced table: one scorching bucket, the balancer
  // spreads its queue's remaining buckets away from it.
  kern::RssRebalancer::Options balancer_options;
  balancer_options.num_queues = 4;
  balancer_options.min_interval_ticks = 1;
  kern::RssRebalancer balancer(balancer_options);
  std::array<uint64_t, kern::kFlowBuckets> load{};
  load.fill(10);
  load[0] = 4000;
  kern::RssRebalancer::Table rebalanced{};
  ASSERT_TRUE(balancer.Observe(load, &rebalanced));
  ASSERT_NE(rebalanced, drivers::E1000eDriver::IdentityReta(4));
  ASSERT_TRUE(bench.sut_driver->ProgramReta(rebalanced).ok());
  ASSERT_EQ(bench.sut_nic.RetaSnapshot(), rebalanced);

  // The control plane registers the steering state it wants to survive
  // restarts; the supervisor replays it after every successful recovery.
  supervisor.set_config_replay([rebalanced](uml::DriverHost* host) {
    auto* driver = static_cast<drivers::E1000eDriver*>(host->driver());
    (void)driver->ProgramReta(rebalanced);
  });

  ASSERT_TRUE(bench.host->Kill().ok());
  EXPECT_TRUE(supervisor.CheckAndRecover());
  EXPECT_EQ(supervisor.restarts(), 1u);

  // The fresh driver's init wrote identity; the replay hook must have
  // overwritten it with the rebalanced table.
  EXPECT_EQ(bench.sut_nic.RetaSnapshot(), rebalanced);

  // And service is intact: steered traffic still arrives.
  EXPECT_TRUE(bench.kernel.net().Find("eth0")->is_up());
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  std::vector<uint8_t> payload(64, 0x5);
  ASSERT_TRUE(bench.PeerSendFlowBurst(23000, 80, {payload.data(), payload.size()}, 16, 16).ok());
  bench.host->Pump();
  EXPECT_EQ(received, 16);
}

// ---- injected pump stalls and the per-queue watchdog ------------------------
// The injector is process-global: restore the disarmed, schedule-free state
// on exit so neighbouring tests never see a stale fault.

class SupervisorFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Get().Disarm();
    FaultInjector::Get().ClearSchedules();
  }
};

// The replacement must match the bench's 2-queue NIC: a single-queue
// replacement would leave queue 1 unpolled after an otherwise-clean recovery.
std::unique_ptr<uml::Driver> MakeTwoQueueE1000e() {
  return std::make_unique<drivers::E1000eDriver>(2);
}

// Finds a source port whose flow the RSS hash pins to `queue` (of `queues`).
uint16_t PortForQueue(uint16_t queue, uint16_t queues) {
  std::vector<uint8_t> payload(64, 0x5);
  for (uint16_t port = 33000;; ++port) {
    auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, port, 80,
                                   {payload.data(), payload.size()});
    if (kern::FlowQueue(ConstByteSpan(frame.data(), frame.size()), queues) == queue) {
      return port;
    }
  }
}

TEST_F(SupervisorFaultTest, WatchdogRecoversInjectedPumpStall) {
  NetBench::Options options;
  options.nic_queues = 2;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeTwoQueueE1000e);
  supervisor.ShadowNetdev("eth0");

  // Queue 1's pump stalls before any work on every hit; queue 0 (the control
  // lane, which recovery's config replay rides) stays healthy.
  FaultInjector::Get().Configure("uml.pump.stall.q1",
                                 FaultInjector::Burst(1, 1ull << 40));
  FaultInjector::Get().Arm(17);
  uint16_t port = PortForQueue(1, 2);
  std::vector<uint8_t> payload(64, 0x5);
  ASSERT_TRUE(bench.PeerSend(port, 80, {payload.data(), payload.size()}).ok());

  // The parked interrupt upcall never drains: no aggregate counter moves, but
  // the per-queue watchdog's strikes accumulate to a wedge and a restart.
  bool recovered = false;
  for (int i = 0; i < 10 && !recovered; ++i) {
    bench.host->Pump();
    recovered = supervisor.CheckAndRecover();
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(supervisor.stats().watchdog_recoveries, 1u);
  EXPECT_GT(FaultInjector::Get().fires("uml.pump.stall.q1"), 0u);

  // With the fault cleared, the replacement driver serves queue 1 again.
  FaultInjector::Get().Disarm();
  int received = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { ++received; });
  ASSERT_TRUE(bench.PeerSend(port, 80, {payload.data(), payload.size()}).ok());
  bench.host->Pump();
  // At least the fresh frame arrives (the pre-recovery frame may surface too
  // if it survived the kill in the device's receive ring).
  EXPECT_GE(received, 1);
}

TEST_F(SupervisorFaultTest, BackgroundWatchdogRecoversStalledThreadedQueue) {
  NetBench::Options options;
  options.nic_queues = 2;
  NetBench bench(options);
  ASSERT_TRUE(bench.StartSut(uml::DriverHost::Mode::kThreadedPerQueue).ok());
  bench.MaskPeerIrq();
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 8;
  sup_options.restart_mode = uml::DriverHost::Mode::kThreadedPerQueue;
  uml::DriverSupervisor supervisor(&bench.kernel, bench.host.get(), MakeTwoQueueE1000e,
                                   sup_options);
  supervisor.ShadowNetdev("eth0");

  FaultInjector::Get().Configure("uml.pump.stall.q1",
                                 FaultInjector::Burst(1, 1ull << 40));
  FaultInjector::Get().Arm(23);
  uint16_t port = PortForQueue(1, 2);
  std::vector<uint8_t> payload(64, 0x6);

  // The watchdog thread races the stalled per-queue driver threads: detection,
  // kill, reap, restart and config replay all happen off the test thread.
  // Traffic keeps flowing during the wait: a queue thread already parked
  // inside WaitBatch when the first frame lands wakes past the fault point
  // and services it, so a single burst could drain the shard before the
  // stall ever bites — a steady trickle guarantees upcalls are pending once
  // the thread re-enters its (now stalled) pump.
  supervisor.StartWatchdog();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (supervisor.stats().watchdog_recoveries == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)bench.PeerSend(port, 80, {payload.data(), payload.size()});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FaultInjector::Get().Disarm();
  supervisor.StopWatchdog();
  EXPECT_GE(supervisor.stats().watchdog_recoveries, 1u);
  EXPECT_FALSE(supervisor.gave_up());

  // Service restored: the replacement's queue-1 thread delivers traffic.
  std::atomic<int> received{0};
  bench.kernel.net().Find("eth0")->set_rx_sink(
      [&](const kern::Skb&) { received.fetch_add(1); });
  ASSERT_TRUE(bench.PeerSend(port, 80, {payload.data(), payload.size()}).ok());
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  // At least the fresh frame arrives (pre-recovery frames may surface too if
  // they survived the kill in the device's receive ring).
  EXPECT_GE(received.load(), 1);
}

TEST(Supervisor, GivesUpAfterMaxRestarts) {
  NetBench::Options options;
  options.sud.uchan.sync_timeout_ms = 10;
  NetBench bench(options);
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 2;
  // A factory that always produces a driver whose probe fails.
  class BrokenDriver : public uml::Driver {
   public:
    const char* name() const override { return "broken"; }
    Status Probe(uml::DriverEnv&) override {
      return Status(ErrorCode::kUnavailable, "bad firmware");
    }
  };
  uml::DriverSupervisor supervisor(
      &bench.kernel, bench.host.get(), []() { return std::make_unique<BrokenDriver>(); },
      sup_options);

  // The host is not running at all; each recovery attempt fails at probe.
  EXPECT_FALSE(supervisor.CheckAndRecover());  // restart 1 fails
  EXPECT_FALSE(supervisor.CheckAndRecover());  // restart 2 fails
  EXPECT_FALSE(supervisor.CheckAndRecover());  // past max: gives up
  EXPECT_EQ(supervisor.restarts(), 2u);
}

}  // namespace
}  // namespace sud
