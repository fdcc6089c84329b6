// Fault-soak ablation: seeded fault storms at every trust boundary, with
// graceful degradation proven by a conservation audit.
//
// For each seed (and in both dispatch modes on multi-core hosts) one
// NetBench runs three phases back to back, writing one row into
// BENCH_fault_soak.json and exiting nonzero if any invariant fails:
//
//   1. Storm — 4 RSS-pinned peer flows stream at the device while the SUT
//      transmits bursts back, under a randomized storm across every fault
//      site: DMA read/write aborts, lost and spurious MSIs, pool-alloc
//      exhaustion, forced uchan ring-full, downcall drop/dup/delay, and
//      DMA-view map failures. After the storm the run is drained and the
//      conservation ledger must balance EXACTLY: every wire frame is either
//      delivered or counted in one per-layer drop counter, every transmit
//      attempt is accepted-or-counted, duplicated messages were rejected
//      (never double-delivered — double delivery would break the equality),
//      zero digest mismatches, and the buffer pool drains to zero.
//   2. Stall — the storm clears and a Burst schedule wedges queue 1's pump
//      ("uml.pump.stall.qN", the injected wedge). The supervisor's watchdog
//      must detect the frozen heartbeat and restart the driver while the
//      flows keep streaming; loss stays bounded by the in-flight windows per
//      restart and the generators finish their budgets after recovery.
//   3. Clean — all sites disarmed, fresh flows: delivery must return to
//      exactly lossless (sent == delivered in both directions, zero digest
//      mismatches, no pool leak) — the "full recovery to clean throughput"
//      gate that proves the storm left no latent damage behind.
//
// Determinism: FaultInjector::Arm(seed) fixes each site's decision stream,
// so a failing seed replays (thread interleaving varies, the fault pattern
// does not). The JSON artifact embeds the whole site registry snapshot of
// the first storm so the storm's shape is auditable after the fact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/uml/supervisor.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::CollectLedger;
using testing::ConservationLedger;
using testing::E1000eFactory;
using testing::NetBench;
using testing::RebaseAcks;

constexpr uint32_t kQueues = 4;
constexpr uint32_t kWindow = 64;
constexpr size_t kPayloadBytes = 1000;
constexpr uint64_t kStormRxFrames = 4000;
constexpr int kStormTxBursts = 32;
constexpr int kTxBurst = 32;
constexpr uint64_t kStallRxFrames = 3000;
constexpr uint64_t kCleanRxFrames = 2000;
constexpr int kCleanTxBursts = 16;
// Phase 2 reseeds so its draws are decorrelated from the storm's.
constexpr uint64_t kStallSalt = 0x9e3779b97f4a7c15ull;
constexpr const char* kStallSite = "uml.pump.stall.q1";

// The storm registry: every site armed for phase 1, with rates chosen so a
// 4000-frame run sees tens-to-hundreds of fires per site without starving
// forward progress. Phase 2 clears these and arms only the pump stall.
struct StormSpec {
  const char* site;
  FaultInjector::Schedule schedule;
};
const StormSpec kStormSites[] = {
    {"hw.pcie.dma_read", FaultInjector::Probability(1, 2048)},
    {"hw.pcie.dma_write", FaultInjector::Probability(1, 2048)},
    {"hw.msi.lost", FaultInjector::Probability(1, 512)},
    {"hw.msi.spurious", FaultInjector::Probability(1, 256)},
    {"sud.pool.alloc", FaultInjector::Probability(1, 64)},
    {"uchan.up.ring_full", FaultInjector::Probability(1, 256)},
    {"uchan.down.drop", FaultInjector::Probability(1, 256)},
    {"uchan.down.dup", FaultInjector::Probability(1, 256)},
    {"uchan.down.delay", FaultInjector::Probability(1, 128)},
    {"uml.dmaview.fail", FaultInjector::Probability(1, 1024)},
};

struct StormRow {
  bool ok = false;
  bool flows_done = false;
  bool drained = false;
  uint64_t wire_sent = 0;  // generator frames + post-storm kicker frames
  uint64_t rx_delivered = 0;
  uint64_t rx_counted_losses = 0;
  uint64_t tx_attempts = 0;
  uint64_t tx_accepted = 0;
  uint64_t tx_delivered = 0;
  uint64_t tx_counted_losses = 0;
  uint64_t digest_mismatches = 0;
  uint64_t dups_injected = 0;
  uint64_t dups_rejected = 0;
  uint64_t pool_outstanding = 0;
  uint64_t fires = 0;
};

struct StallRow {
  bool ok = false;
  uint32_t watchdog_recoveries = 0;
  uint32_t restarts = 0;
  bool gave_up = false;
  uint64_t stalls_fired = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t loss_bound = 0;
  uint64_t digest_mismatches = 0;
};

struct CleanRow {
  bool ok = false;
  uint64_t wire_sent = 0;
  uint64_t rx_delivered = 0;
  uint64_t tx_attempts = 0;
  uint64_t tx_delivered = 0;
  uint64_t digest_mismatches = 0;
  int64_t pool_delta = 0;
  double frames_per_sec = 0;
};

struct SeedRow {
  uint64_t seed = 0;
  bool threaded = false;
  bool started = false;
  StormRow storm;
  StallRow stall;
  CleanRow clean;
  bool ok = false;
};

// The storm-shape registry snapshot (first storm only; the shape is
// per-seed deterministic, one exemplar documents it).
std::vector<FaultInjector::SiteSnapshot> g_sites;

// Post-storm kicker: one frame per queue, RSS-pinned, sent through the peer
// netdev AFTER disarming. Each one raises a fresh (undroppable now) MSI on
// its queue, so a tail stranded by a lost interrupt — done descriptors with
// no event left to announce them, or a delayed downcall still parked in the
// channel — gets reaped on the very next poll. Returns how many reached the
// wire (they join wire_sent, so the conservation equality still audits them).
uint64_t KickQueues(NetBench& bench) {
  std::vector<uint8_t> ping(64, 0x5d);
  std::vector<devices::EtherLink::PeerFlow> kickers =
      bench.BuildQueueFlows(kQueues, {ping.data(), ping.size()}, kQueues, 1);
  uint64_t sent = 0;
  for (devices::EtherLink::PeerFlow& kicker : kickers) {
    Status status = bench.kernel.net().Transmit(
        bench.peer_env->netdev(),
        kern::MakeSkb(ConstByteSpan(kicker.frame.data(), kicker.frame.size())));
    if (status.ok()) {
      ++sent;
    }
  }
  return sent;
}

void RunStorm(NetBench& bench, uint64_t seed, bool threaded, StormRow& out) {
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::vector<uint8_t> payload(kPayloadBytes, 0xa5);
  ConstByteSpan payload_span(payload.data(), payload.size());

  std::vector<devices::EtherLink::PeerFlow> flows =
      bench.BuildQueueFlows(kQueues, payload_span, kStormRxFrames, kWindow);
  RebaseAcks(flows, netdev);
  std::vector<std::function<uint64_t()>> acked(kQueues);
  std::vector<uint64_t> quota(kQueues);
  for (uint32_t q = 0; q < kQueues; ++q) {
    // Injected drops eat in-flight frames; go-back-N resends the unacked
    // tail so no flow stays window-blocked (resends count as new wire
    // frames, keeping the per-transmission conservation equality exact).
    flows[q].retransmit_on_stall_ms = 300;
    acked[q] = flows[q].acked;
    quota[q] = flows[q].count;
  }
  // Threaded generators retransmit dropped tails, so acked reaches the quota
  // unless a flow gave up; the serial replay has no retransmit (a counted
  // drop leaves acked short by design), so completion there is RunPeersSerial
  // returning with every budget sent and nobody giving up.
  auto flows_settled = [&]() {
    for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
      if (acked[q]() < quota[q] && !bench.link.peer_stats(q).gave_up.load()) {
        return false;
      }
    }
    return true;
  };

  ConservationLedger base = CollectLedger(bench);
  FaultInjector& injector = FaultInjector::Get();
  for (const StormSpec& spec : kStormSites) {
    injector.Configure(spec.site, spec.schedule);
  }
  injector.Arm(seed);

  int bursts_left = kStormTxBursts;
  auto send_tx_burst = [&]() {
    if (bursts_left > 0) {
      uint16_t src_port = static_cast<uint16_t>(42000 + (kStormTxBursts - bursts_left));
      (void)bench.SutSendBurst(src_port, 4343, payload_span, kTxBurst);
      out.tx_attempts += kTxBurst;
      --bursts_left;
    }
  };

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  if (threaded) {
    bench.link.StartPeers(std::move(flows), /*side=*/1, /*give_up_ms=*/30000);
    while (std::chrono::steady_clock::now() < deadline) {
      send_tx_burst();
      bench.peer_driver->NapiPoll();
      bench.sut_nic.Tick();
      if (bursts_left == 0 && flows_settled()) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    bench.link.JoinPeers();
  } else {
    uint64_t pumps = 0;
    bench.link.RunPeersSerial(
        std::move(flows),
        [&]() {
          bench.host->Pump();
          ++pumps;
          if (pumps % 4 == 0) {
            bench.peer_driver->NapiPoll();
          }
          if (pumps % 16 == 0) {
            send_tx_burst();
          }
          if (pumps % 32 == 0) {
            bench.sut_nic.Tick();
          }
        },
        /*side=*/1);
    while (bursts_left > 0) {
      send_tx_burst();
      bench.host->Pump();
      bench.peer_driver->NapiPoll();
    }
  }
  out.flows_done = true;
  for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
    out.flows_done &= !bench.link.peer_stats(q).gave_up.load() &&
                      bench.link.peer_stats(q).frames.load() >= quota[q];
    out.wire_sent += bench.link.peer_stats(q).frames.load();
  }

  // Storm over: disarm FIRST, so the drain cannot lose anything new, then
  // kick each queue until the ledger closes (kickers join wire_sent).
  injector.Disarm();
  out.fires = injector.total_fires();
  if (g_sites.empty()) {
    g_sites = injector.Snapshot();
  }

  ConservationLedger delta;
  auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  auto next_kick = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < drain_deadline) {
    if (std::chrono::steady_clock::now() >= next_kick) {
      out.wire_sent += KickQueues(bench);
      next_kick = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    }
    bench.host->Pump();
    bench.peer_driver->NapiPoll();
    bench.sut_nic.Tick();
    delta = CollectLedger(bench) - base;
    out.drained = delta.RxConserved(out.wire_sent) && delta.TxConserved(out.tx_attempts) &&
                  delta.pool_outstanding == 0;
    if (out.drained) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  out.rx_delivered = delta.rx_delivered;
  out.rx_counted_losses = delta.RxCountedLosses();
  out.tx_accepted = delta.tx_accepted;
  out.tx_delivered = delta.tx_delivered;
  out.tx_counted_losses = delta.TxCountedLosses();
  out.digest_mismatches = delta.digest_mismatches;
  out.dups_injected = delta.uchan_injected_dups;
  out.dups_rejected = delta.rx_dups_rejected;
  out.pool_outstanding = delta.pool_outstanding;
  // A rejected dup beyond what was injected would mean the proxy refused a
  // real frame; a double-delivered dup would break RxConserved above.
  out.ok = out.flows_done && out.drained && out.digest_mismatches == 0 && out.fires > 0 &&
           out.dups_rejected <= out.dups_injected;
}

void RunStall(NetBench& bench, uint64_t seed, bool threaded, StallRow& out) {
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::vector<uint8_t> payload(kPayloadBytes, 0x3c);

  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 6;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(kQueues, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());

  uint64_t rx_base = netdev->stats().rx_packets.load();
  uint64_t digest_base = netdev->stats().rx_bad_checksum.load();

  std::vector<devices::EtherLink::PeerFlow> flows =
      bench.BuildQueueFlows(kQueues, {payload.data(), payload.size()}, kStallRxFrames, kWindow);
  RebaseAcks(flows, netdev);
  std::vector<std::function<uint64_t()>> acked(kQueues);
  std::vector<uint64_t> quota(kQueues);
  for (uint32_t q = 0; q < kQueues; ++q) {
    // The restart eats whatever sat in the rings; go-back-N resends it, so
    // every flow still finishes its budget after recovery.
    flows[q].retransmit_on_stall_ms = 300;
    acked[q] = flows[q].acked;
    quota[q] = flows[q].count;
  }
  auto flows_settled = [&]() {
    for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
      if (acked[q]() < quota[q] && !bench.link.peer_stats(q).gave_up.load()) {
        return false;
      }
    }
    return true;
  };

  FaultInjector& injector = FaultInjector::Get();
  injector.ClearSchedules();
  // Queue 1's pump freezes from its first pass after arming, while its flow
  // still has traffic to carry, for as long as the engine stays armed. (A
  // run-in let a fast stack finish the whole flow before the freeze, so the
  // watchdog never saw a pending upcall.) The bench disarms right after the
  // watchdog's first recovery so the replacement driver comes up clean
  // instead of re-wedging into the restart budget. Both dispatch modes
  // evaluate this site: the per-queue pump thread hits it directly, and the
  // single-threaded Pump() sweep hits it through ProcessPendingQueue's
  // RunOnceQueue loop.
  injector.Configure(kStallSite, FaultInjector::Burst(1, 1ull << 40));
  injector.Arm(seed ^ kStallSalt);

  // Threaded generators in BOTH modes: the serial replay has no go-back-N,
  // and a wedged queue's whole in-flight window dies with the restart — only
  // retransmitting generators can finish their budgets afterwards. In pumped
  // mode the monitor loop below is the dispatch engine AND the watchdog
  // cadence; in per-queue mode the supervisor's own watchdog thread runs.
  if (threaded) {
    sup.StartWatchdog();
  }
  bench.link.StartPeers(std::move(flows), /*side=*/1, /*give_up_ms=*/20000);
  bool disarmed = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(45);
  while (std::chrono::steady_clock::now() < deadline) {
    bench.host->Pump();
    if (!disarmed) {
      if (!threaded) {
        (void)sup.CheckAndRecover();
      }
      if (sup.stats().watchdog_recoveries >= 1) {
        injector.Disarm();
        disarmed = true;
      }
    }
    if (disarmed && flows_settled()) {
      break;
    }
    if (threaded) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  injector.Disarm();
  bench.link.JoinPeers();
  if (threaded) {
    sup.StopWatchdog();
  }

  for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
    out.sent += bench.link.peer_stats(q).frames.load();
    out.gave_up |= bench.link.peer_stats(q).gave_up.load();
  }
  // Drain the last windows; progress-bounded, since the frames a restart ate
  // are gone by design and only their retransmissions arrive.
  auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t last_delivered = netdev->stats().rx_packets.load();
  auto last_change = std::chrono::steady_clock::now();
  while (netdev->stats().rx_packets.load() - rx_base < out.sent &&
         std::chrono::steady_clock::now() < drain_deadline &&
         std::chrono::steady_clock::now() - last_change < std::chrono::milliseconds(500)) {
    bench.host->Pump();
    std::this_thread::yield();
    uint64_t now_delivered = netdev->stats().rx_packets.load();
    if (now_delivered != last_delivered) {
      last_delivered = now_delivered;
      last_change = std::chrono::steady_clock::now();
    }
  }

  uml::DriverSupervisor::Stats stats = sup.stats();
  out.watchdog_recoveries = stats.watchdog_recoveries;
  out.restarts = stats.restarts;
  out.gave_up |= sup.gave_up();
  out.stalls_fired = injector.fires(kStallSite);
  out.delivered = netdev->stats().rx_packets.load() - rx_base;
  out.lost = out.sent - out.delivered;
  out.loss_bound = static_cast<uint64_t>(out.restarts + 1) * kQueues * kWindow;
  out.digest_mismatches = netdev->stats().rx_bad_checksum.load() - digest_base;
  out.ok = out.watchdog_recoveries >= 1 && !out.gave_up && out.stalls_fired > 0 &&
           out.lost <= out.loss_bound && out.digest_mismatches == 0;
}

void RunClean(NetBench& bench, bool threaded, CleanRow& out) {
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::vector<uint8_t> payload(kPayloadBytes, 0x7e);
  ConstByteSpan payload_span(payload.data(), payload.size());

  FaultInjector& injector = FaultInjector::Get();
  injector.Disarm();
  injector.ClearSchedules();

  ConservationLedger base = CollectLedger(bench);
  std::vector<devices::EtherLink::PeerFlow> flows =
      bench.BuildQueueFlows(kQueues, payload_span, kCleanRxFrames, kWindow);
  RebaseAcks(flows, netdev);
  for (devices::EtherLink::PeerFlow& flow : flows) {
    // Hang-safety only: a clean run that needs a retransmit fails the exact
    // sent == delivered gate anyway (the resend inflates wire_sent).
    flow.retransmit_on_stall_ms = 1000;
  }

  int bursts_left = kCleanTxBursts;
  auto send_tx_burst = [&]() {
    if (bursts_left > 0) {
      uint16_t src_port = static_cast<uint16_t>(45000 + (kCleanTxBursts - bursts_left));
      (void)bench.SutSendBurst(src_port, 4545, payload_span, kTxBurst);
      out.tx_attempts += kTxBurst;
      --bursts_left;
    }
  };

  auto t0 = std::chrono::steady_clock::now();
  if (threaded) {
    bench.link.StartPeers(std::move(flows), /*side=*/1, /*give_up_ms=*/15000);
    while (bursts_left > 0) {
      send_tx_burst();
      bench.peer_driver->NapiPoll();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    bench.link.JoinPeers();
  } else {
    uint64_t pumps = 0;
    bench.link.RunPeersSerial(
        std::move(flows),
        [&]() {
          bench.host->Pump();
          ++pumps;
          if (pumps % 4 == 0) {
            bench.peer_driver->NapiPoll();
          }
          if (pumps % 16 == 0) {
            send_tx_burst();
          }
        },
        /*side=*/1);
    while (bursts_left > 0) {
      send_tx_burst();
      bench.host->Pump();
      bench.peer_driver->NapiPoll();
    }
  }
  double stream_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
    out.wire_sent += bench.link.peer_stats(q).frames.load();
  }

  ConservationLedger delta;
  bool exact = false;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    bench.host->Pump();
    bench.peer_driver->NapiPoll();
    bench.sut_nic.Tick();
    delta = CollectLedger(bench) - base;
    exact = delta.rx_delivered == out.wire_sent && delta.tx_delivered == out.tx_attempts;
    if (exact) {
      break;
    }
    std::this_thread::yield();
  }

  out.rx_delivered = delta.rx_delivered;
  out.tx_delivered = delta.tx_delivered;
  out.digest_mismatches = delta.digest_mismatches;
  out.pool_delta = static_cast<int64_t>(delta.pool_outstanding) -
                   static_cast<int64_t>(base.pool_outstanding);
  out.frames_per_sec = stream_sec > 0 ? static_cast<double>(out.wire_sent) / stream_sec : 0;
  out.ok = exact && out.wire_sent == kCleanRxFrames && out.digest_mismatches == 0 &&
           out.pool_delta == 0 && delta.RxCountedLosses() == 0 && delta.TxCountedLosses() == 0;
}

SeedRow RunSeed(uint64_t seed, bool threaded) {
  SeedRow row;
  row.seed = seed;
  row.threaded = threaded;
  NetBench::Options options;
  options.nic_queues = kQueues;
  NetBench bench(options);
  uml::DriverHost::Mode mode =
      threaded ? uml::DriverHost::Mode::kThreadedPerQueue : uml::DriverHost::Mode::kPumped;
  if (!bench.StartSut(mode).ok()) {
    return row;
  }
  row.started = true;
  bench.MaskPeerIrq();

  RunStorm(bench, seed, threaded, row.storm);
  RunStall(bench, seed, threaded, row.stall);
  RunClean(bench, threaded, row.clean);

  FaultInjector::Get().Disarm();
  FaultInjector::Get().ClearSchedules();
  row.ok = row.storm.ok && row.stall.ok && row.clean.ok;
  return row;
}

const char* ModeName(FaultInjector::Mode mode) {
  switch (mode) {
    case FaultInjector::Mode::kOff:
      return "off";
    case FaultInjector::Mode::kProbability:
      return "probability";
    case FaultInjector::Mode::kEveryNth:
      return "every_nth";
    case FaultInjector::Mode::kOneShotAt:
      return "one_shot_at";
    case FaultInjector::Mode::kBurst:
      return "burst";
  }
  return "unknown";
}

void WriteJson(const std::vector<SeedRow>& rows, bool pass, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"abl_fault_soak\",\n");
  std::fprintf(out, "  \"queues\": %u,\n  \"window\": %u,\n", kQueues, kWindow);
  std::fprintf(out, "  \"storm_sites\": [\n");
  for (size_t i = 0; i < g_sites.size(); ++i) {
    const FaultInjector::SiteSnapshot& site = g_sites[i];
    std::fprintf(out,
                 "    {\"site\": \"%s\", \"mode\": \"%s\", \"hits\": %llu, \"fires\": %llu}%s\n",
                 site.name.c_str(), ModeName(site.mode),
                 static_cast<unsigned long long>(site.hits),
                 static_cast<unsigned long long>(site.fires),
                 i + 1 < g_sites.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SeedRow& row = rows[i];
    std::fprintf(out, "    {\"seed\": %llu, \"mode\": \"%s\",\n",
                 static_cast<unsigned long long>(row.seed),
                 row.threaded ? "threaded_per_queue" : "pumped");
    std::fprintf(out,
                 "     \"storm\": {\"wire_sent\": %llu, \"rx_delivered\": %llu, "
                 "\"rx_counted_losses\": %llu, \"tx_attempts\": %llu, \"tx_accepted\": %llu, "
                 "\"tx_delivered\": %llu, \"tx_counted_losses\": %llu, \"fires\": %llu, "
                 "\"dups_injected\": %llu, \"dups_rejected\": %llu, \"digest_mismatches\": %llu, "
                 "\"pool_outstanding\": %llu, \"conserved\": %s, \"ok\": %s},\n",
                 static_cast<unsigned long long>(row.storm.wire_sent),
                 static_cast<unsigned long long>(row.storm.rx_delivered),
                 static_cast<unsigned long long>(row.storm.rx_counted_losses),
                 static_cast<unsigned long long>(row.storm.tx_attempts),
                 static_cast<unsigned long long>(row.storm.tx_accepted),
                 static_cast<unsigned long long>(row.storm.tx_delivered),
                 static_cast<unsigned long long>(row.storm.tx_counted_losses),
                 static_cast<unsigned long long>(row.storm.fires),
                 static_cast<unsigned long long>(row.storm.dups_injected),
                 static_cast<unsigned long long>(row.storm.dups_rejected),
                 static_cast<unsigned long long>(row.storm.digest_mismatches),
                 static_cast<unsigned long long>(row.storm.pool_outstanding),
                 row.storm.drained ? "true" : "false", row.storm.ok ? "true" : "false");
    std::fprintf(out,
                 "     \"stall\": {\"watchdog_recoveries\": %u, \"restarts\": %u, "
                 "\"stalls_fired\": %llu, \"sent\": %llu, \"delivered\": %llu, \"lost\": %llu, "
                 "\"loss_bound\": %llu, \"digest_mismatches\": %llu, \"gave_up\": %s, "
                 "\"ok\": %s},\n",
                 row.stall.watchdog_recoveries, row.stall.restarts,
                 static_cast<unsigned long long>(row.stall.stalls_fired),
                 static_cast<unsigned long long>(row.stall.sent),
                 static_cast<unsigned long long>(row.stall.delivered),
                 static_cast<unsigned long long>(row.stall.lost),
                 static_cast<unsigned long long>(row.stall.loss_bound),
                 static_cast<unsigned long long>(row.stall.digest_mismatches),
                 row.stall.gave_up ? "true" : "false", row.stall.ok ? "true" : "false");
    std::fprintf(out,
                 "     \"clean\": {\"wire_sent\": %llu, \"rx_delivered\": %llu, "
                 "\"tx_attempts\": %llu, \"tx_delivered\": %llu, \"digest_mismatches\": %llu, "
                 "\"pool_delta\": %lld, \"frames_per_sec\": %.0f, \"ok\": %s},\n",
                 static_cast<unsigned long long>(row.clean.wire_sent),
                 static_cast<unsigned long long>(row.clean.rx_delivered),
                 static_cast<unsigned long long>(row.clean.tx_attempts),
                 static_cast<unsigned long long>(row.clean.tx_delivered),
                 static_cast<unsigned long long>(row.clean.digest_mismatches),
                 static_cast<long long>(row.clean.pool_delta), row.clean.frames_per_sec,
                 row.clean.ok ? "true" : "false");
    std::fprintf(out, "     \"ok\": %s}%s\n", row.ok ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace sud

int main(int argc, char** argv) {
  using namespace sud;
  Logger::Get().set_min_level(LogLevel::kError);
  int seeds = 8;
  if (argc > 1) {
    seeds = std::max(1, std::atoi(argv[1]));
  }
  bool threaded_ok = std::thread::hardware_concurrency() > 1 ||
                     std::getenv("SUD_FORCE_THREADED") != nullptr;

  std::vector<SeedRow> rows;
  for (int i = 0; i < seeds; ++i) {
    uint64_t seed = 1 + static_cast<uint64_t>(i);
    rows.push_back(RunSeed(seed, /*threaded=*/false));
    if (threaded_ok) {
      rows.push_back(RunSeed(seed, /*threaded=*/true));
    }
  }
  bool pass = !rows.empty();
  for (const SeedRow& row : rows) {
    pass &= row.ok;
  }

  std::printf("\nabl_fault_soak: %d seed(s), %u queues, %s\n", seeds, kQueues,
              threaded_ok ? "pumped + threaded-per-queue" : "pumped only");
  std::printf("%-6s %-10s %-8s %-10s %-10s %-9s %-9s %-8s %s\n", "seed", "mode", "fires",
              "storm", "stall", "clean", "lost", "digest", "ok");
  for (const SeedRow& row : rows) {
    std::printf("%-6llu %-10s %-8llu %-10s %-10s %-9s %-9llu %-8llu %s\n",
                (unsigned long long)row.seed, row.threaded ? "threaded" : "pumped",
                (unsigned long long)row.storm.fires, row.storm.ok ? "conserved" : "FAIL",
                row.stall.ok ? "recovered" : "FAIL", row.clean.ok ? "exact" : "FAIL",
                (unsigned long long)row.stall.lost,
                (unsigned long long)(row.storm.digest_mismatches + row.stall.digest_mismatches +
                                     row.clean.digest_mismatches),
                row.ok ? "OK" : "FAIL");
  }
  std::printf("fault soak: %zu run(s) -> %s\n", rows.size(), pass ? "PASS" : "FAIL");

  WriteJson(rows, pass, "BENCH_fault_soak.json");
  return pass ? 0 : 1;
}
