// Crash-recovery ablation: the §4.1 administrator dance, automated and
// measured under live multi-queue load.
//
// Three phases, one JSON (BENCH_crash_recovery.json), nonzero exit on any
// acceptance violation:
//
//   1. Crash storm — 8 consecutive kill -9 → reap → restart → recover cycles
//      while 4 RSS-pinned peer flows stream at the device. Each cycle runs a
//      fresh windowed generator budget, crashes the driver mid-budget, lets
//      the supervisor recover, and then drains the remainder: the loss is
//      EXACT (generator frames minus stack deliveries), bounded by the
//      in-flight window at the moment of the kill, and every delivered
//      packet passed the proxy's fused guard-copy checksum (rx_bad_checksum
//      is the digest-mismatch counter — it must stay zero).
//   2. Hot upgrade — the e1000e factory is swapped for a replacement while
//      the same 4 flows stream. A flow-control gate freezes the generators'
//      ack feed (modeling netif queue stop), the in-flight frames drain
//      per-queue to the stack, and only then does the supervisor cut over:
//      zero packets lost, zero buffers quarantined, streaming resumes on the
//      new driver instance to budget completion.
//   3. Give-up storm — a crash loop against a small restart budget must end
//      in the terminal gave_up() state with the interface parked
//      (down + unregistered): the point where the paper's human
//      administrator genuinely takes over.
//
// Single-core hosts run the same choreography through the serial generator's
// pump callback (the pumped-dispatch fallback), so the bench never depends
// on hardware threads to be meaningful.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/base/log.h"
#include "src/uml/supervisor.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::E1000eFactory;
using testing::NetBench;
using testing::RebaseAcks;

constexpr uint32_t kQueues = 4;
constexpr int kCrashCycles = 8;
// Per-cycle generator budget (split across the queues) and pacing window.
// The window bounds what can be in flight — and therefore lost — at the
// moment of a kill: at most kPeerWindow unacked frames per queue.
constexpr uint64_t kCyclePackets = 3000;
constexpr uint32_t kPeerWindow = 128;
constexpr uint64_t kUpgradePackets = 4000;
constexpr size_t kPayloadBytes = 1448;

struct CycleRow {
  int cycle = 0;
  bool recovered = false;
  bool resumed_all_queues = false;
  uint64_t recovery_latency_ns = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
};

struct StormResult {
  std::vector<CycleRow> cycles;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  // Conservation-ledger split of `lost`: kill -9 eats in-flight frames
  // without any counter advancing (the uncounted share — crash loss proper),
  // while everything else a storm sheds must land in a per-layer drop
  // counter. Counted loss exceeding total loss would mean double counting;
  // silent loss OUTSIDE the kill windows shows up here as uncounted loss in
  // a cycle that never crashed.
  uint64_t lost_counted = 0;
  uint64_t lost_uncounted = 0;
  uint64_t digest_mismatches = 0;
  uint64_t buffers_quarantined = 0;
  uint32_t restarts = 0;
  bool ok = false;
};

struct UpgradeResult {
  bool ok = false;
  double upgrade_ns = 0;
  uint64_t sent = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t digest_mismatches = 0;
  uint64_t buffers_quarantined = 0;
  uint32_t upgrades = 0;
  bool resumed_all_queues = false;
};

struct GiveUpResult {
  bool ok = false;
  uint32_t max_restarts = 0;
  uint32_t restarts = 0;
  uint64_t give_ups = 0;
  bool gave_up = false;
  bool interface_parked = false;
};

StormResult RunStorm(bool threaded) {
  StormResult result;
  NetBench::Options options;
  options.nic_queues = kQueues;
  NetBench bench(options);
  uml::DriverHost::Mode mode =
      threaded ? uml::DriverHost::Mode::kThreadedPerQueue : uml::DriverHost::Mode::kPumped;
  if (!bench.StartSut(mode).ok()) {
    return result;
  }
  bench.MaskPeerIrq();

  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = kCrashCycles + 4;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(kQueues, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());

  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::vector<uint8_t> payload(kPayloadBytes, 0x5a);
  uint64_t mismatch_base = netdev->stats().rx_bad_checksum.load();
  // Restart-surviving counters only are meaningful across the storm (the
  // runtime/driver instances are replaced per cycle, but start at zero each
  // time and see no faults, so the delta below cannot underflow).
  testing::ConservationLedger ledger_base = testing::CollectLedger(bench);

  for (int cycle = 0; cycle < kCrashCycles; ++cycle) {
    CycleRow row;
    row.cycle = cycle;
    uint64_t cycle_rx_base = netdev->stats().rx_packets.load();
    std::array<uint64_t, kQueues> cycle_q_base{};
    for (uint16_t q = 0; q < kQueues; ++q) {
      cycle_q_base[q] = netdev->queue_stats(q).rx_packets.load();
    }
    std::vector<devices::EtherLink::PeerFlow> flows = bench.BuildQueueFlows(
        kQueues, {payload.data(), payload.size()}, kCyclePackets, kPeerWindow);
    RebaseAcks(flows, netdev);
    for (devices::EtherLink::PeerFlow& flow : flows) {
      // Crash cycles eat whatever sat in the rings: the generators go-back-N
      // retransmit the eaten tail (as any real transport would), so every
      // queue resumes streaming after recovery while the loss stays counted
      // as sent - delivered.
      flow.retransmit_on_stall_ms = 300;
    }

    auto delivered_cycle = [&]() { return netdev->stats().rx_packets.load() - cycle_rx_base; };
    std::array<uint64_t, kQueues> at_kill{};
    auto crash = [&]() {
      for (uint16_t q = 0; q < kQueues; ++q) {
        at_kill[q] = netdev->queue_stats(q).rx_packets.load();
      }
      (void)bench.host->Kill();  // kill -9, mid-stream
      row.recovered = sup.CheckAndRecover();
      row.recovery_latency_ns = sup.stats().last_recovery_ns;
    };

    // A generator that a crash left permanently window-blocked (every
    // in-flight frame of its window lost) quits after this stall bound; its
    // shortfall stays visible in the loss accounting instead of wedging CI.
    constexpr uint64_t kGiveUpMs = 2000;
    bool crashed = false;
    auto run_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    if (threaded) {
      bench.link.StartPeers(std::move(flows), /*side=*/1, kGiveUpMs);
      while (!crashed && std::chrono::steady_clock::now() < run_deadline) {
        if (delivered_cycle() >= kCyclePackets / 3) {
          crash();
          crashed = true;
        } else {
          std::this_thread::yield();
        }
      }
      bench.link.JoinPeers();
    } else {
      bench.link.RunPeersSerial(
          std::move(flows),
          [&]() {
            bench.host->Pump();
            if (!crashed && delivered_cycle() >= kCyclePackets / 3) {
              crash();
              crashed = true;
            }
          },
          /*side=*/1);
    }
    // Drain: the generators are done; let the last windows reach the stack.
    // Progress-bounded, not equality-bounded: frames the crash ate are never
    // delivered, so `delivered == sent` is unreachable by design — stop once
    // delivery stops moving.
    uint64_t sent_cycle = 0;
    for (uint32_t q = 0; q < kQueues; ++q) {
      sent_cycle += bench.link.peer_stats(q).frames.load();
    }
    uint64_t last_delivered = delivered_cycle();
    auto last_change = std::chrono::steady_clock::now();
    while (delivered_cycle() < sent_cycle &&
           std::chrono::steady_clock::now() < run_deadline &&
           std::chrono::steady_clock::now() - last_change < std::chrono::milliseconds(500)) {
      bench.host->Pump();
      std::this_thread::yield();
      uint64_t now_delivered = delivered_cycle();
      if (now_delivered != last_delivered) {
        last_delivered = now_delivered;
        last_change = std::chrono::steady_clock::now();
      }
    }

    row.sent = sent_cycle;
    row.delivered = delivered_cycle();
    row.lost = row.sent - row.delivered;
    row.resumed_all_queues = crashed;
    for (uint16_t q = 0; q < kQueues; ++q) {
      // Resumed means the queue streamed again after the kill — or had
      // nothing left to stream because its whole per-queue budget already
      // landed before the kill (scheduling skew lets a fast queue finish
      // while siblings are mid-window; that queue is done, not wedged).
      row.resumed_all_queues &=
          netdev->queue_stats(q).rx_packets.load() > at_kill[q] ||
          at_kill[q] - cycle_q_base[q] >= kCyclePackets / kQueues;
    }
    result.cycles.push_back(row);
    result.sent += row.sent;
    result.delivered += row.delivered;
    result.lost += row.lost;
  }

  result.digest_mismatches = netdev->stats().rx_bad_checksum.load() - mismatch_base;
  testing::ConservationLedger ledger = testing::CollectLedger(bench) - ledger_base;
  result.lost_counted = std::min(ledger.RxCountedLosses(), result.lost);
  result.lost_uncounted = result.lost - result.lost_counted;
  uml::DriverSupervisor::Stats stats = sup.stats();
  result.restarts = stats.restarts;
  result.buffers_quarantined = stats.buffers_quarantined;
  result.ok = static_cast<int>(result.cycles.size()) == kCrashCycles;
  for (const CycleRow& row : result.cycles) {
    result.ok &= row.recovered && row.resumed_all_queues &&
                 row.lost <= static_cast<uint64_t>(kQueues) * kPeerWindow;
  }
  result.ok &= result.digest_mismatches == 0 && result.restarts == kCrashCycles &&
               ledger.RxCountedLosses() <= result.lost;
  return result;
}

UpgradeResult RunUpgrade(bool threaded) {
  UpgradeResult result;
  NetBench::Options options;
  options.nic_queues = kQueues;
  NetBench bench(options);
  uml::DriverHost::Mode mode =
      threaded ? uml::DriverHost::Mode::kThreadedPerQueue : uml::DriverHost::Mode::kPumped;
  if (!bench.StartSut(mode).ok()) {
    return result;
  }
  bench.MaskPeerIrq();

  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(kQueues, bench.mtu_));
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());

  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::vector<uint8_t> payload(kPayloadBytes, 0x6b);
  uint64_t mismatch_base = netdev->stats().rx_bad_checksum.load();

  // The flow-control gate: generators pace against min(delivered, cap).
  // Freezing cap at the current delivery count models the kernel stopping
  // the queues — each generator window-blocks, the in-flight frames drain,
  // and the cutover happens on genuinely quiescent queues.
  std::array<std::atomic<uint64_t>, kQueues> cap;
  for (auto& c : cap) {
    c.store(UINT64_MAX, std::memory_order_relaxed);
  }
  std::vector<devices::EtherLink::PeerFlow> flows = bench.BuildQueueFlows(
      kQueues, {payload.data(), payload.size()}, kUpgradePackets, kPeerWindow);
  for (uint32_t q = 0; q < kQueues; ++q) {
    flows[q].acked = [netdev, q, &cap]() {
      uint64_t delivered = netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets.load();
      return std::min(delivered, cap[q].load(std::memory_order_relaxed));
    };
  }

  auto delivered_total = [&]() { return netdev->stats().rx_packets.load(); };
  auto sent_total = [&]() {
    uint64_t sent = 0;
    for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
      sent += bench.link.peer_stats(q).frames.load();
    }
    return sent;
  };
  auto queues_drained = [&]() { return delivered_total() == sent_total(); };
  std::array<uint64_t, kQueues> at_cutover{};
  // True quiescence, not just transient equality: each generator must have
  // extended its window to the frozen cap's bound (or finished its budget) —
  // until then a descheduled generator can wake and fire its remaining
  // headroom straight into the teardown.
  std::array<std::atomic<uint64_t>, kQueues> quiesce_bound{};
  auto queues_quiesced = [&]() {
    if (!queues_drained()) {
      return false;
    }
    for (uint32_t q = 0; q < kQueues && q < bench.link.peer_count(); ++q) {
      if (bench.link.peer_stats(q).frames.load() <
          quiesce_bound[q].load(std::memory_order_relaxed)) {
        return false;
      }
    }
    return true;
  };

  auto do_upgrade = [&]() {
    for (uint16_t q = 0; q < kQueues; ++q) {
      uint64_t frozen = netdev->queue_stats(q).rx_packets.load();
      cap[q].store(frozen, std::memory_order_relaxed);
      at_cutover[q] = frozen;
      quiesce_bound[q].store(
          std::min<uint64_t>(frozen + kPeerWindow, kUpgradePackets / kQueues),
          std::memory_order_relaxed);
    }
    auto drain_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!queues_quiesced() && std::chrono::steady_clock::now() < drain_deadline) {
      bench.host->Pump();
      std::this_thread::yield();
    }
    if (!queues_drained()) {
      // The cutover will eat whatever never drained; name the stuck queues
      // and the interrupt-path state so the loss is attributable from logs.
      const SudDeviceContext::InterruptStats& is = bench.ctx->interrupt_stats();
      for (uint16_t q = 0; q < kQueues; ++q) {
        SUD_LOG(kWarning) << "upgrade drain timeout: queue " << q << " delivered "
                          << netdev->queue_stats(q).rx_packets.load() << ", pending upcalls "
                          << bench.ctx->ctl(q).pending_upcalls() << ", progress "
                          << bench.host->queue_progress(q);
      }
      SUD_LOG(kWarning) << "upgrade drain timeout: irq forwarded " << is.forwarded
                        << " coalesced " << is.coalesced << " mask_events " << is.mask_events
                        << " storms " << is.storm_escalations;
    }
    auto t0 = std::chrono::steady_clock::now();
    Status upgraded = sup.Upgrade(E1000eFactory(kQueues, bench.mtu_));
    result.upgrade_ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    result.ok = upgraded.ok();
    for (auto& c : cap) {
      c.store(UINT64_MAX, std::memory_order_relaxed);  // queues restarted
    }
  };

  bool upgraded = false;
  auto run_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  if (threaded) {
    bench.link.StartPeers(std::move(flows), /*side=*/1);
    while (!upgraded && std::chrono::steady_clock::now() < run_deadline) {
      if (delivered_total() >= kUpgradePackets / 3) {
        do_upgrade();
        upgraded = true;
      } else {
        std::this_thread::yield();
      }
    }
    bench.link.JoinPeers();
  } else {
    bench.link.RunPeersSerial(
        std::move(flows),
        [&]() {
          bench.host->Pump();
          if (!upgraded && delivered_total() >= kUpgradePackets / 3) {
            do_upgrade();
            upgraded = true;
          }
        },
        /*side=*/1);
  }
  while (delivered_total() < sent_total() &&
         std::chrono::steady_clock::now() < run_deadline) {
    bench.host->Pump();
    std::this_thread::yield();
  }

  result.sent = sent_total();
  result.delivered = delivered_total();
  result.lost = result.sent - result.delivered;
  result.digest_mismatches = netdev->stats().rx_bad_checksum.load() - mismatch_base;
  uml::DriverSupervisor::Stats stats = sup.stats();
  result.upgrades = stats.upgrades;
  result.buffers_quarantined = stats.buffers_quarantined;
  result.resumed_all_queues = upgraded;
  for (uint16_t q = 0; q < kQueues; ++q) {
    // Streamed after the cutover, or had already delivered its whole
    // per-queue budget before it (scheduling skew can finish one queue while
    // the others are mid-window; that queue is done, not wedged).
    result.resumed_all_queues &=
        netdev->queue_stats(q).rx_packets.load() > at_cutover[q] ||
        at_cutover[q] >= kUpgradePackets / kQueues;
  }
  result.ok &= result.sent == kUpgradePackets && result.lost == 0 &&
               result.digest_mismatches == 0 && result.upgrades == 1 &&
               result.buffers_quarantined == 0 && result.resumed_all_queues;
  return result;
}

GiveUpResult RunGiveUpStorm() {
  GiveUpResult result;
  NetBench bench;
  if (!bench.StartSut().ok()) {
    return result;
  }
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 4;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(1, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  for (int i = 0; i < 7; ++i) {
    (void)bench.host->Kill();
    (void)sup.CheckAndRecover();
  }
  uml::DriverSupervisor::Stats stats = sup.stats();
  result.max_restarts = sup_options.max_restarts;
  result.restarts = stats.restarts;
  result.give_ups = stats.give_ups;
  result.gave_up = sup.gave_up();
  result.interface_parked = bench.kernel.net().Find("eth0") == nullptr;
  result.ok = result.restarts == sup_options.max_restarts && result.gave_up &&
              result.interface_parked && result.give_ups >= 1;
  return result;
}

void WriteJson(const StormResult& storm, const UpgradeResult& upgrade,
               const GiveUpResult& give_up, bool threaded, bool pass, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  uint64_t lat_min = UINT64_MAX, lat_max = 0, lat_sum = 0;
  for (const CycleRow& row : storm.cycles) {
    lat_min = std::min(lat_min, row.recovery_latency_ns);
    lat_max = std::max(lat_max, row.recovery_latency_ns);
    lat_sum += row.recovery_latency_ns;
  }
  if (storm.cycles.empty()) {
    lat_min = 0;
  }
  double lost_per_crash = storm.cycles.empty()
                              ? 0
                              : static_cast<double>(storm.lost) / storm.cycles.size();
  std::fprintf(out, "{\n  \"benchmark\": \"abl_crash_recovery\",\n");
  std::fprintf(out, "  \"queues\": %u,\n  \"threaded\": %s,\n", kQueues,
               threaded ? "true" : "false");
  std::fprintf(out, "  \"crash_storm\": {\n");
  std::fprintf(out, "    \"cycles\": [\n");
  for (size_t i = 0; i < storm.cycles.size(); ++i) {
    const CycleRow& row = storm.cycles[i];
    std::fprintf(out,
                 "      {\"cycle\": %d, \"recovered\": %s, \"resumed_all_queues\": %s, "
                 "\"recovery_latency_ns\": %llu, \"sent\": %llu, \"delivered\": %llu, "
                 "\"lost\": %llu}%s\n",
                 row.cycle, row.recovered ? "true" : "false",
                 row.resumed_all_queues ? "true" : "false",
                 static_cast<unsigned long long>(row.recovery_latency_ns),
                 static_cast<unsigned long long>(row.sent),
                 static_cast<unsigned long long>(row.delivered),
                 static_cast<unsigned long long>(row.lost),
                 i + 1 < storm.cycles.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"restarts\": %u, \"sent\": %llu, \"delivered\": %llu, "
               "\"pkts_lost_total\": %llu, \"pkts_lost_per_crash\": %.1f,\n",
               storm.restarts, static_cast<unsigned long long>(storm.sent),
               static_cast<unsigned long long>(storm.delivered),
               static_cast<unsigned long long>(storm.lost), lost_per_crash);
  std::fprintf(out,
               "    \"pkts_lost_counted\": %llu, \"pkts_lost_uncounted\": %llu,\n",
               static_cast<unsigned long long>(storm.lost_counted),
               static_cast<unsigned long long>(storm.lost_uncounted));
  std::fprintf(out,
               "    \"loss_bound_per_crash\": %llu, \"digest_mismatches\": %llu, "
               "\"buffers_quarantined\": %llu,\n",
               static_cast<unsigned long long>(kQueues) * kPeerWindow,
               static_cast<unsigned long long>(storm.digest_mismatches),
               static_cast<unsigned long long>(storm.buffers_quarantined));
  std::fprintf(out,
               "    \"recovery_latency_ns\": {\"min\": %llu, \"avg\": %llu, \"max\": %llu}\n",
               static_cast<unsigned long long>(lat_min),
               static_cast<unsigned long long>(
                   storm.cycles.empty() ? 0 : lat_sum / storm.cycles.size()),
               static_cast<unsigned long long>(lat_max));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"hot_upgrade\": {\n");
  std::fprintf(out,
               "    \"upgrades\": %u, \"upgrade_ns\": %.0f, \"sent\": %llu, "
               "\"delivered\": %llu, \"pkts_lost\": %llu, \"digest_mismatches\": %llu, "
               "\"buffers_quarantined\": %llu, \"resumed_all_queues\": %s\n",
               upgrade.upgrades, upgrade.upgrade_ns,
               static_cast<unsigned long long>(upgrade.sent),
               static_cast<unsigned long long>(upgrade.delivered),
               static_cast<unsigned long long>(upgrade.lost),
               static_cast<unsigned long long>(upgrade.digest_mismatches),
               static_cast<unsigned long long>(upgrade.buffers_quarantined),
               upgrade.resumed_all_queues ? "true" : "false");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"give_up\": {\n");
  std::fprintf(out,
               "    \"max_restarts\": %u, \"restarts\": %u, \"give_ups\": %llu, "
               "\"gave_up\": %s, \"interface_parked\": %s\n",
               give_up.max_restarts, give_up.restarts,
               static_cast<unsigned long long>(give_up.give_ups),
               give_up.gave_up ? "true" : "false",
               give_up.interface_parked ? "true" : "false");
  std::fprintf(out, "  },\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace sud

int main() {
  using namespace sud;
  Logger::Get().set_min_level(LogLevel::kError);
  bool threaded = std::thread::hardware_concurrency() > 1 || std::getenv("SUD_FORCE_THREADED") != nullptr;

  StormResult storm = RunStorm(threaded);
  UpgradeResult upgrade = RunUpgrade(threaded);
  GiveUpResult give_up = RunGiveUpStorm();
  bool pass = storm.ok && upgrade.ok && give_up.ok;

  std::printf("\nabl_crash_recovery: %u-queue streaming, %s generators\n", kQueues,
              threaded ? "threaded" : "serial+pumped");
  std::printf("%-7s %-10s %-8s %12s %10s %10s %8s\n", "cycle", "recovered", "resumed",
              "latency(us)", "sent", "delivered", "lost");
  for (const CycleRow& row : storm.cycles) {
    std::printf("%-7d %-10s %-8s %12.0f %10llu %10llu %8llu\n", row.cycle,
                row.recovered ? "yes" : "NO", row.resumed_all_queues ? "4/4" : "PARTIAL",
                row.recovery_latency_ns / 1e3, (unsigned long long)row.sent,
                (unsigned long long)row.delivered, (unsigned long long)row.lost);
  }
  std::printf("storm: %u restarts, %llu/%llu delivered, %llu lost (%llu counted by a layer, "
              "%llu eaten by kills; bound %llu/crash), %llu digest mismatches -> %s\n",
              storm.restarts, (unsigned long long)storm.delivered,
              (unsigned long long)storm.sent, (unsigned long long)storm.lost,
              (unsigned long long)storm.lost_counted,
              (unsigned long long)storm.lost_uncounted,
              (unsigned long long)(kQueues * kPeerWindow),
              (unsigned long long)storm.digest_mismatches, storm.ok ? "OK" : "FAIL");
  std::printf("upgrade: %u cutover in %.0f us, %llu/%llu delivered, %llu lost, "
              "%llu quarantined -> %s\n",
              upgrade.upgrades, upgrade.upgrade_ns / 1e3,
              (unsigned long long)upgrade.delivered, (unsigned long long)upgrade.sent,
              (unsigned long long)upgrade.lost,
              (unsigned long long)upgrade.buffers_quarantined, upgrade.ok ? "OK" : "FAIL");
  std::printf("give-up: %u/%u budget spent, gave_up=%s, parked=%s -> %s\n", give_up.restarts,
              give_up.max_restarts, give_up.gave_up ? "true" : "false",
              give_up.interface_parked ? "true" : "false", give_up.ok ? "OK" : "FAIL");

  WriteJson(storm, upgrade, give_up, threaded, pass, "BENCH_crash_recovery.json");
  return pass ? 0 : 1;
}
