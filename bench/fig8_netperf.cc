// Figure 8 reproduction: the four netperf benchmarks of Section 5.1, run
// against both driver configurations — the e1000e in-kernel (trusted) and
// the same driver under SUD (untrusted user-space process).
//
// Methodology. Real packets flow through the real stack (device rings, MSI,
// proxies, uchans, SUD-UML); every mechanism charges the CpuModel. Wall time
// comes from the workload model:
//   * TCP_STREAM: link-bound — 1448-byte MSS segments occupy 1538 bytes of
//     gigabit wire each (our compressed 22-byte header stands in for the
//     real 66 bytes of Ethernet+IP+TCP; wire accounting uses the real size),
//     so both configurations saturate at ~941 Mbit/s and the interesting
//     number is CPU%.
//   * UDP_STREAM: a closed-loop sender — netperf's send path on the paper's
//     1.4 GHz Centrino sustains ~3.1 us per 64-byte sendto(); SUD's extra
//     copy-to-shared-buffer and uchan enqueue lengthen that path slightly.
//   * UDP_RR: one transaction in flight — the round trip includes the
//     client machine + wire (a fixed base) plus every charged nanosecond of
//     the server path; SUD pays two process wakeups (~4 us each, §5.1) per
//     transaction, which is why the paper reports 2x CPU.
// CPU% is charged-busy over wall across the Thinkpad's two cores, as
// netperf's CPU measurement reports it — computed through the core-affinity
// wall-time mapping (CpuModel's ScheduleOnCores): per-queue shard charges are
// schedulable units, so a multi-queue run is billed the makespan of its
// busiest core, while the single-queue rows reduce bit-for-bit to the legacy
// two-core formula.
//
// The absolute calibration (app costs, client base RTT) is fit to the
// paper's *kernel-driver* rows once; the SUD deltas then emerge entirely
// from the simulated mechanisms. Expected shape: equal throughput on
// streams, ~8-30% relative CPU overhead, ~2x CPU on UDP_RR.
//
// Besides the table, the bench writes BENCH_fig8_netperf.json — modeled results,
// uchan crossing counts per packet and the *simulator's own* wall-clock per
// run — so the perf trajectory of the reproduction is tracked across PRs.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/base/log.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kMacA;
using testing::kMacB;
using testing::NetBench;

// Workload calibration (the paper's testbed constants).
constexpr int kStreamPackets = 40000;
constexpr int kRrTransactions = 4000;
constexpr double kCores = 2.0;                  // dual-core Centrino
constexpr double kTcpAppNsPerPkt = 1350;        // netperf+TCP rx path per MSS
constexpr double kUdpSendBaseNs = 1700;         // sendto() syscall+socket+UDP
constexpr double kUdpTxWaitNs = 950;            // socket-buffer backpressure (idle)
constexpr double kUdpRxAppNsPerPkt = 380;       // recvfrom()+accounting
constexpr double kRrClientBaseNs = 98000;       // client machine + 2x wire + sched
constexpr size_t kTcpMss = 1448;
constexpr size_t kUdpPayload = 64 - 22;         // 64-byte UDP packets (paper)
constexpr double kTcpWireBytesPerSeg = 1538;    // 1448 + eth/ip/tcp + preamble/ifg
constexpr double kUdpWireBytesPerPkt = 64 + 14 + 24;
// Jumbo TCP_STREAM (9000-byte MTU, beyond the paper's testbed): MSS and the
// wire occupancy per segment at the jumbo MTU, same construction as the
// standard-MTU constants above (MSS = MTU - 52, wire = MSS + 66 + 24).
constexpr size_t kJumboTcpMss = 8948;
constexpr double kJumboTcpWireBytesPerSeg = 9038;
// Frag-skb geometry for the jumbo TX stream: head + page-sized frags, each
// fragment staged into one standard 2048-byte pool buffer -> 5 descriptors.
constexpr size_t kJumboHeadBytes = 2048;
constexpr size_t kJumboFragBytes = 2048;

struct Row {
  std::string test;
  std::string driver;
  double value;
  std::string unit;
  double cpu_pct;
  double paper_value;
  double paper_cpu;
  // Fast-path accounting, filled for the SUD rows (zero for in-kernel).
  double uchan_crossings_per_pkt = 0;  // kernel entries + wakeups per packet
  double uchan_msgs_per_pkt = 0;       // ring messages per packet
  // Descriptor-path accounting (both drivers): device-side descriptor DMA
  // transactions (cacheline burst fetches + completion writebacks) and
  // driver-side descriptor window resolutions (DmaView maps) per packet —
  // the crossings the DescRingEngine burst fetch collapses.
  double desc_dma_per_pkt = 0;
  double desc_windows_per_pkt = 0;
  // TX scatter/gather accounting (both drivers): TX descriptors armed per
  // transmitted frame (1 for single-buffer frames, the chain length for frag
  // skbs) and skb_linearize copies per frame (0 on the SG path — the copy
  // the frag-chained transmit deletes).
  double tx_desc_per_pkt = 0;
  double tx_copies_per_pkt = 0;
  // RX delivery copies per packet (both drivers): the proxy's guard copies —
  // fallback copies under sealed delivery included, so a "zero-copy" row that
  // silently copied reports it. 0 for the in-kernel driver (DMA lands in the
  // skb) and 0 is the REQUIRED value on the sealed (ZC) rows: the exit gate
  // fails the bench otherwise.
  double rx_copies_per_pkt = 0;
  // Per-queue channel accounting (one entry per uchan shard): the simulated
  // nanoseconds each queue's channel charged to either side. Single-queue
  // rows have one entry; the multi-queue ablation reports the full fan-out.
  std::vector<uint64_t> queue_kernel_ns;
  std::vector<uint64_t> queue_driver_ns;
  // The simulator's own cost for this run (host wall-clock, microseconds).
  double sim_wall_us = 0;
};

// One benchmark configuration: either the SUD bench or the in-kernel bench.
struct Config {
  std::unique_ptr<NetBench> bench;
  bool is_sud;

  // `sealed` (SUD only) selects the zero-copy verified delivery
  // configuration: RX pages are IOMMU-write-sealed and verified in place
  // (no guard copy), with unseal-side IOTLB invalidations riding the queued
  // batch one sync per NAPI bundle. sealed=false keeps the guard-copy
  // ablation bit-identical to the historical rows.
  static Config Make(bool is_sud, bool sealed = false) {
    NetBench::Options options;
    options.start_sut = is_sud;
    options.proxy.sealed_delivery = sealed;
    Config config{std::make_unique<NetBench>(options), is_sud};
    if (sealed) {
      config.bench->machine.iommu().set_queued_invalidation(true);
    }
    if (is_sud) {
      Status status = config.bench->StartSut();
      if (!status.ok()) {
        std::fprintf(stderr, "sut start failed: %s\n", status.ToString().c_str());
      }
    } else {
      Status status = config.bench->StartSutInKernel();
      if (!status.ok()) {
        std::fprintf(stderr, "kernel sut start failed: %s\n", status.ToString().c_str());
      }
    }
    return config;
  }

  void Pump() {
    if (is_sud) {
      bench->host->Pump();
    } else {
      // NAPI: one interrupt + one poll per burst.
      CpuModel& cpu = bench->machine.cpu();
      cpu.Charge(kAccountKernel, cpu.costs().interrupt_entry);
      bench->sut_driver->NapiPoll();
    }
  }

  // Kernel baseline: switch the SUT into NAPI polling (interrupts masked).
  void EnableNapi() {
    if (!is_sud) {
      (void)bench->sut_env->MmioWrite32(0, devices::kNicRegImc, 0xffffffffu);
    }
  }

  // Fills the uchan crossing counters of `row` (SUD configuration only).
  void FillUchanCounters(Row* row, int packets) const {
    if (!is_sud) {
      return;
    }
    Uchan::Stats stats = bench->ctx->AggregateCtlStats();
    row->uchan_crossings_per_pkt =
        static_cast<double>(stats.downcall_batches + stats.wakeups) / packets;
    row->uchan_msgs_per_pkt =
        static_cast<double>(stats.upcalls_sync + stats.upcalls_async + stats.downcalls_sync +
                            stats.downcalls_async) /
        packets;
    for (uint32_t q = 0; q < bench->ctx->num_queues(); ++q) {
      Uchan::Stats shard = bench->ctx->ctl(static_cast<uint16_t>(q)).stats();
      row->queue_kernel_ns.push_back(shard.kernel_ns);
      row->queue_driver_ns.push_back(shard.driver_ns);
    }
  }
  const char* name() const { return is_sud ? "Untrusted driver" : "Kernel driver"; }

  // Descriptor-path counters, snapshotted around each workload so probe-time
  // ring arming does not pollute the per-packet rates.
  struct DescSnapshot {
    uint64_t fetch = 0, writeback = 0, windows = 0;
    uint64_t tx_frames = 0, tx_descs = 0, tx_linearized = 0;
    uint64_t guard_copies = 0;
  };
  DescSnapshot SnapDesc() const {
    const devices::SimNic::Stats& nic = bench->sut_nic.stats();
    DescSnapshot snap{nic.desc_fetch_dma.load(), nic.desc_writeback_dma.load(),
                      bench->sut_driver != nullptr ? bench->sut_driver->desc_window_maps() : 0};
    if (bench->sut_driver != nullptr) {
      snap.tx_frames = bench->sut_driver->stats().tx_queued.load();
      snap.tx_descs = bench->sut_driver->stats().tx_desc_queued.load();
    }
    kern::NetDevice* netdev = bench->kernel.net().Find(bench->SutIfname());
    if (netdev != nullptr) {
      snap.tx_linearized = netdev->stats().tx_linearized.load();
    }
    if (bench->proxy != nullptr) {
      snap.guard_copies = bench->proxy->stats().guard_copies.load();
    }
    return snap;
  }
  void FillDescCounters(Row* row, int packets, const DescSnapshot& base) const {
    DescSnapshot now = SnapDesc();
    row->desc_dma_per_pkt =
        static_cast<double>((now.fetch - base.fetch) + (now.writeback - base.writeback)) /
        packets;
    row->desc_windows_per_pkt = static_cast<double>(now.windows - base.windows) / packets;
    uint64_t tx_frames = now.tx_frames - base.tx_frames;
    if (tx_frames > 0) {
      row->tx_desc_per_pkt = static_cast<double>(now.tx_descs - base.tx_descs) / tx_frames;
      row->tx_copies_per_pkt =
          static_cast<double>(now.tx_linearized - base.tx_linearized) / tx_frames;
    }
    row->rx_copies_per_pkt =
        static_cast<double>(now.guard_copies - base.guard_copies) / packets;
  }
};

double TotalCpu(NetBench& bench) {
  // Only the Thinkpad's cores: the peer (Optiplex) and device-internal work
  // are not this machine's CPU.
  return static_cast<double>(bench.machine.cpu().busy(kAccountKernel) +
                             bench.machine.cpu().busy(kAccountDriver));
}

// CPU% for the stream tests via the core-affinity wall-time mapping: each
// queue's shard charges (already in row.queue_*) are independent schedulable
// units, the remainder of `busy_ns` is serial, and the workload's wall time
// is the floor. On the single-queue rows this reduces exactly to the legacy
// two-core formula 100 * busy / (kCores * wall) — see CoreSchedule in
// cpu_model.h — so the published Figure 8 rows are unchanged; a multi-queue
// run instead pays the makespan of its busiest core when that exceeds the
// wire time. (UDP_RR keeps its transaction-latency formula: CPU there is per
// round trip, not a cores-normalised utilisation.)
double ModelCpuPct(const Row& row, double busy_ns, double wall_floor_ns) {
  return ScheduleOnCoresWithTotal(row.queue_kernel_ns, row.queue_driver_ns, busy_ns,
                                  wall_floor_ns, static_cast<uint32_t>(kCores))
      .cpu_pct;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedUs() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// TCP_STREAM: the SUT receives a stream of MSS-sized segments. The link is
// the bottleneck; packets arrive in bursts of 16 (interrupt coalescing) and
// SUD-UML batches the resulting netif_rx downcalls (Section 5.1).
// Prints the IOMMU seal ledger after a sealed (zero-copy) run: seals must
// balance unseals (no page left write-revoked after the skbs drain) and the
// queued-invalidation batching shows up as shootdowns << unseals.
void PrintSealStats(const char* label, NetBench& bench) {
  const hw::SealStats& seal = bench.machine.iommu().seal_stats();
  const sud::EthernetProxy::Stats& proxy = bench.proxy->stats();
  std::printf(
      "  [%s] seals=%llu unseals=%llu shootdowns=%llu blocked_writes=%llu "
      "sealed_deliveries=%llu fallback_copies=%llu quarantined=%llu\n",
      label, static_cast<unsigned long long>(seal.seals),
      static_cast<unsigned long long>(seal.unseals),
      static_cast<unsigned long long>(seal.shootdowns),
      static_cast<unsigned long long>(seal.blocked_writes),
      static_cast<unsigned long long>(proxy.sealed_deliveries.load()),
      static_cast<unsigned long long>(proxy.sealed_fallback_copies.load()),
      static_cast<unsigned long long>(proxy.sealed_quarantined.load()));
}

Row RunTcpStream(bool is_sud, bool sealed = false) {
  Config config = Config::Make(is_sud, sealed);
  config.EnableNapi();
  NetBench& bench = *config.bench;
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kTcpMss, 0x5a);
  constexpr int kBurst = 16;
  for (int sent = 0; sent < kStreamPackets; sent += kBurst) {
    (void)bench.PeerSendBurst(33000, 80, {payload.data(), payload.size()}, kBurst);
    config.Pump();
  }
  double wall_ns = kStreamPackets * kTcpWireBytesPerSeg * 8.0;  // 1 Gb/s: 8 ns/byte
  double cpu_ns = TotalCpu(bench) + kStreamPackets * kTcpAppNsPerPkt;
  double throughput_mbps = kTcpMss * 8.0 * kStreamPackets / wall_ns * 1000.0;
  // No paper row for the sealed configuration: the paper chose the guard copy
  // precisely because it did not measure revocation (Section 3.1.2).
  Row row{sealed ? "TCP_STREAM ZC" : "TCP_STREAM", config.name(), throughput_mbps,
          "Mbits/sec",
          /*cpu_pct=*/0, sealed ? 0.0 : 941.0, sealed ? 0.0 : (is_sud ? 13.0 : 12.0)};
  config.FillUchanCounters(&row, kStreamPackets);
  config.FillDescCounters(&row, kStreamPackets, desc_base);
  row.cpu_pct = ModelCpuPct(row, cpu_ns, wall_ns);
  row.sim_wall_us = timer.ElapsedUs();
  if (sealed) {
    PrintSealStats("TCP_STREAM ZC", bench);
  }
  return row;
}

// UDP_STREAM TX: the SUT transmits 64-byte packets in a closed sender loop.
Row RunUdpTx(bool is_sud) {
  Config config = Config::Make(is_sud);
  config.EnableNapi();
  NetBench& bench = *config.bench;
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kUdpPayload, 0x11);
  constexpr int kBurst = 8;
  for (int sent = 0; sent < kStreamPackets; sent += kBurst) {
    (void)bench.SutSendBurst(5001, 5002, {payload.data(), payload.size()}, kBurst);
    config.Pump();  // driver drains the xmit queue, devices transmit
  }

  // Closed loop: the sender's per-packet path is the app base plus the
  // charged kernel-side work (the part executed in the sender's context).
  double kernel_ns = static_cast<double>(bench.machine.cpu().busy(kAccountKernel));
  double driver_ns = static_cast<double>(bench.machine.cpu().busy(kAccountDriver));
  double send_path_ns = kUdpSendBaseNs + kUdpTxWaitNs + kernel_ns / kStreamPackets;
  double wall_ns = kStreamPackets * send_path_ns;
  double wire_ns = kStreamPackets * kUdpWireBytesPerPkt * 8.0;
  if (wire_ns > wall_ns) {
    wall_ns = wire_ns;
  }
  double pps = kStreamPackets / wall_ns * 1e9;
  double cpu_ns = kernel_ns + driver_ns + kStreamPackets * kUdpSendBaseNs;
  Row row{"UDP_STREAM TX", config.name(), pps / 1000.0, "Kpackets/sec",
          /*cpu_pct=*/0, is_sud ? 308.0 : 317.0, is_sud ? 39.0 : 35.0};
  config.FillUchanCounters(&row, kStreamPackets);
  config.FillDescCounters(&row, kStreamPackets, desc_base);
  row.cpu_pct = ModelCpuPct(row, cpu_ns, wall_ns);
  row.sim_wall_us = timer.ElapsedUs();
  return row;
}

// TCP_STREAM at the jumbo MTU, transmit side: the SUT streams 9000-byte-MTU
// segments at the peer as FRAG skbs riding the TX scatter/gather chains —
// head + page frags staged per-fragment into standard pool buffers, one
// 5-fragment kEthUpXmit upcall and a 5-descriptor chain per segment, zero
// linearize copies. The link is the bottleneck at the jumbo wire occupancy;
// the number the row exists for is CPU%-per-byte (and tx_copies_per_pkt=0),
// which the paper's 1500-byte testbed could not show. `sealed` (SUD only) is
// the TX mirror of zero-copy delivery: the frags are DRAM-backed kernel
// pages, which the proxy grant-maps read-only into the device's IOMMU
// domain, so descriptors arm straight from them and nothing is staged.
Row RunTcpStreamJumboTx(bool is_sud, bool sealed = false) {
  NetBench::Options options;
  options.start_sut = is_sud;
  options.mtu = static_cast<uint32_t>(kern::kJumboMtu);
  options.peer_mtu = static_cast<uint32_t>(kern::kJumboMtu);
  Config config{std::make_unique<NetBench>(options), is_sud};
  if (is_sud) {
    (void)config.bench->StartSut();
  } else {
    (void)config.bench->StartSutInKernel();
  }
  config.EnableNapi();
  NetBench& bench = *config.bench;
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kJumboTcpMss, 0x5a);
  constexpr int kBurst = 8;
  for (int sent = 0; sent < kStreamPackets; sent += kBurst) {
    Status sent_status =
        sealed ? bench.SutSendDramFragBurst(80, 33000, {payload.data(), payload.size()},
                                            kBurst, kJumboHeadBytes, kJumboFragBytes)
               : bench.SutSendFragBurst(80, 33000, {payload.data(), payload.size()}, kBurst,
                                        kJumboHeadBytes, kJumboFragBytes);
    (void)sent_status;
    config.Pump();  // driver drains the xmit chains, the device gathers
  }
  double wall_ns = kStreamPackets * kJumboTcpWireBytesPerSeg * 8.0;  // 1 Gb/s: 8 ns/byte
  double cpu_ns = TotalCpu(bench) + kStreamPackets * kTcpAppNsPerPkt;
  double throughput_mbps = kJumboTcpMss * 8.0 * kStreamPackets / wall_ns * 1000.0;
  // No paper row to compare against: the testbed had no jumbo path.
  Row row{sealed ? "TCP_STREAM 9K TXZC" : "TCP_STREAM 9K", config.name(), throughput_mbps,
          "Mbits/sec",
          /*cpu_pct=*/0, /*paper_value=*/0, /*paper_cpu=*/0};
  config.FillUchanCounters(&row, kStreamPackets);
  config.FillDescCounters(&row, kStreamPackets, desc_base);
  row.cpu_pct = ModelCpuPct(row, cpu_ns, wall_ns);
  row.sim_wall_us = timer.ElapsedUs();
  if (sealed && bench.proxy != nullptr) {
    const sud::EthernetProxy::Stats& proxy = bench.proxy->stats();
    std::printf("  [TCP_STREAM 9K TXZC] tx_grants=%llu tx_grant_frames=%llu "
                "tx_grant_fallbacks=%llu\n",
                static_cast<unsigned long long>(proxy.tx_grants.load()),
                static_cast<unsigned long long>(proxy.tx_grant_frames.load()),
                static_cast<unsigned long long>(proxy.tx_grant_fallbacks.load()));
  }
  return row;
}

// UDP_STREAM RX: the peer floods 64-byte packets at the SUT; the paper's
// receiver keeps up (238 vs 235 Kpps), limited by the sender's rate.
Row RunUdpRx(bool is_sud, bool sealed = false) {
  Config config = Config::Make(is_sud, sealed);
  config.EnableNapi();
  NetBench& bench = *config.bench;
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kUdpPayload, 0x22);
  constexpr int kBurst = 16;
  int delivered = 0;
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  netdev->set_rx_sink([&](const kern::Skb&) { ++delivered; });
  for (int sent = 0; sent < kStreamPackets; sent += kBurst) {
    (void)bench.PeerSendBurst(5002, 5001, {payload.data(), payload.size()}, kBurst);
    config.Pump();
  }
  // The Optiplex's send rate bounds the test (the paper's 238 Kpps); the
  // receiver's capacity is 1/path if worse.
  double sender_rate_pps = 240000.0;
  double kernel_ns = static_cast<double>(bench.machine.cpu().busy(kAccountKernel));
  double driver_ns = static_cast<double>(bench.machine.cpu().busy(kAccountDriver));
  double rx_path_ns = (kernel_ns + driver_ns) / kStreamPackets + kUdpRxAppNsPerPkt;
  double capacity_pps = 1e9 / rx_path_ns * kCores;  // rx path pipelines across cores
  double pps = std::min(sender_rate_pps, capacity_pps);
  double wall_ns = kStreamPackets / pps * 1e9;
  double cpu_ns = kernel_ns + driver_ns + kStreamPackets * kUdpRxAppNsPerPkt;
  Row row{sealed ? "UDP_STREAM RX ZC" : "UDP_STREAM RX", config.name(),
          pps * (delivered / double(kStreamPackets)) / 1000.0, "Kpackets/sec",
          /*cpu_pct=*/0, sealed ? 0.0 : (is_sud ? 235.0 : 238.0),
          sealed ? 0.0 : (is_sud ? 26.0 : 20.0)};
  config.FillUchanCounters(&row, kStreamPackets);
  config.FillDescCounters(&row, kStreamPackets, desc_base);
  row.cpu_pct = ModelCpuPct(row, cpu_ns, wall_ns);
  row.sim_wall_us = timer.ElapsedUs();
  if (sealed) {
    PrintSealStats("UDP_STREAM RX ZC", bench);
  }
  return row;
}

// UDP_RR: one 64-byte request/response in flight at a time. Every charged
// nanosecond of the server path adds to the RTT; under SUD each direction
// pays a process wakeup.
Row RunUdpRr(bool is_sud) {
  Config config = Config::Make(is_sud);
  NetBench& bench = *config.bench;
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kUdpPayload, 0x33);
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  int requests = 0;
  netdev->set_rx_sink([&](const kern::Skb&) { ++requests; });

  // The netperf client is a threaded EtherLink RR peer (the Optiplex as its
  // own machine), transmitting each request on the wire from its own thread.
  // Replies are acked by the serving loop's served-transaction counter — not
  // raw wire frames — so request t+1 leaves only after the server fully
  // finished transaction t. That strict alternation is UDP_RR's one-in-flight
  // semantics AND what keeps the per-transaction charge shape (request
  // landed; Pump; reply; Pump) bit-identical to the serial bench.
  std::atomic<uint64_t> served{0};
  devices::EtherLink::RrFlow client;
  client.request = kern::BuildPacket(kMacA, kMacB, 7001, 7002,
                                     {payload.data(), payload.size()});
  client.transactions = kRrTransactions;
  client.replies = [&served]() { return served.load(std::memory_order_acquire); };
  uint64_t requests_base = bench.link.stats().frames[1].load();
  bench.link.StartRrPeers({std::move(client)}, /*side=*/1);

  for (int txn = 0; txn < kRrTransactions; ++txn) {
    // The request is fully DMA'd into the SUT NIC once frames[1] advances.
    while (bench.link.stats().frames[1].load() < requests_base + txn + 1) {
      std::this_thread::yield();
    }
    config.Pump();  // request reaches the app
    auto reply = kern::BuildPacket(kMacB, kMacA, 7002, 7001,
                                   {payload.data(), payload.size()});
    (void)bench.kernel.net().Transmit(netdev,
                                      kern::MakeSkb({reply.data(), reply.size()}));
    config.Pump();  // reply transmitted
    served.store(static_cast<uint64_t>(txn) + 1, std::memory_order_release);
  }
  bench.link.JoinPeers();

  double cpu_ns = TotalCpu(bench);
  double server_ns_per_txn = cpu_ns / kRrTransactions;
  // The interrupt/driver half of the server path overlaps the netserver
  // process on the other core; roughly half of it extends the RTT.
  double rtt_ns = kRrClientBaseNs + server_ns_per_txn / 2.0;
  double tps = 1e9 / rtt_ns;
  Row row{"UDP_RR", config.name(), tps, "Tx/sec", 100.0 * server_ns_per_txn / rtt_ns,
          is_sud ? 9489.0 : 9590.0, is_sud ? 10.0 : 5.0};
  config.FillUchanCounters(&row, 2 * kRrTransactions);
  config.FillDescCounters(&row, 2 * kRrTransactions, desc_base);
  row.sim_wall_us = timer.ElapsedUs();
  return row;
}

// Whether every ITR row delivered all its traffic (exit-gated in main: a
// moderation wedge — a deferred MSI that never flushes — must fail CI, not
// just skew a number).
bool g_itr_rows_complete = true;

// UDP_RR under per-queue interrupt moderation (EITR = `itr_units` * 256ns).
// Same one-in-flight client as RunUdpRr; the serving loop additionally runs
// SimNic::Tick so moderation windows expire and deferred MSIs flush (the
// plain RR loop never ticks the NIC — with EITR armed it would wedge).
//
// HONEST ACCOUNTING: moderation helps floods (see RunUdpRxItrFlood) and
// hurts one-in-flight latency. A request landing inside a closed window
// waits, on average, half the window for its deferred MSI, so the modeled
// RTT gains itr_units * kNicItrUnitNs / 2 — a modeled penalty (the
// simulator's Tick is not a clock), recorded as such.
Row RunUdpRrItr(uint32_t itr_units) {
  Config config = Config::Make(true);
  NetBench& bench = *config.bench;
  if (bench.sut_driver != nullptr) {
    (void)bench.sut_driver->ProgramItr(itr_units);
  }
  bench.machine.cpu().Reset();
  Config::DescSnapshot desc_base = config.SnapDesc();
  WallTimer timer;

  std::vector<uint8_t> payload(kUdpPayload, 0x33);
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  int requests = 0;
  netdev->set_rx_sink([&](const kern::Skb&) { ++requests; });

  std::atomic<uint64_t> served{0};
  devices::EtherLink::RrFlow client;
  client.request = kern::BuildPacket(kMacA, kMacB, 7001, 7002,
                                     {payload.data(), payload.size()});
  client.transactions = kRrTransactions;
  client.replies = [&served]() { return served.load(std::memory_order_acquire); };
  uint64_t requests_base = bench.link.stats().frames[1].load();
  bench.link.StartRrPeers({std::move(client)}, /*side=*/1);

  for (int txn = 0; txn < kRrTransactions; ++txn) {
    while (bench.link.stats().frames[1].load() < requests_base + txn + 1) {
      std::this_thread::yield();
    }
    // The request's MSI may be parked behind a moderation window: tick the
    // NIC until the window expires and the deferred interrupt delivers it
    // (each Tick advances kNicItrUnitsPerTick of the window). Bounded so a
    // wedge fails visibly instead of hanging the bench.
    config.Pump();
    for (int guard = 0; requests <= txn && guard < 64; ++guard) {
      bench.sut_nic.Tick();
      config.Pump();
    }
    auto reply = kern::BuildPacket(kMacB, kMacA, 7002, 7001,
                                   {payload.data(), payload.size()});
    (void)bench.kernel.net().Transmit(netdev,
                                      kern::MakeSkb({reply.data(), reply.size()}));
    config.Pump();
    bench.sut_nic.Tick();  // let the TX-reap side's window expire too
    served.store(static_cast<uint64_t>(txn) + 1, std::memory_order_release);
  }
  bench.link.JoinPeers();
  if (requests != kRrTransactions) {
    std::fprintf(stderr, "FAIL: UDP_RR ITR=%u served %d/%d requests\n", itr_units, requests,
                 kRrTransactions);
    g_itr_rows_complete = false;
  }

  double cpu_ns = TotalCpu(bench);
  double server_ns_per_txn = cpu_ns / kRrTransactions;
  double itr_wait_ns = itr_units * devices::kNicItrUnitNs / 2.0;  // modeled
  double rtt_ns = kRrClientBaseNs + server_ns_per_txn / 2.0 + itr_wait_ns;
  double tps = 1e9 / rtt_ns;
  char test[32];
  std::snprintf(test, sizeof(test), "UDP_RR ITR%u", itr_units);
  Row row{test, config.name(), tps, "Tx/sec", 100.0 * server_ns_per_txn / rtt_ns, 0.0, 0.0};
  config.FillUchanCounters(&row, 2 * kRrTransactions);
  config.FillDescCounters(&row, 2 * kRrTransactions, desc_base);
  row.sim_wall_us = timer.ElapsedUs();
  std::printf("  [%s] suppressed=%llu modeled_itr_wait=%.0fns\n", test,
              static_cast<unsigned long long>(bench.sut_nic.stats().itr_suppressed.load()),
              itr_wait_ns);
  return row;
}

// The other side of the tradeoff: a 4-queue UDP receive flood, measured by
// interrupts per packet. With EITR armed, bursts landing inside an open
// window coalesce onto one deferred MSI per window per queue, cutting the
// per-packet interrupt-entry charge that dominates small-packet RX CPU.
Row RunUdpRxItrFlood(uint32_t itr_units) {
  constexpr int kFloodPackets = 20000;
  NetBench::Options options;
  options.nic_queues = 4;
  NetBench bench(options);
  Status status = bench.StartSut();
  if (!status.ok()) {
    std::fprintf(stderr, "sut start failed: %s\n", status.ToString().c_str());
  }
  bench.MaskPeerIrq();
  if (bench.sut_driver != nullptr) {
    (void)bench.sut_driver->ProgramItr(itr_units);
  }
  bench.machine.cpu().Reset();
  WallTimer timer;

  std::vector<uint8_t> payload(kUdpPayload, 0x22);
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  uint64_t irq_base = bench.kernel.interrupts_handled();
  for (int sent = 0; sent < kFloodPackets; sent += 16) {
    (void)bench.PeerSendFlowBurst(5100, 5001, {payload.data(), payload.size()}, 16, 16);
    bench.host->Pump();
    bench.sut_nic.Tick();
  }
  for (int drain = 0; drain < 16; ++drain) {  // flush trailing deferred MSIs
    bench.sut_nic.Tick();
    bench.host->Pump();
  }
  uint64_t delivered = netdev->stats().rx_packets.load();
  uint64_t irqs = bench.kernel.interrupts_handled() - irq_base;
  uint64_t suppressed = bench.sut_nic.stats().itr_suppressed.load();
  if (delivered != static_cast<uint64_t>(kFloodPackets)) {
    std::fprintf(stderr, "FAIL: UDP RX flood ITR=%u delivered %llu/%d\n", itr_units,
                 static_cast<unsigned long long>(delivered), kFloodPackets);
    g_itr_rows_complete = false;
  }

  // Modeled exactly like RunUdpRx: the sender's rate bounds the test unless
  // the per-packet rx path (now with fewer interrupt entries) is worse.
  double sender_rate_pps = 240000.0;
  double kernel_ns = static_cast<double>(bench.machine.cpu().busy(kAccountKernel));
  double driver_ns = static_cast<double>(bench.machine.cpu().busy(kAccountDriver));
  double rx_path_ns = (kernel_ns + driver_ns) / kFloodPackets + kUdpRxAppNsPerPkt;
  double capacity_pps = 1e9 / rx_path_ns * kCores;
  double pps = std::min(sender_rate_pps, capacity_pps);
  double wall_ns = kFloodPackets / pps * 1e9;
  double cpu_ns = kernel_ns + driver_ns + kFloodPackets * kUdpRxAppNsPerPkt;
  char test[32];
  std::snprintf(test, sizeof(test), "UDP_RX 4Q ITR%u", itr_units);
  Row row{test, "Untrusted driver", pps * (delivered / double(kFloodPackets)) / 1000.0,
          "Kpackets/sec", /*cpu_pct=*/0, 0.0, 0.0};
  row.cpu_pct = ModelCpuPct(row, cpu_ns, wall_ns);
  row.sim_wall_us = timer.ElapsedUs();
  std::printf("  [%s] irqs/pkt=%.4f suppressed=%llu delivered=%llu\n", test,
              static_cast<double>(irqs) / kFloodPackets,
              static_cast<unsigned long long>(suppressed),
              static_cast<unsigned long long>(delivered));
  return row;
}

void Print(const std::vector<Row>& rows) {
  std::printf("\nFigure 8: netperf results, e1000e in-kernel vs under SUD\n");
  std::printf("%-14s %-17s %14s %-13s %7s | %10s %9s\n", "Test", "Driver", "Measured", "Unit",
              "CPU %", "paper val", "paper CPU");
  std::printf("%s\n", std::string(96, '-').c_str());
  for (const Row& row : rows) {
    std::printf("%-14s %-17s %14.0f %-13s %6.1f%% | %10.0f %8.0f%%\n", row.test.c_str(),
                row.driver.c_str(), row.value, row.unit.c_str(), row.cpu_pct, row.paper_value,
                row.paper_cpu);
  }
  std::printf("\nShape checks (paper: equal stream throughput; 8-30%% CPU overhead on\n");
  std::printf("streams; ~2x CPU on UDP_RR):\n");
}

// Machine-readable trajectory record: one object per row.
void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fig8_netperf\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"test\": \"%s\", \"driver\": \"%s\", \"value\": %.2f, "
                 "\"unit\": \"%s\", \"cpu_pct\": %.2f, \"paper_value\": %.1f, "
                 "\"paper_cpu_pct\": %.1f, \"uchan_crossings_per_pkt\": %.4f, "
                 "\"uchan_msgs_per_pkt\": %.4f, \"desc_dma_per_pkt\": %.4f, "
                 "\"desc_windows_per_pkt\": %.4f, \"tx_desc_per_pkt\": %.4f, "
                 "\"tx_copies_per_pkt\": %.4f, \"rx_copies_per_pkt\": %.4f, "
                 "\"sim_wall_us\": %.0f",
                 row.test.c_str(), row.driver.c_str(), row.value, row.unit.c_str(), row.cpu_pct,
                 row.paper_value, row.paper_cpu, row.uchan_crossings_per_pkt,
                 row.uchan_msgs_per_pkt, row.desc_dma_per_pkt, row.desc_windows_per_pkt,
                 row.tx_desc_per_pkt, row.tx_copies_per_pkt, row.rx_copies_per_pkt,
                 row.sim_wall_us);
    // Per-queue channel accounting (one entry per uchan shard).
    std::fprintf(out, ", \"queue_kernel_ns\": [");
    for (size_t q = 0; q < row.queue_kernel_ns.size(); ++q) {
      std::fprintf(out, "%s%llu", q == 0 ? "" : ", ",
                   static_cast<unsigned long long>(row.queue_kernel_ns[q]));
    }
    std::fprintf(out, "], \"queue_driver_ns\": [");
    for (size_t q = 0; q < row.queue_driver_ns.size(); ++q) {
      std::fprintf(out, "%s%llu", q == 0 ? "" : ", ",
                   static_cast<unsigned long long>(row.queue_driver_ns[q]));
    }
    std::fprintf(out, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace sud

int main() {
  sud::Logger::Get().set_min_level(sud::LogLevel::kError);
  std::vector<sud::Row> rows;
  rows.push_back(sud::RunTcpStream(false));
  rows.push_back(sud::RunTcpStream(true));
  rows.push_back(sud::RunUdpTx(false));
  rows.push_back(sud::RunUdpTx(true));
  rows.push_back(sud::RunUdpRx(false));
  rows.push_back(sud::RunUdpRx(true));
  rows.push_back(sud::RunUdpRr(false));
  rows.push_back(sud::RunUdpRr(true));
  // Jumbo TX stream rows ride the TX scatter/gather chains (appended after
  // the paper's table so the historical row order never moves).
  rows.push_back(sud::RunTcpStreamJumboTx(false));
  rows.push_back(sud::RunTcpStreamJumboTx(true));
  // Zero-copy verified delivery rows (SUD only): seal the page, verify the
  // checksum in place, deliver by reference. Appended after every historical
  // row so indices 0-9 never move and the guard-copy rows above stay the
  // runtime-selectable ablation.
  rows.push_back(sud::RunTcpStream(true, /*sealed=*/true));       // row 10
  rows.push_back(sud::RunUdpRx(true, /*sealed=*/true));           // row 11
  rows.push_back(sud::RunTcpStreamJumboTx(true, /*sealed=*/true));  // row 12
  // Interrupt-moderation sweep (SUD only), appended after every historical
  // row so indices 0-12 never move. ITR0 re-runs the RR loop with the
  // tick-and-flush scaffolding but moderation OFF — it must stay within
  // noise of row 7 (printed below as the scaffolding sanity check). The RR
  // rows record moderation's latency COST; the 4-queue RX flood rows record
  // its interrupt-rate benefit. Both directions are reported, neither is
  // cherry-picked.
  rows.push_back(sud::RunUdpRrItr(0));        // row 13
  rows.push_back(sud::RunUdpRrItr(31));       // row 14: ~8us windows
  rows.push_back(sud::RunUdpRrItr(125));      // row 15: ~32us windows
  rows.push_back(sud::RunUdpRxItrFlood(0));   // row 16
  rows.push_back(sud::RunUdpRxItrFlood(31));  // row 17
  rows.push_back(sud::RunUdpRxItrFlood(125)); // row 18
  sud::Print(rows);

  // Shape assertions printed for the record.
  auto pct = [&](int kernel_row, int sud_row) {
    return 100.0 * (rows[sud_row].cpu_pct - rows[kernel_row].cpu_pct) / rows[kernel_row].cpu_pct;
  };
  std::printf("  TCP_STREAM   : throughput %s, CPU overhead %+.0f%%\n",
              rows[0].value == rows[1].value ? "equal" : "UNEQUAL", pct(0, 1));
  std::printf("  UDP_STREAM TX: throughput ratio %.2f, CPU overhead %+.0f%%\n",
              rows[3].value / rows[2].value, pct(2, 3));
  std::printf("  UDP_STREAM RX: throughput ratio %.2f, CPU overhead %+.0f%%\n",
              rows[5].value / rows[4].value, pct(4, 5));
  std::printf("  UDP_RR       : throughput ratio %.2f, CPU ratio %.1fx\n",
              rows[7].value / rows[6].value, rows[7].cpu_pct / rows[6].cpu_pct);
  std::printf("  TCP_STREAM 9K: throughput %s, CPU overhead %+.0f%%, "
              "tx chain %.1f desc/pkt, linearize copies %.1f/pkt (must be 0 on SG)\n",
              rows[8].value == rows[9].value ? "equal" : "UNEQUAL", pct(8, 9),
              rows[9].tx_desc_per_pkt, rows[9].tx_copies_per_pkt);
  std::printf("  Zero-copy    : guard-copy rows %.1f rx copies/pkt; sealed rows "
              "%.2f / %.2f rx copies/pkt, TXZC %.2f tx copies/pkt "
              "(all three must be 0)\n",
              rows[1].rx_copies_per_pkt, rows[10].rx_copies_per_pkt,
              rows[11].rx_copies_per_pkt, rows[12].tx_copies_per_pkt);
  std::printf("  Zero-copy CPU: TCP_STREAM %+.0f%% vs guard copy, UDP RX %+.0f%%, "
              "9K TX %+.0f%%\n",
              pct(1, 10), pct(5, 11), pct(9, 12));
  std::printf("  ITR          : RR ITR0 %.0f vs plain RR %.0f Tx/sec (scaffolding check); "
              "RR latency cost ITR31 %.2fx, ITR125 %.2fx; "
              "RX flood CPU ITR31 %+.0f%%, ITR125 %+.0f%%\n",
              rows[13].value, rows[7].value, rows[13].value / rows[14].value,
              rows[13].value / rows[15].value, pct(16, 17), pct(16, 18));
  sud::WriteJson(rows, "BENCH_fig8_netperf.json");

  // Exit gate: the zero-copy rows must actually be zero-copy. A nonzero
  // rx_copies_per_pkt on a sealed row means delivery fell back to the guard
  // copy; a nonzero tx_copies_per_pkt on the TXZC row means the proxy staged
  // (or the kernel linearized) instead of granting. CI fails on this.
  int exit_code = 0;
  if (rows[10].rx_copies_per_pkt != 0 || rows[11].rx_copies_per_pkt != 0) {
    std::fprintf(stderr, "FAIL: sealed delivery rows report rx copies (%.4f, %.4f)\n",
                 rows[10].rx_copies_per_pkt, rows[11].rx_copies_per_pkt);
    exit_code = 1;
  }
  if (rows[12].tx_copies_per_pkt != 0 || rows[12].rx_copies_per_pkt != 0) {
    std::fprintf(stderr, "FAIL: TXZC row reports copies (tx %.4f, rx %.4f)\n",
                 rows[12].tx_copies_per_pkt, rows[12].rx_copies_per_pkt);
    exit_code = 1;
  }
  if (!sud::g_itr_rows_complete) {
    std::fprintf(stderr, "FAIL: an ITR row lost traffic (moderation wedge)\n");
    exit_code = 1;
  }
  return exit_code;
}
