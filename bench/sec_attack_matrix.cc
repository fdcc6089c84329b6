// Section 5.2 attack matrix: every malicious driver from src/drivers runs
// against the full stack under four hardware configurations, and the table
// reports whether the attack was contained. This is the paper's security
// evaluation ("we tested SUD's security by constructing explicit test cases
// for the attacks...") as one reproducible binary.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/log.h"
#include "src/drivers/malicious.h"
#include "src/kern/flow_table.h"
#include "src/kern/rss_rebalancer.h"
#include "src/uml/supervisor.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::E1000eFactory;
using testing::NetBench;

struct Cell {
  std::string attack;
  std::string config;
  bool contained;
  std::string note;
};

NetBench::Options Config(hw::IommuMode mode, bool remapping, bool acs) {
  NetBench::Options options;
  options.machine.iommu_mode = mode;
  options.machine.interrupt_remapping = remapping;
  options.policy.enable_acs = acs;
  return options;
}

Cell RunDmaRead(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  uint64_t secret = bench.machine.dram().AllocPages(1).value();
  auto attack = std::make_unique<drivers::DmaAttackDriver>(secret);
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->LaunchTxRead();
  bool contained = bench.link.stats().frames[0] == 0 && !bench.machine.iommu().faults().empty();
  return {"arbitrary DMA read", config, contained, "iommu fault, nothing transmitted"};
}

Cell RunDmaWrite(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  uint64_t victim = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> before(64);
  (void)bench.machine.dram().Read(victim, {before.data(), before.size()});
  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim);
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->LaunchRxWrite();
  std::vector<uint8_t> payload(64, 0xee);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
  std::vector<uint8_t> after(64);
  (void)bench.machine.dram().Read(victim, {after.data(), after.size()});
  return {"arbitrary DMA write", config, before == after, "victim memory intact"};
}

Cell RunP2p(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  uint64_t victim_bar = bench.peer_nic.config().bar(0);
  uint32_t before = bench.peer_nic.MmioRead(0, devices::kNicRegTdbal);
  auto attack = std::make_unique<drivers::DmaAttackDriver>(victim_bar + devices::kNicRegTdbal);
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->LaunchRxWrite();
  std::vector<uint8_t> payload(64, 0xee);
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
  bool contained = bench.sw->p2p_deliveries() == 0 &&
                   bench.peer_nic.MmioRead(0, devices::kNicRegTdbal) == before;
  return {"peer-to-peer DMA", config, contained,
          contained ? "ACS redirect -> iommu fault" : "LANDED in peer registers"};
}

Cell RunMsiStorm(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::MsiStormDriver>(0);
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->Arm(128);
  std::vector<uint8_t> frame(64);
  frame[0] = bench.ctx->irq_vector();  // forge the driver's own vector
  uint64_t handled_before = bench.kernel.interrupts_handled();
  for (int i = 0; i < 64; ++i) {
    (void)bench.link.Transmit(1, {frame.data(), frame.size()});
  }
  uint64_t storm = bench.kernel.interrupts_handled() - handled_before;
  const auto& stats = bench.ctx->interrupt_stats();
  bool contained = stats.remap_blocked || stats.msi_page_unmapped || storm <= 2;
  char note[96];
  std::snprintf(note, sizeof(note), "%llu of 64 forged MSIs reached the CPU%s",
                (unsigned long long)storm,
                stats.remap_blocked      ? " (remapping blocked the rest)"
                : stats.msi_page_unmapped ? " (MSI page unmapped)"
                : contained               ? ""
                                          : " — LIVELOCK (the paper's §5.2 weakness)");
  return {"stray-DMA MSI storm", config, contained, note};
}

Cell RunUnresponsive(NetBench::Options options, const std::string& config) {
  options.sud.uchan.sync_timeout_ms = 25;
  NetBench bench(options);
  (void)bench.host->Start(std::make_unique<drivers::UnresponsiveDriver>());
  Status status = bench.kernel.net().BringUp("eth0");
  bool contained = status.code() == ErrorCode::kTimedOut;
  return {"unresponsive driver", config, contained, "sync upcall interrupted, kernel live"};
}

Cell RunConfigAttack(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::ConfigAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  bool contained = p->outcome().succeeded == 0;
  char note[64];
  std::snprintf(note, sizeof(note), "%u/%u sensitive writes denied", p->outcome().denied,
                p->outcome().attempts);
  return {"config-space rewrite", config, contained, note};
}

Cell RunIoPortAttack(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::IoPortAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  bool contained = p->denied() == p->attempts();
  return {"ungranted IO ports", config, contained, "IOPB denied every access"};
}

// RETA starvation: a driver programs the RSS indirection table so every flow
// concentrates on one queue, starving the others — then a rebalance
// (reprogramming the identity table) must restore the spread. The table
// CONTENT is the attack; the programming interface is the legitimate one.
Cell RunRetaStarvation(NetBench::Options options, const std::string& config) {
  options.nic_queues = 4;
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"RETA starvation", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  std::vector<uint8_t> payload(256, 0x5a);
  auto flood = [&](int packets) {
    std::array<uint64_t, 4> before{};
    for (uint16_t q = 0; q < 4; ++q) {
      before[q] = netdev->queue_stats(q).rx_packets.load();
    }
    for (int sent = 0; sent < packets; sent += 16) {
      (void)bench.PeerSendFlowBurst(21000, 80, {payload.data(), payload.size()}, 16, 16);
      bench.host->Pump();
    }
    std::array<uint64_t, 4> delta{};
    for (uint16_t q = 0; q < 4; ++q) {
      delta[q] = netdev->queue_stats(q).rx_packets.load() - before[q];
    }
    return delta;
  };
  std::array<uint64_t, 4> balanced = flood(1024);
  // The attack: every hash bucket -> queue 0.
  std::array<uint8_t, devices::kNicRetaEntries> evil{};
  (void)bench.sut_driver->ProgramReta(evil);
  std::array<uint64_t, 4> starved = flood(1024);
  // The correction: back to the identity spread.
  (void)bench.sut_driver->ProgramReta(drivers::E1000eDriver::IdentityReta(4));
  std::array<uint64_t, 4> rebalanced = flood(1024);

  auto spread = [](const std::array<uint64_t, 4>& d) {
    int active = 0;
    for (uint64_t v : d) {
      active += v > 0 ? 1 : 0;
    }
    return active;
  };
  bool starvation_visible = starved[0] == 1024 && spread(starved) == 1;
  bool rebalance_works = spread(rebalanced) == spread(balanced) && spread(rebalanced) >= 3;
  bool conserved = balanced[0] + balanced[1] + balanced[2] + balanced[3] == 1024 &&
                   rebalanced[0] + rebalanced[1] + rebalanced[2] + rebalanced[3] == 1024;
  char note[96];
  std::snprintf(note, sizeof(note),
                "spread %d queues -> starved %d -> rebalanced %d (all frames delivered)",
                spread(balanced), spread(starved), spread(rebalanced));
  return {"RETA starvation", config, starvation_visible && rebalance_works && conserved, note};
}

// Forged RSS load statistics: the adaptive RETA rebalancer consumes a
// per-bucket load picture that ultimately derives from driver-visible
// traffic — a compromised driver can try to poison that control loop with
// forged observations. Three forgeries, each fed straight into the
// rebalancer for many control ticks while REAL 4-queue traffic flows:
//   all-zero:    pretend the NIC is idle (freeze the balancer forever);
//   all-max:     saturate every counter (overflow the plan arithmetic);
//   oscillating: alternate the "hot" queue every tick (livelock the loop,
//                thrash the device RETA with unbounded reprograms).
// Contained means: every adopted table stays in-bounds, reprograms respect
// the rate limits (the device's own RETA write counter agrees), the control
// loop terminates, and traffic still flows conserved afterward.
Cell RunForgedLoadStats(NetBench::Options options, const std::string& config,
                        const char* mode) {
  options.nic_queues = 4;
  NetBench bench(options);
  char name[48];
  std::snprintf(name, sizeof(name), "forged load stats (%s)", mode);
  if (!bench.StartSut().ok()) {
    return {name, config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());

  kern::RssRebalancer::Options balancer_options;
  balancer_options.num_queues = 4;
  balancer_options.min_interval_ticks = 4;
  balancer_options.window_ticks = 64;
  balancer_options.max_reprograms_per_window = 8;
  kern::RssRebalancer balancer(balancer_options);

  // The forged control loop, with real traffic flowing underneath the whole
  // time (the attack must not need a quiet NIC to be judged).
  constexpr int kTicks = 256;
  std::vector<uint8_t> payload(256, 0x6b);
  uint64_t rx_before = netdev->stats().rx_packets.load();
  uint64_t reta_dwords_before = bench.sut_nic.stats().reta_writes.load();
  uint64_t reprograms = 0;
  bool tables_in_bounds = true;
  std::array<uint64_t, kern::kFlowBuckets> forged{};
  for (int tick = 0; tick < kTicks; ++tick) {
    if (std::string(mode) == "all-zero") {
      forged.fill(0);
    } else if (std::string(mode) == "all-max") {
      forged.fill(~0ull);
    } else {  // oscillating: every bucket of one queue "scorching", rotating
      for (uint32_t b = 0; b < kern::kFlowBuckets; ++b) {
        forged[b] = (b % 4 == static_cast<uint32_t>(tick) % 4) ? (1u << 16) : 1;
      }
    }
    kern::RssRebalancer::Table plan{};
    if (balancer.Observe(forged, &plan)) {
      ++reprograms;
      for (uint32_t b = 0; b < kern::kFlowBuckets; ++b) {
        tables_in_bounds = tables_in_bounds && plan[b] < 4;
      }
      (void)bench.sut_driver->ProgramReta(plan);
    }
    (void)bench.PeerSendFlowBurst(22000, 80, {payload.data(), payload.size()}, 16, 16);
    bench.host->Pump();
  }
  // Device-side truth: RETA dword writes counted by the NIC itself must
  // agree with the bounded reprogram count (32 dwords per full table), and
  // whatever was last programmed steers in-bounds by construction.
  uint64_t reta_dwords = bench.sut_nic.stats().reta_writes.load() - reta_dwords_before;
  std::array<uint8_t, devices::kNicRetaEntries> reta = bench.sut_nic.RetaSnapshot();
  bool device_in_bounds = true;
  for (uint8_t entry : reta) {
    device_in_bounds = device_in_bounds && entry < devices::kNicNumQueues;
  }
  uint64_t rate_bound =
      std::min<uint64_t>(kTicks / balancer_options.min_interval_ticks + 1,
                         (kTicks / balancer_options.window_ticks + 1) *
                             balancer_options.max_reprograms_per_window);
  bool rate_limited = reprograms <= rate_bound && reta_dwords == reprograms * 32;
  uint64_t delivered = netdev->stats().rx_packets.load() - rx_before;
  bool traffic_flows = delivered == static_cast<uint64_t>(kTicks) * 16 &&
                       netdev->stats().rx_dropped.load() == 0;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%llu reprograms (bound %llu), tables in-bounds, %llu/%d frames delivered",
                (unsigned long long)reprograms, (unsigned long long)rate_bound,
                (unsigned long long)delivered, kTicks * 16);
  return {name, config, tables_in_bounds && device_in_bounds && rate_limited && traffic_flows,
          note};
}

// Torn/endless EOP chains, marshalled: forged netif_rx chain downcalls with
// oversize totals, over-cap fragment counts and wild fragment addresses. The
// proxy must reject every one before dereferencing a byte.
Cell RunTornChain(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::ChainAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->FireOversizeChains(8);
  (void)p->FireOverCapChains(8);
  (void)p->FireWildChains(8);
  bench.host->Pump();
  uint64_t rejected = bench.proxy->stats().rx_malformed.load();
  uint64_t delivered = bench.kernel.net().Find("eth0") != nullptr
                           ? bench.kernel.net().Find("eth0")->stats().rx_packets.load()
                           : 0;
  bool contained = rejected == 24 && delivered == 0;
  char note[80];
  std::snprintf(note, sizeof(note), "%llu/24 forged chains rejected, %llu delivered",
                (unsigned long long)rejected, (unsigned long long)delivered);
  return {"torn EOP chain", config, contained, note};
}

// Mid-burst descriptor rewrite: the driver rewrites already-fetched TX
// descriptors (aiming them at a secret) while the device is mid-reap. The
// cacheline burst snapshot means the device transmits exactly the armed
// bytes, exactly once — the rewrite lands nowhere.
Cell RunDescRewrite(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  uint64_t secret = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> secret_bytes(64, 0x5e);
  (void)bench.machine.dram().Write(secret, {secret_bytes.data(), secret_bytes.size()});

  auto attack = std::make_unique<drivers::DescRewriteAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));

  // The perfectly-timed attacker (drivers::DescRewritePeer): rewrites
  // descriptors 1..3 — sitting in the device's fetched cacheline — during
  // the first frame's wire hop.
  drivers::DescRewritePeer peer;
  peer.driver = p;
  peer.target = secret;
  bench.link.Attach(1, &peer);

  (void)p->ArmAndDoorbell(8, 0xab);
  uint64_t faults = bench.machine.iommu().faults().size();
  size_t first_pass = peer.frames.size();
  (void)p->RedoorbellSameTail();  // replay probe: nothing may retransmit
  bool benign = true;
  for (const std::vector<uint8_t>& frame : peer.frames) {
    for (uint8_t byte : frame) {
      benign &= byte == 0xab;
    }
  }
  bool contained = first_pass == 8 && peer.frames.size() == 8 && benign && faults == 0;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu/8 armed frames on wire, rewrite ignored, %llu iommu faults, no replay",
                peer.frames.size(), (unsigned long long)faults);
  return {"mid-burst rewrite", config, contained, note};
}

using testing::WireRecorder;

// Endless TX chain: a whole ring of armed fragments with CMD.EOP nowhere.
// The device's gather must hit its bound, drop the forged frame whole,
// recycle the ring, and keep transmitting well-formed frames afterwards.
Cell RunTxEndlessChain(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder sink;
  bench.link.Attach(1, &sink);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->FireEndlessChain(0x5e);
  uint64_t dropped = bench.sut_nic.stats().tx_dropped_chain.load();
  size_t leaked = sink.frames.size();
  // Liveness: the first EOP after the drop terminates the dropped frame (the
  // resync consumes it); the next frame must hit the wire.
  (void)p->SendGoodFrame(0xa1, 64);
  (void)p->SendGoodFrame(0xa2, 64);
  bool live = sink.frames.size() == 1 && sink.frames[0].size() == 64 && sink.AllBytes(0xa2);
  bool contained = leaked == 0 && dropped == 1 && live;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu forged bytes on wire, %llu bounded drop(s), device live after",
                leaked, (unsigned long long)dropped);
  return {"endless TX chain", config, contained, note};
}

// Torn TX chain: fragments armed, the EOP never rung. Nothing may reach the
// wire and nothing may wedge; arming the terminating fragment later must
// transmit the WHOLE frame exactly once (whole-frame-or-nothing).
Cell RunTxTornChain(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder sink;
  bench.link.Attach(1, &sink);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->FireTornChain(3, 0x7c);
  bool parked = sink.frames.empty() && bench.sut_nic.stats().tx_dropped_chain.load() == 0;
  (void)p->FinishTornChain(0x7c);
  bool whole = sink.frames.size() == 1 &&
               sink.frames[0].size() == 4ull * p->frag_len() && sink.AllBytes(0x7c);
  bool contained = parked && whole;
  char note[96];
  std::snprintf(note, sizeof(note), "parked %s, completed whole %s (%zu frames)",
                parked ? "clean" : "LEAKED", whole ? "once" : "WRONG", sink.frames.size());
  return {"torn TX chain", config, contained, note};
}

// Over-cap TX chain: more fragments than any legal chain can span, EOP at
// the end. Must drop whole at the descriptor cap; the trailing EOP belongs
// to the dropped frame (resync), and the device stays live.
Cell RunTxOverCapChain(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder sink;
  bench.link.Attach(1, &sink);
  auto attack = std::make_unique<drivers::TxChainAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  (void)p->FireOverCapChain(4, 0x9d);
  uint64_t dropped = bench.sut_nic.stats().tx_dropped_chain.load();
  size_t leaked = sink.frames.size();
  (void)p->SendGoodFrame(0xa3, 64);
  bool live = sink.frames.size() == 1 && sink.AllBytes(0xa3);
  bool contained = leaked == 0 && dropped == 1 && live;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu forged bytes on wire, %llu bounded drop(s), EOP consumed by resync",
                leaked, (unsigned long long)dropped);
  return {"over-cap TX chain", config, contained, note};
}

// Forged multi-fragment kEthUpXmit messages: tail count mismatches, bogus
// pool ids, per-fragment lengths above one staging buffer, oversize totals.
// The runtime must reject each one before a single descriptor is armed.
Cell RunTxChainForgery(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"forged TX chain upcall", config, false, "sut failed to start"};
  }
  uint64_t tx_before = bench.sut_nic.stats().tx_frames.load();
  uint64_t armed_before = bench.sut_driver->stats().tx_queued.load();
  // `frags` is the whole frame, head first; `tail_count` is what args[1]
  // claims about the rest.
  auto forge = [&](uint64_t tail_count, std::vector<std::pair<uint32_t, uint32_t>> frags) {
    UchanMsg msg;
    msg.opcode = kEthUpXmit;
    msg.args[0] = 0;
    msg.args[1] = tail_count;
    msg.buffer_id = static_cast<int32_t>(frags[0].first);
    msg.buffer_len = frags[0].second;
    msg.inline_data.resize((frags.size() - 1) * kXmitFragBytes);
    for (size_t i = 1; i < frags.size(); ++i) {
      StoreLe32(msg.inline_data.data() + (i - 1) * kXmitFragBytes, frags[i].first);
      StoreLe32(msg.inline_data.data() + (i - 1) * kXmitFragBytes + 4, frags[i].second);
    }
    (void)bench.ctx->ctl().SendAsync(std::move(msg));
  };
  forge(2, {{0, 512}, {1, 512}});                            // count != payload
  forge(1, {{0, 512}, {60000, 512}});                        // bogus pool id
  forge(1, {{0, 4096}, {1, 512}});                           // len > one buffer
  forge(5, {{0, 2048}, {1, 2048}, {2, 2048}, {3, 2048}, {4, 2048}, {5, 2048}});  // oversize
  bench.host->Pump();
  uint64_t rejected = bench.host->runtime()->stats().xmit_rejected.load();
  uint64_t armed = bench.sut_driver->stats().tx_queued.load() - armed_before;
  uint64_t transmitted = bench.sut_nic.stats().tx_frames.load() - tx_before;
  bool contained = rejected == 4 && armed == 0 && transmitted == 0;
  char note[96];
  std::snprintf(note, sizeof(note), "%llu/4 forged chains rejected before arming, %llu armed",
                (unsigned long long)rejected, (unsigned long long)armed);
  return {"forged TX chain upcall", config, contained, note};
}

// Buffer-id reuse across a chain completion: one coalesced free batch that
// returns the same pool buffer repeatedly plus an id that never existed.
// The pool must tolerate and count it, staying internally consistent.
Cell RunTxBufferReuse(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::BufferReuseAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  uint32_t free_before = bench.ctx->pool().free_count();
  (void)p->FireReusedFrees(3, 5);
  bench.host->Pump();
  uint64_t double_frees = bench.ctx->pool().double_frees();
  uint32_t free_after = bench.ctx->pool().free_count();
  // All ids were unallocated: every "free" must count as a double free and
  // the free list must not grow.
  bool contained = double_frees == 6 && free_after == free_before;
  char note[96];
  std::snprintf(note, sizeof(note), "%llu reused frees absorbed, free list %u -> %u",
                (unsigned long long)double_frees, free_before, free_after);
  return {"TX buffer-id reuse", config, contained, note};
}

// Mid-CHAIN descriptor rewrite: the driver rewrites an SG chain's
// descriptors while the device is mid-pass (the lead frame's wire hop, after
// the cacheline burst fetch). Snapshot immunity must hold fragment-wise: the
// chain transmits exactly the armed bytes, once, and the secret stays home.
Cell RunTxMidChainRewrite(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  uint64_t secret = bench.machine.dram().AllocPages(1).value();
  std::vector<uint8_t> secret_bytes(64, 0x5e);
  (void)bench.machine.dram().Write(secret, {secret_bytes.data(), secret_bytes.size()});

  auto attack = std::make_unique<drivers::DescRewriteAttackDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));

  // Repoints the chain's three fragments at the secret, mid-pass.
  drivers::DescRewritePeer peer;
  peer.driver = p;
  peer.target = secret;
  bench.link.Attach(1, &peer);

  (void)p->ArmChainAndDoorbell(3, 0xab);
  uint64_t faults = bench.machine.iommu().faults().size();
  bool benign = true;
  for (const std::vector<uint8_t>& frame : peer.frames) {
    for (uint8_t byte : frame) {
      benign &= byte == 0xab;
    }
  }
  // Two frames: the 64-byte lead, then the whole 192-byte chain of armed
  // bytes — the rewrite landed nowhere.
  bool contained = peer.frames.size() == 2 && peer.frames[0].size() == 64 &&
                   peer.frames[1].size() == 192 && benign && faults == 0;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu frames (chain whole), rewrite ignored, %llu iommu faults",
                peer.frames.size(), (unsigned long long)faults);
  return {"mid-chain TX rewrite", config, contained, note};
}

Cell RunResourceHog(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  auto attack = std::make_unique<drivers::ResourceHogDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  bool contained = p->hit_limit();
  char note[64];
  std::snprintf(note, sizeof(note), "stopped after %llu MB (rlimit)",
                (unsigned long long)(p->bytes_obtained() / (1024 * 1024)));
  return {"resource exhaustion", config, contained, note};
}

// ---- Restart-time attacks: the crash/recovery window (PR 6) -------------
//
// Everything above attacks a RUNNING driver. The cells below attack the
// recovery machinery itself: stale handles replayed across an epoch, a
// teardown the driver tries to wedge, crash loops against the restart
// budget, and DMA landing in the windows where no driver instance exists.

// Stale-handle replay: the driver harvests real pool buffer ids, crashes,
// and its successor replays the dead epoch's handles as a free batch. Every
// one must be rejected (the epoch tag no longer matches) and counted; none
// may touch the fresh pool's free list.
Cell RunStaleFreeReplay(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  std::vector<int32_t> notebook;
  (void)bench.host->Start(std::make_unique<drivers::StaleReplayDriver>(&notebook));
  (void)bench.kernel.net().BringUp("eth0");
  std::vector<uint8_t> payload(128, 0x41);
  (void)bench.SutSendBurst(7000, 80, {payload.data(), payload.size()}, 8);
  bench.host->Pump();
  size_t harvested = notebook.size();
  (void)bench.host->Kill();
  // The successor inherits the attacker's notebook but a fresh pool epoch.
  auto fresh = std::make_unique<drivers::StaleReplayDriver>(&notebook);
  auto* p = fresh.get();
  (void)bench.host->Start(std::move(fresh));
  uint32_t free_before = bench.ctx->pool().free_count();
  (void)p->ReplayFrees();
  bench.host->Pump();
  uint64_t rejected = bench.ctx->pool().stale_frees();
  bool contained = harvested == 8 && rejected == harvested &&
                   bench.ctx->pool().free_count() == free_before;
  char note[96];
  std::snprintf(note, sizeof(note), "%llu/%zu dead-epoch frees rejected, free list untouched",
                (unsigned long long)rejected, harvested);
  return {"stale free replay", config, contained, note};
}

// Mixed-batch replay: one coalesced free batch interleaving dead-epoch
// handles with the successor's own legitimately-held ones. The stale ids
// must be rejected individually while the current ids free normally — no
// poisoning in either direction.
Cell RunStaleBatchReplay(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  std::vector<int32_t> notebook;
  (void)bench.host->Start(std::make_unique<drivers::StaleReplayDriver>(&notebook));
  (void)bench.kernel.net().BringUp("eth0");
  std::vector<uint8_t> payload(128, 0x42);
  (void)bench.SutSendBurst(7200, 80, {payload.data(), payload.size()}, 6);
  bench.host->Pump();
  size_t stale_count = notebook.size();
  (void)bench.host->Kill();
  auto fresh = std::make_unique<drivers::StaleReplayDriver>(&notebook);
  auto* p = fresh.get();
  (void)bench.host->Start(std::move(fresh));
  // The successor stages four frames of its own: current-epoch handles
  // appended to the same notebook, making the replay batch a stale/valid mix.
  (void)bench.SutSendBurst(7300, 80, {payload.data(), payload.size()}, 4);
  bench.host->Pump();
  uint32_t held = bench.ctx->pool().outstanding();
  (void)p->ReplayFrees();
  bench.host->Pump();
  bool contained = stale_count == 6 && held == 4 &&
                   bench.ctx->pool().stale_frees() == stale_count &&
                   bench.ctx->pool().outstanding() == 0;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu stale rejected, %u current freed from one mixed batch", stale_count, held);
  return {"mixed-epoch free batch", config, contained, note};
}

// Wedged teardown: the driver stops servicing its queue with upcalls
// pending, so a graceful stop would block for the full sync timeout. The
// watchdog must spot the stall, and recovery must kill FIRST — the ordering
// that bounds the administrator dance regardless of driver cooperation.
Cell RunWedgedTeardown(NetBench::Options options, const std::string& config) {
  options.sud.uchan.sync_timeout_ms = 2000;  // what a polite teardown would eat
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"wedged teardown", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  uml::DriverSupervisor::Options sup_options;
  sup_options.watchdog_strikes = 2;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(1, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  // Wedge: park transmits in the ring and stop pumping — alive, not serving.
  std::vector<uint8_t> payload(64, 0x11);
  (void)bench.SutSendBurst(9000, 80, {payload.data(), payload.size()}, 4);
  int recoveries = 0;
  for (int i = 0; i < 6 && recoveries == 0; ++i) {
    recoveries += sup.CheckAndRecover() ? 1 : 0;
  }
  uml::DriverSupervisor::Stats stats = sup.stats();
  bool bounded = stats.last_recovery_ns < 1000ull * 1000 * 1000;  // << sync timeout
  (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
  bench.host->Pump();
  uint64_t delivered = bench.kernel.net().Find("eth0")->stats().rx_packets.load();
  bool contained = recoveries == 1 && stats.watchdog_recoveries == 1 && bounded &&
                   stats.buffers_quarantined == 4 && delivered >= 1;
  char note[96];
  std::snprintf(note, sizeof(note),
                "watchdog fired, recovery %llu ms (timeout 2000), %llu buffers quarantined",
                (unsigned long long)(stats.last_recovery_ns / 1000000),
                (unsigned long long)stats.buffers_quarantined);
  return {"wedged teardown", config, contained, note};
}

// Crash-loop exhaustion: a driver that dies every time it is revived would
// turn automatic recovery into an infinite restart storm. The budget must
// hold — terminal give-up, interface parked down/unregistered for the
// administrator, and every further recovery refused (and counted).
Cell RunCrashLoopExhaustion(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"crash-loop exhaustion", config, false, "sut failed to start"};
  }
  uml::DriverSupervisor::Options sup_options;
  sup_options.max_restarts = 3;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(1, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  for (int i = 0; i < 5; ++i) {
    (void)bench.host->Kill();
    (void)sup.CheckAndRecover();
  }
  uml::DriverSupervisor::Stats stats = sup.stats();
  bool parked = sup.gave_up() && bench.kernel.net().Find("eth0") == nullptr;
  bool contained = stats.restarts == 3 && parked && stats.give_ups >= 1 &&
                   !sup.CheckAndRecover();
  char note[96];
  std::snprintf(note, sizeof(note),
                "%u/%u restart budget spent, %llu refusals, interface parked", stats.restarts,
                sup_options.max_restarts, (unsigned long long)stats.give_ups);
  return {"crash-loop exhaustion", config, contained, note};
}

// Dead-window DMA: frames keep arriving while no driver instance exists
// (killed, not yet restarted). Nothing may land — the IOMMU context is
// revoked at teardown — and the replacement must pick the interface back up.
Cell RunDeadWindowDma(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"dead-window DMA", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(1, bench.mtu_));
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  std::vector<uint8_t> payload(128, 0x77);
  (void)bench.PeerSend(1000, 80, {payload.data(), payload.size()});
  bench.host->Pump();
  kern::NetDevice* dev = bench.kernel.net().Find("eth0");
  uint64_t base = dev->stats().rx_packets.load();
  (void)bench.host->Kill();
  for (int i = 0; i < 16; ++i) {
    (void)bench.PeerSend(static_cast<uint16_t>(1001 + i), 80,
                         {payload.data(), payload.size()});
  }
  uint64_t during = dev->stats().rx_packets.load() - base;
  (void)sup.CheckAndRecover();
  (void)bench.PeerSend(2000, 80, {payload.data(), payload.size()});
  bench.host->Pump();
  uint64_t after = dev->stats().rx_packets.load() - base;
  bool contained = base >= 1 && during == 0 && after >= 1;
  char note[96];
  std::snprintf(note, sizeof(note),
                "16 frames into the dead window: %llu smeared, service back after restart",
                (unsigned long long)during);
  return {"dead-window DMA", config, contained, note};
}

// Upgrade-window loss: a hot upgrade cuts over with transmits still staged
// in pool buffers and upcalls pending. The per-queue drain must push every
// one to the wire before the kill — zero packets lost, zero quarantined.
Cell RunUpgradeWindowDma(NetBench::Options options, const std::string& config) {
  options.start_peer = false;
  NetBench bench(options);
  WireRecorder sink;
  bench.link.Attach(1, &sink);
  if (!bench.StartSut().ok()) {
    return {"upgrade-window loss", config, false, "sut failed to start"};
  }
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(1, bench.mtu_));
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  std::vector<uint8_t> payload(512, 0x3c);
  // 24 transmits staged but unpumped: the in-flight work of the window.
  (void)bench.SutSendBurst(6000, 80, {payload.data(), payload.size()}, 24);
  Status upgraded = sup.Upgrade(E1000eFactory(1, bench.mtu_));
  size_t drained_to_wire = sink.frames.size();
  (void)bench.SutSendBurst(6100, 80, {payload.data(), payload.size()}, 4);
  bench.host->Pump();
  uml::DriverSupervisor::Stats stats = sup.stats();
  bool contained = upgraded.ok() && drained_to_wire == 24 && sink.frames.size() == 28 &&
                   stats.upgrades == 1 && stats.buffers_quarantined == 0;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu/24 staged frames drained to wire pre-cutover, %llu quarantined",
                drained_to_wire, (unsigned long long)stats.buffers_quarantined);
  return {"upgrade-window loss", config, contained, note};
}

// Per-queue watchdog stall: on a 4-queue device one shard silently stops
// while the rest are idle — no aggregate counter moves. The per-queue
// progress watchdog must still catch it, and the replacement must spread
// load across all four queues again.
Cell RunWatchdogStall(NetBench::Options options, const std::string& config) {
  options.nic_queues = 4;
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"per-queue stall", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  uml::DriverSupervisor::Options sup_options;
  sup_options.watchdog_strikes = 2;
  uml::DriverSupervisor sup(&bench.kernel, bench.host.get(), E1000eFactory(4, bench.mtu_),
                            sup_options);
  sup.ShadowNetdev("eth0");
  sup.AttachProxy(bench.proxy.get());
  // One flow's transmits parked on its steering queue; the other three
  // queues are healthy-idle and must accumulate no strikes.
  std::vector<uint8_t> payload(64, 0x2a);
  (void)bench.SutSendBurst(9100, 80, {payload.data(), payload.size()}, 4);
  int recoveries = 0;
  for (int i = 0; i < 6 && recoveries == 0; ++i) {
    recoveries += sup.CheckAndRecover() ? 1 : 0;
  }
  // Post-recovery: the 4-queue spread must be back.
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::array<uint64_t, 4> before{};
  for (uint16_t q = 0; q < 4; ++q) {
    before[q] = netdev->queue_stats(q).rx_packets.load();
  }
  std::vector<uint8_t> flood_payload(256, 0x2b);
  for (int sent = 0; sent < 256; sent += 16) {
    (void)bench.PeerSendFlowBurst(21000, 80, {flood_payload.data(), flood_payload.size()}, 16,
                                  16);
    bench.host->Pump();
  }
  int active = 0;
  uint64_t total = 0;
  for (uint16_t q = 0; q < 4; ++q) {
    uint64_t delta = netdev->queue_stats(q).rx_packets.load() - before[q];
    active += delta > 0 ? 1 : 0;
    total += delta;
  }
  uml::DriverSupervisor::Stats stats = sup.stats();
  bool contained = recoveries == 1 && stats.watchdog_recoveries == 1 && active >= 3 &&
                   total == 256;
  char note[96];
  std::snprintf(note, sizeof(note),
                "stalled queue caught by per-queue watchdog, %d/4 queues active after restart",
                active);
  return {"per-queue stall", config, contained, note};
}

// Quarantine accounting: a driver dies holding staging buffers. Teardown
// must quarantine exactly that many with the dying epoch, and the successor
// must see a whole pool — nothing leaked, nothing double-counted.
Cell RunQuarantine(NetBench::Options options, const std::string& config) {
  NetBench bench(options);
  std::vector<int32_t> notebook;
  (void)bench.host->Start(std::make_unique<drivers::StaleReplayDriver>(&notebook));
  (void)bench.kernel.net().BringUp("eth0");
  std::vector<uint8_t> payload(200, 0x66);
  (void)bench.SutSendBurst(7100, 80, {payload.data(), payload.size()}, 12);
  bench.host->Pump();
  uint32_t outstanding = bench.ctx->pool().outstanding();
  uint32_t capacity = bench.ctx->pool().free_count() + outstanding;
  uint64_t q_before = bench.ctx->quarantined_buffers();
  (void)bench.host->Kill();
  uint64_t quarantined = bench.ctx->quarantined_buffers() - q_before;
  (void)bench.host->Start(std::make_unique<drivers::E1000eDriver>(1, bench.mtu_));
  bool contained = outstanding == 12 && quarantined == 12 &&
                   bench.ctx->pool().outstanding() == 0 &&
                   bench.ctx->pool().free_count() == capacity;
  char note[96];
  std::snprintf(note, sizeof(note), "%llu/%u in-flight buffers quarantined, pool whole after",
                (unsigned long long)quarantined, outstanding);
  return {"teardown quarantine", config, contained, note};
}

// ---- Seal-bypass attacks: the zero-copy delivery window (this PR) -------
//
// Sealed delivery replaces the guard copy with IOMMU page revocation: the
// RX page is write-sealed, the checksum verified IN PLACE, and the kernel
// handed an skb referencing the shared bytes. The cells below attack the
// three windows that substitution opens: the delivered page's lifetime, the
// unseal on free, and the verdict computation itself.

// Every page of the driver's DMA space the IOMMU currently write-seals.
std::vector<uint64_t> SealedPagesOf(NetBench& bench) {
  std::vector<uint64_t> pages;
  uint16_t source = bench.ctx->source_id();
  for (const auto& [base, region] : bench.ctx->dma().regions()) {
    for (uint64_t off = 0; off < region.bytes; off += hw::kPageSize) {
      if (bench.machine.iommu().IsWriteSealed(source, region.iova + off)) {
        pages.push_back(region.iova + off);
      }
    }
  }
  return pages;
}

// The malicious driver's move: aim the device's DMA at `page` and fire. The
// root complex's translation is where the seal answers; a blocked write
// never reaches memory.
bool DeviceWriteBlocked(NetBench& bench, uint64_t page) {
  return !bench.machine.iommu()
              .Translate(bench.ctx->source_id(), page, 64, /*is_write=*/true)
              .ok();
}

// Driver DMA-writes a DELIVERED page: the skb is in the stack (a socket
// queue holds it), the driver re-arms the device at the same buffer. The
// write must fault, be counted, and the page must unseal — becoming
// device-writable again — only once the skb dies.
Cell RunSealedPageWrite(NetBench::Options options, const std::string& config) {
  options.proxy.sealed_delivery = true;
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"sealed-page DMA write", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  bench.proxy->set_hold_rx_for_test(true);
  std::vector<uint8_t> payload(256, 0x44);
  (void)bench.PeerSend(4000, 80, {payload.data(), payload.size()});
  bench.host->Pump();
  std::vector<uint64_t> sealed = SealedPagesOf(bench);
  uint64_t blocked_before = bench.machine.iommu().seal_stats().blocked_writes;
  bool blocked = !sealed.empty() && DeviceWriteBlocked(bench, sealed[0]);
  uint64_t blocked_count = bench.machine.iommu().seal_stats().blocked_writes - blocked_before;
  // The skb dies (socket drains): the page must unseal and the device's own
  // re-arm write must work again.
  bench.proxy->set_hold_rx_for_test(false);
  bench.proxy->TakeHeldRx();
  bool recycled = !sealed.empty() &&
                  !bench.machine.iommu().IsWriteSealed(bench.ctx->source_id(), sealed[0]) &&
                  !DeviceWriteBlocked(bench, sealed[0]);
  bool contained = bench.proxy->stats().sealed_deliveries.load() == 1 && blocked &&
                   blocked_count == 1 && recycled;
  char note[96];
  std::snprintf(note, sizeof(note),
                "%zu page(s) sealed; write faulted while skb live, page recycled after free",
                sealed.size());
  return {"sealed-page DMA write", config, contained, note};
}

// Unseal race on free: the driver delivers the SAME buffer twice (fresh
// seqs, both individually valid). When the first skb is freed, the page must
// STAY sealed — the second skb still references the shared bytes — and only
// the last free may unseal. A non-refcounted seal would reopen the TOCTOU
// window here.
Cell RunUnsealRaceOnFree(NetBench::Options options, const std::string& config) {
  options.proxy.sealed_delivery = true;
  NetBench bench(options);
  auto attack = std::make_unique<drivers::DupDeliveryDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));
  bench.proxy->set_hold_rx_for_test(true);
  std::vector<uint8_t> payload(200, 0x51);
  auto frame = kern::BuildPacket(testing::kMacA, testing::kMacB, 4100, 80,
                                 {payload.data(), payload.size()});
  Result<int> accepted = p->DeliverSameBuffer({frame.data(), frame.size()}, 2);
  bench.host->Pump();
  std::vector<uint64_t> sealed = SealedPagesOf(bench);
  std::vector<kern::SkbPtr> held = bench.proxy->TakeHeldRx();
  uint16_t source = bench.ctx->source_id();
  bool refcounted = accepted.ok() && accepted.value() == 2 && sealed.size() == 1 &&
                    held.size() == 2;
  // The race: free ONE of the two skbs referencing the page.
  if (!held.empty()) {
    held.pop_back();
  }
  bool still_sealed = refcounted && bench.machine.iommu().IsWriteSealed(source, sealed[0]) &&
                      DeviceWriteBlocked(bench, sealed[0]);
  // The LAST free unseals.
  held.clear();
  bool unsealed = refcounted && !bench.machine.iommu().IsWriteSealed(source, sealed[0]);
  bool contained = refcounted && still_sealed && unsealed;
  char note[96];
  std::snprintf(note, sizeof(note),
                "dup delivery refcounted: page sealed across first free, unsealed on last");
  return {"unseal race on free", config, contained, note};
}

// Sealed-page write during the VERDICT window: the attacker fires its device
// DMA write between the seal and the in-place checksum — exactly where the
// guard copy used to protect. The write must fault against the seal and the
// verdict (computed over the sealed, unchanged bytes) must stand.
Cell RunVerdictWindowWrite(NetBench::Options options, const std::string& config) {
  options.proxy.sealed_delivery = true;
  NetBench bench(options);
  if (!bench.StartSut().ok()) {
    return {"verdict-window write", config, false, "sut failed to start"};
  }
  bench.MaskPeerIrq();
  bench.proxy->set_hold_rx_for_test(true);
  int hook_fired = 0;
  int window_blocked = 0;
  bench.proxy->set_toctou_hook([&](ByteSpan) {
    // Perfectly timed: the seal is on, the checksum has not run yet.
    ++hook_fired;
    for (uint64_t page : SealedPagesOf(bench)) {
      window_blocked += DeviceWriteBlocked(bench, page) ? 1 : 0;
    }
  });
  std::vector<uint8_t> payload(256, 0x55);
  (void)bench.PeerSend(4200, 80, {payload.data(), payload.size()});
  bench.host->Pump();
  std::vector<kern::SkbPtr> held = bench.proxy->TakeHeldRx();
  bool verdict_stable = held.size() == 1 && held[0]->checksum_verified;
  uint64_t blocked = bench.machine.iommu().seal_stats().blocked_writes;
  bool contained = hook_fired == 1 && window_blocked >= 1 && verdict_stable && blocked >= 1;
  held.clear();
  char note[96];
  std::snprintf(note, sizeof(note),
                "%d in-window write(s) faulted on the seal, checksum verdict stable", window_blocked);
  return {"verdict-window write", config, contained, note};
}

}  // namespace
}  // namespace sud

int main() {
  using namespace sud;
  Logger::Get().set_min_level(LogLevel::kError);

  struct HwConfig {
    std::string name;
    NetBench::Options options;
  };
  std::vector<HwConfig> configs = {
      {"VT-d, no IR (paper)", Config(hw::IommuMode::kIntelVtd, false, true)},
      {"VT-d + IR", Config(hw::IommuMode::kIntelVtd, true, true)},
      {"AMD-Vi", Config(hw::IommuMode::kAmdVi, false, true)},
  };

  std::vector<Cell> cells;
  for (const HwConfig& config : configs) {
    cells.push_back(RunDmaRead(config.options, config.name));
    cells.push_back(RunDmaWrite(config.options, config.name));
    cells.push_back(RunP2p(config.options, config.name));
    cells.push_back(RunMsiStorm(config.options, config.name));
    cells.push_back(RunUnresponsive(config.options, config.name));
    cells.push_back(RunConfigAttack(config.options, config.name));
    cells.push_back(RunIoPortAttack(config.options, config.name));
    cells.push_back(RunResourceHog(config.options, config.name));
    cells.push_back(RunRetaStarvation(config.options, config.name));
    cells.push_back(RunForgedLoadStats(config.options, config.name, "all-zero"));
    cells.push_back(RunForgedLoadStats(config.options, config.name, "all-max"));
    cells.push_back(RunForgedLoadStats(config.options, config.name, "oscillating"));
    cells.push_back(RunTornChain(config.options, config.name));
    cells.push_back(RunDescRewrite(config.options, config.name));
    cells.push_back(RunTxEndlessChain(config.options, config.name));
    cells.push_back(RunTxTornChain(config.options, config.name));
    cells.push_back(RunTxOverCapChain(config.options, config.name));
    cells.push_back(RunTxChainForgery(config.options, config.name));
    cells.push_back(RunTxBufferReuse(config.options, config.name));
    cells.push_back(RunTxMidChainRewrite(config.options, config.name));
    cells.push_back(RunStaleFreeReplay(config.options, config.name));
    cells.push_back(RunStaleBatchReplay(config.options, config.name));
    cells.push_back(RunWedgedTeardown(config.options, config.name));
    cells.push_back(RunCrashLoopExhaustion(config.options, config.name));
    cells.push_back(RunDeadWindowDma(config.options, config.name));
    cells.push_back(RunUpgradeWindowDma(config.options, config.name));
    cells.push_back(RunWatchdogStall(config.options, config.name));
    cells.push_back(RunQuarantine(config.options, config.name));
    cells.push_back(RunSealedPageWrite(config.options, config.name));
    cells.push_back(RunUnsealRaceOnFree(config.options, config.name));
    cells.push_back(RunVerdictWindowWrite(config.options, config.name));
  }
  // The vulnerable no-ACS configuration, to show the attack is real.
  cells.push_back(RunP2p(Config(hw::IommuMode::kIntelVtd, false, false), "ACS OFF (vulnerable)"));

  std::printf("\nSection 5.2 attack matrix: malicious drivers vs the confinement stack\n");
  std::printf("%-22s %-22s %-11s %s\n", "Attack", "Hardware config", "Contained?", "Detail");
  std::printf("%s\n", std::string(110, '-').c_str());
  int contained = 0;
  int unexpected = 0;
  for (const Cell& cell : cells) {
    std::printf("%-22s %-22s %-11s %s\n", cell.attack.c_str(), cell.config.c_str(),
                cell.contained ? "YES" : "NO", cell.note.c_str());
    contained += cell.contained ? 1 : 0;
    // The two documented negative results; every other cell must contain.
    bool expected_no =
        (cell.attack == "stray-DMA MSI storm" && cell.config == "VT-d, no IR (paper)") ||
        (cell.attack == "peer-to-peer DMA" && cell.config == "ACS OFF (vulnerable)");
    if (cell.contained == expected_no) {
      ++unexpected;
    }
  }
  std::printf("\n%d/%zu contained. Expected NOs: the stray-DMA MSI storm on VT-d without\n",
              contained, cells.size());
  std::printf("interrupt remapping (the paper's own §5.2 limitation) and peer-to-peer DMA\n");
  std::printf("with ACS disabled (the configuration SUD exists to forbid).\n");
  if (unexpected != 0) {
    std::printf("%d cell(s) deviate from the expected containment table — FAILING.\n",
                unexpected);
  }
  // CI gates on this: a containment regression (or an attack that stops
  // demonstrating on the vulnerable configs) fails the run.
  return unexpected == 0 ? 0 : 1;
}
