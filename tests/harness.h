// Shared test/bench harness: assembles the simulated platform the way the
// paper's testbed was wired — a machine with a PCIe switch, the device under
// test plus a trusted peer NIC on the other end of a Gigabit link, the
// simulated kernel, SUD's safe-PCI module, the Ethernet proxy, and a
// DriverHost running the e1000e driver as an untrusted process.

#ifndef SUD_TESTS_HARNESS_H_
#define SUD_TESTS_HARNESS_H_

#include <cstring>
#include <functional>
#include <memory>

#include "src/devices/ether_link.h"
#include "src/devices/sim_nic.h"
#include "src/drivers/e1000e.h"
#include "src/hw/machine.h"
#include "src/kern/kernel.h"
#include "src/sud/proxy_ethernet.h"
#include "src/sud/safe_pci.h"
#include "src/uml/direct_env.h"
#include "src/uml/driver_host.h"

namespace sud::testing {

inline constexpr uint8_t kMacA[6] = {0x00, 0x1b, 0x21, 0x0a, 0x0b, 0x0c};
inline constexpr uint8_t kMacB[6] = {0x00, 0x1b, 0x21, 0x0d, 0x0e, 0x0f};
inline constexpr kern::Uid kDriverUid = 1001;

// A link endpoint recording every wire frame — the "other machine" in the
// TX-side tests and attack cells (attach with link.Attach(1, &recorder),
// usually with Options::start_peer = false).
struct WireRecorder : devices::EtherEndpoint {
  std::vector<std::vector<uint8_t>> frames;
  void DeliverFrame(ConstByteSpan frame) override {
    frames.emplace_back(frame.begin(), frame.end());
  }
  bool AllBytes(uint8_t pattern) const {
    for (const std::vector<uint8_t>& frame : frames) {
      for (uint8_t byte : frame) {
        if (byte != pattern) {
          return false;
        }
      }
    }
    return true;
  }
};

// Builds a frag skb whose payload fragments are DRAM-BACKED (the page-cache
// shape a sendfile-style transmit produces): `head_len` bytes stay in the
// linear head, the remainder is written ONCE into a contiguous DRAM block and
// referenced — not copied — in `frag_len`-sized fragments carrying their
// physical addresses. The Ethernet proxy sends these frags as read-only IOMMU
// grants with zero staging copies. The skb's release hook frees the pages at
// death (after TX reap frees the last grant chunk).
// Returns nullptr when DRAM is exhausted.
inline kern::SkbPtr MakeDramFragSkb(hw::PhysicalMemory& dram, ConstByteSpan frame,
                                    size_t head_len, size_t frag_len) {
  if (head_len >= frame.size() || frag_len == 0) {
    return kern::MakeSkb(frame);
  }
  size_t body = frame.size() - head_len;
  uint64_t pages = hw::PageAlignUp(body) / hw::kPageSize;
  Result<uint64_t> paddr = dram.AllocPages(pages);
  if (!paddr.ok()) {
    return nullptr;
  }
  Result<ByteSpan> window = dram.Window(paddr.value(), body);
  if (!window.ok()) {
    dram.FreePages(paddr.value(), pages);
    return nullptr;
  }
  std::memcpy(window.value().data(), frame.data() + head_len, body);
  auto skb = std::make_unique<kern::Skb>(frame.subspan(0, head_len));
  for (size_t off = 0; off < body; off += frag_len) {
    size_t chunk = body - off < frag_len ? body - off : frag_len;
    skb->AppendDramFrag(paddr.value() + off,
                        ConstByteSpan(window.value().data() + off, chunk));
  }
  hw::PhysicalMemory* dram_ptr = &dram;
  uint64_t base = paddr.value();
  skb->set_release([dram_ptr, base, pages] { dram_ptr->FreePages(base, pages); });
  return skb;
}

// A supervisor driver factory minting fresh e1000e instances. A plain
// std::function (DriverSupervisor::DriverFactory's type), so this header
// needs no supervisor include.
inline std::function<std::unique_ptr<uml::Driver>()> E1000eFactory(uint32_t queues,
                                                                   uint32_t mtu) {
  return [queues, mtu]() -> std::unique_ptr<uml::Driver> {
    return std::make_unique<drivers::E1000eDriver>(queues, mtu);
  };
}

// Replaces NetBench::BuildQueueFlows' cumulative ack feeds with ones
// baselined now, so a phase's window pacing starts from zero whatever earlier
// phases delivered.
inline void RebaseAcks(std::vector<devices::EtherLink::PeerFlow>& flows,
                       kern::NetDevice* netdev) {
  for (uint32_t q = 0; q < flows.size(); ++q) {
    uint64_t base = netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets.load();
    flows[q].acked = [netdev, q, base]() {
      return netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets.load() - base;
    };
  }
}

// Hands the Ethernet proxy's transmit op `frame` as a one-frame burst on
// `queue`, below the stack: for drivers that never bring the interface up
// (comatose ones). True when the frame reached the uchan ring.
inline bool ProxyXmit(EthernetProxy& proxy, ConstByteSpan frame, uint16_t queue = 0) {
  std::vector<kern::SkbPtr> burst;
  burst.push_back(kern::MakeSkb(frame));
  return proxy.StartXmitBatch(burst, queue) == 1;
}

// A machine with one switch, the SUT NIC and a trusted peer NIC linked by
// Gigabit Ethernet. The SUT runs under SUD (untrusted driver process); the
// peer runs the same e1000e driver in-kernel via DirectEnv.
class NetBench {
 public:
  struct Options {
    hw::Machine::Config machine;
    SafePciModule::Policy policy;
    SudDeviceContext::Options sud;
    EthernetProxy::Options proxy;
    bool start_sut = true;   // export + probe the SUT e1000e under SUD
    bool start_peer = true;  // probe the peer e1000e in-kernel
    // TX/RX queue pairs for the SUT NIC + driver. >1 shards the uchan (one
    // ring pair and one MSI vector per queue) and enables RSS steering.
    uint32_t nic_queues = 1;
    // SUT interface MTU. Above kern::kStdMtu the driver enables RCTL.LPE and
    // EOP-chain reassembly; on transmit, jumbo frames ride TX scatter/gather
    // fragment lists staged across STANDARD-sized pool buffers, so the pool
    // never upsizes for jumbo MTUs.
    uint32_t mtu = static_cast<uint32_t>(kern::kStdMtu);
    // Peer interface MTU (the traffic generator / receiver machine): raise
    // it for workloads where the SUT transmits jumbo frames at the peer.
    uint32_t peer_mtu = static_cast<uint32_t>(kern::kStdMtu);
  };

  NetBench() : NetBench(Options{}) {}
  NetBench(const NetBench&) = delete;
  NetBench& operator=(const NetBench&) = delete;

  // The members' reverse order alone would destroy the drivers first. Every
  // thread that can still run a driver stops before anything it reaches
  // dies: the link's generators, then the SUT's pump threads, whose transmits
  // land in the peer NIC and run the peer driver's interrupt handler. Each
  // in-kernel driver's interrupts are freed before the driver itself.
  ~NetBench() {
    link.StopPeers();
    host.reset();
    sut_env.reset();
    peer_env.reset();
  }

  explicit NetBench(Options options)
      : machine(options.machine),
        kernel(&machine),
        sut_nic("e1000e-sut", kMacA),
        peer_nic("e1000e-peer", kMacB),
        safe_pci(&kernel, options.policy),
        nic_queues_(options.nic_queues == 0 ? 1 : options.nic_queues),
        mtu_(options.mtu),
        peer_mtu_(options.peer_mtu) {
    options.sud.num_queues = nic_queues_;
    sw = &machine.AddSwitch("pcie-switch-0");
    (void)machine.AttachDevice(*sw, &sut_nic);
    (void)machine.AttachDevice(*sw, &peer_nic);
    sut_nic.ConnectLink(&link, 0);
    peer_nic.ConnectLink(&link, 1);

    if (options.start_sut) {
      Result<SudDeviceContext*> exported =
          safe_pci.ExportDevice(&sut_nic, kDriverUid, options.sud);
      ctx = exported.value();
      proxy = std::make_unique<EthernetProxy>(&kernel, ctx, options.proxy);
      host = std::make_unique<uml::DriverHost>(&kernel, ctx, "e1000e-driver", kDriverUid);
    }
    if (options.start_peer) {
      peer_env = std::make_unique<uml::DirectEnv>(&kernel, &peer_nic, kAccountPeer);
      auto driver = std::make_unique<drivers::E1000eDriver>(1, peer_mtu_);
      peer_driver = driver.get();
      peer_driver_owner = std::move(driver);
      (void)peer_driver_owner->Probe(*peer_env);
      (void)kernel.net().BringUp(peer_env->netdev()->name());
    }
  }

  // Starts the SUT driver *in-kernel* (the Figure 8 baseline): same driver
  // source, DirectEnv instead of SUD. Use with Options{.start_sut = false}.
  Status StartSutInKernel() {
    sut_env = std::make_unique<uml::DirectEnv>(&kernel, &sut_nic);
    auto driver = std::make_unique<drivers::E1000eDriver>(nic_queues_, mtu_);
    sut_driver = driver.get();
    sut_driver_owner = std::move(driver);
    SUD_RETURN_IF_ERROR(sut_driver_owner->Probe(*sut_env));
    return kernel.net().BringUp(sut_env->netdev()->name());
  }

  // The SUT interface name under either configuration.
  std::string SutIfname() const {
    return sut_env != nullptr ? sut_env->netdev()->name() : "eth0";
  }

  // Starts the SUT driver process (probe + open). kThreadedPerQueue gives
  // each uchan shard its own pump thread (the multi-queue scaling mode).
  Status StartSut(uml::DriverHost::Mode mode = uml::DriverHost::Mode::kPumped) {
    auto driver = std::make_unique<drivers::E1000eDriver>(nic_queues_, mtu_);
    sut_driver = driver.get();
    SUD_RETURN_IF_ERROR(host->Start(std::move(driver), mode));
    return kernel.net().BringUp("eth0");
  }

  // Sends one packet from the peer (in-kernel driver) to the SUT.
  Status PeerSend(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload) {
    auto frame = kern::BuildPacket(kMacA, kMacB, src_port, dst_port, payload);
    return kernel.net().Transmit(peer_env->netdev(),
                                 kern::MakeSkb(ConstByteSpan(frame.data(), frame.size())));
  }

  // Sends `count` identical packets from the peer as one transmit burst.
  Status PeerSendBurst(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload, int count) {
    auto frame = kern::BuildPacket(kMacA, kMacB, src_port, dst_port, payload);
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(count);
    for (int i = 0; i < count; ++i) {
      skbs.push_back(kern::MakeSkb(ConstByteSpan(frame.data(), frame.size())));
    }
    return kernel.net().TransmitBatch(peer_env->netdev(), std::move(skbs)).status();
  }

  // Sends `count` packets from the peer spread across `flows` distinct
  // source ports — RSS steers each flow to a stable SUT queue, so a
  // multi-queue SUT sees the burst fan out over its rings. Frames are
  // prebuilt once per flow (checksum computed `flows` times, not `count`).
  Status PeerSendFlowBurst(uint16_t base_src_port, uint16_t dst_port, ConstByteSpan payload,
                           int count, uint16_t flows) {
    if (flows == 0) {
      flows = 1;
    }
    if (flow_frames_.size() != flows || flow_frames_base_ != base_src_port) {
      flow_frames_.clear();
      for (uint16_t f = 0; f < flows; ++f) {
        flow_frames_.push_back(kern::BuildPacket(kMacA, kMacB, base_src_port + f, dst_port,
                                                 payload));
      }
      flow_frames_base_ = base_src_port;
    }
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(count);
    for (int i = 0; i < count; ++i) {
      const std::vector<uint8_t>& frame = flow_frames_[i % flows];
      skbs.push_back(kern::MakeSkb(ConstByteSpan(frame.data(), frame.size())));
    }
    return kernel.net().TransmitBatch(peer_env->netdev(), std::move(skbs)).status();
  }

  // Masks the peer NIC's interrupts (benches that only ever transmit from
  // the peer reap its TX ring lazily from the full-ring check instead).
  void MaskPeerIrq() { (void)peer_env->MmioWrite32(0, devices::kNicRegImc, 0xffffffffu); }

  // One traffic-generator flow per SUT queue, for EtherLink's threaded peer
  // mode (or its serial replay): source ports are searched so the shared RSS
  // hash pins flow q to queue q, `total_frames` is split evenly, and each
  // flow paces itself against the kernel's per-queue delivery counter so no
  // ring or backlog can overflow. Deterministic: the same arguments always
  // produce the same flows, which is what makes the serial-vs-threaded
  // determinism comparison meaningful.
  std::vector<devices::EtherLink::PeerFlow> BuildQueueFlows(uint32_t queues,
                                                            ConstByteSpan payload,
                                                            uint64_t total_frames,
                                                            uint32_t window,
                                                            uint16_t dst_port = 80) {
    kern::NetDevice* netdev = kernel.net().Find(SutIfname());
    std::vector<devices::EtherLink::PeerFlow> flows(queues);
    uint16_t next_port = 33000;
    for (uint32_t q = 0; q < queues; ++q) {
      for (;; ++next_port) {
        auto frame = kern::BuildPacket(kMacA, kMacB, next_port, dst_port, payload);
        if (kern::FlowQueue({frame.data(), frame.size()}, static_cast<uint16_t>(queues)) == q) {
          flows[q].frame = std::move(frame);
          ++next_port;
          break;
        }
      }
      flows[q].count = total_frames / queues + (q < total_frames % queues ? 1 : 0);
      flows[q].window = window;
      flows[q].acked = [netdev, q]() {
        return netdev->queue_stats(static_cast<uint16_t>(q))
            .rx_packets.load(std::memory_order_relaxed);
      };
    }
    return flows;
  }

  // Transmits `count` identical packets out of the SUT interface as one
  // burst (one uchan crossing under SUD).
  Status SutSendBurst(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload, int count) {
    auto frame = kern::BuildPacket(kMacB, kMacA, src_port, dst_port, payload);
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(count);
    for (int i = 0; i < count; ++i) {
      skbs.push_back(kern::MakeSkb(ConstByteSpan(frame.data(), frame.size())));
    }
    return kernel.net().TransmitBatch(SutIfname(), std::move(skbs)).status();
  }

  // Like SutSendBurst, but every skb is a FRAG skb — the scatter/gather
  // transmit shape: `head_len` bytes of linear head, the rest in page-sized
  // fragments. An SG driver receives these as TX descriptor chains; a non-SG
  // driver exercises the linearize fallback.
  Status SutSendFragBurst(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload,
                          int count, size_t head_len = 2048, size_t frag_len = 2048) {
    auto frame = kern::BuildPacket(kMacB, kMacA, src_port, dst_port, payload);
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(count);
    for (int i = 0; i < count; ++i) {
      skbs.push_back(kern::MakeFragSkb(ConstByteSpan(frame.data(), frame.size()),
                                       head_len, frag_len));
    }
    return kernel.net().TransmitBatch(SutIfname(), std::move(skbs)).status();
  }

  // Like SutSendFragBurst, but the fragments are DRAM-backed page-cache
  // pages (MakeDramFragSkb): the sealed-TX grant shape. Frames too large for
  // DRAM are reported, never silently truncated.
  Status SutSendDramFragBurst(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload,
                              int count, size_t head_len = 128, size_t frag_len = 2048) {
    auto frame = kern::BuildPacket(kMacB, kMacA, src_port, dst_port, payload);
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(count);
    for (int i = 0; i < count; ++i) {
      kern::SkbPtr skb = MakeDramFragSkb(machine.dram(), ConstByteSpan(frame.data(), frame.size()),
                                         head_len, frag_len);
      if (skb == nullptr) {
        return Status(ErrorCode::kExhausted, "dram exhausted building frag skbs");
      }
      skbs.push_back(std::move(skb));
    }
    return kernel.net().TransmitBatch(SutIfname(), std::move(skbs)).status();
  }

  // Sends one packet from the SUT (untrusted driver) to the peer.
  Status SutSend(uint16_t src_port, uint16_t dst_port, ConstByteSpan payload) {
    auto frame = kern::BuildPacket(kMacB, kMacA, src_port, dst_port, payload);
    SUD_RETURN_IF_ERROR(kernel.net().Transmit(
        "eth0", kern::MakeSkb(ConstByteSpan(frame.data(), frame.size()))));
    host->Pump();  // let the driver process the xmit upcall
    return Status::Ok();
  }

  hw::Machine machine;
  kern::Kernel kernel;
  devices::SimNic sut_nic;
  devices::SimNic peer_nic;
  // Declared after the NICs: destruction runs in reverse order, so
  // ~EtherLink joins any still-running generator threads BEFORE the NIC
  // endpoints they deliver into are destroyed (the early-unwind safety net).
  devices::EtherLink link;
  hw::PcieSwitch* sw = nullptr;
  SafePciModule safe_pci;
  SudDeviceContext* ctx = nullptr;
  std::unique_ptr<EthernetProxy> proxy;
  std::unique_ptr<uml::DriverHost> host;
  std::unique_ptr<uml::DirectEnv> peer_env;
  std::unique_ptr<uml::DirectEnv> sut_env;  // in-kernel SUT configuration
  std::unique_ptr<drivers::E1000eDriver> peer_driver_owner;
  std::unique_ptr<drivers::E1000eDriver> sut_driver_owner;
  drivers::E1000eDriver* peer_driver = nullptr;
  drivers::E1000eDriver* sut_driver = nullptr;
  uint32_t nic_queues_ = 1;
  uint32_t mtu_ = static_cast<uint32_t>(kern::kStdMtu);
  uint32_t peer_mtu_ = static_cast<uint32_t>(kern::kStdMtu);
  std::vector<std::vector<uint8_t>> flow_frames_;  // PeerSendFlowBurst cache
  uint16_t flow_frames_base_ = 0;
};

// Conservation ledger: every frame a generator put on the wire (RX
// direction) or the stack accepted for transmit (TX direction) must end a
// drained run either delivered or counted in exactly ONE per-layer drop
// counter — a fault that loses a frame without advancing a counter is a
// silent loss, which the fault-soak bench treats as a failure. Sample
// CollectLedger() before and after a run and audit the delta.
//
// Caveat: the uchan, runtime and SUT-driver counters live in the driver
// process and are replaced by a supervisor restart, so an EXACT audit window
// must not span one (crash/watchdog phases use bounded-loss accounting — the
// ledger then reports how much of the loss was counted vs eaten by the kill).
struct ConservationLedger {
  // RX direction: wire -> SUT stack.
  uint64_t rx_delivered = 0;             // SUT netdev rx_packets
  uint64_t rx_stack_dropped = 0;         // SUT netdev rx_dropped (runt/digest/firewall)
  uint64_t nic_rx_oversize = 0;          // SUT NIC MAC-level drops
  uint64_t nic_rx_no_desc = 0;           // SUT NIC backlog overflow
  uint64_t nic_rx_dma = 0;               // SUT NIC descriptor/buffer DMA faults
  uint64_t driver_rx_chain_dropped = 0;  // driver reassembly drops
  uint64_t uchan_injected_drops = 0;     // netif_rx downcalls eaten by injection
  // TX direction: SUT stack -> peer stack.
  uint64_t tx_accepted = 0;              // SUT netdev tx_packets
  uint64_t tx_stack_dropped = 0;         // SUT netdev tx_dropped (staging/ring-full)
  uint64_t xmit_refused = 0;             // driver refused the transmit upcall
  uint64_t xmit_rejected = 0;            // malformed xmit upcalls rejected
  uint64_t nic_tx_dropped_chain = 0;     // SUT NIC whole-chain drops (incl. DMA faults)
  uint64_t peer_rx_oversize = 0;
  uint64_t peer_rx_no_desc = 0;
  uint64_t peer_rx_dma = 0;
  uint64_t peer_driver_rx_chain_dropped = 0;
  uint64_t tx_delivered = 0;             // peer netdev rx_packets
  uint64_t peer_stack_dropped = 0;       // peer netdev rx_dropped
  // Tolerated faults: neither a delivery nor a loss.
  uint64_t rx_dups_rejected = 0;         // duplicated netif_rx messages refused
  uint64_t uchan_injected_dups = 0;      // duplications the channel introduced
  // Diagnostics. digest_mismatches is a subset of rx_stack_dropped (never
  // summed twice); pool_outstanding is an absolute sample, not a delta.
  uint64_t digest_mismatches = 0;        // SUT netdev rx_bad_checksum
  uint64_t pool_outstanding = 0;

  ConservationLedger operator-(const ConservationLedger& base) const {
    ConservationLedger d = *this;
    d.rx_delivered -= base.rx_delivered;
    d.rx_stack_dropped -= base.rx_stack_dropped;
    d.nic_rx_oversize -= base.nic_rx_oversize;
    d.nic_rx_no_desc -= base.nic_rx_no_desc;
    d.nic_rx_dma -= base.nic_rx_dma;
    d.driver_rx_chain_dropped -= base.driver_rx_chain_dropped;
    d.uchan_injected_drops -= base.uchan_injected_drops;
    d.tx_accepted -= base.tx_accepted;
    d.tx_stack_dropped -= base.tx_stack_dropped;
    d.xmit_refused -= base.xmit_refused;
    d.xmit_rejected -= base.xmit_rejected;
    d.nic_tx_dropped_chain -= base.nic_tx_dropped_chain;
    d.peer_rx_oversize -= base.peer_rx_oversize;
    d.peer_rx_no_desc -= base.peer_rx_no_desc;
    d.peer_rx_dma -= base.peer_rx_dma;
    d.peer_driver_rx_chain_dropped -= base.peer_driver_rx_chain_dropped;
    d.tx_delivered -= base.tx_delivered;
    d.peer_stack_dropped -= base.peer_stack_dropped;
    d.rx_dups_rejected -= base.rx_dups_rejected;
    d.uchan_injected_dups -= base.uchan_injected_dups;
    d.digest_mismatches -= base.digest_mismatches;
    return d;  // pool_outstanding stays the endpoint sample
  }

  // Frames the RX path lost WITH a counter advancing.
  uint64_t RxCountedLosses() const {
    return rx_stack_dropped + nic_rx_oversize + nic_rx_no_desc + nic_rx_dma +
           driver_rx_chain_dropped + uchan_injected_drops;
  }
  // Frames the TX path lost with a counter advancing, past netdev acceptance.
  uint64_t TxCountedLosses() const {
    return xmit_refused + xmit_rejected + nic_tx_dropped_chain + peer_rx_oversize +
           peer_rx_no_desc + peer_rx_dma + peer_driver_rx_chain_dropped + peer_stack_dropped;
  }
  // Exact conservation over a fully drained, restart-free window.
  bool RxConserved(uint64_t wire_sent) const {
    return wire_sent == rx_delivered + RxCountedLosses();
  }
  bool TxConserved(uint64_t attempts) const {
    return attempts == tx_accepted + tx_stack_dropped &&
           tx_accepted == tx_delivered + TxCountedLosses();
  }
};

inline ConservationLedger CollectLedger(NetBench& bench) {
  ConservationLedger ledger;
  kern::NetDevice* sut = bench.kernel.net().Find(bench.SutIfname());
  kern::NetDevice* peer = bench.peer_env != nullptr ? bench.peer_env->netdev() : nullptr;
  if (sut != nullptr) {
    ledger.rx_delivered = sut->stats().rx_packets.load();
    ledger.rx_stack_dropped = sut->stats().rx_dropped.load();
    ledger.digest_mismatches = sut->stats().rx_bad_checksum.load();
    ledger.tx_accepted = sut->stats().tx_packets.load();
    ledger.tx_stack_dropped = sut->stats().tx_dropped.load();
  }
  ledger.nic_rx_oversize = bench.sut_nic.stats().rx_dropped_oversize.load();
  ledger.nic_rx_no_desc = bench.sut_nic.stats().rx_dropped_no_desc.load();
  ledger.nic_rx_dma = bench.sut_nic.stats().rx_dropped_dma.load();
  ledger.nic_tx_dropped_chain = bench.sut_nic.stats().tx_dropped_chain.load();
  ledger.peer_rx_oversize = bench.peer_nic.stats().rx_dropped_oversize.load();
  ledger.peer_rx_no_desc = bench.peer_nic.stats().rx_dropped_no_desc.load();
  ledger.peer_rx_dma = bench.peer_nic.stats().rx_dropped_dma.load();
  // The CURRENT SUT driver: a supervisor restart replaces the instance the
  // bench's sut_driver pointer captured, so prefer the host's live one.
  drivers::E1000eDriver* sut_driver = bench.sut_driver;
  if (bench.host != nullptr && bench.host->driver() != nullptr) {
    sut_driver = static_cast<drivers::E1000eDriver*>(bench.host->driver());
  }
  if (sut_driver != nullptr) {
    ledger.driver_rx_chain_dropped = sut_driver->stats().rx_chain_dropped.load();
  }
  if (bench.peer_driver != nullptr) {
    ledger.peer_driver_rx_chain_dropped = bench.peer_driver->stats().rx_chain_dropped.load();
  }
  if (peer != nullptr) {
    ledger.tx_delivered = peer->stats().rx_packets.load();
    ledger.peer_stack_dropped = peer->stats().rx_dropped.load();
  }
  if (bench.ctx != nullptr) {
    for (uint32_t q = 0; q < bench.nic_queues_; ++q) {
      Uchan::Stats shard = bench.ctx->ctl(q).stats();
      ledger.uchan_injected_drops += shard.injected_drops;
      ledger.uchan_injected_dups += shard.injected_dups;
    }
    ledger.pool_outstanding = bench.ctx->pool().outstanding();
  }
  if (bench.proxy != nullptr) {
    ledger.rx_dups_rejected = bench.proxy->stats().rx_dups_rejected.load();
  }
  if (bench.host != nullptr && bench.host->runtime() != nullptr) {
    ledger.xmit_refused = bench.host->runtime()->stats().xmit_refused.load();
    ledger.xmit_rejected = bench.host->runtime()->stats().xmit_rejected.load();
  }
  return ledger;
}

}  // namespace sud::testing

#endif  // SUD_TESTS_HARNESS_H_
