// The malicious driver family: Section 5.2's explicit attack test cases.
//
// Each driver below is a fully adversarial user-space driver that uses only
// the interfaces SUD grants it — the filtered config syscalls, its own MMIO
// window, its DMA files, the uchan — and tries to break out. The security
// test suite and bench/sec_attack_matrix run every one of these against the
// confinement stack and assert the blast radius is exactly the driver's own
// sandbox.
//
// Attack inventory:
//   DmaAttackDriver        device DMA to arbitrary physical memory (kernel
//                          structures, other drivers' buffers) via TX/RX
//                          descriptors pointing outside the IOMMU mappings
//   P2pAttackDriver        device DMA aimed at a *sibling device's BAR* —
//                          peer-to-peer routing, blocked only by ACS
//   MsiStormDriver         RX descriptors aimed at the MSI doorbell address:
//                          every incoming frame becomes a forged interrupt
//                          (the livelock of §5.2)
//   NeverAckDriver         handles no interrupts, never acks: tests MSI
//                          masking of device-originated storms
//   UnresponsiveDriver     probes, registering no ops, then goes comatose:
//                          no upcall is ever answered: tests interruptable
//                          synchronous upcalls (ifconfig ^C)
//   ConfigAttackDriver     tries to rewrite BARs / the MSI capability / evil
//                          command-register bits through the config syscall
//   IoPortAttackDriver     pokes IO ports outside its IOPB grant
//   BogusRxDriver          netif_rx downcalls with wild iovas and lengths
//   ResourceHogDriver      allocates DMA until its rlimit stops it
//   RetaAttackDriver       programs the RSS indirection table to concentrate
//                          every flow onto one queue (starvation): drops must
//                          stay bounded per-queue and rebalancing must undo it
//   ChainAttackDriver      netif_rx *chain* downcalls forging torn/endless
//                          EOP chains: oversize totals, over-cap fragment
//                          counts, wild fragment addresses
//   DescRewriteAttackDriver arms benign TX descriptors, then rewrites them
//                          mid-burst (after the device's cacheline fetch) to
//                          aim at a victim: the device must transmit the
//                          fetched snapshot, exactly once
//   TxChainAttackDriver    forged TX scatter/gather chains at the descriptor
//                          level: endless (a whole ring with no EOP), torn
//                          (fragments armed, EOP never rung) and over-cap
//                          chains — the device must gather whole-frame-or-
//                          nothing, drop bounded, and stay live
//   BufferReuseAttackDriver free-buffer downcalls reusing one pool buffer id
//                          across a "chain" (double-use/double-free): the
//                          pool must tolerate and count it, never corrupt
//   StaleReplayDriver      harvests real pool handles pre-crash into attacker-
//                          persisted storage, then — as the post-restart
//                          instance — replays them as free batches: the pool's
//                          epoch validation must reject and count every one
//   DupDeliveryDriver      delivers the SAME RX buffer repeatedly via fresh
//                          netif_rx downcalls: under sealed (zero-copy)
//                          delivery the page's seal must be refcounted — the
//                          first skb free must NOT unseal while a second
//                          delivered skb still references the page

#ifndef SUD_SRC_DRIVERS_MALICIOUS_H_
#define SUD_SRC_DRIVERS_MALICIOUS_H_

#include <cstdint>
#include <vector>

#include "src/devices/sim_nic.h"
#include "src/uml/driver_env.h"

namespace sud::drivers {

// Aims its NIC's descriptor rings at arbitrary "physical" targets. Under
// SUD the device's DMA faults in the IOMMU; the victim bytes stay intact.
class DmaAttackDriver : public uml::Driver {
 public:
  // `target_addr` is where the attacker wants the device to read/write
  // (e.g. a kernel physical address, or another device's DMA buffer iova).
  explicit DmaAttackDriver(uint64_t target_addr) : target_addr_(target_addr) {}

  const char* name() const override { return "dma-attack"; }
  Status Probe(uml::DriverEnv& env) override;

  // Launches: TX descriptor whose buffer is the target (device *read*), and
  // an armed RX descriptor whose buffer is the target (device *write* on the
  // next incoming frame).
  Status LaunchTxRead();
  Status LaunchRxWrite();

  uint64_t doorbell_writes() const { return doorbell_writes_; }

 private:
  uml::DriverEnv* env_ = nullptr;
  uint64_t target_addr_;
  DmaRegion ring_{};
  uint64_t doorbell_writes_ = 0;
};

// Same attack but the target is a sibling device's MMIO BAR: exercises the
// PCIe switch routing and ACS (P2P redirect + source validation).
using P2pAttackDriver = DmaAttackDriver;  // identical mechanics, different target

// Arms RX descriptors pointing at the MSI doorbell: each received frame is
// DMA-written to 0xFEE00000 and becomes a forged interrupt whose vector the
// attacker controls through the first two frame bytes.
class MsiStormDriver : public uml::Driver {
 public:
  explicit MsiStormDriver(uint8_t forged_vector) : forged_vector_(forged_vector) {}

  const char* name() const override { return "msi-storm"; }
  Status Probe(uml::DriverEnv& env) override;
  Status Arm(uint32_t descriptors);
  uint8_t forged_vector() const { return forged_vector_; }

 private:
  uml::DriverEnv* env_ = nullptr;
  uint8_t forged_vector_;
  DmaRegion ring_{};
};

// A functional driver that never acknowledges its interrupts, so the device
// keeps a cause pending. SUD must mask after the second delivery.
class NeverAckDriver : public uml::Driver {
 public:
  const char* name() const override { return "never-ack"; }
  Status Probe(uml::DriverEnv& env) override;
  // Pokes the device into raising another interrupt (for the test loop).
  Status TriggerInterrupt();

 private:
  uml::DriverEnv* env_ = nullptr;
  DmaRegion ring_{};
};

// Probes fine, registers no ops, then goes comatose (the infinite-loop
// driver of Section 3): it leaves every upcall unanswered; liveness tests
// point synchronous upcalls at it.
class UnresponsiveDriver : public uml::Driver {
 public:
  const char* name() const override { return "unresponsive"; }
  Status Probe(uml::DriverEnv& env) override;
  bool comatose() const override { return true; }
};

// Attempts every filtered config-space write and records what got through.
class ConfigAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "config-attack"; }
  Status Probe(uml::DriverEnv& env) override;

  struct Outcome {
    uint32_t attempts = 0;
    uint32_t denied = 0;
    uint32_t succeeded = 0;  // must stay 0 for the sensitive set
  };
  const Outcome& outcome() const { return outcome_; }

 private:
  uml::DriverEnv* env_ = nullptr;
  Outcome outcome_;
};

// Pokes legacy IO ports it was never granted (keyboard controller, another
// device's BAR, PCI config ports).
class IoPortAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "ioport-attack"; }
  Status Probe(uml::DriverEnv& env) override;

  uint32_t attempts() const { return attempts_; }
  uint32_t denied() const { return denied_; }

 private:
  uml::DriverEnv* env_ = nullptr;
  uint32_t attempts_ = 0;
  uint32_t denied_ = 0;
};

// Issues netif_rx downcalls with addresses outside its DMA space and absurd
// lengths; the proxy must reject every one.
class BogusRxDriver : public uml::Driver {
 public:
  const char* name() const override { return "bogus-rx"; }
  Status Probe(uml::DriverEnv& env) override;
  // Fires `count` bogus downcalls; returns how many the kernel accepted
  // (must be 0).
  Result<int> Fire(int count);

 private:
  uml::DriverEnv* env_ = nullptr;
};

// Allocates DMA memory until the process rlimit stops it.
class ResourceHogDriver : public uml::Driver {
 public:
  const char* name() const override { return "resource-hog"; }
  Status Probe(uml::DriverEnv& env) override;

  uint64_t bytes_obtained() const { return bytes_obtained_; }
  bool hit_limit() const { return hit_limit_; }

 private:
  uml::DriverEnv* env_ = nullptr;
  uint64_t bytes_obtained_ = 0;
  bool hit_limit_ = false;
};

// Programs MRQC to the full queue count and every RETA entry to one victim
// queue: all receive flows concentrate there (starvation). No descriptors
// are ever armed, so the attack also stresses the per-queue backlog bound —
// the blast radius must be the device's own bounded drops, nothing else.
class RetaAttackDriver : public uml::Driver {
 public:
  explicit RetaAttackDriver(uint8_t victim_queue) : victim_queue_(victim_queue) {}

  const char* name() const override { return "reta-attack"; }
  Status Probe(uml::DriverEnv& env) override;
  // Rewrites the whole table to the victim queue (callable repeatedly,
  // e.g. racing a rebalance).
  Status Concentrate();

 private:
  uml::DriverEnv* env_ = nullptr;
  uint8_t victim_queue_;
};

// Delivers one page-aligned RX buffer of its own DMA space over and over:
// each netif_rx is individually well-formed (valid packet, fresh seq), but
// the set references the same page N times. The unseal-on-free race this
// arms: if the proxy unsealed on the FIRST skb's release, the remaining
// delivered skbs would reference writable shared bytes.
class DupDeliveryDriver : public uml::Driver {
 public:
  const char* name() const override { return "dup-delivery"; }
  Status Probe(uml::DriverEnv& env) override;
  // Writes `frame` into the buffer and delivers it `times` times; returns
  // how many deliveries the kernel accepted.
  Result<int> DeliverSameBuffer(ConstByteSpan frame, int times);
  uint64_t buffer_iova() const { return buffers_.iova; }

 private:
  uml::DriverEnv* env_ = nullptr;
  DmaRegion buffers_{};
};

// Forges multi-fragment netif_rx downcalls — the marshalled form of an EOP
// descriptor chain — that a correct driver could never produce: fragment
// lists summing past the jumbo maximum, fragment counts past the chain cap,
// and fragments pointing outside the driver's DMA space. The proxy must
// reject every one before a single byte is dereferenced.
class ChainAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "chain-attack"; }
  Status Probe(uml::DriverEnv& env) override;

  // Each enqueues `count` forged chain downcalls and returns how many the
  // runtime accepted for transport (the rejection happens kernel-side:
  // judge containment by the proxy's rx_malformed / rx_packets counters
  // after a pump).
  Result<int> FireOversizeChains(int count);
  Result<int> FireOverCapChains(int count);
  Result<int> FireWildChains(int count);

 private:
  uml::DriverEnv* env_ = nullptr;
  DmaRegion buffers_{};
};

// Forges TX scatter/gather descriptor chains the way a hostile driver (or
// corrupted ring memory) would: CMD.EOP withheld so the device's gather
// never terminates (endless), terminates past the chain cap (over-cap), or
// is armed partially and never completed (torn). Contained means: nothing of
// a forged chain reaches the wire, drops are bounded and counted
// (tx_dropped_chain), the ring resyncs to the next EOP boundary, and a
// well-formed frame transmits afterwards — the device stays live no matter
// what the descriptors claim.
class TxChainAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "tx-chain-attack"; }
  Status Probe(uml::DriverEnv& env) override;

  // Arms every descriptor of the ring (minus the reserved slot) with payload
  // fragments and NO EOP anywhere, then rings the doorbell: the endless
  // chain. Returns the number of descriptors armed.
  Result<uint32_t> FireEndlessChain(uint8_t pattern);
  // Arms `frags` no-EOP fragments and doorbells them — then stops. The torn
  // chain: the device must park the partial gather without transmitting or
  // wedging. FinishTornChain arms the terminating EOP fragment later.
  Status FireTornChain(uint32_t frags, uint8_t pattern);
  Status FinishTornChain(uint8_t pattern);
  // Arms kern::kMaxChainFrags + `extra` fragments, EOP on the last: the
  // over-cap chain. Must be dropped whole (the EOP is consumed by the
  // resync, exactly like the RX bound).
  Status FireOverCapChain(uint32_t extra, uint8_t pattern);
  // A well-formed single-descriptor frame: the liveness probe.
  Status SendGoodFrame(uint8_t pattern, uint16_t len);

  uint32_t frag_len() const { return kFragLen; }

 private:
  // Arms the descriptor at tail_ and advances; doorbell() publishes the tail.
  Status ArmFrag(uint16_t len, uint8_t cmd, uint8_t pattern);
  Status Doorbell();

  static constexpr uint32_t kRingSlots = 64;
  static constexpr uint16_t kFragLen = 512;
  uml::DriverEnv* env_ = nullptr;
  DmaRegion ring_{};
  DmaRegion buffers_{};
  uint32_t tail_ = 0;
};

// Returns free-buffer batches that reuse one pool buffer id across a
// "chain's" completion — the double-use/double-free a hostile driver can
// always marshal. The pool must tolerate it (count double_frees), keep the
// free list consistent, and keep serving the transmit path.
class BufferReuseAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "buffer-reuse-attack"; }
  Status Probe(uml::DriverEnv& env) override;
  // Sends one coalesced free-buffer batch repeating `id` `times` times plus
  // a wild id, as a malicious chain completion would.
  Status FireReusedFrees(int32_t id, int times);

 private:
  uml::DriverEnv* env_ = nullptr;
};

// The restart-time replay attacker. The pre-crash instance behaves like a
// buggy-but-plausible driver: it accepts transmits and records every pool
// buffer handle it is given into `notebook` (modeling state the attacker
// stashed outside the process — a file, a colluding peer) WITHOUT ever
// freeing them, so the kill also strands in-flight staging (the quarantine
// case). The post-restart instance replays the notebook as coalesced
// free-buffer batches; every id names a dead epoch and the pool must reject
// and count each one without touching the live free list.
class StaleReplayDriver : public uml::Driver {
 public:
  explicit StaleReplayDriver(std::vector<int32_t>* notebook) : notebook_(notebook) {}

  const char* name() const override { return "stale-replay"; }
  Status Probe(uml::DriverEnv& env) override;

  // Replays every notebook handle in one coalesced free batch.
  Status ReplayFrees();
  // Replays the notebook with `current` live handles appended: the mixed
  // batch — stale ids must be rejected while the live ones free normally.
  Status ReplayFreesWith(const std::vector<int32_t>& current);

 private:
  uml::DriverEnv* env_ = nullptr;
  std::vector<int32_t>* notebook_;
};

// Arms a window of benign TX descriptors, rings the doorbell, and — timed by
// the harness to land inside the device's reap pass, after the cacheline
// burst fetch — rewrites the not-yet-transmitted descriptors to aim at a
// secret address. Contained means: the device transmits exactly the armed
// bytes, exactly once, and the secret never reaches the wire. The chain
// variant arms a lead frame plus one multi-descriptor SG chain, so the
// rewrite lands mid-CHAIN: snapshot immunity must hold fragment-wise too.
class DescRewriteAttackDriver : public uml::Driver {
 public:
  const char* name() const override { return "desc-rewrite"; }
  Status Probe(uml::DriverEnv& env) override;

  // Arms `descriptors` TX descriptors, each pointing at a buffer filled with
  // `pattern`, and rings the doorbell for all of them.
  Status ArmAndDoorbell(uint32_t descriptors, uint8_t pattern);
  // Arms one single-descriptor lead frame plus one `chain_frags`-fragment SG
  // chain (EOP only on the last), and rings the doorbell once. The harness
  // rewrites the chain's descriptors while the lead frame is on the wire —
  // inside the device's burst window.
  Status ArmChainAndDoorbell(uint32_t chain_frags, uint8_t pattern);
  // The mid-burst rewrite: repoints descriptors [from, to) at `target_addr`
  // with `len`-byte reads. Invoked from the harness's link endpoint while
  // the device is mid-pass.
  void RewriteDescriptors(uint32_t from, uint32_t to, uint64_t target_addr, uint16_t len);
  // Re-rings the doorbell at the same tail (a replay probe: must not
  // retransmit anything).
  Status RedoorbellSameTail();

  uint32_t armed() const { return armed_; }
  uint16_t frame_len() const { return kFrameLen; }

 private:
  static constexpr uint16_t kFrameLen = 64;
  uml::DriverEnv* env_ = nullptr;
  DmaRegion ring_{};
  DmaRegion buffers_{};
  uint32_t armed_ = 0;
};

// The perfectly-timed attacker half of the rewrite attacks: a link endpoint
// that — on the FIRST delivered frame, i.e. while the device is mid-pass
// with the queue lock dropped for the wire hop and descriptors [from, to)
// sitting in its fetched cacheline — rewrites those descriptors to aim at
// `target`, then records every frame for the containment verdict.
struct DescRewritePeer : devices::EtherEndpoint {
  DescRewriteAttackDriver* driver = nullptr;
  uint64_t target = 0;
  uint32_t from = 1;
  uint32_t to = 4;
  uint16_t len = 64;
  bool rewritten = false;
  std::vector<std::vector<uint8_t>> frames;
  void DeliverFrame(ConstByteSpan frame) override {
    if (!rewritten) {
      rewritten = true;
      driver->RewriteDescriptors(from, to, target, len);
    }
    frames.emplace_back(frame.begin(), frame.end());
  }
};

}  // namespace sud::drivers

#endif  // SUD_SRC_DRIVERS_MALICIOUS_H_
