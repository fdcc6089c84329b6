// EtherLink: a point-to-point Gigabit Ethernet medium.
//
// Connects two NIC endpoints (e.g. the device under test and the traffic
// generator peer playing the paper's Dell Optiplex). Frames are delivered
// synchronously; the link keeps byte/frame counters so the netperf
// reproduction can compute wire-limited throughput (a 1 Gb/s link is the
// bottleneck for TCP_STREAM, which is why kernel and SUD drivers tie at
// 941 Mbit/s in Figure 8).
//
// Threaded peer mode: the link can also *be* the traffic-generator machine.
// StartPeers runs one generator thread per flow, each transmitting its fixed
// pre-built frame in a sliding window against a consumer-progress callback.
// Because a generator's flow tuple never changes, RSS pins it to one SUT
// queue, and the device's receive-side DMA for different queues runs
// concurrently on the delivering generators' threads instead of serially on
// the bench thread (the per-queue locks in SimNic make that safe).

#ifndef SUD_SRC_DEVICES_ETHER_LINK_H_
#define SUD_SRC_DEVICES_ETHER_LINK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/counter.h"
#include "src/base/status.h"
#include "src/kern/net_limits.h"

namespace sud::devices {

// Frame-size limits come from the centralized net_limits.h: the medium
// carries anything up to the jumbo maximum (whether an endpoint ACCEPTS a
// long frame is that endpoint's RCTL.LPE decision, as on real hardware).
inline constexpr size_t kEthMinFrame = kern::kEthMinFrameBytes;   // without FCS
inline constexpr size_t kEthMaxFrame = kern::kJumboMaxFrameBytes;  // 9000 MTU + 14 header
inline constexpr double kGigabitPerSec = 1e9;  // link rate, bits/second

// Per-frame wire overhead: preamble(8) + FCS(4) + IFG(12) bytes.
inline constexpr size_t kEthWireOverhead = 24;

class EtherEndpoint {
 public:
  virtual ~EtherEndpoint() = default;
  virtual void DeliverFrame(ConstByteSpan frame) = 0;
};

class EtherLink {
 public:
  // Relaxed atomics: multi-queue NICs transmit from one thread per queue.
  struct Stats {
    std::atomic<uint64_t> frames[2] = {};  // transmitted by side i
    std::atomic<uint64_t> bytes[2] = {};
    std::atomic<uint64_t> dropped{0};  // oversize or unattached
  };

  // Any generator threads still running must not outlive the link they
  // transmit through (an early test ASSERT or bench exception would
  // otherwise leave a joinable thread whose destruction aborts).
  ~EtherLink() { StopPeers(); }

  void Attach(int side, EtherEndpoint* endpoint);

  // Transmit from `side` to the peer. Oversize frames are dropped (counted),
  // undersize frames are padded to the Ethernet minimum, like a real MAC.
  Status Transmit(int side, ConstByteSpan frame);

  const Stats& stats() const { return stats_; }

  // Simulated wire time (ns) to carry `frames` frames of `payload` bytes.
  static double WireTimeNs(uint64_t frames, uint64_t payload_bytes);

  // --- Threaded traffic-generator peers --------------------------------------

  // One generated flow. The frame is fixed (fixed tuple => fixed RSS queue);
  // the generator transmits it `count` times, keeping at most `window` frames
  // beyond what `acked` reports consumed downstream — sized under the
  // device's per-queue backlog so a well-behaved consumer never drops. A
  // null `acked` generates unpaced (tests that only count frames).
  struct PeerFlow {
    std::vector<uint8_t> frame;
    uint64_t count = 0;
    uint32_t window = 48;
    std::function<uint64_t()> acked;
    // Go-back-N recovery for crash benchmarks: when window-blocked with no
    // consumer progress for this long, rewind the send cursor to the acked
    // position and resend the unacked tail (a driver restart eats whatever
    // sat in the rings — without retransmit the flow is window-blocked
    // forever, which is a transport problem, not a consumer wedge). 0
    // disables; every retransmitted frame still counts in stats.frames, so
    // crash loss stays visible as sent - delivered.
    uint64_t retransmit_on_stall_ms = 0;
  };

  // Per-generator counters. frames/bytes mirror stats() but split by flow;
  // frame_hash is an order-independent digest (wrapping sum of per-frame
  // FNV-1a hashes), so a threaded run can be compared bit-for-bit against a
  // serial replay of the same flows regardless of interleaving.
  // Written only by the generator's own thread (or the serial replay).
  struct PeerStats {
    Counter frames;
    Counter bytes;
    Counter frame_hash;
    // The generator abandoned its budget after the give-up stall bound; the
    // flow's last heartbeat (what it sent, what the consumer acked) is logged
    // at the moment it quits so a wedged queue is attributable from CI logs.
    std::atomic<bool> gave_up{false};
    // Go-back-N rewinds performed (each one resends the unacked window tail).
    Counter rewinds;
  };

  // One request/response flow — netperf's UDP_RR client: the generator
  // transmits `request`, then blocks until `replies()` passes the transaction
  // number before sending the next, so exactly one transaction is ever in
  // flight. What counts as a reply is the caller's: link frames from the
  // other side for a wire-level client, or a served-transaction counter when
  // the bench needs strict alternation with its own serving loop (fig8's
  // UDP_RR keeps its charge pattern bit-identical that way).
  struct RrFlow {
    std::vector<uint8_t> request;
    uint64_t transactions = 0;
    std::function<uint64_t()> replies;  // responses observed so far (required)
  };

  // Spawns one generator thread per flow, transmitting from `side`.
  // `give_up_ms` bounds how long a window-blocked generator waits without
  // consumer progress before abandoning its budget (CI can never wedge; the
  // shortfall shows up in peer_stats).
  void StartPeers(std::vector<PeerFlow> flows, int side = 1, uint64_t give_up_ms = 60000);
  // Spawns one client thread per RR flow, transmitting from `side`. Stats
  // land in peer_stats() like the flood generators'; a client whose reply
  // never comes gives up after `give_up_ms` without progress (gave_up set).
  void StartRrPeers(std::vector<RrFlow> flows, int side = 1, uint64_t give_up_ms = 60000);
  // Serial replay of the same RR flows on the caller's thread: transmit a
  // flow's request, then invoke `serve` until its reply arrives, round-robin
  // across flows — the single-threaded equivalent the determinism tests
  // compare the threaded clients against.
  void RunRrPeersSerial(std::vector<RrFlow> flows, const std::function<void()>& serve,
                        int side = 1);
  // Blocks until every generator sent its budget (or gave up / was stopped).
  void JoinPeers();
  // Asks generators to exit after their current frame, then joins them.
  void StopPeers();
  // Serial replay of the same flows on the caller's thread: round-robin, one
  // window per flow per round, invoking `pump` whenever every unfinished flow
  // is window-blocked (the pumped-dispatch fallback for single-core hosts).
  void RunPeersSerial(std::vector<PeerFlow> flows, const std::function<void()>& pump,
                      int side = 1);

  size_t peer_count() const { return peers_.size(); }
  const PeerStats& peer_stats(size_t flow) const { return peers_[flow]->stats; }

  // The per-frame digest the generators accumulate (FNV-1a over the bytes).
  static uint64_t FrameHash(ConstByteSpan frame);

 private:
  struct PeerGen {
    PeerFlow flow;
    // RR clients reuse flow.frame/flow.count for the request and transaction
    // budget; a non-null rr_replies is what marks the generator as RR.
    std::function<uint64_t()> rr_replies;
    PeerStats stats;
    uint64_t frame_digest = 0;  // FrameHash(flow.frame), computed once
    uint64_t sent = 0;
    size_t index = 0;  // flow number (== the SUT queue BuildQueueFlows pinned)
    std::thread thread;
  };

  // Moves an RrFlow into a PeerGen slot in peers_ (shared by both RR modes).
  void AddRrGen(RrFlow flow);

  // Transmits one frame of `gen`'s flow and folds it into the flow counters.
  void TransmitFromPeer(int side, PeerGen& gen);

  std::array<EtherEndpoint*, 2> endpoints_{nullptr, nullptr};
  Stats stats_;
  std::vector<std::unique_ptr<PeerGen>> peers_;
  std::atomic<bool> peers_stop_{false};
};

}  // namespace sud::devices

#endif  // SUD_SRC_DEVICES_ETHER_LINK_H_
