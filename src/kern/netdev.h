// The network-device subsystem: register_netdev, net_device_ops, netif_rx
// and the netfilter-style firewall.
//
// This is the kernel side of Figure 2's API. In stock Linux the ops structure
// is implemented by the in-kernel driver; under SUD it is implemented by the
// Ethernet *proxy* driver, which forwards each call over a uchan to the
// untrusted user-space driver. The subsystem is written to be "robust to
// driver mistakes" the way Section 3.1.1 describes Linux: bogus values from
// the driver produce error messages and dropped packets, never crashes.
//
// The firewall models the netfilter hook the TOCTOU attack in Section 3.1.2
// targets: NetifRx consults it once per packet, and whatever buffer the
// verdict was computed over must be the buffer delivered — which is exactly
// the property the proxy's guard-copy provides and malicious drivers try to
// violate.

#ifndef SUD_SRC_KERN_NETDEV_H_
#define SUD_SRC_KERN_NETDEV_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kern/flow_table.h"
#include "src/kern/net_limits.h"
#include "src/kern/skb.h"

namespace sud::kern {

// The ops table a (proxy) driver registers. Mirrors struct net_device_ops.
class NetDeviceOps {
 public:
  virtual ~NetDeviceOps() = default;
  virtual Status Open() = 0;                              // ndo_open
  virtual Status Stop() = 0;                              // ndo_stop
  // ndo_start_xmit, burst-shaped: the frames of TX queue `queue`, already
  // steered there by the caller's flow hash, in one call (a single send is a
  // burst of one). The driver takes the skbs it keeps out of the span.
  // Returns how many frames the driver accepted; a full queue drops the tail.
  virtual size_t StartXmitBatch(std::span<SkbPtr> skbs, uint16_t queue) = 0;
  virtual Result<std::string> Ioctl(uint32_t cmd) = 0;    // ndo_do_ioctl (e.g. SIOCGMIIREG)
};

inline constexpr uint32_t kIoctlGetMiiStatus = 0x8948;  // SIOCGMIIREG

// Firewall verdict hook: default-allow with a deny set keyed on destination
// port, plus a mandatory-checksum knob.
class Firewall {
 public:
  void DenyPort(uint16_t port) { denied_ports_.insert(port); }
  void AllowPort(uint16_t port) { denied_ports_.erase(port); }

  // Verdict over exactly the bytes passed in.
  bool Accept(const PacketView& packet) const;

  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }

 private:
  std::set<uint16_t> denied_ports_;
  // Relaxed atomics: the verdict runs on every queue's receive thread.
  mutable std::atomic<uint64_t> accepted_{0};
  mutable std::atomic<uint64_t> rejected_{0};
};

// Interface counters. Relaxed atomics: with multi-queue drivers the receive
// path runs concurrently from one thread per queue.
struct NetDeviceStats {
  std::atomic<uint64_t> tx_packets{0};
  std::atomic<uint64_t> tx_dropped{0};
  // Frag skbs folded flat for a non-SG driver (the skb_linearize fallback):
  // each one is a full-frame copy the scatter/gather path avoids.
  std::atomic<uint64_t> tx_linearized{0};
  // TX frames refused because the shared staging pool had no buffer (counted
  // backpressure under memory pressure — a subset of tx_dropped, never a
  // silent loss).
  std::atomic<uint64_t> tx_no_buffer{0};
  std::atomic<uint64_t> rx_packets{0};
  std::atomic<uint64_t> rx_dropped{0};
  std::atomic<uint64_t> rx_bad_checksum{0};
  std::atomic<uint64_t> driver_errors{0};  // "driver acting in unexpected ways" messages
};

// Per-queue packet counters (the per-queue accounting the multi-queue benches
// report alongside per-shard uchan crossings).
struct NetQueueStats {
  std::atomic<uint64_t> tx_packets{0};
  std::atomic<uint64_t> rx_packets{0};
};

// Upper bound on TX/RX queues per interface (matches the device models).
inline constexpr uint16_t kNetMaxQueues = 8;

// One registered network interface.
class NetDevice {
 public:
  NetDevice(std::string name, const uint8_t mac[6], NetDeviceOps* ops);

  const std::string& name() const { return name_; }
  const uint8_t* dev_addr() const { return mac_.data(); }
  void set_dev_addr(const uint8_t mac[6]);

  // Link carrier: shared-memory state in Linux (netif_carrier_on/off);
  // mirrored by the proxy under SUD (Section 3.3).
  bool carrier() const { return carrier_; }
  void set_carrier(bool up) { carrier_ = up; }

  bool is_up() const { return up_; }

  // TX/RX queue pairs the driver services (netif_set_real_num_tx_queues).
  // The transmit path steers flows across [0, num_queues) by flow hash.
  uint16_t num_queues() const { return num_queues_; }
  void set_num_queues(uint16_t n) {
    num_queues_ = n == 0 ? 1 : (n > kNetMaxQueues ? kNetMaxQueues : n);
  }

  // Interface MTU (driver-declared, like ndo_change_mtu, clamped to the
  // jumbo maximum): the bound every receive-path length check applies — a
  // standard-MTU interface must reject a 9014-byte netif_rx no matter what
  // the driver marshals later.
  uint32_t mtu() const { return mtu_; }
  void set_mtu(uint32_t mtu) {
    mtu_ = static_cast<uint32_t>(
        std::clamp<size_t>(mtu == 0 ? kStdMtu : mtu, kEthMinFrameBytes, kJumboMtu));
  }
  size_t max_frame_bytes() const { return MaxFrameBytes(mtu_); }

  // Scatter/gather transmit capability (NETIF_F_SG), driver-declared at
  // registration: frag skbs reach an SG driver as fragment chains; a non-SG
  // driver's ops layer linearizes them first (counted in tx_linearized).
  bool sg() const { return sg_; }
  void set_sg(bool sg) { sg_ = sg; }

  NetDeviceOps* ops() { return ops_; }
  NetDeviceStats& stats() { return stats_; }
  const NetDeviceStats& stats() const { return stats_; }
  NetQueueStats& queue_stats(uint16_t queue) { return queue_stats_[queue]; }
  const NetQueueStats& queue_stats(uint16_t queue) const { return queue_stats_[queue]; }

  // Receiver sink: where accepted packets go (a test harness, the netperf
  // endpoint, ...). Default discards.
  using RxSink = std::function<void(const Skb&)>;
  void set_rx_sink(RxSink sink) { rx_sink_ = std::move(sink); }
  const RxSink& rx_sink() const { return rx_sink_; }

  // Flow-scale observation: when enabled, every ACCEPTED receive records its
  // flow hash + queue into the O(1) FlowTable, whose per-bucket load feeds
  // the RSS rebalancer. Off by default (a nullptr check per packet, nothing
  // more). Enable before traffic starts — the pointer itself is not guarded
  // against concurrent receives, only the table's internals are.
  void EnableFlowTracking(const FlowTable::Options& options) {
    flow_table_ = std::make_unique<FlowTable>(options);
  }
  void EnableFlowTracking() { flow_table_ = std::make_unique<FlowTable>(); }
  FlowTable* flow_table() { return flow_table_.get(); }
  const FlowTable* flow_table() const { return flow_table_.get(); }

 private:
  friend class NetSubsystem;
  std::string name_;
  std::array<uint8_t, 6> mac_{};
  NetDeviceOps* ops_;
  bool carrier_ = false;
  bool up_ = false;
  bool sg_ = false;
  uint16_t num_queues_ = 1;
  uint32_t mtu_ = static_cast<uint32_t>(kStdMtu);
  NetDeviceStats stats_;
  std::array<NetQueueStats, kNetMaxQueues> queue_stats_;
  RxSink rx_sink_;
  std::unique_ptr<FlowTable> flow_table_;
};

class NetSubsystem {
 public:
  // register_netdev: names the interface ethN and takes (non-owning) the
  // ops implementation.
  Result<NetDevice*> RegisterNetdev(const std::string& name, const uint8_t mac[6],
                                    NetDeviceOps* ops);
  Status UnregisterNetdev(const std::string& name);
  NetDevice* Find(const std::string& name);

  // ifconfig ethN up/down.
  Status BringUp(const std::string& name);
  Status BringDown(const std::string& name);

  // The kernel's transmit entry (dev_queue_xmit): a one-frame TransmitBatch,
  // so a single send is steered and counted exactly like a burst. kQueueFull
  // when the driver did not accept the frame. The NetDevice* overloads skip
  // the name lookup for callers that already hold the interface (the
  // per-packet bench loops).
  Status Transmit(const std::string& name, SkbPtr skb);
  Status Transmit(NetDevice* device, SkbPtr skb);
  // Burst transmit: the qdisc draining its queue in one go. On a multi-queue
  // interface the burst is partitioned by RSS-style flow hash (FlowQueue) and
  // each queue's slice goes to the driver in one StartXmitBatch call on that
  // queue — so per-queue driver threads receive disjoint work with no shared
  // channel. Returns how many frames the driver accepted in total.
  Result<size_t> TransmitBatch(const std::string& name, std::vector<SkbPtr> skbs);
  Result<size_t> TransmitBatch(NetDevice* device, std::vector<SkbPtr> skbs);

  // netif_rx: the driver (via its proxy) delivers a received packet. The
  // packet runs the checksum pass and the firewall *on the skb as given* —
  // callers (the proxy) are responsible for ensuring the skb can no longer
  // be modified by the driver (the guard-copy).
  Status NetifRx(NetDevice* device, SkbPtr skb) { return NetifRx(device, std::move(skb), 0); }
  Status NetifRx(NetDevice* device, SkbPtr skb, uint16_t queue);
  // NAPI-style receive: delivers a whole poll bundle from RX queue `queue`.
  // Every packet still runs the per-packet checksum + firewall validation.
  // Returns how many packets the stack accepted.
  size_t NetifRxBatch(NetDevice* device, std::vector<SkbPtr> skbs, uint16_t queue = 0);

  Firewall& firewall() { return firewall_; }

  // Allocates the next interface name with `prefix` ("eth" -> "eth0", ...).
  std::string NextName(const std::string& prefix) {
    return prefix + std::to_string(name_counter_[prefix]++);
  }

 private:
  // The one transmit path behind both entries; needs no heap allocation
  // when the burst is bound for one queue.
  Result<size_t> XmitBurst(NetDevice* device, std::span<SkbPtr> skbs);

  std::map<std::string, std::unique_ptr<NetDevice>> devices_;
  std::map<std::string, int> name_counter_;
  Firewall firewall_;
};

}  // namespace sud::kern

#endif  // SUD_SRC_KERN_NETDEV_H_
