#include "perfbench/src/workloads.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <thread>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/base/rng.h"
#include "tests/harness.h"

namespace perfbench {
namespace {

namespace devices = sud::devices;
namespace kern = sud::kern;
namespace uml = sud::uml;
using sud::ConstByteSpan;
using sud::testing::NetBench;

// In-flight frames per RX flow. The driver arms 512 RX descriptors per
// queue, so the window sits inside the armed ring and nothing can drop.
constexpr uint32_t kPeerWindow = 256;
constexpr size_t kTxBurst = 8;
// Distinct frames the TX and RR generators cycle through.
constexpr size_t kTemplates = 16;
constexpr uint32_t kMaxQueues = 2;
// Bound on any wait for the stack; past it the round fails instead of hanging.
constexpr int64_t kWaitTimeoutNs = 10'000'000'000;
constexpr uint64_t kGiveUpMs = 10'000;

// Per round sizes are chosen so one measured loop takes roughly 0.2-0.3 s on
// a 4-core host: long enough to amortise round set-up, short enough for
// tens of rounds per run. Chunks (the unit the end-to-end timings are read
// from) hold about 5-25 ms of work: short enough that some fall in the quiet
// moments of a shared host, long enough for a per-chunk p99.
const std::vector<Workload> kWorkloads = {
    {"rx_stream", Workload::Shape::kRx, 1, false, 1448, 4096, 200000, 8192},
    {"tx_small", Workload::Shape::kTx, 1, false, 64, 4096, 200000, 8192},
    {"rr_threaded", Workload::Shape::kRr, 1, true, 64, 500, 40000, 4096},
    {"mq_rx_threaded", Workload::Shape::kRx, 2, true, 1448, 4096, 200000, 16384},
};

// One in-order stream of frames observed at a fixed point (the SUT's
// rx_sink or the peer's link side). Each frame is compared with the template
// the generator used at that position and folded into the order-independent
// FNV digest (a frame equal to its template contributes the template's
// precomputed hash, which is its own), then timestamped. The count is
// published with release order, so a thread that acquires it also sees the
// timestamps and the digest. One writer thread per stream.
class Stream {
 public:
  Stream(std::vector<std::vector<uint8_t>> templates, size_t capacity)
      : templates_(std::move(templates)), times_(capacity) {
    for (const auto& frame : templates_) {
      hashes_.push_back(devices::EtherLink::FrameHash({frame.data(), frame.size()}));
    }
  }

  void Clear() {
    digest_ = 0;
    misordered_ = 0;
    count_.store(0, std::memory_order_relaxed);
  }

  uint64_t Observe(ConstByteSpan frame, int64_t now_ns) {
    uint64_t index = count_.load(std::memory_order_relaxed);
    size_t k = index % templates_.size();
    const std::vector<uint8_t>& expected = templates_[k];
    if (frame.size() == expected.size() &&
        std::memcmp(frame.data(), expected.data(), expected.size()) == 0) {
      digest_ += hashes_[k];
    } else {
      digest_ += devices::EtherLink::FrameHash(frame);
      ++misordered_;
    }
    if (index < times_.size()) {
      times_[index] = now_ns;
    }
    return index;
  }
  void Publish(uint64_t index) { count_.store(index + 1, std::memory_order_release); }

  uint64_t count() const { return count_.load(std::memory_order_acquire); }
  uint64_t digest() const { return digest_; }
  uint64_t misordered() const { return misordered_; }
  const std::vector<int64_t>& times() const { return times_; }
  const std::vector<std::vector<uint8_t>>& templates() const { return templates_; }
  // Digest of the first `n` frames a generator cycling the templates sends.
  uint64_t ExpectedDigest(uint64_t n) const {
    uint64_t digest = 0;
    for (size_t k = 0; k < hashes_.size(); ++k) {
      uint64_t uses = n / hashes_.size() + (k < n % hashes_.size() ? 1 : 0);
      digest += uses * hashes_[k];
    }
    return digest;
  }

 private:
  std::vector<std::vector<uint8_t>> templates_;
  std::vector<uint64_t> hashes_;
  std::vector<int64_t> times_;
  uint64_t digest_ = 0;
  uint64_t misordered_ = 0;
  alignas(64) std::atomic<uint64_t> count_{0};
};

// CPU placement. A new thread inherits its creator's affinity, so the bench
// thread takes the driver side's CPUs while it starts the driver's pump
// threads, then the load side's for itself and the generator threads it
// starts later. The sides never share a CPU: a handoff between the bench and
// a pump thread always crosses CPUs, instead of running several times faster
// whenever the scheduler happens to put both threads on one CPU.
class CpuSides {
 public:
  CpuSides() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  void PinLoadSide() const { Pin(0, cpus_.size() / 2); }
  void PinDriverSide() const { Pin(cpus_.size() / 2, cpus_.size()); }

 private:
  void Pin(size_t begin, size_t end) const {
    if (cpus_.size() < 2) {
      return;  // one CPU: nothing to separate
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = begin; i < end; ++i) {
      CPU_SET(cpus_[i], &set);
    }
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }

  std::vector<int> cpus_;
};

// Arrival times of frames handed to the SUT NIC, per queue (RX workloads).
struct alignas(64) ArrivalLog {
  std::vector<int64_t> times;
  uint64_t count = 0;
};

Counters Snapshot(NetBench& bench) {
  Counters c;
  sud::Uchan::Stats uchan = bench.ctx->AggregateCtlStats();
  c.uchan_crossings = uchan.downcall_batches + uchan.wakeups;
  c.uchan_msgs =
      uchan.upcalls_sync + uchan.upcalls_async + uchan.downcalls_sync + uchan.downcalls_async;
  c.uchan_wakeups = uchan.wakeups;
  c.uchan_kernel_ns = uchan.kernel_ns;
  c.uchan_driver_ns = uchan.driver_ns;
  for (uint32_t q = 0; q < bench.ctx->num_queues() && q < kMaxQueues; ++q) {
    c.uchan_q_driver_ns[q] = bench.ctx->ctl(static_cast<uint16_t>(q)).stats().driver_ns;
  }
  c.uchan_ring_full_retries = uchan.ring_full_retries;
  c.uchan_dropped_full = uchan.upcalls_dropped_full;
  const sud::EthernetProxy::Stats& proxy = bench.proxy->stats();
  c.proxy_guard_copies = proxy.guard_copies.load();
  c.proxy_rx_bundles = proxy.rx_bundles.load();
  c.proxy_xmit_batches = proxy.xmit_batches.load();
  c.proxy_free_batches = proxy.free_batches.load();
  c.proxy_xmit_dropped = proxy.xmit_dropped.load();
  const sud::hw::Iommu::IotlbStats& iotlb = bench.machine.iommu().iotlb_stats();
  c.iotlb_hits = iotlb.hits;
  c.iotlb_misses = iotlb.misses;
  const devices::SimNic::Stats& nic = bench.sut_nic.stats();
  c.nic_desc_dma = nic.desc_fetch_dma.load() + nic.desc_writeback_dma.load();
  c.nic_rx_dropped_no_desc = nic.rx_dropped_no_desc.load();
  if (bench.sut_driver != nullptr) {
    c.driver_desc_windows = bench.sut_driver->desc_window_maps();
    c.driver_tx_frames = bench.sut_driver->stats().tx_queued.load();
    c.driver_tx_desc = bench.sut_driver->stats().tx_desc_queued.load();
  }
  if (bench.host->runtime() != nullptr) {
    const uml::UmlRuntime::Stats& runtime = bench.host->runtime()->stats();
    c.runtime_upcalls = runtime.upcalls_dispatched.load();
    c.runtime_irq_upcalls = runtime.irq_upcalls.load();
    c.runtime_rx_flushes = runtime.rx_batches_flushed.load();
  }
  c.kern_irqs = bench.kernel.interrupts_handled();
  const sud::CpuModel& cpu = bench.machine.cpu();
  c.cpu_kernel_ns = cpu.busy(sud::kAccountKernel);
  c.cpu_driver_ns = cpu.busy(sud::kAccountDriver);
  c.cpu_device_ns = cpu.busy(sud::kAccountDevice);
  kern::NetDevice* netdev = bench.kernel.net().Find(bench.SutIfname());
  c.stack_rx_pkts = netdev->stats().rx_packets.load();
  for (uint32_t q = 0; q < bench.nic_queues_ && q < kMaxQueues; ++q) {
    c.queue_rx_pkts[q] = netdev->queue_stats(static_cast<uint16_t>(q)).rx_packets.load();
  }
  c.pool_outstanding = bench.ctx->pool().outstanding();
  return c;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  uchan_crossings += o.uchan_crossings;
  uchan_msgs += o.uchan_msgs;
  uchan_wakeups += o.uchan_wakeups;
  uchan_kernel_ns += o.uchan_kernel_ns;
  uchan_driver_ns += o.uchan_driver_ns;
  for (size_t q = 0; q < kMaxQueues; ++q) {
    uchan_q_driver_ns[q] += o.uchan_q_driver_ns[q];
    queue_rx_pkts[q] += o.queue_rx_pkts[q];
  }
  uchan_ring_full_retries += o.uchan_ring_full_retries;
  uchan_dropped_full += o.uchan_dropped_full;
  proxy_guard_copies += o.proxy_guard_copies;
  proxy_rx_bundles += o.proxy_rx_bundles;
  proxy_xmit_batches += o.proxy_xmit_batches;
  proxy_free_batches += o.proxy_free_batches;
  proxy_xmit_dropped += o.proxy_xmit_dropped;
  iotlb_hits += o.iotlb_hits;
  iotlb_misses += o.iotlb_misses;
  nic_desc_dma += o.nic_desc_dma;
  nic_rx_dropped_no_desc += o.nic_rx_dropped_no_desc;
  driver_desc_windows += o.driver_desc_windows;
  driver_tx_frames += o.driver_tx_frames;
  driver_tx_desc += o.driver_tx_desc;
  runtime_upcalls += o.runtime_upcalls;
  runtime_irq_upcalls += o.runtime_irq_upcalls;
  runtime_rx_flushes += o.runtime_rx_flushes;
  kern_irqs += o.kern_irqs;
  cpu_kernel_ns += o.cpu_kernel_ns;
  cpu_driver_ns += o.cpu_driver_ns;
  cpu_device_ns += o.cpu_device_ns;
  stack_rx_pkts += o.stack_rx_pkts;
  pool_outstanding = std::max(pool_outstanding, o.pool_outstanding);
  return *this;
}

Counters Counters::operator-(const Counters& b) const {
  Counters d = *this;
  d.uchan_crossings -= b.uchan_crossings;
  d.uchan_msgs -= b.uchan_msgs;
  d.uchan_wakeups -= b.uchan_wakeups;
  d.uchan_kernel_ns -= b.uchan_kernel_ns;
  d.uchan_driver_ns -= b.uchan_driver_ns;
  for (size_t q = 0; q < kMaxQueues; ++q) {
    d.uchan_q_driver_ns[q] -= b.uchan_q_driver_ns[q];
    d.queue_rx_pkts[q] -= b.queue_rx_pkts[q];
  }
  d.uchan_ring_full_retries -= b.uchan_ring_full_retries;
  d.uchan_dropped_full -= b.uchan_dropped_full;
  d.proxy_guard_copies -= b.proxy_guard_copies;
  d.proxy_rx_bundles -= b.proxy_rx_bundles;
  d.proxy_xmit_batches -= b.proxy_xmit_batches;
  d.proxy_free_batches -= b.proxy_free_batches;
  d.proxy_xmit_dropped -= b.proxy_xmit_dropped;
  d.iotlb_hits -= b.iotlb_hits;
  d.iotlb_misses -= b.iotlb_misses;
  d.nic_desc_dma -= b.nic_desc_dma;
  d.nic_rx_dropped_no_desc -= b.nic_rx_dropped_no_desc;
  d.driver_desc_windows -= b.driver_desc_windows;
  d.driver_tx_frames -= b.driver_tx_frames;
  d.driver_tx_desc -= b.driver_tx_desc;
  d.runtime_upcalls -= b.runtime_upcalls;
  d.runtime_irq_upcalls -= b.runtime_irq_upcalls;
  d.runtime_rx_flushes -= b.runtime_rx_flushes;
  d.kern_irqs -= b.kern_irqs;
  d.cpu_kernel_ns -= b.cpu_kernel_ns;
  d.cpu_driver_ns -= b.cpu_driver_ns;
  d.cpu_device_ns -= b.cpu_device_ns;
  d.stack_rx_pkts -= b.stack_rx_pkts;
  return d;  // pool_outstanding stays the endpoint sample
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

struct Runner::State {
  const Workload& w;
  std::vector<std::unique_ptr<Stream>> sink;  // per SUT queue, at rx_sink
  std::unique_ptr<Stream> peer;               // at link side 1 (TX and RR)
  std::array<ArrivalLog, kMaxQueues> arrivals;
  std::vector<int64_t> sent_times;            // TX burst entry / RR request send
  std::vector<double> waits_us;
  uint64_t gen_digest = 0;                    // RX generator digest (EtherLink's)
  std::vector<std::string> errors;
  NetBench* bench = nullptr;
  bool measuring = false;
  CpuSides cpus;

  State(const Workload& workload, uint64_t seed) : w(workload) {
    sud::Rng rng(seed);
    size_t capacity = w.warmup_ops + w.measured_ops;
    auto payload = [&]() {
      std::vector<uint8_t> bytes(w.payload_bytes);
      for (uint8_t& b : bytes) {
        b = rng.NextByte();
      }
      return bytes;
    };
    if (w.shape != Workload::Shape::kRx) {
      // SUT -> peer frames (TX stream, or RR replies) and, on RR, the
      // matching peer -> SUT requests.
      bool rr = w.shape == Workload::Shape::kRr;
      uint16_t base = static_cast<uint16_t>(1024 + rng.Below(60000));
      std::vector<std::vector<uint8_t>> out;
      std::vector<std::vector<uint8_t>> requests;
      for (size_t k = 0; k < kTemplates; ++k) {
        uint16_t client = static_cast<uint16_t>(base + k);
        uint16_t server = rr ? 7002 : 9;
        std::vector<uint8_t> body = payload();
        out.push_back(kern::BuildPacket(sud::testing::kMacB, sud::testing::kMacA, server,
                                        client, {body.data(), body.size()}));
        if (rr) {
          std::vector<uint8_t> req = payload();
          requests.push_back(kern::BuildPacket(sud::testing::kMacA, sud::testing::kMacB,
                                               client, server, {req.data(), req.size()}));
        }
      }
      peer = std::make_unique<Stream>(std::move(out), capacity);
      if (rr) {
        sink.push_back(std::make_unique<Stream>(std::move(requests), capacity));
      }
      sent_times.resize(capacity);
      waits_us.reserve(2 * capacity);
    } else {
      // One RX flow per queue; source ports are searched from a seeded base
      // so the RSS hash pins flow q to queue q.
      std::vector<uint8_t> body = payload();
      uint16_t port = static_cast<uint16_t>(1024 + rng.Below(60000));
      for (uint32_t q = 0; q < w.queues; ++q) {
        for (;; ++port) {
          auto frame = kern::BuildPacket(sud::testing::kMacA, sud::testing::kMacB, port, 80,
                                         {body.data(), body.size()});
          if (kern::FlowQueue({frame.data(), frame.size()}, static_cast<uint16_t>(w.queues)) ==
              q) {
            sink.push_back(std::make_unique<Stream>(
                std::vector<std::vector<uint8_t>>{std::move(frame)}, capacity));
            ++port;
            break;
          }
        }
        arrivals[q].times.resize(capacity);
      }
    }
  }

  // The SUT queue a received RX frame belongs to, by its flow's source port.
  int QueueOf(ConstByteSpan frame) const {
    if (sink.size() == 1) {
      return 0;
    }
    kern::PacketView packet{frame};
    if (!packet.valid()) {
      return -1;
    }
    for (size_t q = 0; q < sink.size(); ++q) {
      const std::vector<uint8_t>& flow = sink[q]->templates()[0];
      if (kern::PacketView{{flow.data(), flow.size()}}.src_port() == packet.src_port()) {
        return static_cast<int>(q);
      }
    }
    return -1;
  }

  void Fail(std::string message) { errors.push_back(std::move(message)); }

  // Spins until `stream` has seen `target` frames, which a pump thread
  // delivers. Returns false on timeout.
  bool AwaitHandoff(const Stream& stream, uint64_t target, uint64_t request) {
    int64_t start = NowNs();
    bool ok = true;
    {
      ScopedSpan span(SpanKind::kHandoffWait, request, start);
      uint32_t spins = 0;
      while (stream.count() < target) {
        std::this_thread::yield();
        if ((++spins & 1023) == 0 && NowNs() - start > kWaitTimeoutNs) {
          ok = false;
          break;
        }
      }
    }
    if (measuring) {
      waits_us.push_back(static_cast<double>(NowNs() - start) / 1000.0);
    }
    return ok;
  }

  // RX: `total` frames split across the queues' flows from the link peer.
  bool RxPhase(uint64_t total, uint64_t phase) {
    NetBench& b = *bench;
    std::vector<devices::EtherLink::PeerFlow> flows(w.queues);
    std::vector<uint64_t> target(w.queues);
    for (uint32_t q = 0; q < w.queues; ++q) {
      Stream* stream = sink[q].get();
      uint64_t base = stream->count();
      flows[q].frame = stream->templates()[0];
      flows[q].count = total / w.queues + (q < total % w.queues ? 1 : 0);
      flows[q].window = kPeerWindow;
      flows[q].acked = [stream, base]() { return stream->count() - base; };
      target[q] = base + flows[q].count;
    }
    auto delivered = [&]() {
      for (uint32_t q = 0; q < w.queues; ++q) {
        if (sink[q]->count() < target[q]) {
          return false;
        }
      }
      return true;
    };
    bool ok = true;
    if (!w.threaded) {
      auto pump = [&b]() {
        ScopedSpan span(SpanKind::kUmlPump, 0);
        b.host->Pump();
      };
      {
        ScopedSpan span(SpanKind::kGen, phase);
        b.link.RunPeersSerial(std::move(flows), pump, /*side=*/1);
      }
      int64_t start = NowNs();
      while (!delivered()) {
        pump();
        if (NowNs() - start > kWaitTimeoutNs) {
          ok = false;
          break;
        }
      }
    } else {
      {
        ScopedSpan span(SpanKind::kGen, phase);
        b.link.StartPeers(std::move(flows), /*side=*/1, kGiveUpMs);
      }
      ScopedSpan span(SpanKind::kWait, phase);
      b.link.JoinPeers();
      int64_t start = NowNs();
      while (!delivered()) {
        std::this_thread::yield();
        if (NowNs() - start > kWaitTimeoutNs) {
          ok = false;
          break;
        }
      }
    }
    for (size_t p = 0; p < b.link.peer_count(); ++p) {
      gen_digest += b.link.peer_stats(p).frame_hash.load();
      if (b.link.peer_stats(p).gave_up.load()) {
        ok = false;
      }
    }
    return ok;
  }

  // TX: `total` frames out of the SUT in TransmitBatch bursts, pumped.
  bool TxPhase(uint64_t total) {
    NetBench& b = *bench;
    kern::NetDevice* netdev = b.kernel.net().Find(b.SutIfname());
    const auto& frames = peer->templates();
    uint64_t first = peer->count();
    bool ok = true;
    for (uint64_t i = first; i < first + total; i += kTxBurst) {
      std::vector<kern::SkbPtr> skbs;
      {
        ScopedSpan span(SpanKind::kGen, i);
        skbs.reserve(kTxBurst);
        for (size_t j = 0; j < kTxBurst; ++j) {
          const std::vector<uint8_t>& frame = frames[(i + j) % frames.size()];
          skbs.push_back(kern::MakeSkb({frame.data(), frame.size()}));
        }
      }
      int64_t entry = NowNs();
      for (size_t j = 0; j < kTxBurst; ++j) {
        sent_times[i + j] = entry;
      }
      {
        ScopedSpan span(SpanKind::kKernXmit, i, entry);
        sud::Result<size_t> accepted = b.kernel.net().TransmitBatch(netdev, std::move(skbs));
        if (!accepted.ok() || accepted.value() != kTxBurst) {
          ok = false;
        }
      }
      ScopedSpan span(SpanKind::kUmlPump, i);
      b.host->Pump();
    }
    int64_t start = NowNs();
    while (peer->count() < first + total) {
      ScopedSpan span(SpanKind::kUmlPump, 0);
      b.host->Pump();
      if (NowNs() - start > kWaitTimeoutNs) {
        return false;
      }
    }
    return ok;
  }

  // RR: one request/response in flight; the bench thread is both the
  // netperf client (link side 1) and the netserver on the SUT.
  bool RrPhase(uint64_t transactions) {
    NetBench& b = *bench;
    kern::NetDevice* netdev = b.kernel.net().Find(b.SutIfname());
    const auto& requests = sink[0]->templates();
    const auto& replies = peer->templates();
    uint64_t first = peer->count();
    for (uint64_t i = first; i < first + transactions; ++i) {
      int64_t sent = NowNs();
      sent_times[i] = sent;
      {
        ScopedSpan span(SpanKind::kGen, i, sent);
        const std::vector<uint8_t>& request = requests[i % requests.size()];
        if (!b.link.Transmit(1, {request.data(), request.size()}).ok()) {
          return false;
        }
      }
      if (!AwaitHandoff(*sink[0], i + 1, i)) {
        return false;
      }
      kern::SkbPtr skb;
      {
        ScopedSpan span(SpanKind::kGen, i);
        const std::vector<uint8_t>& reply = replies[i % replies.size()];
        skb = kern::MakeSkb({reply.data(), reply.size()});
      }
      {
        ScopedSpan span(SpanKind::kKernXmit, i);
        if (!b.kernel.net().Transmit(netdev, std::move(skb)).ok()) {
          return false;
        }
      }
      if (!AwaitHandoff(*peer, i + 1, i)) {
        return false;
      }
    }
    return true;
  }

  bool Phase(uint64_t ops, uint64_t phase) {
    switch (w.shape) {
      case Workload::Shape::kRx:
        return RxPhase(ops, phase);
      case Workload::Shape::kTx:
        return TxPhase(ops);
      case Workload::Shape::kRr:
        return RrPhase(ops);
    }
    return false;
  }

  // Waits until every staging buffer is back in the pool.
  bool DrainPool() {
    int64_t start = NowNs();
    while (bench->ctx->pool().outstanding() != 0) {
      if (w.threaded) {
        std::this_thread::yield();
      } else {
        bench->host->Pump();
      }
      if (NowNs() - start > kWaitTimeoutNs) {
        return false;
      }
    }
    return true;
  }
};

// Re-attached at link side 0 in place of the SUT NIC: logs each RX frame's
// arrival time and times SimNic::DeliverFrame (DMA through the IOMMU,
// descriptor writeback, MSI into safe_pci) as the devices.rx span.
class SutTap : public devices::EtherEndpoint {
 public:
  explicit SutTap(Runner::State* state) : state_(state) {}
  SutTap(const SutTap&) = delete;
  SutTap& operator=(const SutTap&) = delete;
  void set_inner(devices::EtherEndpoint* inner) { inner_ = inner; }

  void DeliverFrame(ConstByteSpan frame) override {
    int64_t now = NowNs();
    uint64_t request = 0;
    if (state_->w.shape == Workload::Shape::kRx) {  // RX latency starts here
      int q = state_->QueueOf(frame);
      if (q >= 0) {
        ArrivalLog& log = state_->arrivals[static_cast<size_t>(q)];
        request = log.count;
        if (log.count < log.times.size()) {
          log.times[log.count] = now;
        }
        ++log.count;
      }
    }
    ScopedSpan span(SpanKind::kDevicesRx, request, now);
    inner_->DeliverFrame(frame);
  }

 private:
  Runner::State* state_;
  devices::EtherEndpoint* inner_ = nullptr;
};

// Re-attached at link side 1 in place of the peer NIC: checks and timestamps
// every frame the SUT put on the wire, then delivers it to the peer NIC. The
// arrival is published only after the peer took the frame.
class PeerTap : public devices::EtherEndpoint {
 public:
  explicit PeerTap(Runner::State* state) : state_(state) {}
  PeerTap(const PeerTap&) = delete;
  PeerTap& operator=(const PeerTap&) = delete;
  void set_inner(devices::EtherEndpoint* inner) { inner_ = inner; }

  void DeliverFrame(ConstByteSpan frame) override {
    int64_t now = NowNs();
    if (state_->peer == nullptr) {
      inner_->DeliverFrame(frame);
      return;
    }
    uint64_t index = state_->peer->Observe(frame, now);
    {
      ScopedSpan span(SpanKind::kPeerRx, index, now);
      inner_->DeliverFrame(frame);
    }
    state_->peer->Publish(index);
  }

 private:
  Runner::State* state_;
  devices::EtherEndpoint* inner_ = nullptr;
};

Runner::Runner(const Workload& workload, uint64_t seed, Tracer* tracer)
    : state_(std::make_unique<State>(workload, seed)), tracer_(tracer) {}

Runner::~Runner() = default;

RoundResult Runner::RunRound(bool traced) {
  State& s = *state_;
  const Workload& w = s.w;
  RoundResult result;
  result.traced = traced;
  for (auto& stream : s.sink) {
    stream->Clear();
  }
  if (s.peer != nullptr) {
    s.peer->Clear();
  }
  for (ArrivalLog& log : s.arrivals) {
    log.count = 0;
  }
  s.waits_us.clear();
  s.gen_digest = 0;
  s.errors.clear();
  s.measuring = false;

  // The taps and the stray counter outlive the bench: the link and the pump
  // threads reach them until the bench is destroyed.
  SutTap sut_tap(&s);
  PeerTap peer_tap(&s);
  std::atomic<uint64_t> strays{0};
  int64_t setup_start = NowNs();
  NetBench::Options options;
  options.nic_queues = w.queues;
  auto bench = std::make_unique<NetBench>(options);
  s.cpus.PinDriverSide();
  sud::Status started = bench->StartSut(w.threaded ? uml::DriverHost::Mode::kThreadedPerQueue
                                                   : uml::DriverHost::Mode::kPumped);
  s.cpus.PinLoadSide();
  result.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  uint64_t expected_pkts = (w.warmup_ops + w.measured_ops) * w.pkts_per_op();
  result.attempted = expected_pkts;
  if (!started.ok()) {
    result.failed = expected_pkts;
    result.errors.push_back("SUT start failed: " + started.ToString());
    return result;
  }
  s.bench = bench.get();
  sut_tap.set_inner(&bench->sut_nic);
  peer_tap.set_inner(&bench->peer_nic);
  bench->link.Attach(0, &sut_tap);
  bench->link.Attach(1, &peer_tap);
  kern::NetDevice* netdev = bench->kernel.net().Find(bench->SutIfname());
  netdev->set_rx_sink([&s, &strays](const kern::Skb& skb) {
    ScopedSpan span(SpanKind::kSink, 0);
    int q = s.QueueOf(skb.span());
    if (q < 0) {
      strays.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Stream& stream = *s.sink[static_cast<size_t>(q)];
    stream.Publish(stream.Observe(skb.span(), NowNs()));
  });
  sud::testing::ConservationLedger ledger_base = sud::testing::CollectLedger(*bench);

  bool ok = s.Phase(w.warmup_ops, 0);
  Counters before = Snapshot(*bench);
  if (ok) {
    s.measuring = true;
    if (traced) {
      SetActiveTracer(tracer_);
    }
    int64_t loop_start = NowNs();
    {
      ScopedSpan span(SpanKind::kLoop, 1, loop_start);
      ok = s.Phase(w.measured_ops, 1);
    }
    result.loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;
    SetActiveTracer(nullptr);
    s.measuring = false;
  }
  Counters after = Snapshot(*bench);
  result.delta = after - before;
  if (!ok) {
    s.Fail("datapath stalled or refused frames");
  }
  if (!s.DrainPool()) {
    s.Fail("staging buffers still outstanding after the drain");
  }
  result.delta.pool_outstanding = bench->ctx->pool().outstanding();

  // Correctness: every generated frame arrived once, intact, in order, with
  // the generator's digest, no layer counted a drop, and the pool is empty.
  uint64_t delivered_intact = 0;
  uint64_t ops = w.warmup_ops + w.measured_ops;
  if (s.peer != nullptr) {
    Stream& peer = *s.peer;
    delivered_intact += std::min(peer.count(), ops) - std::min(peer.misordered(), peer.count());
    if (peer.count() != ops || peer.misordered() != 0 ||
        peer.digest() != peer.ExpectedDigest(ops)) {
      s.Fail("peer received " + std::to_string(peer.count()) + " of " + std::to_string(ops) +
             " frames, " + std::to_string(peer.misordered()) + " not as sent");
    }
  }
  uint64_t sink_total = 0;
  uint64_t sink_digest = 0;
  for (auto& stream : s.sink) {
    sink_total += stream->count();
    sink_digest += stream->digest();
    delivered_intact += stream->count() - std::min(stream->misordered(), stream->count());
  }
  bool rr = w.shape == Workload::Shape::kRr;
  uint64_t sink_expected = w.shape == Workload::Shape::kTx ? 0 : ops;
  uint64_t expected_sink_digest = rr ? s.sink[0]->ExpectedDigest(ops) : s.gen_digest;
  if (sink_total != sink_expected || sink_digest != expected_sink_digest ||
      strays.load() != 0) {
    s.Fail("stack received " + std::to_string(sink_total) + " of " +
           std::to_string(sink_expected) + " frames (digest " +
           (sink_digest == expected_sink_digest ? "equal" : "differs") + ", " +
           std::to_string(strays.load()) + " strays)");
  }
  sud::testing::ConservationLedger losses = sud::testing::CollectLedger(*bench) - ledger_base;
  uint64_t counted_drops =
      losses.RxCountedLosses() + losses.TxCountedLosses() + losses.tx_stack_dropped;
  if (counted_drops != 0 || result.delta.pool_outstanding != 0) {
    s.Fail(std::to_string(counted_drops) + " counted drops, " +
           std::to_string(result.delta.pool_outstanding) + " pool buffers outstanding");
  }
  result.failed = expected_pkts - std::min(delivered_intact, expected_pkts);
  if (!s.errors.empty() && result.failed == 0) {
    result.failed = std::max<uint64_t>(1, counted_drops);
  }
  result.errors = s.errors;

  // Measured-window latencies, matched by arrival order per queue, then put
  // in completion order and cut into chunks.
  result.pkts = w.measured_ops * w.pkts_per_op();
  if (s.errors.empty()) {
    std::vector<std::pair<int64_t, double>> done;  // (completion time, latency)
    auto match = [&](const std::vector<int64_t>& sent, const std::vector<int64_t>& arrived,
                     uint64_t begin, uint64_t end) {
      size_t first = result.latencies_us.size();
      if (!MatchArrivalOrder(sent, arrived, begin, end, &result.latencies_us)) {
        result.errors.push_back("latency matching failed");
        return;
      }
      for (uint64_t i = begin; i < end; ++i) {
        done.emplace_back(arrived[i], result.latencies_us[first + (i - begin)]);
      }
    };
    if (s.peer != nullptr) {
      match(s.sent_times, s.peer->times(), w.warmup_ops, ops);
    } else {
      for (uint32_t q = 0; q < w.queues; ++q) {
        uint64_t warm = w.warmup_ops / w.queues + (q < w.warmup_ops % w.queues ? 1 : 0);
        match(s.arrivals[q].times, s.sink[q]->times(), warm, s.sink[q]->count());
      }
    }
    std::sort(done.begin(), done.end());
    std::vector<int64_t> done_ns(done.size());
    std::vector<double> done_latency(done.size());
    for (size_t i = 0; i < done.size(); ++i) {
      done_ns[i] = done[i].first;
      done_latency[i] = done[i].second;
    }
    result.chunks = ChunkStats(done_ns, done_latency, w.chunk_ops, w.pkts_per_op());
  }
  result.handoff_waits_us = s.waits_us;
  s.bench = nullptr;
  bench.reset();
  return result;
}

}  // namespace perfbench
