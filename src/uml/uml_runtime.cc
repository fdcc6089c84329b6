#include "src/uml/uml_runtime.h"


#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/kern/net_limits.h"

namespace sud::uml {

namespace {
// The queue whose pump loop this thread is currently inside (0 outside any
// pump, e.g. during probe). Control downcalls flush ONLY this queue's rx
// array: flushing every queue would touch other pump threads' slots, and
// cross-shard ordering is deliberately undefined anyway.
thread_local uint16_t t_current_pump_queue = 0;

// netif_rx downcalls a queue accumulates before its array enters the kernel.
constexpr uint32_t kRxBatchDepth = 64;

// What the runtime answers for an op the driver never registered.
Status NoOp() { return Status(ErrorCode::kUnavailable, "driver registered no such op"); }

// Per-queue pump-stall site names, built once: the hot path hands the fault
// engine a stable string_view, never a fresh allocation.
std::string_view PumpStallSite(uint16_t queue) {
  static const std::array<std::string, kSudMaxQueues> kNames = [] {
    std::array<std::string, kSudMaxQueues> names;
    for (size_t q = 0; q < names.size(); ++q) {
      names[q] = "uml.pump.stall.q" + std::to_string(q);
    }
    return names;
  }();
  return kNames[queue < kSudMaxQueues ? queue : 0];
}
}  // namespace

UmlRuntime::UmlRuntime(kern::Kernel* kernel, SudDeviceContext* ctx, kern::Process* proc)
    : kernel_(kernel), ctx_(ctx), proc_(proc) {}

uint64_t UmlRuntime::Jiffies() {
  // jiffies at HZ=1000: one per simulated millisecond.
  return kernel_->machine().clock().now() / kMillisecond;
}

Result<uint32_t> UmlRuntime::PciConfigRead(uint16_t offset, int width) {
  return ctx_->ConfigRead(offset, width);
}

Status UmlRuntime::PciConfigWrite(uint16_t offset, int width, uint32_t value) {
  return ctx_->ConfigWrite(offset, width, value);
}

Status UmlRuntime::PciEnableDevice() {
  Result<uint32_t> command = ctx_->ConfigRead(hw::kPciCommand, 2);
  if (!command.ok()) {
    return command.status();
  }
  return ctx_->ConfigWrite(hw::kPciCommand, 2,
                           command.value() | hw::kPciCommandIoEnable | hw::kPciCommandMemEnable);
}

Status UmlRuntime::PciSetMaster() {
  Result<uint32_t> command = ctx_->ConfigRead(hw::kPciCommand, 2);
  if (!command.ok()) {
    return command.status();
  }
  return ctx_->ConfigWrite(hw::kPciCommand, 2, command.value() | hw::kPciCommandBusMaster);
}

Result<uint32_t> UmlRuntime::MmioRead32(int bar, uint64_t offset) {
  return ctx_->MmioRead(bar, offset);
}

Status UmlRuntime::MmioWrite32(int bar, uint64_t offset, uint32_t value) {
  return ctx_->MmioWrite(bar, offset, value);
}

Result<uint8_t> UmlRuntime::IoRead8(uint16_t port) { return ctx_->IoPortRead(port); }

Status UmlRuntime::IoWrite8(uint16_t port, uint8_t value) { return ctx_->IoPortWrite(port, value); }

Status UmlRuntime::RequestIoRegion() {
  // Figure 7: "request_region — add IO-space ports to the driver's IO
  // permission bitmask" — a downcall, not a direct call.
  UchanMsg msg;
  return SyncDowncall(kOpRequestRegion, &msg);
}

Result<uint16_t> UmlRuntime::IoBarBase() {
  for (size_t b = 0; b < ctx_->device()->bars().size(); ++b) {
    if (ctx_->device()->bars()[b].is_io) {
      Result<uint32_t> bar = ctx_->ConfigRead(hw::kPciBar0 + 4 * static_cast<uint16_t>(b), 4);
      if (!bar.ok()) {
        return bar.status();
      }
      return static_cast<uint16_t>(bar.value() & ~0xfu);
    }
  }
  return Status(ErrorCode::kNotFound, "device has no io bar");
}

Result<DmaRegion> UmlRuntime::DmaAllocCoherent(uint64_t bytes) {
  SUD_RETURN_IF_ERROR(proc_->ChargeMemory(hw::PageAlignUp(bytes)));
  Result<DmaRegion> region = ctx_->dma().Alloc(bytes, /*coherent=*/true);
  if (!region.ok()) {
    proc_->UncchargeMemory(hw::PageAlignUp(bytes));
  }
  return region;
}

Result<DmaRegion> UmlRuntime::DmaAllocCaching(uint64_t bytes) {
  SUD_RETURN_IF_ERROR(proc_->ChargeMemory(hw::PageAlignUp(bytes)));
  Result<DmaRegion> region = ctx_->dma().Alloc(bytes, /*coherent=*/false);
  if (!region.ok()) {
    proc_->UncchargeMemory(hw::PageAlignUp(bytes));
  }
  return region;
}

Result<ByteSpan> UmlRuntime::DmaView(uint64_t iova, uint64_t len) {
  // Injected transient mapping failure: drivers must treat a dead window the
  // way they treat any DMA error — skip/retry the descriptor, never crash and
  // never deliver a frame they could not read.
  if (SUD_FAULT_POINT("uml.dmaview.fail")) {
    return Status(ErrorCode::kUnavailable, "dma window unavailable (injected)");
  }
  return ctx_->dma().HostView(iova, len);
}

Status UmlRuntime::RequestQueueIrqs(uint16_t num_queues, std::function<void(uint16_t)> handler) {
  if (num_queues > ctx_->num_queues()) {
    return Status(ErrorCode::kInvalidArgument,
                  "driver wants more irq vectors than the exported device has");
  }
  std::lock_guard<std::mutex> lock(irq_mu_);
  irq_handler_ = std::make_shared<const std::function<void(uint16_t)>>(std::move(handler));
  return Status::Ok();
}

Status UmlRuntime::FreeIrq() {
  std::lock_guard<std::mutex> lock(irq_mu_);
  irq_handler_.reset();  // a call already running holds its own reference
  return Status::Ok();
}

void UmlRuntime::RunIrqHandler(uint16_t queue) {
  std::unique_lock<std::mutex> lock(irq_mu_);
  std::shared_ptr<const std::function<void(uint16_t)>> handler = irq_handler_;
  lock.unlock();
  if (handler != nullptr) {
    (*handler)(queue);
  }
}

Status UmlRuntime::InterruptAckQueue(uint16_t queue) {
  // The queue's pending rx array must be ordered ahead of this synchronous
  // entry on the same shard.
  FlushRxPendingQueue(queue, /*enter_kernel=*/false);
  UchanMsg msg;
  msg.opcode = kOpInterruptAck;
  msg.args[0] = queue;
  return ctx_->ctl(queue).DowncallSync(msg);
}

Status UmlRuntime::SyncDowncall(uint32_t opcode, UchanMsg* msg) {
  // Control rides shard 0. The calling thread's own pending rx array is
  // flushed first so this downcall never overtakes packet downcalls the same
  // execution batched earlier (per-shard order; other queues' arrays belong
  // to other pump threads and are unordered relative to shard 0 by design).
  FlushRxPendingQueue(t_current_pump_queue, /*enter_kernel=*/false);
  msg->opcode = opcode;
  return ctx_->ctl().DowncallSync(*msg);
}

Status UmlRuntime::AsyncDowncall(UchanMsg msg) {
  // Later downcalls may not overtake netif_rx messages this thread queued.
  FlushRxPendingQueue(t_current_pump_queue, /*enter_kernel=*/false);
  return ctx_->ctl().DowncallAsync(std::move(msg));
}

void UmlRuntime::FlushRxPendingQueue(uint16_t queue, bool enter_kernel) {
  if (!rx_pending_[queue].empty() &&
      ctx_->ctl(queue).DowncallAsyncBatch(&rx_pending_[queue]).ok()) {
    rx_pending_bytes_[queue] = 0;
    stats_.rx_batches_flushed.Add(queue);
  }
  if (enter_kernel) {
    ctx_->ctl(queue).FlushDowncalls();
  }
}

Status UmlRuntime::RegisterNetdev(const uint8_t mac[6], NetDriverOps ops) {
  UchanMsg msg;
  msg.inline_data.assign(mac, mac + 6);
  msg.args[0] = ops.num_queues == 0 ? 1 : ops.num_queues;
  msg.args[1] = ops.mtu;
  msg.args[2] = ops.sg ? kEthFeatureSg : 0;
  SUD_RETURN_IF_ERROR(SyncDowncall(kEthDownRegisterNetdev, &msg));
  net_ops_ = std::move(ops);
  return Status::Ok();
}

Status UmlRuntime::QueueRxDowncall(UchanMsg msg, uint16_t queue, uint64_t frame_bytes) {
  if (ctx_->ctl(queue).is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  // NAPI accumulation: the message joins the queue's local rx array; the
  // whole array crosses into the kernel on the queue's shard once
  // kRxBatchDepth packets — or a standard-frame-equivalent byte budget, for
  // jumbo chains — are pending (or at the next flush point — WaitBatch, a
  // sync downcall — whichever comes first).
  rx_pending_[queue].push_back(std::move(msg));
  rx_pending_bytes_[queue] += frame_bytes;
  if (rx_pending_[queue].size() >= kRxBatchDepth ||
      rx_pending_bytes_[queue] >= kRxBatchDepth * kern::kStdMaxFrameBytes) {
    FlushRxPendingQueue(queue, /*enter_kernel=*/true);
  }
  return Status::Ok();
}

Status UmlRuntime::NetifRx(std::span<const DmaFrag> frags, uint16_t queue) {
  if (frags.empty()) {
    return Status(ErrorCode::kInvalidArgument, "empty fragment list");
  }
  if (queue >= ctx_->num_queues()) {
    queue = 0;
  }
  uint64_t frame_bytes = 0;
  for (const DmaFrag& frag : frags) {
    frame_bytes += frag.len;
  }
  UchanMsg msg;
  wire::EncodeNetifRx(frags, &msg);
  return QueueRxDowncall(std::move(msg), queue, frame_bytes);
}

void UmlRuntime::NetifCarrierOn() {
  UchanMsg msg;
  msg.opcode = kEthDownSetCarrier;
  msg.args[0] = 1;
  (void)AsyncDowncall(std::move(msg));
}

void UmlRuntime::NetifCarrierOff() {
  UchanMsg msg;
  msg.opcode = kEthDownSetCarrier;
  msg.args[0] = 0;
  (void)AsyncDowncall(std::move(msg));
}

void UmlRuntime::FreeTxBuffers(uint16_t queue, std::span<const int32_t> pool_buffer_ids) {
  if (pool_buffer_ids.empty()) {
    return;
  }
  if (queue >= ctx_->num_queues()) {
    queue = 0;
  }
  // TX completion coalescing: one message carries the whole reap pass (a
  // single completion is simply a batch of one) instead of one
  // kEthDownFreeBuffer per transmitted buffer.
  FlushRxPendingQueue(queue, /*enter_kernel=*/false);
  UchanMsg msg;
  msg.inline_data = ctx_->ctl(queue).TakePayload();
  wire::EncodeFreeBuffers(pool_buffer_ids.data(), pool_buffer_ids.size(), &msg);
  (void)ctx_->ctl(queue).DowncallAsync(std::move(msg));
}

Status UmlRuntime::RegisterWifi(uint32_t supported_features, WifiDriverOps ops) {
  UchanMsg msg;
  msg.args[0] = supported_features;
  SUD_RETURN_IF_ERROR(SyncDowncall(kWifiDownRegister, &msg));
  wifi_ops_ = std::move(ops);
  return Status::Ok();
}

void UmlRuntime::WifiBssChange(bool associated) {
  UchanMsg msg;
  msg.opcode = kWifiDownBssChange;
  msg.args[0] = associated ? 1 : 0;
  (void)AsyncDowncall(std::move(msg));
}

void UmlRuntime::WifiSetBitrates(const std::vector<uint32_t>& rates) {
  UchanMsg msg;
  wire::EncodeBitrates(rates, &msg);
  (void)AsyncDowncall(std::move(msg));
}

Status UmlRuntime::RegisterAudio(AudioDriverOps ops) {
  UchanMsg msg;
  SUD_RETURN_IF_ERROR(SyncDowncall(kAudioDownRegister, &msg));
  audio_ops_ = std::move(ops);
  return Status::Ok();
}

void UmlRuntime::AudioPeriodElapsed() {
  UchanMsg msg;
  msg.opcode = kAudioDownPeriodElapsed;
  (void)AsyncDowncall(std::move(msg));
}

void UmlRuntime::SubmitKeyEvent(uint8_t usage_code) {
  UchanMsg msg;
  msg.opcode = kUsbDownKeyEvent;
  msg.args[0] = usage_code;
  (void)AsyncDowncall(std::move(msg));
}

Status UmlRuntime::RunOnceQueue(uint16_t queue, uint64_t timeout_ms) {
  t_current_pump_queue = queue;
  // Injected pump stall: this pass services NOTHING — no flush, no WaitBatch,
  // no dispatch, no progress bump. A Burst schedule here freezes the queue's
  // heartbeat while upcalls pile up, which is exactly the signature the
  // supervisor's watchdog must catch.
  if (SUD_FAULT_POINT(PumpStallSite(queue))) {
    stats_.injected_pump_stalls.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status(ErrorCode::kTimedOut, "pump stalled (injected)");
  }
  FlushRxPendingQueue(queue, /*enter_kernel=*/false);
  constexpr size_t kDispatchBurst = 64;
  std::vector<UchanMsg> batch = std::move(upcall_batch_[queue]);  // a nested pass gets another
  Status status = ctx_->ctl(queue).WaitBatch(timeout_ms, kDispatchBurst, &batch);
  if (!status.ok()) {
    // Flush any downcalls the handlers batched before going idle.
    FlushRxPendingQueue(queue, /*enter_kernel=*/true);
  }
  for (UchanMsg& msg : batch) {
    Dispatch(msg, queue);
  }
  queue_progress_.Add(queue, batch.size());
  upcall_batch_[queue] = std::move(batch);
  return status;
}

size_t UmlRuntime::ProcessPendingQueue(uint16_t queue) {
  // One WaitBatch crossing dequeues a whole burst of upcalls; interrupt
  // handlers then refill the rx array, which the next iteration's WaitBatch
  // (or the final flush) carries into the kernel.
  size_t rounds = 0;
  while (RunOnceQueue(queue, 0).ok()) {
    ++rounds;
  }
  return rounds;
}

void UmlRuntime::ProcessPending() {
  if (ctx_->num_queues() == 1) {
    (void)ProcessPendingQueue(0);
    return;
  }
  // Drain every shard; keep sweeping while any shard had work, because
  // handling one queue's upcalls can enqueue messages on another (e.g. a
  // control reply triggering a transmit).
  bool any;
  do {
    any = false;
    for (uint16_t q = 0; q < ctx_->num_queues(); ++q) {
      if (ProcessPendingQueue(q) > 0) {
        any = true;
      }
    }
  } while (any);
}

void UmlRuntime::RejectUpcall(UchanMsg& msg, wire::Malform verdict) {
  wire_rejects_.Count(wire::Dir::kUp, msg.opcode);
  if (verdict == wire::Malform::kUnknownOpcode) {
    stats_.unknown_upcalls.fetch_add(1, std::memory_order_relaxed);
    SUD_LOG(kWarning) << "sud-uml: unknown upcall opcode " << msg.opcode;
  } else if (msg.opcode == kEthUpXmit) {
    stats_.xmit_rejected.fetch_add(1, std::memory_order_relaxed);
    SUD_LOG_RL(kWarning) << "sud-uml: malformed xmit upcall rejected before arming ("
                         << wire::MalformName(verdict) << ")";
  } else {
    SUD_LOG_RL(kWarning) << "sud-uml: malformed upcall " << msg.opcode << " rejected ("
                         << wire::MalformName(verdict) << ")";
  }
  Answer(msg, Status(ErrorCode::kInvalidArgument));
}

void UmlRuntime::Answer(const UchanMsg& request, const Status& status,
                        std::vector<uint8_t> payload) {
  UchanMsg reply;
  reply.error = static_cast<int32_t>(status.code());
  reply.inline_data = std::move(payload);
  ctx_->ctl().Reply(request, std::move(reply));  // dropped when nobody waits
}

void UmlRuntime::Dispatch(UchanMsg& msg, uint16_t shard) {
  stats_.upcalls_dispatched.Add(shard);
  // Schema-certify the shape (opcode known, lane right for the shard, args in
  // their static bounds, payload well-formed) before any handler parses a
  // byte. Semantic checks — which pool ids resolve, what the pool's buffer
  // size is — stay below, with their historical counters.
  wire::Malform verdict = wire::ValidateStructure(wire::Dir::kUp, msg, shard);
  if (verdict != wire::Malform::kNone) {
    RejectUpcall(msg, verdict);
    return;
  }
  switch (msg.opcode) {  // every upcall the schema knows has a case
    case kOpInterrupt: {
      stats_.irq_upcalls.Add(shard);
      // Interrupt handlers may block in Linux driver conventions only when
      // threaded; the UML idle thread therefore hands them to a worker
      // (Section 4.2). The pool is modelled: dispatch stays inline but is
      // accounted as a worker dispatch.
      stats_.worker_dispatches.Add(shard);
      uint16_t queue = static_cast<uint16_t>(msg.args[0]);
      if (queue >= ctx_->num_queues()) {
        queue = 0;
      }
      RunIrqHandler(queue);
      // Re-enable the interrupt (on the queue's own shard, behind the rx
      // array the poll produced), then poll once more: an event that fired
      // while our interrupt was masked-and-coalesced left no pending MSI, so
      // the classic NAPI poll/ack race is closed by re-polling after the ack.
      // Without it, the legacy ICR stays asserted so every later cause is
      // edge-suppressed, and the driver sleeps forever on a ring full of done
      // descriptors (the threaded traffic-generator peers widened this window
      // enough for TSAN runs to hit it every time). An empty re-poll touches
      // no modeled state (descriptor peeks are host-side), so the charge
      // stream is unchanged. The ack goes out even with no handler registered
      // (the restart window between Bind and the fresh driver's RequestIrq):
      // an upcall for queue q must still clear q's in-flight flag, or every
      // later MSI on q coalesces into a mask that no ack will ever lift.
      (void)InterruptAckQueue(queue);
      RunIrqHandler(queue);
      return;
    }
    case kEthUpOpen:
      stats_.inline_dispatches.Add(shard);
      Answer(msg, net_ops_.open ? net_ops_.open() : NoOp());
      return;
    case kEthUpStop:
      stats_.inline_dispatches.Add(shard);
      Answer(msg, net_ops_.stop ? net_ops_.stop() : NoOp());
      return;
    case kEthUpXmit: {
      stats_.inline_dispatches.Add(shard);
      // The schema already certified the shape (tail count vs payload vs the
      // chain cap, no empty fragment, the jumbo total). The fragments are
      // still kernel-crossing data: re-validate the SEMANTIC facts — every
      // pool id resolvable, every length within one staging buffer — BEFORE
      // any descriptor is armed. A correct proxy never fails these; a forged
      // or corrupted message must never reach the DMA path.
      size_t count = wire::XmitFragCount(msg);
      std::array<TxFrag, kern::kMaxChainFrags>& frags = xmit_frags_[shard];
      for (size_t i = 0; i < count; ++i) {
        wire::XmitFrag frag = wire::XmitFragAt(msg, i);
        Result<uint64_t> iova = ctx_->pool().BufferIova(frag.pool_id);
        if (!iova.ok() || frag.len > ctx_->pool().buffer_bytes()) {
          stats_.xmit_rejected.fetch_add(1, std::memory_order_relaxed);
          SUD_LOG_RL(kWarning) << "sud-uml: xmit upcall with a bad fragment rejected before arming";
          return;
        }
        frags[i] = TxFrag{iova.value(), frag.len, frag.pool_id};
      }
      uint16_t queue = static_cast<uint16_t>(msg.args[0]);
      Status xmit = Status(ErrorCode::kUnavailable, "no xmit op");
      // A driver without NETIF_F_SG never sees more than one fragment.
      if (net_ops_.xmit && (count == 1 || net_ops_.sg)) {
        xmit = net_ops_.xmit(std::span<const TxFrag>(frags.data(), count), queue);
      }
      if (!xmit.ok()) {
        stats_.xmit_refused.fetch_add(1, std::memory_order_relaxed);
        // Refused (ring full, interface down, no op): the driver armed
        // nothing, so nothing will ever reap these buffers — return the whole
        // frame now or the pool drains one refusal at a time.
        std::array<int32_t, kern::kMaxChainFrags> ids;
        for (size_t i = 0; i < count; ++i) {
          ids[i] = frags[i].pool_buffer_id;
        }
        FreeTxBuffers(queue, std::span<const int32_t>(ids.data(), count));
      }
      return;
    }
    case kEthUpIoctl: {
      // Ioctls may block (MII reads sleep on real hardware): worker rule.
      stats_.worker_dispatches.Add(shard);
      Result<std::string> text =
          net_ops_.ioctl ? net_ops_.ioctl(static_cast<uint32_t>(msg.args[0])) : NoOp();
      std::vector<uint8_t> payload;
      if (text.ok()) {
        payload.assign(text.value().begin(), text.value().end());
      }
      Answer(msg, text.status(), std::move(payload));
      return;
    }
    case kWifiUpScan: {
      stats_.worker_dispatches.Add(shard);
      Result<std::vector<kern::ScanResult>> results = wifi_ops_.scan ? wifi_ops_.scan() : NoOp();
      std::vector<uint8_t> records;
      if (results.ok()) {
        wire::EncodeScanResults(results.value(), &records);
      }
      Answer(msg, results.status(), std::move(records));
      return;
    }
    case kWifiUpAssociate: {
      stats_.worker_dispatches.Add(shard);
      std::string ssid(msg.inline_data.begin(), msg.inline_data.end());
      Answer(msg, wifi_ops_.associate ? wifi_ops_.associate(ssid) : NoOp());
      return;
    }
    case kWifiUpEnableFeatures:
      stats_.inline_dispatches.Add(shard);
      if (wifi_ops_.enable_features) {
        wifi_ops_.enable_features(static_cast<uint32_t>(msg.args[0]));
      }
      return;
    case kAudioUpOpenStream: {
      stats_.worker_dispatches.Add(shard);
      kern::PcmConfig config;
      config.rate_hz = static_cast<uint32_t>(msg.args[0]);
      config.channels = static_cast<uint32_t>(msg.args[1]);
      config.sample_bytes = static_cast<uint32_t>(msg.args[2]);
      config.period_bytes = static_cast<uint32_t>(msg.args[3]);
      config.buffer_bytes = static_cast<uint32_t>(msg.args[4]);
      Answer(msg, audio_ops_.open_stream ? audio_ops_.open_stream(config) : NoOp());
      return;
    }
    case kAudioUpCloseStream:
      stats_.inline_dispatches.Add(shard);
      Answer(msg, audio_ops_.close_stream ? audio_ops_.close_stream() : NoOp());
      return;
    case kAudioUpWrite: {
      stats_.inline_dispatches.Add(shard);
      if (audio_ops_.write) {
        Result<uint64_t> iova = ctx_->pool().BufferIova(msg.buffer_id);
        if (iova.ok()) {
          (void)audio_ops_.write(iova.value(), msg.buffer_len, msg.buffer_id);
        }
      }
      return;
    }
  }
}

}  // namespace sud::uml
