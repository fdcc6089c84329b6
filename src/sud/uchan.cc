#include "src/sud/uchan.h"

#include <chrono>
#include <iterator>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/base/log.h"

namespace sud {

namespace {
// Bounded retry/backoff on a full kernel-to-user ring: a burst-filled ring
// is congestion, not a verdict on the driver, so the kernel gives it a short
// chance to drain before the drop becomes final. A genuinely hung driver
// still fails — just these few hundred microseconds later.
constexpr int kRingFullRetries = 2;
constexpr uint64_t kRingFullBackoffUs = 100;
// How long a driver thread that found its ring empty polls before parking on
// upcall_cv_. On a request/response loop the next upcall usually lands well
// inside it, and a parked thread costs a real scheduler wakeup (several
// microseconds) per handoff.
constexpr std::chrono::microseconds kIdlePollWindow{50};

// A poller on a single CPU only delays the producer it waits for.
bool PollBeforePark() {
  static const bool multi_cpu = std::thread::hardware_concurrency() > 1;
  return multi_cpu;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

const CpuCosts& Uchan::costs() const {
  static const CpuCosts kDefaults{};
  return cpu_ != nullptr ? cpu_->costs() : kDefaults;
}

Uchan::Uchan(Config config, CpuModel* cpu) : config_(config), cpu_(cpu) {
  if (config_.ring_entries == 0) {
    config_.ring_entries = 1;
  }
  ring_.resize(config_.ring_entries);
}

void Uchan::ChargeKernelLocked(SimTime nanos) {
  stats_.kernel_ns += nanos;
  if (cpu_ != nullptr) {
    cpu_->Charge(kAccountKernel, nanos);
  }
}

void Uchan::ChargeDriverLocked(SimTime nanos) {
  stats_.driver_ns += nanos;
  if (cpu_ != nullptr) {
    cpu_->Charge(kAccountDriver, nanos);
  }
}

void Uchan::set_downcall_handler(DowncallHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  downcall_handler_ = std::move(handler);
}

void Uchan::set_downcall_flush_handler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  downcall_flush_handler_ = std::move(handler);
}

void Uchan::set_user_pump(std::function<void()> pump) {
  std::lock_guard<std::mutex> lock(mu_);
  user_pump_ = std::move(pump);
}

// ---- sync-reply rendezvous ---------------------------------------------------

Uchan::PendingReply* Uchan::FindReplyLocked(uint64_t seq) {
  for (PendingReply& pending : replies_) {
    if (pending.seq == seq) {
      return &pending;
    }
  }
  return nullptr;
}

void Uchan::EraseReplyLocked(uint64_t seq) {
  std::erase_if(replies_, [seq](const PendingReply& pending) { return pending.seq == seq; });
}

// ---- upcall ring ------------------------------------------------------------

Status Uchan::EnqueueUpcallLocked(UchanMsg&& msg) {
  if (shutdown_) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  if (ring_count_ >= config_.ring_entries) {
    // Section 3.1.1: "if the device driver's queue is full, the kernel can
    // wait a short period of time to determine if the user-space driver is
    // making any progress at all" — the short wait is the bounded retry in
    // SendAsyncBatch; callers count the drop when they give up.
    return Status(ErrorCode::kQueueFull, "kernel-to-user ring full");
  }
  // Forced ring-full injection, restricted to loss-tolerant messages: the
  // existing backpressure machinery (counted drop, staged-buffer reclaim,
  // hung-driver grace policy) is exactly what must engage.
  if (msg.droppable && SUD_FAULT_POINT("uchan.up.ring_full")) {
    stats_.injected_ring_full++;
    return Status(ErrorCode::kQueueFull, "kernel-to-user ring full (injected)");
  }
  ChargeKernelLocked(costs().uchan_msg);
  if (driver_idle_) {
    // The driver is asleep in select: this enqueue costs one process wakeup
    // (the 4 us of Section 5.1); it is now runnable, so further enqueues
    // before its next sleep are free — which is also what makes the whole of
    // a SendAsyncBatch cost a single wakeup.
    ChargeKernelLocked(costs().process_wakeup);
    stats_.wakeups++;
    driver_idle_ = false;
  }
  ring_[(ring_head_ + ring_count_) % config_.ring_entries] = std::move(msg);
  ++ring_count_;
  ring_count_mirror_.store(ring_count_, std::memory_order_release);
  return Status::Ok();
}

UchanMsg Uchan::PopUpcallLocked() {
  if (ring_count_ >= config_.ring_entries) {
    // The ring just stopped being full: wake any sender in its bounded
    // ring-full backoff.
    space_cv_.notify_all();
  }
  UchanMsg msg = std::move(ring_[ring_head_]);
  ring_head_ = (ring_head_ + 1) % config_.ring_entries;
  --ring_count_;
  ring_count_mirror_.store(ring_count_, std::memory_order_release);
  ChargeDriverLocked(costs().uchan_msg);
  return msg;
}

Result<UchanMsg> Uchan::SendSync(UchanMsg msg) {
  std::unique_lock<std::mutex> lock(mu_);
  msg.seq = next_seq_++;
  msg.needs_reply = true;
  uint64_t seq = msg.seq;
  stats_.upcalls_sync++;
  Status enq = EnqueueUpcallLocked(std::move(msg));
  if (!enq.ok()) {
    if (enq.code() == ErrorCode::kQueueFull) {
      stats_.upcalls_dropped_full++;
    }
    return enq;
  }
  replies_.push_back(PendingReply{seq, false, {}});
  upcall_cv_.notify_all();

  auto ready = [this, seq] {
    PendingReply* pending = FindReplyLocked(seq);
    return pending != nullptr && pending->ready;
  };
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.sync_timeout_ms);
  while (!shutdown_ && !ready()) {
    if (user_pump_) {
      // Single-threaded harness: run the driver inline instead of blocking.
      auto pump = user_pump_;
      lock.unlock();
      pump();
      lock.lock();
      if (ready() || shutdown_) {
        break;
      }
      // Driver ran but did not reply: a hung or malicious driver. The upcall
      // is interruptable — give up.
      stats_.upcalls_timed_out++;
      EraseReplyLocked(seq);
      return Status(ErrorCode::kTimedOut, "synchronous upcall interrupted (driver unresponsive)");
    }
    if (reply_cv_.wait_until(lock, deadline) == std::cv_status::timeout && !ready()) {
      stats_.upcalls_timed_out++;
      // Withdraw the rendezvous so a late Reply is dropped instead of parking
      // an orphaned entry forever.
      EraseReplyLocked(seq);
      return Status(ErrorCode::kTimedOut, "synchronous upcall timed out");
    }
  }
  if (!ready()) {
    EraseReplyLocked(seq);
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  UchanMsg reply = std::move(FindReplyLocked(seq)->msg);
  EraseReplyLocked(seq);
  ChargeKernelLocked(costs().uchan_msg);
  return reply;
}

// Gives a kQueueFull enqueue its bounded second chance: runs the pump (the
// driver's inline dispatch, single-threaded harnesses) or waits briefly for
// the driver threads to pop something. Returns the final enqueue status;
// `msg` is untouched on failure (EnqueueUpcallLocked moves only on success).
Status Uchan::RetryEnqueueLocked(UchanMsg& msg, Status status,
                                 std::unique_lock<std::mutex>& lock) {
  for (int attempt = 0;
       !status.ok() && status.code() == ErrorCode::kQueueFull && attempt < kRingFullRetries &&
       !shutdown_;
       ++attempt) {
    stats_.ring_full_retries++;
    if (user_pump_) {
      auto pump = user_pump_;
      lock.unlock();
      pump();
      lock.lock();
    } else {
      space_cv_.wait_for(lock, std::chrono::microseconds(kRingFullBackoffUs));
    }
    status = EnqueueUpcallLocked(std::move(msg));
  }
  return status;
}

Status Uchan::SendAsync(UchanMsg msg) {
  Result<size_t> sent = SendAsyncBatch(std::span<UchanMsg>(&msg, 1));
  if (!sent.ok()) {
    return sent.status();
  }
  return sent.value() == 1 ? Status::Ok()
                           : Status(ErrorCode::kQueueFull, "kernel-to-user ring full");
}

Result<size_t> Uchan::SendAsyncBatch(std::span<UchanMsg> msgs) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  stats_.upcall_batches++;
  stats_.upcalls_async += msgs.size();
  size_t enqueued = 0;
  Status status = Status::Ok();
  for (; enqueued < msgs.size(); ++enqueued) {
    UchanMsg& msg = msgs[enqueued];
    msg.seq = next_seq_++;
    msg.needs_reply = false;
    status = EnqueueUpcallLocked(std::move(msg));
    if (status.code() == ErrorCode::kQueueFull) {
      if (enqueued > 0) {
        // Wake the driver on what is already queued before backing off.
        upcall_cv_.notify_all();
      }
      status = RetryEnqueueLocked(msg, status, lock);
    }
    if (!status.ok()) {
      break;
    }
  }
  if (status.code() == ErrorCode::kQueueFull) {
    // Ring stayed full through the bounded retry: this message and the rest
    // of the batch are dropped (counted; they stay intact for the caller).
    stats_.upcalls_dropped_full += msgs.size() - enqueued;
  }
  if (enqueued > 0) {
    upcall_cv_.notify_all();
  }
  return enqueued;
}

Status Uchan::WaitForUpcallLocked(uint64_t timeout_ms, std::unique_lock<std::mutex>& lock) {
  if (shutdown_) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  if (ring_count_ == 0) {
    // Ring empty: the driver sleeps in select on the uchan fd. Entering and
    // leaving the kernel for select costs a syscall.
    driver_idle_ = true;
    ChargeDriverLocked(costs().syscall);
    if (timeout_ms == 0) {
      return Status(ErrorCode::kTimedOut, "no pending upcalls");
    }
    auto now = std::chrono::steady_clock::now();
    auto deadline = now + std::chrono::milliseconds(timeout_ms);
    if (PollBeforePark()) {
      // The driver is already idle for the model: an upcall published while
      // this thread polls charges its process wakeup exactly as if it had
      // parked. Only the host thread skips the scheduler round trip.
      lock.unlock();
      auto poll_until = now + kIdlePollWindow;
      while (ring_count_mirror_.load(std::memory_order_acquire) == 0 &&
             !shutdown_mirror_.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < poll_until) {
        CpuRelax();
      }
      lock.lock();
    }
    while (ring_count_ == 0 && !shutdown_) {
      if (upcall_cv_.wait_until(lock, deadline) == std::cv_status::timeout && ring_count_ == 0) {
        return Status(ErrorCode::kTimedOut, "no pending upcalls");
      }
    }
    if (shutdown_) {
      return Status(ErrorCode::kUnavailable, "uchan shut down");
    }
  }
  driver_idle_ = false;
  return Status::Ok();
}

Result<std::vector<UchanMsg>> Uchan::WaitBatch(uint64_t timeout_ms, size_t max_msgs) {
  FlushDowncalls();
  std::unique_lock<std::mutex> lock(mu_);
  SUD_RETURN_IF_ERROR(WaitForUpcallLocked(timeout_ms, lock));
  std::vector<UchanMsg> batch;
  batch.reserve(std::min(max_msgs, ring_count_));
  while (ring_count_ > 0 && batch.size() < max_msgs) {
    batch.push_back(PopUpcallLocked());
  }
  return batch;
}

void Uchan::Reply(const UchanMsg& request, UchanMsg reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!request.needs_reply || shutdown_) {
    return;
  }
  PendingReply* pending = FindReplyLocked(request.seq);
  if (pending == nullptr || pending->ready) {
    // The sender timed out and withdrew: drop the late reply.
    return;
  }
  reply.seq = request.seq;
  reply.needs_reply = false;
  ChargeDriverLocked(costs().uchan_msg);
  pending->msg = std::move(reply);
  pending->ready = true;
  reply_cv_.notify_all();
}

void Uchan::RunDowncallLocked(UchanMsg& msg, std::unique_lock<std::mutex>& lock) {
  DowncallHandler handler = downcall_handler_;
  lock.unlock();
  if (handler) {
    handler(msg);
  } else {
    msg.error = static_cast<int32_t>(ErrorCode::kUnavailable);
  }
  lock.lock();
}

Status Uchan::DowncallSync(UchanMsg& msg) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  stats_.downcalls_sync++;
  msg.seq = next_seq_++;
  // A synchronous downcall always enters the kernel, flushing any batch
  // first (batched messages must stay ordered ahead of this one). The batch
  // faces the same drop/dup/delay faults as one on its own entry: a netif_rx
  // batch piggybacking on an interrupt-ack's kernel entry is the common
  // pumped-mode path. An injected delay may park part of the batch for the
  // next entry; the sync message itself still runs now (it is never
  // droppable, and a control call overtaking stalled data traffic is exactly
  // the fault being modeled).
  EnterKernelLocked(&msg, lock);
  return msg.error == 0 ? Status::Ok()
                        : Status(static_cast<ErrorCode>(msg.error), "downcall failed");
}

Status Uchan::DowncallAsync(UchanMsg msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status(ErrorCode::kUnavailable, "uchan shut down");
    }
    stats_.downcalls_async++;
    // Seq at enqueue time, under the lock: per-shard monotonic across every
    // downcall, which is what lets the proxy reject an injected duplicate
    // (same seq twice) without a message-id table.
    msg.seq = next_seq_++;
    if (config_.batch_async_downcalls) {
      downcall_batch_.push_back(std::move(msg));
      return Status::Ok();
    }
    downcall_batch_.push_back(std::move(msg));
  }
  // Unbatched configuration: every async downcall enters the kernel at once.
  FlushDowncalls();
  return Status::Ok();
}

Status Uchan::DowncallAsyncBatch(std::vector<UchanMsg> msgs) {
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status(ErrorCode::kUnavailable, "uchan shut down");
    }
    stats_.downcalls_async += msgs.size();
    for (UchanMsg& msg : msgs) {
      msg.seq = next_seq_++;
    }
    if (downcall_batch_.empty()) {
      downcall_batch_ = std::move(msgs);
    } else {
      for (UchanMsg& msg : msgs) {
        downcall_batch_.push_back(std::move(msg));
      }
    }
    flush_now = !config_.batch_async_downcalls;
  }
  if (flush_now) {
    FlushDowncalls();
  }
  return Status::Ok();
}

// The one kernel entry every downcall rides, whether the batch flushes on
// its own (FlushDowncalls) or ahead of a synchronous downcall (DowncallSync).
// Keeping injection here is what makes drop/dup/delay coverage independent
// of WHICH kernel entry happened to carry a message.
void Uchan::EnterKernelLocked(UchanMsg* sync, std::unique_lock<std::mutex>& lock) {
  std::vector<UchanMsg> batch;
  batch.swap(downcall_batch_);
  // One kernel entry for the whole batch: the batching win of Section 3.1.2.
  ChargeDriverLocked(costs().syscall);
  stats_.downcall_batches++;
  const bool inject = FaultInjector::armed();
  for (size_t i = 0; i < batch.size(); ++i) {
    UchanMsg& msg = batch[i];
    if (inject && msg.droppable) {
      if (SUD_FAULT_POINT("uchan.down.delay")) {
        // Bounded delay: the tail of this flush rides the NEXT flush instead,
        // spliced at the front so relative order is preserved. A stall the
        // receiver must tolerate, never a loss or a reorder.
        stats_.injected_delays++;
        downcall_batch_.insert(downcall_batch_.begin(),
                               std::make_move_iterator(batch.begin() + static_cast<long>(i)),
                               std::make_move_iterator(batch.end()));
        break;
      }
      if (SUD_FAULT_POINT("uchan.down.drop")) {
        // Swallowed in flight; counted so the conservation audit can close.
        stats_.injected_drops++;
        continue;
      }
      if (SUD_FAULT_POINT("uchan.down.dup")) {
        // Deliver a copy first, then the original: the receiver sees the same
        // seq twice and must reject the second by its monotonic-seq check.
        stats_.injected_dups++;
        UchanMsg copy = msg;
        ChargeKernelLocked(costs().uchan_msg);
        RunDowncallLocked(copy, lock);
      }
    }
    ChargeKernelLocked(costs().uchan_msg);
    RunDowncallLocked(msg, lock);
  }
  if (sync != nullptr) {
    ChargeKernelLocked(costs().uchan_msg);
    RunDowncallLocked(*sync, lock);
  }
  auto flush_handler = downcall_flush_handler_;
  lock.unlock();
  if (flush_handler) {
    flush_handler();  // end of this kernel entry: deliver any queued rx bundle
  }
}

void Uchan::FlushDowncalls() {
  std::unique_lock<std::mutex> lock(mu_);
  if (downcall_batch_.empty() || shutdown_) {
    return;
  }
  EnterKernelLocked(nullptr, lock);
}

void Uchan::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  shutdown_mirror_.store(true, std::memory_order_release);
  ring_head_ = 0;
  ring_count_ = 0;
  ring_count_mirror_.store(0, std::memory_order_release);
  for (UchanMsg& msg : ring_) {
    msg = UchanMsg{};
  }
  downcall_batch_.clear();
  upcall_cv_.notify_all();
  reply_cv_.notify_all();
  space_cv_.notify_all();  // senders parked in the ring-full backoff
}

bool Uchan::is_shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

Uchan::Stats Uchan::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t Uchan::pending_upcalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_count_;
}

}  // namespace sud
