#include "src/sud/uchan.h"

#include <chrono>
#include <iterator>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/sud/proto.h"

namespace sud {

namespace {
// Bounded retry/backoff on a full kernel-to-user ring: a burst-filled ring
// is congestion, not a verdict on the driver, so the kernel gives it a short
// chance to drain before the drop becomes final. A genuinely hung driver
// still fails — just these few hundred microseconds later.
constexpr int kRingFullRetries = 2;
constexpr std::chrono::microseconds kRingFullBackoff{100};
// How long a driver thread that found its ring empty polls before parking:
// on a request/response loop the next upcall usually lands well inside it,
// while a parked thread costs a scheduler wakeup (several microseconds).
constexpr std::chrono::microseconds kIdlePollWindow{50};
constexpr uint32_t kPausesPerClockRead = 32;

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

void Uchan::Charge(Stats& stats, CpuAccount account, SimTime nanos) {
  (account == kAccountKernel ? stats.kernel_ns : stats.driver_ns) += nanos;
  if (cpu_ != nullptr) {
    cpu_->Charge(account, nanos);
  }
}

void Uchan::set_downcall_handler(DowncallHandler handler) {
  std::lock_guard<std::mutex> lock(driver_mu_);
  downcall_handler_ = std::move(handler);
}

void Uchan::set_downcall_flush_handler(std::function<void()> handler) {
  std::lock_guard<std::mutex> lock(driver_mu_);
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

Status Uchan::EnqueueLocked(UchanMsg& msg) {
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  uint64_t tail = tail_.load(std::memory_order_relaxed);
  // head is the driver's word: any value that would put more than the ring
  // in flight (including one past tail) reads as a full ring.
  if (tail - head_.load(std::memory_order_acquire) >= config_.ring_entries) {
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
    kernel_stats_.injected_ring_full++;
    return Status(ErrorCode::kQueueFull, "kernel-to-user ring full (injected)");
  }
  Charge(kernel_stats_, kAccountKernel, costs().uchan_msg);
  ring_[tail % config_.ring_entries] = std::move(msg);
  tail_.store(tail + 1, std::memory_order_release);
  return Status::Ok();
}

void Uchan::PublishLocked() {
  std::atomic_thread_fence(std::memory_order_seq_cst);  // pairs with WaitForUpcalls
  int state = driver_state_.load(std::memory_order_relaxed);
  do {  // the driver may go from idle to parked under this compare-exchange
    if (state == kDriverBusy) {
      return;
    }
  } while (!driver_state_.compare_exchange_weak(state, kDriverBusy));
  // The driver was asleep in select: it is now runnable, so publishes before
  // its next sleep are free — and a whole SendAsyncBatch costs one wakeup.
  Charge(kernel_stats_, kAccountKernel, costs().process_wakeup);
  kernel_stats_.wakeups++;
  if (state == kDriverParked) {
    std::lock_guard<std::mutex> park(park_mu_);
    park_cv_.notify_all();
  }
}

Result<UchanMsg> Uchan::SendSync(UchanMsg msg) {
  std::unique_lock<std::mutex> lock(mu_);
  msg.seq = next_upcall_seq_++;
  msg.needs_reply = true;
  uint64_t seq = msg.seq;
  kernel_stats_.upcalls_sync++;
  Status enq = EnqueueLocked(msg);
  if (!enq.ok()) {
    if (enq.code() == ErrorCode::kQueueFull) {
      kernel_stats_.upcalls_dropped_full++;
    }
    return enq;
  }
  replies_.push_back(PendingReply{seq, false, {}});
  PublishLocked();

  auto ready = [this, seq] {
    PendingReply* pending = FindReplyLocked(seq);
    return pending != nullptr && pending->ready;
  };
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.sync_timeout_ms);
  while (!is_shutdown() && !ready()) {
    if (user_pump_) {
      // Single-threaded harness: run the driver inline instead of blocking.
      auto pump = user_pump_;
      lock.unlock();
      pump();
      lock.lock();
      if (ready() || is_shutdown()) {
        break;
      }
      // Driver ran but did not reply: a hung or malicious driver. The upcall
      // is interruptable — give up.
      kernel_stats_.upcalls_timed_out++;
      EraseReplyLocked(seq);
      return Status(ErrorCode::kTimedOut, "synchronous upcall interrupted (driver unresponsive)");
    }
    if (reply_cv_.wait_until(lock, deadline) == std::cv_status::timeout && !ready()) {
      kernel_stats_.upcalls_timed_out++;
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
  Charge(kernel_stats_, kAccountKernel, costs().uchan_msg);
  return reply;
}

// Gives a kQueueFull enqueue its bounded second chance: runs the pump (the
// driver's inline dispatch) or polls briefly, unlocked, for a drained slot.
Status Uchan::RetryEnqueueLocked(UchanMsg& msg, Status status,
                                 std::unique_lock<std::mutex>& lock) {
  for (int attempt = 0;
       !status.ok() && status.code() == ErrorCode::kQueueFull && attempt < kRingFullRetries &&
       !is_shutdown();
       ++attempt) {
    kernel_stats_.ring_full_retries++;
    auto pump = user_pump_;
    lock.unlock();
    if (pump) {
      pump();
    } else {
      auto until = std::chrono::steady_clock::now() + kRingFullBackoff;
      while (tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_acquire) >=
                 config_.ring_entries &&
             !is_shutdown() && std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
    }
    lock.lock();
    status = EnqueueLocked(msg);
  }
  return status;
}

Status Uchan::SendAsync(UchanMsg msg) {
  Result<size_t> sent = SendAsyncBatch(std::span<UchanMsg>(&msg, 1));
  if (sent.ok() && sent.value() == 0) {
    return Status(ErrorCode::kQueueFull, "kernel-to-user ring full");
  }
  return sent.status();
}

Result<size_t> Uchan::SendAsyncBatch(std::span<UchanMsg> msgs) {
  std::unique_lock<std::mutex> lock(mu_);
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  kernel_stats_.upcall_batches++;
  kernel_stats_.upcalls_async += msgs.size();
  size_t enqueued = 0;
  Status status = Status::Ok();
  for (; enqueued < msgs.size(); ++enqueued) {
    UchanMsg& msg = msgs[enqueued];
    msg.seq = next_upcall_seq_++;
    msg.needs_reply = false;
    status = EnqueueLocked(msg);
    if (status.code() == ErrorCode::kQueueFull) {
      if (enqueued > 0) {
        // Wake the driver on what is already queued before backing off.
        PublishLocked();
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
    kernel_stats_.upcalls_dropped_full += msgs.size() - enqueued;
  }
  if (enqueued > 0) {
    PublishLocked();
  }
  return enqueued;
}

Status Uchan::RaiseInterrupt(uint16_t queue) {
  std::lock_guard<std::mutex> lock(mu_);
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  kernel_stats_.upcall_batches++;
  kernel_stats_.upcalls_async++;
  Charge(kernel_stats_, kAccountKernel, costs().uchan_msg);
  if (irq_stamp_.load(std::memory_order_acquire) == kNoInterrupt) {
    irq_queue_ = queue;
    irq_stamp_.store(tail_.load(std::memory_order_relaxed), std::memory_order_release);
  }
  PublishLocked();
  return Status::Ok();
}

size_t Uchan::pending_upcalls() const {
  uint64_t head = head_.load(std::memory_order_acquire);  // first: tail only grows
  return tail_.load(std::memory_order_acquire) - head +
         (irq_stamp_.load(std::memory_order_acquire) != kNoInterrupt ? 1 : 0);
}

Status Uchan::WaitForUpcalls(uint64_t timeout_ms) {
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  // Ring empty: the driver sleeps in select. By the paired fences, an upcall
  // no producer saw the driver idle for is seen here: no select, no wakeup.
  driver_state_.store(kDriverIdle, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (pending_upcalls() != 0 && driver_state_.exchange(kDriverBusy) == kDriverIdle) {
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(driver_mu_);
    Charge(driver_stats_, kAccountDriver, costs().syscall);
  }
  if (timeout_ms == 0) {
    return Status(ErrorCode::kTimedOut, "no pending upcalls");
  }
  auto now = std::chrono::steady_clock::now();
  auto deadline = now + std::chrono::milliseconds(timeout_ms);
  auto woken = [this] {
    return driver_state_.load(std::memory_order_acquire) == kDriverBusy || is_shutdown();
  };
  // Only the host thread polls (the model already has the driver idle), and
  // only with another CPU to run the producer it waits for.
  static const bool multi_cpu = std::thread::hardware_concurrency() > 1;
  auto poll_until = now + kIdlePollWindow;
  for (uint32_t pauses = 1; multi_cpu && !woken(); ++pauses) {
    CpuRelax();
    if (pauses % kPausesPerClockRead == 0 && std::chrono::steady_clock::now() >= poll_until) {
      break;
    }
  }
  std::unique_lock<std::mutex> park(park_mu_);
  int idle = kDriverIdle;
  int parked = kDriverParked;
  if (driver_state_.compare_exchange_strong(idle, kDriverParked) &&
      !park_cv_.wait_until(park, deadline, woken) &&
      driver_state_.compare_exchange_strong(parked, kDriverIdle)) {
    return Status(ErrorCode::kTimedOut, "no pending upcalls");
  }
  return is_shutdown() ? Status(ErrorCode::kUnavailable, "uchan shut down") : Status::Ok();
}

void Uchan::DrainLocked(size_t max_msgs, std::vector<UchanMsg>* out) {
  // Tail first: a raise an upcall it shows must follow is then in the stamp.
  uint64_t tail = tail_.load(std::memory_order_acquire);
  uint64_t stamp = irq_stamp_.load(std::memory_order_acquire);
  uint64_t head = head_.load(std::memory_order_relaxed);
  while (out->size() < max_msgs) {
    if (stamp != kNoInterrupt && head >= stamp) {  // where its message would sit
      UchanMsg& irq = out->emplace_back();
      irq.opcode = kOpInterrupt;
      irq.args[0] = irq_queue_;
      irq_stamp_.store(kNoInterrupt, std::memory_order_release);
      stamp = kNoInterrupt;
    } else if (head != tail) {
      out->push_back(std::move(ring_[head++ % config_.ring_entries]));
    } else {
      break;
    }
    Charge(driver_stats_, kAccountDriver, costs().uchan_msg);
  }
  head_.store(head, std::memory_order_release);
}

Status Uchan::WaitBatch(uint64_t timeout_ms, size_t max_msgs, std::vector<UchanMsg>* out) {
  out->clear();
  FlushDowncalls();
  // A publish can wake the driver after it drained that upcall without waiting
  // (or another driver thread took it): like select, wait again on empty.
  while (out->empty() && max_msgs > 0) {
    if (pending_upcalls() == 0) {
      SUD_RETURN_IF_ERROR(WaitForUpcalls(timeout_ms));
    }
    std::lock_guard<std::mutex> lock(driver_mu_);
    DrainLocked(max_msgs, out);
  }
  return out->empty() ? Status(ErrorCode::kTimedOut, "no pending upcalls") : Status::Ok();
}

void Uchan::Reply(const UchanMsg& request, UchanMsg reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!request.needs_reply || is_shutdown()) {
    return;
  }
  PendingReply* pending = FindReplyLocked(request.seq);
  if (pending == nullptr || pending->ready) {
    // The sender timed out and withdrew: drop the late reply.
    return;
  }
  reply.seq = request.seq;
  reply.needs_reply = false;
  Charge(kernel_stats_, kAccountDriver, costs().uchan_msg);
  pending->msg = std::move(reply);
  pending->ready = true;
  reply_cv_.notify_all();
}

Status Uchan::DowncallSync(UchanMsg& msg) {
  std::unique_lock<std::mutex> lock(driver_mu_);
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  driver_stats_.downcalls_sync++;
  msg.seq = next_downcall_seq_++;
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

Status Uchan::AppendDowncalls(std::span<UchanMsg> msgs, std::vector<UchanMsg>* owner) {
  std::unique_lock<std::mutex> lock(driver_mu_);
  if (is_shutdown()) {
    return Status(ErrorCode::kUnavailable, "uchan shut down");
  }
  if (downcall_batch_.size() >= config_.ring_entries) {
    // The batch is bounded: a full one enters the kernel before growing.
    EnterKernelLocked(nullptr, lock);
    lock.lock();
  }
  driver_stats_.downcalls_async += msgs.size();
  for (UchanMsg& msg : msgs) {
    msg.seq = next_downcall_seq_++;
  }
  if (owner != nullptr && downcall_batch_.empty()) {
    downcall_batch_.swap(*owner);
  } else {
    downcall_batch_.insert(downcall_batch_.end(), std::make_move_iterator(msgs.begin()),
                           std::make_move_iterator(msgs.end()));
    if (owner != nullptr) {
      owner->clear();
    }
  }
  return Status::Ok();
}

// Keeping injection in the one kernel entry makes drop/dup/delay coverage
// independent of WHICH entry happened to carry a message.
void Uchan::EnterKernelLocked(UchanMsg* sync, std::unique_lock<std::mutex>& lock) {
  std::vector<UchanMsg> batch;
  batch.swap(downcall_batch_);
  // One kernel entry for the whole batch: the batching win of Section 3.1.2.
  Charge(driver_stats_, kAccountDriver, costs().syscall);
  driver_stats_.downcall_batches++;
  DowncallHandler handler = downcall_handler_;
  std::function<void()> flush_handler = downcall_flush_handler_;
  lock.unlock();

  Stats entry;  // folded in under the lock below
  auto run = [&](UchanMsg& msg) {
    Charge(entry, kAccountKernel, costs().uchan_msg);
    if (handler) {
      handler(msg);
    } else {
      msg.error = static_cast<int32_t>(ErrorCode::kUnavailable);
    }
  };
  const bool inject = FaultInjector::armed();
  size_t delayed = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    UchanMsg& msg = batch[i];
    if (inject && msg.droppable) {
      if (SUD_FAULT_POINT("uchan.down.delay")) {
        // Bounded delay: the tail of this flush rides the NEXT flush instead,
        // spliced at the front so relative order is preserved. A stall the
        // receiver must tolerate, never a loss or a reorder.
        entry.injected_delays++;
        delayed = i;
        break;
      }
      if (SUD_FAULT_POINT("uchan.down.drop")) {
        // Swallowed in flight; counted so the conservation audit can close.
        entry.injected_drops++;
        continue;
      }
      if (SUD_FAULT_POINT("uchan.down.dup")) {
        // Deliver a copy first, then the original: the receiver sees the same
        // seq twice and must reject the second by its monotonic-seq check.
        entry.injected_dups++;
        UchanMsg copy = msg;
        run(copy);
      }
    }
    run(msg);
  }
  if (sync != nullptr) {
    run(*sync);
  }

  lock.lock();
  driver_stats_ += entry;
  // A delayed tail goes back ahead of what was appended meanwhile, and the
  // next batch reuses this one's capacity.
  batch.erase(batch.begin(), batch.begin() + static_cast<long>(delayed));
  batch.insert(batch.end(), std::make_move_iterator(downcall_batch_.begin()),
               std::make_move_iterator(downcall_batch_.end()));
  downcall_batch_.swap(batch);
  lock.unlock();
  if (flush_handler) {
    flush_handler();  // end of this kernel entry: deliver any queued rx bundle
  }
}

void Uchan::FlushDowncalls() {
  std::unique_lock<std::mutex> lock(driver_mu_);
  if (downcall_batch_.empty() || is_shutdown()) {
    return;
  }
  EnterKernelLocked(nullptr, lock);
}

void Uchan::Shutdown() {
  {
    std::scoped_lock lock(driver_mu_, mu_);
    shutdown_.store(true, std::memory_order_release);
    head_.store(tail_.load(std::memory_order_relaxed), std::memory_order_release);
    irq_stamp_.store(kNoInterrupt, std::memory_order_release);
    downcall_batch_.clear();
    reply_cv_.notify_all();
  }
  std::lock_guard<std::mutex> park(park_mu_);
  park_cv_.notify_all();
}

Uchan::Stats Uchan::stats() const {
  std::scoped_lock lock(driver_mu_, mu_);
  Stats total = kernel_stats_;
  return total += driver_stats_;
}

}  // namespace sud
