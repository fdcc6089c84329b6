// Uchan: the shared-memory RPC channel between a proxy driver (kernel side)
// and an untrusted user-space driver (Figure 3 of the paper).
//
// Two rings — kernel-to-user for upcalls and user-to-kernel for downcalls
// and replies — with the semantics Section 3.1 describes:
//
//  * sud_send   -> SendSync:    synchronous upcall; the kernel-side caller
//                               blocks until the driver replies. Always
//                               *interruptable*: a timeout (the model's
//                               Ctrl-C) returns kTimedOut instead of hanging
//                               the kernel on a malicious driver.
//  * sud_asend  -> SendAsyncBatch: asynchronous upcalls; a whole burst
//                               under one lock acquisition and one wakeup
//                               charge — the NAPI-style crossing of Section
//                               3.1.2. A ring that stays full drops the tail
//                               (hung-driver signal). SendAsync is the burst
//                               of one, kQueueFull when it was dropped.
//  * interrupt  -> RaiseInterrupt: a level-triggered flag, not a message: it
//                               needs no slot and cannot be dropped.
//  * sud_wait   -> WaitBatch:   driver-side dequeue of a burst per crossing
//                               into the caller's vector; also the flush
//                               point for batched downcalls.
//  * sud_reply  -> Reply:       driver answers a synchronous upcall.
//
// The upcall ring has fixed slots. Producers serialize on the kernel lock
// and publish `tail` with release; the driver drains through an acquire load
// of `tail` and publishes `head` with release, never taking the kernel lock.
// The kernel reads the driver-written `head` once per enqueue and refuses
// the message when tail - head would exceed the ring. A raised interrupt is
// stamped with `tail` and drained as one kOpInterrupt upcall at that FIFO
// position. The driver's own lock guards head, the downcall batch and its
// counters; counters both sides write are kept per side, summed by stats().
//
// A driver that finds the ring empty charges the modeled select syscall and
// goes idle; the first publish after that charges one process wakeup (the
// 4 us of Section 5.1). The host thread polls briefly before it parks, and
// producers notify only a parked driver: the charges never depend on which.
//
// Downcalls reverse the roles; per Section 3.1, the kernel returns results
// of synchronous downcalls by writing into the caller's message rather than
// sending a separate message — DowncallSync therefore takes the message by
// reference and the handler mutates it in place. Async downcalls are
// *batched* in the uchan library and flushed on the next WaitBatch or
// DowncallSync entry into the kernel (Section 3.1.2), or once it is full.
//
// Threading: kernel-side and driver-side calls may run on different threads
// (DriverHost's per-queue pump threads) or on one thread with a "pump" that
// runs the driver's dispatch loop inline when the kernel would otherwise
// block. A multi-queue device has one Uchan per queue; SudDeviceContext owns
// them and tells its handler which one a downcall arrived on.

#ifndef SUD_SRC_SUD_UCHAN_H_
#define SUD_SRC_SUD_UCHAN_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "src/base/cpu_model.h"
#include "src/base/status.h"

namespace sud {

struct UchanMsg {
  uint32_t opcode = 0;
  uint64_t seq = 0;
  bool needs_reply = false;
  // Loss-tolerant data-plane message (netif_rx downcalls, xmit upcalls).
  // ONLY these are eligible for injected drop/duplicate/delay and forced
  // ring-full: losing a free-buffer message would leak a pool buffer forever
  // and losing an interrupt ack would wedge a queue — neither is a fault the
  // channel can produce without also being a harness bug.
  bool droppable = false;
  std::array<uint64_t, 6> args{};
  std::vector<uint8_t> inline_data;  // small marshalled payloads
  int32_t buffer_id = -1;            // shared-pool buffer handle, or -1
  uint32_t buffer_len = 0;
  int32_t error = 0;                 // ErrorCode as int, for replies
};

class Uchan {
 public:
  struct Config {
    size_t ring_entries = 256;
    // Wall-clock bound on synchronous upcalls: the "interruptable upcall"
    // of Section 3.1.1. Generous by default; liveness tests shrink it.
    uint64_t sync_timeout_ms = 250;
  };

  struct Stats {
    uint64_t upcalls_sync = 0;
    uint64_t upcalls_async = 0;     // ring messages and raised interrupts
    uint64_t upcalls_timed_out = 0;
    uint64_t upcalls_dropped_full = 0;
    uint64_t upcall_batches = 0;    // SendAsyncBatch crossings
    uint64_t downcalls_sync = 0;
    uint64_t downcalls_async = 0;
    uint64_t downcall_batches = 0;  // flushes (kernel entries for downcalls)
    uint64_t wakeups = 0;           // driver woken from "select"
    // Bounded backoff on a full kernel-to-user ring: SendAsync/SendAsyncBatch
    // retries taken before a drop became final (successful retries are why
    // this can exceed upcalls_dropped_full).
    uint64_t ring_full_retries = 0;
    // Fault-injection accounting — every injected channel fault is counted
    // here so the soak's conservation audit can close its books exactly:
    // "uchan.up.ring_full" forced rejections, "uchan.down.drop" messages
    // swallowed in flight, "uchan.down.dup" second deliveries,
    // "uchan.down.delay" flush deferrals (a stall, never a loss).
    uint64_t injected_ring_full = 0;
    uint64_t injected_drops = 0;
    uint64_t injected_dups = 0;
    uint64_t injected_delays = 0;
    // Per-channel CpuModel accounting: the simulated nanoseconds THIS channel
    // charged to each side. With one uchan per NIC queue these are the
    // per-queue crossing costs the multi-queue benches report.
    uint64_t kernel_ns = 0;
    uint64_t driver_ns = 0;

    // Element-wise sum (aggregating shard stats into a single-lane view).
    Stats& operator+=(const Stats& other) {
      upcalls_sync += other.upcalls_sync;
      upcalls_async += other.upcalls_async;
      upcalls_timed_out += other.upcalls_timed_out;
      upcalls_dropped_full += other.upcalls_dropped_full;
      upcall_batches += other.upcall_batches;
      downcalls_sync += other.downcalls_sync;
      downcalls_async += other.downcalls_async;
      downcall_batches += other.downcall_batches;
      wakeups += other.wakeups;
      ring_full_retries += other.ring_full_retries;
      injected_ring_full += other.injected_ring_full;
      injected_drops += other.injected_drops;
      injected_dups += other.injected_dups;
      injected_delays += other.injected_delays;
      kernel_ns += other.kernel_ns;
      driver_ns += other.driver_ns;
      return *this;
    }
  };

  Uchan() : Uchan(Config{}, nullptr) {}
  explicit Uchan(Config config, CpuModel* cpu = nullptr);

  // ---- kernel (proxy driver) side -----------------------------------------
  // The driver's answer: its reply, or the reply's nonzero error code as the
  // Status (kInvalidArgument for a code that names no ErrorCode).
  Result<UchanMsg> SendSync(UchanMsg msg);
  // Enqueues `msgs` in order under ONE lock acquisition, charging at most one
  // process wakeup for the whole burst. Returns how many were enqueued: the
  // first ones, which the ring consumed. When the ring stays full through
  // the bounded retry, the rest are dropped (counted in upcalls_dropped_full)
  // and left intact in `msgs`, so the caller reclaims their resources
  // straight from them. A full ring returns ok with value 0; a shut-down
  // channel returns kUnavailable.
  Result<size_t> SendAsyncBatch(std::span<UchanMsg> msgs);
  // A burst of one: kQueueFull when the ring dropped it.
  Status SendAsync(UchanMsg msg);
  // Raises device queue `queue`'s interrupt (the upcall's args[0]), charged
  // as the message it replaces; it coalesces into one not yet drained.
  Status RaiseInterrupt(uint16_t queue);

  // The kernel half of the downcall path: invoked once per downcall when the
  // driver enters the kernel (flush or sync downcall). Mutates the message
  // in place to return results.
  using DowncallHandler = std::function<void(UchanMsg&)>;
  void set_downcall_handler(DowncallHandler handler);

  // ---- driver (user-space) side -------------------------------------------
  // Flushes batched downcalls, then replaces `*out` with up to `max_msgs`
  // upcalls: one modeled crossing for the burst. kTimedOut if nothing
  // arrives within `timeout_ms` (0 = poll only); never empty on success.
  Status WaitBatch(uint64_t timeout_ms, size_t max_msgs, std::vector<UchanMsg>* out);
  void Reply(const UchanMsg& request, UchanMsg reply);
  Status DowncallSync(UchanMsg& msg);
  Status DowncallAsync(UchanMsg msg) { return AppendDowncalls({&msg, 1}, nullptr); }
  // Appends a whole burst of async downcalls under one lock acquisition (the
  // NAPI rx path hands over its netif_rx array this way), leaving `*msgs`
  // empty when it succeeds.
  Status DowncallAsyncBatch(std::vector<UchanMsg>* msgs) { return AppendDowncalls(*msgs, msgs); }
  void FlushDowncalls();
  // Invoked at the end of every downcall kernel entry (after the flush loop
  // and after a sync downcall). The Ethernet proxy uses it to hand the
  // guard-copied rx bundle to the stack in one NAPI-style delivery.
  void set_downcall_flush_handler(std::function<void()> handler);

  // Single-threaded harness support: when set, SendSync runs the pump
  // (usually the driver's dispatch loop) instead of blocking on the ring.
  void set_user_pump(std::function<void()> pump);

  // Channel teardown (driver killed / device revoked): every blocked or
  // future call fails with kUnavailable.
  void Shutdown();
  bool is_shutdown() const { return shutdown_.load(std::memory_order_acquire); }

  Stats stats() const;
  // Upcalls enqueued or raised and not yet drained.
  size_t pending_upcalls() const;

 private:
  enum DriverState : int { kDriverBusy, kDriverIdle, kDriverParked };
  static constexpr uint64_t kNoInterrupt = UINT64_MAX;

  // One sync sender's rendezvous: SendSync adds it before it blocks, Reply
  // fills it in and marks it ready, and the sender removes it on every exit,
  // so a late Reply after a timeout finds nothing and is dropped.
  struct PendingReply {
    uint64_t seq = 0;
    bool ready = false;
    UchanMsg msg;
  };

  // The CpuModel's cost table (defaults when no model is attached).
  const CpuCosts& costs() const;
  // Charges the CpuModel and `stats`, the side whose lock the caller holds.
  void Charge(Stats& stats, CpuAccount account, SimTime nanos);

  // Kernel side, mu_ held. EnqueueLocked moves `msg` only on success;
  // PublishLocked charges an idle driver's wakeup and notifies a parked one.
  Status EnqueueLocked(UchanMsg& msg);
  void PublishLocked();
  Status RetryEnqueueLocked(UchanMsg& msg, Status status, std::unique_lock<std::mutex>& lock);
  PendingReply* FindReplyLocked(uint64_t seq);
  void EraseReplyLocked(uint64_t seq);

  // Driver side. EnterKernelLocked is the one kernel entry: the batch through
  // the fault-injected loop (a delayed tail is re-parked at the front of the
  // batch), then `sync`, then the flush handler, all with `lock` released.
  Status WaitForUpcalls(uint64_t timeout_ms);
  void DrainLocked(size_t max_msgs, std::vector<UchanMsg>* out);
  void EnterKernelLocked(UchanMsg* sync, std::unique_lock<std::mutex>& lock);
  // Appends `msgs`, or swaps them in from `owner` when the batch is empty.
  Status AppendDowncalls(std::span<UchanMsg> msgs, std::vector<UchanMsg>* owner);

  Config config_;
  CpuModel* cpu_;

  // The shared ring and its flags.
  std::vector<UchanMsg> ring_;       // slot i % ring_entries
  std::atomic<uint64_t> tail_{0};    // kernel-written
  std::atomic<uint64_t> head_{0};    // driver-written, untrusted
  std::atomic<uint64_t> irq_stamp_{kNoInterrupt};  // tail_ at the raise
  uint16_t irq_queue_ = 0;           // written before irq_stamp_ is published
  std::atomic<int> driver_state_{kDriverIdle};
  std::atomic<bool> shutdown_{false};
  std::mutex park_mu_;               // only for parking and notifying
  std::condition_variable park_cv_;  // driver parked in "select"

  mutable std::mutex mu_;  // the kernel lock
  std::condition_variable reply_cv_;   // kernel waiting for a sync reply
  std::vector<PendingReply> replies_;  // one per blocked SendSync
  std::function<void()> user_pump_;
  uint64_t next_upcall_seq_ = 1;
  Stats kernel_stats_;

  mutable std::mutex driver_mu_;  // taken by driver threads (and Shutdown)
  std::vector<UchanMsg> downcall_batch_;  // pending async downcalls
  DowncallHandler downcall_handler_;
  std::function<void()> downcall_flush_handler_;
  // Monotonic per shard: the proxy rejects a duplicate by its seq alone.
  uint64_t next_downcall_seq_ = 1;
  Stats driver_stats_;
};

}  // namespace sud

#endif  // SUD_SRC_SUD_UCHAN_H_
