// Uchan: the shared-memory RPC channel between a proxy driver (kernel side)
// and an untrusted user-space driver (Figure 3 of the paper).
//
// Two ring buffers — kernel-to-user for upcalls and user-to-kernel for
// downcalls and replies — with the exact semantics Section 3.1 describes:
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
//  * sud_wait   -> WaitBatch:   driver-side dequeue of up to a burst per
//                               crossing; polls the ring first and only then
//                               "selects" (sleeps). Also the flush point for
//                               batched async downcalls.
//                               With a timeout, the host thread that finds
//                               the ring empty polls it without the lock for
//                               a few tens of microseconds before it parks,
//                               so a prompt upcall costs no real scheduler
//                               wakeup. The poll is host-side only: the
//                               modeled select syscall is charged when the
//                               ring is found empty and the next enqueue
//                               still charges one process wakeup, whether
//                               the thread was polling or parked.
//  * sud_reply  -> Reply:       driver answers a synchronous upcall.
//
// Downcalls reverse the roles; per Section 3.1, the kernel returns results
// of synchronous downcalls by writing into the caller's message rather than
// sending a separate message — DowncallSync therefore takes the message by
// reference and the handler mutates it in place. Async downcalls are
// *batched* in the uchan library and flushed on the next WaitBatch or
// DowncallSync entry into the kernel (Section 3.1.2), which is the
// optimization the abl_uchan_batching bench sweeps.
//
// Fast-path data structures: the kernel-to-user ring is a pre-sized ring
// buffer (no per-message heap allocation for queue nodes). Sync replies are
// control-plane only (open, stop, ioctl, scan), so at most a few senders
// wait at once: their rendezvous entries sit in a small vector searched
// linearly.
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
    bool batch_async_downcalls = true;
  };

  struct Stats {
    uint64_t upcalls_sync = 0;
    uint64_t upcalls_async = 0;
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

  const Config& config() const { return config_; }

  // ---- kernel (proxy driver) side -----------------------------------------
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

  // The kernel half of the downcall path: invoked once per downcall when the
  // driver enters the kernel (flush or sync downcall). Mutates the message
  // in place to return results.
  using DowncallHandler = std::function<void(UchanMsg&)>;
  void set_downcall_handler(DowncallHandler handler);

  // ---- driver (user-space) side -------------------------------------------
  // Dequeues up to `max_msgs` pending upcalls under one lock acquisition —
  // one modeled select/read crossing for the whole burst. Flushes batched
  // downcalls first. Returns kTimedOut if nothing arrives within
  // `timeout_ms` (0 = poll only); never an empty vector on success.
  Result<std::vector<UchanMsg>> WaitBatch(uint64_t timeout_ms, size_t max_msgs);
  void Reply(const UchanMsg& request, UchanMsg reply);
  Status DowncallSync(UchanMsg& msg);
  Status DowncallAsync(UchanMsg msg);
  // Appends a whole burst of async downcalls under one lock acquisition (the
  // NAPI rx path hands over its accumulated netif_rx array this way). In the
  // unbatched configuration the burst still enters the kernel immediately —
  // but as one entry, since the caller already chose its batch boundary.
  Status DowncallAsyncBatch(std::vector<UchanMsg> msgs);
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
  bool is_shutdown() const;

  // Snapshot taken under the lock (the fields mutate concurrently).
  Stats stats() const;
  size_t pending_upcalls() const;

 private:
  // The CpuModel's cost table (defaults when no model is attached).
  const CpuCosts& costs() const;
  // Charge helpers: every nanosecond this channel charges to the CpuModel is
  // also attributed to the channel itself (per-shard accounting).
  void ChargeKernelLocked(SimTime nanos);
  void ChargeDriverLocked(SimTime nanos);

  // One sync sender's rendezvous: SendSync adds it before it blocks, Reply
  // fills it in and marks it ready, and the sender removes it on every exit,
  // so a late Reply after a timeout finds nothing and is dropped.
  struct PendingReply {
    uint64_t seq = 0;
    bool ready = false;
    UchanMsg msg;
  };

  Status EnqueueUpcallLocked(UchanMsg&& msg);
  // One kernel entry, shared by FlushDowncalls and DowncallSync: charges the
  // driver's syscall, delivers the batched async downcalls through the
  // fault-injected loop (drop/dup/delay for droppable messages; a delayed
  // tail is re-parked at the front of downcall_batch_), then runs `sync` if
  // given, and finally the end-of-entry flush handler with mu_ released.
  void EnterKernelLocked(UchanMsg* sync, std::unique_lock<std::mutex>& lock);
  // Bounded ring-full retry/backoff for the async send paths; `msg` is
  // intact on failure (EnqueueUpcallLocked moves only on success).
  Status RetryEnqueueLocked(UchanMsg& msg, Status status, std::unique_lock<std::mutex>& lock);
  void RunDowncallLocked(UchanMsg& msg, std::unique_lock<std::mutex>& lock);
  // Blocks until the ring is non-empty (or timeout/shutdown); returns Ok when
  // at least one message is dequeueable. Charges the select/read syscall when
  // the driver goes idle, then (mu_ released) polls the mirrors below
  // before parking.
  Status WaitForUpcallLocked(uint64_t timeout_ms, std::unique_lock<std::mutex>& lock);
  UchanMsg PopUpcallLocked();

  PendingReply* FindReplyLocked(uint64_t seq);
  void EraseReplyLocked(uint64_t seq);

  Config config_;
  CpuModel* cpu_;

  mutable std::mutex mu_;
  std::condition_variable upcall_cv_;  // driver sleeping in "select"
  std::condition_variable reply_cv_;   // kernel waiting for a sync reply
  std::condition_variable space_cv_;   // kernel backing off a full ring

  // Kernel-to-user ring: pre-sized, head + count, no node allocation.
  std::vector<UchanMsg> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;

  std::vector<PendingReply> replies_;  // one per blocked SendSync

  std::vector<UchanMsg> downcall_batch_;  // user-side pending async downcalls
  DowncallHandler downcall_handler_;
  std::function<void()> downcall_flush_handler_;
  std::function<void()> user_pump_;
  uint64_t next_seq_ = 1;
  bool shutdown_ = false;
  bool driver_idle_ = true;  // true while the driver would be asleep in select
  Stats stats_;
  // Copies of ring_count_ and shutdown_, stored with release under mu_
  // wherever those change, so the driver's pre-park poll reads them without
  // taking the lock.
  std::atomic<size_t> ring_count_mirror_{0};
  std::atomic<bool> shutdown_mirror_{false};
};

}  // namespace sud

#endif  // SUD_SRC_SUD_UCHAN_H_
