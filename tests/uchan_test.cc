// Uchan unit + property tests: the Figure 3 semantics — sync/async upcalls,
// interruptable timeouts, downcall batching, replies, shutdown, the
// cross-thread handoff — plus a randomized ordering property.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/sud/proto.h"
#include "src/sud/uchan.h"

namespace sud {
namespace {

Uchan::Config FastConfig() {
  Uchan::Config config;
  config.sync_timeout_ms = 25;
  return config;
}

// The driver side's single-message dequeue: a WaitBatch of one.
Result<UchanMsg> WaitOne(Uchan& uchan, uint64_t timeout_ms) {
  std::vector<UchanMsg> batch;
  SUD_RETURN_IF_ERROR(uchan.WaitBatch(timeout_ms, 1, &batch));
  return std::move(batch.front());
}

// A WaitBatch whose messages the caller does not look at.
Status WaitStatus(Uchan& uchan, uint64_t timeout_ms, size_t max_msgs) {
  std::vector<UchanMsg> batch;
  return uchan.WaitBatch(timeout_ms, max_msgs, &batch);
}

TEST(Uchan, AsyncUpcallDeliveredInOrder) {
  Uchan uchan;
  for (uint32_t i = 0; i < 5; ++i) {
    UchanMsg msg;
    msg.opcode = 100 + i;
    ASSERT_TRUE(uchan.SendAsync(std::move(msg)).ok());
  }
  EXPECT_EQ(uchan.pending_upcalls(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    Result<UchanMsg> msg = WaitOne(uchan, 0);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg.value().opcode, 100 + i);
  }
  EXPECT_EQ(WaitOne(uchan, 0).status().code(), ErrorCode::kTimedOut);
}

TEST(Uchan, RingFullReportsQueueFull) {
  Uchan::Config config;
  config.ring_entries = 3;
  Uchan uchan(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  }
  EXPECT_EQ(uchan.SendAsync(UchanMsg{}).code(), ErrorCode::kQueueFull);
  EXPECT_EQ(uchan.stats().upcalls_dropped_full, 1u);
}

TEST(Uchan, SyncUpcallTimesOutWithoutResponder) {
  Uchan uchan(FastConfig());
  UchanMsg msg;
  msg.opcode = 7;
  Result<UchanMsg> reply = uchan.SendSync(std::move(msg));
  EXPECT_EQ(reply.status().code(), ErrorCode::kTimedOut);
  EXPECT_EQ(uchan.stats().upcalls_timed_out, 1u);
}

TEST(Uchan, SyncUpcallRoundTripViaPump) {
  Uchan uchan(FastConfig());
  uchan.set_user_pump([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 0);
    ASSERT_TRUE(msg.ok());
    UchanMsg reply;
    reply.args[0] = msg.value().args[0] * 2;
    uchan.Reply(msg.value(), std::move(reply));
  });
  UchanMsg msg;
  msg.args[0] = 21;
  Result<UchanMsg> reply = uchan.SendSync(std::move(msg));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().args[0], 42u);
}

TEST(Uchan, SyncUpcallRoundTripViaThread) {
  Uchan uchan;
  std::thread responder([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 1000);
    if (msg.ok()) {
      UchanMsg reply;
      reply.args[0] = 99;
      uchan.Reply(msg.value(), std::move(reply));
    }
  });
  Result<UchanMsg> reply = uchan.SendSync(UchanMsg{});
  responder.join();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().args[0], 99u);
}

// Several kernel threads blocked in SendSync on one channel at once, and a
// driver answering them in the reverse of the order they asked: every
// sender gets its own reply.
TEST(Uchan, ConcurrentSyncSendersGetTheirOwnReplies) {
  Uchan::Config config;
  config.sync_timeout_ms = 5000;
  Uchan uchan(config);
  constexpr size_t kSenders = 8;
  std::vector<uint64_t> answers(kSenders, 0);
  std::vector<int> failures(kSenders, 0);
  std::vector<std::thread> senders;
  for (size_t i = 0; i < kSenders; ++i) {
    senders.emplace_back([&, i]() {
      UchanMsg msg;
      msg.args[0] = i;
      Result<UchanMsg> reply = uchan.SendSync(std::move(msg));
      if (reply.ok()) {
        answers[i] = reply.value().args[0];
      } else {
        failures[i] = 1;
      }
    });
  }
  std::vector<UchanMsg> requests;
  while (requests.size() < kSenders) {
    std::vector<UchanMsg> batch;
    if (!uchan.WaitBatch(1000, kSenders, &batch).ok()) {
      break;  // the senders time out and the expectations below report it
    }
    for (UchanMsg& msg : batch) {
      requests.push_back(std::move(msg));
    }
  }
  for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
    UchanMsg reply;
    reply.args[0] = 100 + it->args[0];
    uchan.Reply(*it, std::move(reply));
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  EXPECT_EQ(requests.size(), kSenders);
  for (size_t i = 0; i < kSenders; ++i) {
    EXPECT_EQ(failures[i], 0) << "sender " << i;
    EXPECT_EQ(answers[i], 100 + i) << "sender " << i;
  }
  EXPECT_EQ(uchan.stats().upcalls_timed_out, 0u);
}

// SendSync returns the driver's answer: a reply's error code comes back as
// the Status, and a code that names no ErrorCode (256 wraps to kOk in the
// enum's byte) as kInvalidArgument.
TEST(Uchan, SyncReplyErrorCodeBecomesTheStatus) {
  Uchan uchan(FastConfig());
  int32_t answer = 0;
  uchan.set_user_pump([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 0);
    ASSERT_TRUE(msg.ok());
    UchanMsg reply;
    reply.error = answer;
    uchan.Reply(msg.value(), std::move(reply));
  });
  const std::pair<int32_t, ErrorCode> cases[] = {
      {0, ErrorCode::kOk},
      {static_cast<int32_t>(ErrorCode::kPermissionDenied), ErrorCode::kPermissionDenied},
      {static_cast<int32_t>(ErrorCode::kInternal), ErrorCode::kInternal},
      {static_cast<int32_t>(ErrorCode::kInternal) + 1, ErrorCode::kInvalidArgument},
      {256, ErrorCode::kInvalidArgument},
      {300, ErrorCode::kInvalidArgument},
      {-1, ErrorCode::kInvalidArgument},
  };
  for (const auto& [error, code] : cases) {
    answer = error;
    EXPECT_EQ(uchan.SendSync(UchanMsg{}).status().code(), code) << "reply error " << error;
  }
  EXPECT_EQ(uchan.stats().upcalls_timed_out, 0u);
}

TEST(Uchan, PumpedDriverThatIgnoresRequestInterruptsSender) {
  Uchan uchan(FastConfig());
  uchan.set_user_pump([&]() {
    // Driver runs but deliberately does not reply (malicious).
    (void)WaitOne(uchan, 0);
  });
  Result<UchanMsg> reply = uchan.SendSync(UchanMsg{});
  EXPECT_EQ(reply.status().code(), ErrorCode::kTimedOut);
}

TEST(Uchan, DowncallBatchingFlushesOnWait) {
  Uchan uchan;
  std::vector<uint32_t> handled;
  uchan.set_downcall_handler([&](UchanMsg& msg) { handled.push_back(msg.opcode); });

  for (uint32_t i = 0; i < 4; ++i) {
    UchanMsg msg;
    msg.opcode = 10 + i;
    ASSERT_TRUE(uchan.DowncallAsync(std::move(msg)).ok());
  }
  EXPECT_TRUE(handled.empty());  // batched, not yet in the kernel
  (void)WaitOne(uchan, 0);           // the flush point
  EXPECT_EQ(handled, (std::vector<uint32_t>{10, 11, 12, 13}));
  EXPECT_EQ(uchan.stats().downcall_batches, 1u);  // one kernel entry for all four
}

TEST(Uchan, SyncDowncallFlushesBatchFirstAndReturnsResultInPlace) {
  Uchan uchan;
  std::vector<uint32_t> handled;
  uchan.set_downcall_handler([&](UchanMsg& msg) {
    handled.push_back(msg.opcode);
    msg.args[1] = msg.args[0] + 1;  // result written into the caller's message
  });
  UchanMsg async1;
  async1.opcode = 50;
  ASSERT_TRUE(uchan.DowncallAsync(std::move(async1)).ok());

  UchanMsg sync;
  sync.opcode = 60;
  sync.args[0] = 5;
  ASSERT_TRUE(uchan.DowncallSync(sync).ok());
  EXPECT_EQ(sync.args[1], 6u);  // "copied into the message buffer" (§3.1)
  EXPECT_EQ(handled, (std::vector<uint32_t>{50, 60}));  // order preserved
}

TEST(Uchan, DowncallErrorPropagates) {
  Uchan uchan;
  uchan.set_downcall_handler(
      [](UchanMsg& msg) { msg.error = static_cast<int32_t>(ErrorCode::kPermissionDenied); });
  UchanMsg msg;
  EXPECT_EQ(uchan.DowncallSync(msg).code(), ErrorCode::kPermissionDenied);
}

TEST(Uchan, ShutdownFailsEverything) {
  Uchan uchan(FastConfig());
  uchan.Shutdown();
  EXPECT_EQ(uchan.SendAsync(UchanMsg{}).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(uchan.SendSync(UchanMsg{}).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(WaitOne(uchan, 0).status().code(), ErrorCode::kUnavailable);
  UchanMsg msg;
  EXPECT_EQ(uchan.DowncallSync(msg).code(), ErrorCode::kUnavailable);
}

TEST(Uchan, ShutdownUnblocksSleepingDriver) {
  Uchan uchan;
  std::thread sleeper([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 10000);
    EXPECT_EQ(msg.status().code(), ErrorCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  uchan.Shutdown();
  sleeper.join();
}

TEST(Uchan, WakeupsCountedWhenDriverIdle) {
  CpuModel cpu;
  Uchan uchan(Uchan::Config{}, &cpu);
  (void)WaitOne(uchan, 0);  // driver goes idle (select)
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  EXPECT_EQ(uchan.stats().wakeups, 1u);
  EXPECT_GE(cpu.busy(kAccountKernel), cpu.costs().process_wakeup);
  // While the driver is busy (just dequeued), further sends don't wake.
  (void)WaitOne(uchan, 0);
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  EXPECT_EQ(uchan.stats().wakeups, 1u);
}

// ---- cross-thread handoff ---------------------------------------------------
// A driver thread waiting with a timeout polls its empty ring briefly, then
// parks. Which of the two an upcall finds it in is host timing, so the
// modeled charges must not depend on it.

// Returns once the driver side has found its ring empty and charged select.
void AwaitDriverIdle(const Uchan& uchan, const CpuModel& cpu) {
  while (uchan.stats().driver_ns < cpu.costs().syscall) {
    std::this_thread::yield();
  }
}

// Param: how long the sender waits after the driver went idle, in ms. At 0
// the upcall usually lands inside the poll window; at 20 the thread parked.
class UchanHandoffTest : public ::testing::TestWithParam<int> {};

TEST_P(UchanHandoffTest, UpcallWakesWaitingThreadWithPumpedCharges) {
  CpuModel cpu;
  Uchan uchan(Uchan::Config{}, &cpu);
  Status status;
  size_t received = 0;
  std::chrono::steady_clock::duration waited{};
  std::thread driver([&]() {
    auto start = std::chrono::steady_clock::now();
    std::vector<UchanMsg> batch;
    status = uchan.WaitBatch(5000, 64, &batch);
    waited = std::chrono::steady_clock::now() - start;
    received = batch.size();
  });
  AwaitDriverIdle(uchan, cpu);
  std::this_thread::sleep_for(std::chrono::milliseconds(GetParam()));
  Status sent = uchan.SendAsync(UchanMsg{});
  driver.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(received, 1u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 1000);

  // Exactly the charges of the pumped sequence in WakeupsCountedWhenDriverIdle:
  // one idle entry (one select syscall), one wakeup, one message enqueued and
  // dequeued.
  EXPECT_EQ(uchan.stats().wakeups, 1u);
  EXPECT_EQ(cpu.busy(kAccountKernel), cpu.costs().process_wakeup + cpu.costs().uchan_msg);
  EXPECT_EQ(cpu.busy(kAccountDriver), cpu.costs().syscall + cpu.costs().uchan_msg);
}

INSTANTIATE_TEST_SUITE_P(SendDelayMs, UchanHandoffTest, ::testing::Values(0, 20));

TEST(UchanHandoff, ShutdownDuringPollWindowUnblocksPromptly) {
  CpuModel cpu;
  Uchan uchan(Uchan::Config{}, &cpu);
  Status status;
  std::chrono::steady_clock::duration waited{};
  std::thread driver([&]() {
    auto start = std::chrono::steady_clock::now();
    status = WaitStatus(uchan, 5000, 64);
    waited = std::chrono::steady_clock::now() - start;
  });
  AwaitDriverIdle(uchan, cpu);
  uchan.Shutdown();  // at once: the driver thread is still polling
  driver.join();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(), 1000);
}

// ---- interrupt flag -------------------------------------------------------------

// Interrupts need no ring slot: one raised on a full ring is still delivered,
// at the position its message would have had, and a second raise before the
// drain coalesces into the first.
TEST(UchanInterrupt, RaisedOnFullRingDeliveredInFifoPosition) {
  CpuModel cpu;
  Uchan::Config config;
  config.ring_entries = 2;
  Uchan uchan(config, &cpu);
  (void)WaitOne(uchan, 0);  // driver goes idle (select)
  ASSERT_TRUE(uchan.SendAsync([] { UchanMsg m; m.opcode = 500; return m; }()).ok());
  ASSERT_TRUE(uchan.SendAsync([] { UchanMsg m; m.opcode = 501; return m; }()).ok());
  ASSERT_EQ(uchan.SendAsync(UchanMsg{}).code(), ErrorCode::kQueueFull);
  ASSERT_TRUE(uchan.RaiseInterrupt(3).ok());
  ASSERT_TRUE(uchan.RaiseInterrupt(3).ok());  // coalesces
  EXPECT_EQ(uchan.pending_upcalls(), 3u);

  std::vector<UchanMsg> batch;
  ASSERT_TRUE(uchan.WaitBatch(0, 64, &batch).ok());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].opcode, 500u);
  EXPECT_EQ(batch[1].opcode, 501u);
  EXPECT_EQ(batch[2].opcode, kOpInterrupt);
  EXPECT_EQ(batch[2].args[0], 3u);
  EXPECT_EQ(uchan.pending_upcalls(), 0u);

  // Charged as the messages they replace: one wakeup for the idle driver,
  // an enqueue per raise, a dequeue for the one delivered.
  Uchan::Stats stats = uchan.stats();
  EXPECT_EQ(stats.wakeups, 1u);
  EXPECT_EQ(stats.upcalls_async, 5u);
  EXPECT_EQ(cpu.busy(kAccountKernel), cpu.costs().process_wakeup + 4 * cpu.costs().uchan_msg);
  EXPECT_EQ(cpu.busy(kAccountDriver), cpu.costs().syscall + 3 * cpu.costs().uchan_msg);
}

// A drain cut short by max_msgs keeps the interrupt for the next one, still
// behind the messages enqueued before it was raised.
TEST(UchanInterrupt, CountsTowardTheBurstLimit) {
  Uchan uchan;
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  ASSERT_TRUE(uchan.RaiseInterrupt(0).ok());
  ASSERT_TRUE(uchan.SendAsync([] { UchanMsg m; m.opcode = 7; return m; }()).ok());
  std::vector<UchanMsg> batch;
  ASSERT_TRUE(uchan.WaitBatch(0, 1, &batch).ok());
  EXPECT_EQ(batch[0].opcode, 0u);
  ASSERT_TRUE(uchan.WaitBatch(0, 1, &batch).ok());
  EXPECT_EQ(batch[0].opcode, kOpInterrupt);
  ASSERT_TRUE(uchan.WaitBatch(0, 1, &batch).ok());
  EXPECT_EQ(batch[0].opcode, 7u);
  uchan.Shutdown();
  EXPECT_EQ(uchan.RaiseInterrupt(0).code(), ErrorCode::kUnavailable);
}

// ---- concurrent stress (a ThreadSanitizer target) -----------------------------
// Three kernel threads send numbered bursts and a fourth raises interrupts
// while one driver thread drains, parking between bursts; Shutdown lands
// after a seeded burst.

class UchanStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UchanStressTest, ProducersInterruptsAndShutdownAgree) {
  constexpr int kProducers = 3;
  constexpr int kBursts = 150;
  constexpr size_t kBurstLen = 8;
  Rng rng(GetParam());
  Uchan::Config config;
  config.ring_entries = 32;
  Uchan uchan(config);
  const int shutdown_at = 1 + static_cast<int>(rng.Below(kProducers * kBursts));
  std::array<uint64_t, kProducers + 2> seeds;
  for (uint64_t& seed : seeds) {
    seed = rng.Next();
  }
  // Back to back, a yield, a sleep past the driver's poll window, or (now
  // and then) one past the kernel's ring-full backoff.
  auto pause = [](Rng& r) {
    uint64_t draw = r.Below(16);
    if (draw == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300 + r.Below(200)));
    } else if (draw < 6) {
      std::this_thread::sleep_for(std::chrono::microseconds(60 + r.Below(100)));
    } else if (draw < 11) {
      std::this_thread::yield();
    }
  };

  struct Sent {
    std::vector<uint64_t> accepted;  // seq numbers the ring took, in order
    uint64_t dropped_live = 0;       // tails dropped by calls that ended before Shutdown
    uint64_t dropped_any = 0;
  };
  std::array<Sent, kProducers> sent;
  std::array<std::vector<uint64_t>, kProducers> delivered;
  std::atomic<int> bursts_sent{0};
  std::atomic<bool> producers_done{false};
  // Interrupts the driver has dispatched, and how many a message sent from
  // now on must find dispatched: a raise is delivered ahead of later bursts.
  std::atomic<uint64_t> irqs_dispatched{0};
  std::atomic<uint64_t> covered{0};
  std::chrono::steady_clock::duration longest_wait{};
  Status driver_exit;

  std::thread driver([&] {
    Rng r(seeds[kProducers + 1]);
    std::vector<UchanMsg> batch;
    uint64_t irqs = 0;
    for (;; pause(r)) {
      auto start = std::chrono::steady_clock::now();
      driver_exit = uchan.WaitBatch(5000, 64, &batch);
      longest_wait = std::max(longest_wait, std::chrono::steady_clock::now() - start);
      if (!driver_exit.ok()) {
        return;
      }
      for (const UchanMsg& msg : batch) {
        if (msg.opcode == kOpInterrupt) {
          irqs_dispatched.store(++irqs, std::memory_order_release);
          continue;
        }
        EXPECT_GE(irqs, msg.args[1]) << "an interrupt raised before this burst was not dispatched";
        delivered[msg.opcode - 100].push_back(msg.args[0]);
      }
    }
  });
  std::vector<std::thread> kernel_threads;
  for (int p = 0; p < kProducers; ++p) {
    kernel_threads.emplace_back([&, p] {
      Rng r(seeds[p]);
      for (uint64_t b = 0; b < kBursts; ++b) {
        std::vector<UchanMsg> burst(kBurstLen);
        uint64_t must_find = covered.load(std::memory_order_acquire);
        for (size_t i = 0; i < kBurstLen; ++i) {
          burst[i].opcode = 100 + static_cast<uint32_t>(p);
          burst[i].args[0] = b * kBurstLen + i;
          burst[i].args[1] = must_find;
        }
        Result<size_t> accepted = uchan.SendAsyncBatch(burst);
        bool live = !uchan.is_shutdown();  // the whole call ran before Shutdown
        if (accepted.ok()) {
          for (size_t i = 0; i < accepted.value(); ++i) {
            sent[p].accepted.push_back(b * kBurstLen + i);
          }
          (live ? sent[p].dropped_live : sent[p].dropped_any) += kBurstLen - accepted.value();
        }
        if (bursts_sent.fetch_add(1) + 1 == shutdown_at) {
          uchan.Shutdown();
        }
        pause(r);
      }
    });
  }
  std::thread raiser([&] {
    Rng r(seeds[kProducers]);
    while (!producers_done.load()) {
      uint64_t before = irqs_dispatched.load(std::memory_order_acquire);
      if (uchan.RaiseInterrupt(0).ok()) {
        covered.store(before + 1, std::memory_order_release);
      }
      pause(r);
    }
  });
  for (std::thread& thread : kernel_threads) {
    thread.join();
  }
  producers_done = true;
  raiser.join();
  driver.join();

  EXPECT_EQ(driver_exit.code(), ErrorCode::kUnavailable) << driver_exit.ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(longest_wait).count(), 1000)
      << "a drain slept through a publish";
  // In order, nothing duplicated, nothing lost but what Shutdown discarded:
  // each producer's latest accepted messages, at most a ring's worth.
  uint64_t discarded = 0;
  uint64_t dropped_live = 0;
  uint64_t dropped_any = 0;
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_LE(delivered[p].size(), sent[p].accepted.size()) << "producer " << p;
    EXPECT_TRUE(std::equal(delivered[p].begin(), delivered[p].end(), sent[p].accepted.begin()))
        << "producer " << p;
    discarded += sent[p].accepted.size() - delivered[p].size();
    dropped_live += sent[p].dropped_live;
    dropped_any += sent[p].dropped_live + sent[p].dropped_any;
  }
  EXPECT_LE(discarded, config.ring_entries);
  // Every tail the ring refused while live is counted; one cut by Shutdown
  // mid-backoff may not be.
  EXPECT_GE(uchan.stats().upcalls_dropped_full, dropped_live);
  EXPECT_LE(uchan.stats().upcalls_dropped_full, dropped_any);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UchanStressTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- batch fast path --------------------------------------------------------

TEST(UchanBatch, BatchEnqueueDequeuePreservesOrder) {
  Uchan uchan;
  std::vector<UchanMsg> msgs;
  for (uint32_t i = 0; i < 5; ++i) {
    UchanMsg msg;
    msg.opcode = 200 + i;
    msgs.push_back(std::move(msg));
  }
  Result<size_t> enqueued = uchan.SendAsyncBatch(msgs);
  ASSERT_TRUE(enqueued.ok());
  EXPECT_EQ(enqueued.value(), 5u);
  EXPECT_EQ(uchan.pending_upcalls(), 5u);
  EXPECT_EQ(uchan.stats().upcall_batches, 1u);
  EXPECT_EQ(uchan.stats().upcalls_async, 5u);

  // WaitBatch dequeues in FIFO order, bounded by max_msgs.
  std::vector<UchanMsg> first;
  ASSERT_TRUE(uchan.WaitBatch(0, 3, &first).ok());
  ASSERT_EQ(first.size(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].opcode, 200 + i);
  }
  std::vector<UchanMsg> rest;
  ASSERT_TRUE(uchan.WaitBatch(0, 64, &rest).ok());
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].opcode, 203u);
  EXPECT_EQ(rest[1].opcode, 204u);
  EXPECT_EQ(WaitStatus(uchan, 0, 64).code(), ErrorCode::kTimedOut);
}

TEST(UchanBatch, BatchAndSingleSendInterleaveInOrder) {
  Uchan uchan;
  ASSERT_TRUE(uchan.SendAsync([] { UchanMsg m; m.opcode = 1; return m; }()).ok());
  std::vector<UchanMsg> msgs(2);
  msgs[0].opcode = 2;
  msgs[1].opcode = 3;
  ASSERT_EQ(uchan.SendAsyncBatch(msgs).value(), 2u);
  ASSERT_TRUE(uchan.SendAsync([] { UchanMsg m; m.opcode = 4; return m; }()).ok());
  for (uint32_t expected = 1; expected <= 4; ++expected) {
    EXPECT_EQ(WaitOne(uchan, 0).value().opcode, expected);
  }
}

TEST(UchanBatch, OneWakeupPerBatchNotPerMessage) {
  CpuModel cpu;
  Uchan uchan(Uchan::Config{}, &cpu);
  (void)WaitOne(uchan, 0);  // driver goes idle (select)
  std::vector<UchanMsg> msgs(8);
  ASSERT_EQ(uchan.SendAsyncBatch(msgs).value(), 8u);
  // The whole burst woke the driver exactly once.
  EXPECT_EQ(uchan.stats().wakeups, 1u);
  EXPECT_EQ(cpu.busy(kAccountKernel),
            cpu.costs().process_wakeup + 8 * cpu.costs().uchan_msg);
  // Driver drains and goes idle again: the next batch pays one more wakeup.
  (void)WaitStatus(uchan, 0, 64);
  (void)WaitOne(uchan, 0);
  std::vector<UchanMsg> more(4);
  ASSERT_EQ(uchan.SendAsyncBatch(more).value(), 4u);
  EXPECT_EQ(uchan.stats().wakeups, 2u);
}

TEST(UchanBatch, RingFullMidBatchDropsTailAndKeepsOrder) {
  Uchan::Config config;
  config.ring_entries = 4;
  Uchan uchan(config);
  std::vector<UchanMsg> msgs(6);
  for (uint32_t i = 0; i < 6; ++i) {
    msgs[i].opcode = 300 + i;
    msgs[i].buffer_id = static_cast<int32_t>(i);
    msgs[i].inline_data.assign(3, static_cast<uint8_t>(i));
  }
  Result<size_t> enqueued = uchan.SendAsyncBatch(msgs);
  ASSERT_TRUE(enqueued.ok());
  EXPECT_EQ(enqueued.value(), 4u);  // ring filled mid-batch
  EXPECT_EQ(uchan.stats().upcalls_dropped_full, 2u);
  EXPECT_EQ(uchan.stats().upcalls_async, 6u);
  // The dropped tail is still whole in the caller's messages: the sender
  // reclaims its resources (staged pool buffers) straight from them.
  for (uint32_t i = 4; i < 6; ++i) {
    EXPECT_EQ(msgs[i].opcode, 300 + i);
    EXPECT_EQ(msgs[i].buffer_id, static_cast<int32_t>(i));
    EXPECT_EQ(msgs[i].inline_data, std::vector<uint8_t>(3, static_cast<uint8_t>(i)));
  }
  // The head of the batch survived, in order; the tail was dropped whole.
  std::vector<UchanMsg> drained;
  ASSERT_TRUE(uchan.WaitBatch(0, 64, &drained).ok());
  ASSERT_EQ(drained.size(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(drained[i].opcode, 300 + i);
  }
  // A completely full ring accepts nothing but still reports ok.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  }
  std::vector<UchanMsg> overflow(2);
  EXPECT_EQ(uchan.SendAsyncBatch(overflow).value(), 0u);
}

TEST(UchanBatch, BatchFailsAfterShutdown) {
  Uchan uchan;
  uchan.Shutdown();
  std::vector<UchanMsg> msgs(3);
  EXPECT_EQ(uchan.SendAsyncBatch(msgs).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(WaitStatus(uchan, 0, 8).code(), ErrorCode::kUnavailable);
}

// The timeout-leak regression: a reply arriving after the sender gave up
// must be dropped, not parked in the reply table forever.
TEST(Uchan, LateReplyAfterTimeoutIsDropped) {
  Uchan uchan(FastConfig());
  UchanMsg stashed_request;
  uchan.set_user_pump([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 0);
    if (msg.ok()) {
      stashed_request = msg.value();  // hold the request, do not reply
    }
  });
  Result<UchanMsg> reply = uchan.SendSync(UchanMsg{});
  EXPECT_EQ(reply.status().code(), ErrorCode::kTimedOut);

  // The malicious driver answers long after the sender gave up.
  UchanMsg late;
  late.args[0] = 0xdead;
  uchan.Reply(stashed_request, std::move(late));

  // The late reply neither leaked nor got delivered to the next sender.
  uchan.set_user_pump([&]() {
    Result<UchanMsg> msg = WaitOne(uchan, 0);
    if (msg.ok()) {
      UchanMsg fresh;
      fresh.args[0] = 7;
      uchan.Reply(msg.value(), std::move(fresh));
    }
  });
  Result<UchanMsg> second = uchan.SendSync(UchanMsg{});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().args[0], 7u);
}

TEST(Uchan, StatsReturnsConsistentSnapshot) {
  Uchan uchan;
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  Uchan::Stats snapshot = uchan.stats();  // copy taken under the lock
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  EXPECT_EQ(snapshot.upcalls_async, 1u);
  EXPECT_EQ(uchan.stats().upcalls_async, 2u);
}

// ---- fault injection --------------------------------------------------------
// The injector is process-global: every test restores the disarmed,
// schedule-free state on exit so neighbouring tests never see a stale fault.

class UchanFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Get().Disarm();
    FaultInjector::Get().ClearSchedules();
  }
};

UchanMsg Droppable(uint32_t opcode) {
  UchanMsg msg;
  msg.opcode = opcode;
  msg.droppable = true;
  return msg;
}

TEST_F(UchanFaultTest, InjectedRingFullOnlyRefusesDroppableMessages) {
  Uchan uchan;
  FaultInjector::Get().Configure("uchan.up.ring_full", FaultInjector::EveryNth(1));
  FaultInjector::Get().Arm(42);
  // Control-plane (non-droppable) messages are never eligible for injection.
  ASSERT_TRUE(uchan.SendAsync(UchanMsg{}).ok());
  // A droppable message is refused on the first attempt and on every bounded
  // retry, then dropped — exactly the counted backpressure path.
  EXPECT_EQ(uchan.SendAsync(Droppable(1)).code(), ErrorCode::kQueueFull);
  Uchan::Stats stats = uchan.stats();
  EXPECT_EQ(stats.upcalls_dropped_full, 1u);
  EXPECT_GE(stats.ring_full_retries, 1u);
  // One injection per enqueue attempt: the first try plus each retry.
  EXPECT_EQ(stats.injected_ring_full, stats.ring_full_retries + 1);
  // Disarming restores service instantly; no residue in the channel.
  FaultInjector::Get().Disarm();
  ASSERT_TRUE(uchan.SendAsync(Droppable(2)).ok());
  EXPECT_EQ(uchan.pending_upcalls(), 2u);
}

TEST_F(UchanFaultTest, InjectedRingFullOneShotSurvivesViaBoundedRetry) {
  Uchan uchan;
  // Fire exactly once, on the first enqueue: the bounded retry's second
  // attempt must land the message without a drop.
  FaultInjector::Get().Configure("uchan.up.ring_full", FaultInjector::OneShotAt(1));
  FaultInjector::Get().Arm(7);
  ASSERT_TRUE(uchan.SendAsync(Droppable(9)).ok());
  Uchan::Stats stats = uchan.stats();
  EXPECT_EQ(stats.injected_ring_full, 1u);
  EXPECT_EQ(stats.ring_full_retries, 1u);
  EXPECT_EQ(stats.upcalls_dropped_full, 0u);
  Result<UchanMsg> msg = WaitOne(uchan, 0);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().opcode, 9u);
}

TEST_F(UchanFaultTest, InjectedDelayDefersFlushTailWithoutReorder) {
  Uchan uchan;
  std::vector<uint32_t> handled;
  uchan.set_downcall_handler([&](UchanMsg& msg) { handled.push_back(msg.opcode); });
  FaultInjector::Get().Configure("uchan.down.delay", FaultInjector::OneShotAt(3));
  FaultInjector::Get().Arm(3);
  for (uint32_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(uchan.DowncallAsync(Droppable(i)).ok());
  }
  // The flush rides the WaitBatch kernel entry, which still times out cleanly
  // on the empty upcall ring while the injector is armed.
  EXPECT_EQ(WaitStatus(uchan, 0, 8).code(), ErrorCode::kTimedOut);
  // The delay fired on message 3: the tail {3, 4} parked for the next flush.
  EXPECT_EQ(handled, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(uchan.stats().injected_delays, 1u);
  // The parked tail rides the next flush AHEAD of newer traffic: a stall,
  // never a reorder.
  ASSERT_TRUE(uchan.DowncallAsync(Droppable(5)).ok());
  EXPECT_EQ(WaitStatus(uchan, 0, 8).code(), ErrorCode::kTimedOut);
  EXPECT_EQ(handled, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(uchan.stats().injected_drops, 0u);  // and never a loss
}

TEST_F(UchanFaultTest, InjectedDupDeliversTheSameSeqTwice) {
  Uchan uchan;
  std::vector<std::pair<uint32_t, uint64_t>> handled;  // (opcode, seq)
  uchan.set_downcall_handler(
      [&](UchanMsg& msg) { handled.emplace_back(msg.opcode, msg.seq); });
  FaultInjector::Get().Configure("uchan.down.dup", FaultInjector::EveryNth(2));
  FaultInjector::Get().Arm(11);
  for (uint32_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(uchan.DowncallAsync(Droppable(i)).ok());
  }
  EXPECT_EQ(WaitStatus(uchan, 0, 8).code(), ErrorCode::kTimedOut);
  // Hits 2 and 4 duplicated: the copy is delivered first with the ORIGINAL
  // seq, which is what lets a receiver reject it by its monotonic-seq check.
  ASSERT_EQ(handled.size(), 6u);
  EXPECT_EQ(handled[0].first, 1u);
  EXPECT_EQ(handled[1].first, 2u);
  EXPECT_EQ(handled[2].first, 2u);
  EXPECT_EQ(handled[1].second, handled[2].second);
  EXPECT_EQ(handled[3].first, 3u);
  EXPECT_EQ(handled[4].first, 4u);
  EXPECT_EQ(handled[5].first, 4u);
  EXPECT_EQ(handled[4].second, handled[5].second);
  EXPECT_EQ(uchan.stats().injected_dups, 2u);
}

TEST_F(UchanFaultTest, InjectedDropIsCountedNeverSilent) {
  Uchan uchan;
  std::vector<uint32_t> handled;
  uchan.set_downcall_handler([&](UchanMsg& msg) { handled.push_back(msg.opcode); });
  FaultInjector::Get().Configure("uchan.down.drop", FaultInjector::EveryNth(2));
  FaultInjector::Get().Arm(5);
  for (uint32_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(uchan.DowncallAsync(Droppable(i)).ok());
  }
  (void)WaitOne(uchan, 0);
  // Messages 2 and 4 swallowed in flight — but each one counted, so a
  // conservation audit over (delivered + injected_drops) still closes.
  EXPECT_EQ(handled, (std::vector<uint32_t>{1, 3}));
  Uchan::Stats stats = uchan.stats();
  EXPECT_EQ(stats.injected_drops, 2u);
  EXPECT_EQ(stats.downcalls_async, 4u);
  EXPECT_EQ(handled.size() + stats.injected_drops, stats.downcalls_async);
}

// Property: random interleavings of async upcalls and waits preserve FIFO
// order and never lose or duplicate a message.
class UchanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UchanPropertyTest, FifoNoLossNoDuplication) {
  Rng rng(GetParam());
  Uchan::Config config;
  config.ring_entries = 8;
  Uchan uchan(config);

  uint32_t next_sent = 0;
  uint32_t next_received = 0;
  uint32_t in_flight = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.Chance(1, 2)) {
      UchanMsg msg;
      msg.opcode = next_sent;
      Status status = uchan.SendAsync(std::move(msg));
      if (in_flight == config.ring_entries) {
        EXPECT_EQ(status.code(), ErrorCode::kQueueFull);
      } else {
        ASSERT_TRUE(status.ok());
        ++next_sent;
        ++in_flight;
      }
    } else {
      Result<UchanMsg> msg = WaitOne(uchan, 0);
      if (in_flight == 0) {
        EXPECT_FALSE(msg.ok());
      } else {
        ASSERT_TRUE(msg.ok());
        EXPECT_EQ(msg.value().opcode, next_received);
        ++next_received;
        --in_flight;
      }
    }
  }
  EXPECT_EQ(next_sent - next_received, in_flight);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UchanPropertyTest, ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace sud
