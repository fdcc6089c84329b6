// Allocation gate: after warm-up, the pumped per-packet paths allocate
// nothing on the heap. This binary replaces the global operator new with a
// counting one, drives 64-byte TX bursts of 8, 1448-byte RX and a UDP_RR
// loop through a pumped NetBench, and asserts zero allocations per frame.
// It also checks the skb node cache that makes this possible: bounded per
// thread, released at thread exit, refilled by frees from any thread.
//
// Sanitizer builds bring their own allocator (and ASan bypasses the skb
// cache on purpose), so the counting tests skip themselves there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "src/base/counter.h"
#include "tests/harness.h"

#if defined(SUD_ADDRESS_SANITIZER) || defined(SUD_THREAD_SANITIZER)
#define SUD_COUNT_ALLOCATIONS 0
#else
#define SUD_COUNT_ALLOCATIONS 1

namespace {
std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_deletes{0};
}  // namespace

void* operator new(std::size_t bytes) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(bytes == 0 ? 1 : bytes)) {
    return block;
  }
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept {
  if (block != nullptr) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(block);
}
void operator delete(void* block, std::size_t) noexcept { operator delete(block); }
#endif

namespace sud {
namespace {

using testing::NetBench;

#if SUD_COUNT_ALLOCATIONS
uint64_t News() { return g_news.load(std::memory_order_relaxed); }
uint64_t Deletes() { return g_deletes.load(std::memory_order_relaxed); }
#define SKIP_UNLESS_COUNTING()
#else
uint64_t News() { return 0; }
uint64_t Deletes() { return 0; }
#define SKIP_UNLESS_COUNTING() GTEST_SKIP() << "allocation counting needs the plain allocator"
#endif

constexpr int kWarmup = 2000;
constexpr int kMeasured = 4000;

std::vector<uint8_t> Frame(size_t payload_bytes, bool to_sut) {
  std::vector<uint8_t> payload(payload_bytes, 0x3c);
  return to_sut ? kern::BuildPacket(testing::kMacA, testing::kMacB, 4000, 80,
                                    {payload.data(), payload.size()})
                : kern::BuildPacket(testing::kMacB, testing::kMacA, 9, 4000,
                                    {payload.data(), payload.size()});
}

TEST(AllocGate, PumpedTxBurstsOfEightAllocateNothing) {
  SKIP_UNLESS_COUNTING();
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::atomic<uint64_t> received{0};
  bench.peer_env->netdev()->set_rx_sink([&](const kern::Skb&) { received.fetch_add(1); });
  std::vector<uint8_t> frame = Frame(64, /*to_sut=*/false);
  constexpr int kBurst = 8;
  uint64_t counted = 0;
  for (int i = 0; i < kWarmup + kMeasured; i += kBurst) {
    std::vector<kern::SkbPtr> skbs;
    skbs.reserve(kBurst);  // the caller's array, not the stack's
    uint64_t before = News();
    for (int j = 0; j < kBurst; ++j) {
      skbs.push_back(kern::MakeSkb({frame.data(), frame.size()}));
    }
    Result<size_t> sent = bench.kernel.net().TransmitBatch(netdev, std::move(skbs));
    bench.host->Pump();
    if (i >= kWarmup) {
      counted += News() - before;
    }
    ASSERT_TRUE(sent.ok());
    ASSERT_EQ(sent.value(), static_cast<size_t>(kBurst));
  }
  EXPECT_EQ(received.load(), static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(counted, 0u) << "heap allocations over " << kMeasured << " transmitted frames";
}

TEST(AllocGate, PumpedRxOf1448ByteFramesAllocatesNothing) {
  SKIP_UNLESS_COUNTING();
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  std::atomic<uint64_t> received{0};
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb&) { received.fetch_add(1); });
  std::vector<uint8_t> frame = Frame(1448, /*to_sut=*/true);
  constexpr int kWindow = 16;  // divides kWarmup and kMeasured
  uint64_t counted = 0;
  for (int i = 0; i < kWarmup + kMeasured; i += kWindow) {
    uint64_t before = News();
    for (int j = 0; j < kWindow; ++j) {
      ASSERT_TRUE(bench.link.Transmit(1, {frame.data(), frame.size()}).ok());
    }
    bench.host->Pump();
    if (i >= kWarmup) {
      counted += News() - before;
    }
  }
  EXPECT_EQ(received.load(), static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(counted, 0u) << "heap allocations over " << kMeasured << " received frames";
}

TEST(AllocGate, PumpedRequestResponseLoopAllocatesNothing) {
  SKIP_UNLESS_COUNTING();
  NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  kern::NetDevice* netdev = bench.kernel.net().Find("eth0");
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> replies{0};
  netdev->set_rx_sink([&](const kern::Skb&) { requests.fetch_add(1); });
  bench.peer_env->netdev()->set_rx_sink([&](const kern::Skb&) { replies.fetch_add(1); });
  std::vector<uint8_t> request = Frame(64, /*to_sut=*/true);
  std::vector<uint8_t> reply = Frame(64, /*to_sut=*/false);
  uint64_t counted = 0;
  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    uint64_t before = News();
    ASSERT_TRUE(bench.link.Transmit(1, {request.data(), request.size()}).ok());
    bench.host->Pump();
    ASSERT_TRUE(bench.kernel.net().Transmit(netdev, kern::MakeSkb({reply.data(), reply.size()}))
                    .ok());
    bench.host->Pump();
    if (i >= kWarmup) {
      counted += News() - before;
    }
  }
  EXPECT_EQ(requests.load(), static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(replies.load(), static_cast<uint64_t>(kWarmup + kMeasured));
  EXPECT_EQ(counted, 0u) << "heap allocations over " << kMeasured << " transactions";
}

// --- the skb node cache ------------------------------------------------------

std::vector<kern::SkbPtr> MakeSkbs(size_t count) {
  std::vector<uint8_t> frame = Frame(64, /*to_sut=*/true);
  std::vector<kern::SkbPtr> skbs;
  for (size_t i = 0; i < count; ++i) {
    skbs.push_back(kern::MakeSkb({frame.data(), frame.size()}));
  }
  return skbs;
}

TEST(SkbCache, HoldsAtMostItsBoundAndServesFromIt) {
#ifdef SUD_ADDRESS_SANITIZER
  GTEST_SKIP() << "AddressSanitizer builds bypass the skb cache";
#endif
  std::thread([] {
    std::vector<kern::SkbPtr> skbs = MakeSkbs(kern::Skb::kCachedNodes + 8);
    EXPECT_EQ(kern::Skb::CachedNodes(), 0u);
    skbs.clear();
    EXPECT_EQ(kern::Skb::CachedNodes(), kern::Skb::kCachedNodes);
    // Served from the list: no node comes from the allocator.
    std::vector<kern::SkbPtr> again;
    again.reserve(4);
    uint64_t before = News();
    for (int i = 0; i < 4; ++i) {
      again.push_back(std::make_unique<kern::Skb>());
    }
    EXPECT_EQ(News(), before);
    EXPECT_EQ(kern::Skb::CachedNodes(), kern::Skb::kCachedNodes - 4);
  }).join();
}

TEST(SkbCache, ReleasesItsNodesAtThreadExit) {
  SKIP_UNLESS_COUNTING();
  uint64_t deletes_before_exit = 0;
  std::thread([&] {
    MakeSkbs(10).clear();
    EXPECT_EQ(kern::Skb::CachedNodes(), 10u);
    deletes_before_exit = Deletes();
  }).join();
  // The exiting thread's drain freed its ten cached nodes.
  EXPECT_GE(Deletes() - deletes_before_exit, 10u);
}

TEST(SkbCache, TakesFreesFromAnotherThread) {
#ifdef SUD_ADDRESS_SANITIZER
  GTEST_SKIP() << "AddressSanitizer builds bypass the skb cache";
#endif
  std::vector<kern::SkbPtr> made;
  size_t maker_cached = 0;
  std::thread([&] {
    made = MakeSkbs(6);
    maker_cached = kern::Skb::CachedNodes();
  }).join();
  EXPECT_EQ(maker_cached, 0u);
  std::thread([&] {
    made.clear();
    EXPECT_EQ(kern::Skb::CachedNodes(), 6u);
  }).join();
}

}  // namespace
}  // namespace sud
