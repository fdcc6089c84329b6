// Unit tests for src/base: status, logging, simulated clock, rng, checksum,
// and the CPU cost model.

#include <gtest/gtest.h>

#include <set>

#include "src/base/bytes.h"
#include "src/base/clock.h"
#include "src/base/cpu_model.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/status.h"

namespace sud {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status(ErrorCode::kIommuFault, "dma to 0x1000");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kIommuFault);
  EXPECT_EQ(status.ToString(), "iommu-fault: dma to 0x1000");
}

TEST(Status, EveryCodeHasAName) {
  for (int i = 0; i <= static_cast<int>(ErrorCode::kInternal); ++i) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(i)), "unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> result(Status(ErrorCode::kNotFound, "nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ReturnIfError, PropagatesFailure) {
  auto inner = []() { return Status(ErrorCode::kTimedOut, "slow"); };
  auto outer = [&]() -> Status {
    SUD_RETURN_IF_ERROR(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), ErrorCode::kTimedOut);
}

TEST(Log, CaptureSeesMessages) {
  LogCapture capture;
  SUD_LOG(kAttack) << "blocked something naughty";
  SUD_LOG(kInfo) << "routine message";
  EXPECT_TRUE(capture.Contains("naughty"));
  EXPECT_EQ(capture.CountAtLevel(LogLevel::kAttack), 1);
  EXPECT_EQ(capture.CountAtLevel(LogLevel::kInfo), 1);
}

TEST(Log, CaptureRestoresPreviousSink) {
  {
    LogCapture outer;
    {
      LogCapture inner;
      SUD_LOG(kWarning) << "inner only";
      EXPECT_TRUE(inner.Contains("inner only"));
    }
    SUD_LOG(kWarning) << "outer sees this";
    EXPECT_TRUE(outer.Contains("outer sees this"));
    EXPECT_FALSE(outer.Contains("inner only"));
  }
}

TEST(SimClock, StartsAtZeroAndAdvances) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5 * kMicrosecond);
  EXPECT_EQ(clock.now(), 5000u);
}

TEST(SimClock, TimersFireInOrder) {
  SimClock clock;
  std::vector<int> fired;
  clock.ScheduleAt(300, [&] { fired.push_back(3); });
  clock.ScheduleAt(100, [&] { fired.push_back(1); });
  clock.ScheduleAt(200, [&] { fired.push_back(2); });
  clock.Advance(250);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  clock.Advance(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimClock, TimerSeesDeadlineAsNow) {
  SimClock clock;
  SimTime observed = 0;
  clock.ScheduleAt(123, [&] { observed = clock.now(); });
  clock.Advance(1000);
  EXPECT_EQ(observed, 123u);
  EXPECT_EQ(clock.now(), 1000u);
}

TEST(SimClock, CancelPreventsFiring) {
  SimClock clock;
  bool fired = false;
  uint64_t id = clock.ScheduleAt(100, [&] { fired = true; });
  EXPECT_TRUE(clock.Cancel(id));
  EXPECT_FALSE(clock.Cancel(id));  // second cancel fails
  clock.Advance(200);
  EXPECT_FALSE(fired);
}

TEST(SimClock, ScheduleAfterIsRelative) {
  SimClock clock;
  clock.Advance(500);
  bool fired = false;
  clock.ScheduleAfter(100, [&] { fired = true; });
  clock.Advance(99);
  EXPECT_FALSE(fired);
  clock.Advance(1);
  EXPECT_TRUE(fired);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // hits the full range
}

TEST(Checksum, MatchesHandComputedValue) {
  // RFC1071 example-style check: complement of the 16-bit one's complement sum.
  uint8_t data[4] = {0x00, 0x01, 0xf2, 0x03};
  EXPECT_EQ(InternetChecksum({data, 4}), static_cast<uint16_t>(~(0x0001 + 0xf203)));
}

TEST(Checksum, OddLengthPadsWithZero) {
  uint8_t data[3] = {0x12, 0x34, 0x56};
  EXPECT_EQ(InternetChecksum({data, 3}), static_cast<uint16_t>(~(0x1234 + 0x5600)));
}

TEST(Checksum, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(64, 0xab);
  uint16_t before = InternetChecksum({data.data(), data.size()});
  data[17] ^= 0x40;
  EXPECT_NE(InternetChecksum({data.data(), data.size()}), before);
}

TEST(Bytes, LoadStoreRoundTrip) {
  uint8_t buf[8];
  StoreLe64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(LoadLe64(buf), 0x0123456789abcdefull);
  StoreLe32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLe32(buf), 0xdeadbeefu);
  StoreLe16(buf, 0xcafe);
  EXPECT_EQ(LoadLe16(buf), 0xcafeu);
}

TEST(Bytes, FormatMac) {
  uint8_t mac[6] = {0x00, 0x1b, 0x21, 0x0a, 0x0b, 0x0c};
  EXPECT_EQ(FormatMac(mac), "00:1b:21:0a:0b:0c");
}

TEST(CpuModel, ChargesPerAccount) {
  CpuModel cpu;
  cpu.Charge(kAccountKernel, 100);
  cpu.Charge(kAccountDriver, 50);
  cpu.Charge(kAccountKernel, 25);
  EXPECT_EQ(cpu.busy(kAccountKernel), 125u);
  EXPECT_EQ(cpu.busy(kAccountDriver), 50u);
  EXPECT_EQ(cpu.busy(kAccountPeer), 0u);
  EXPECT_EQ(cpu.total_busy(), 175u);
  cpu.Reset();
  EXPECT_EQ(cpu.total_busy(), 0u);
}

TEST(CpuModel, CostsAreOverridable) {
  CpuCosts costs;
  costs.process_wakeup = 9999;
  CpuModel cpu(costs);
  EXPECT_EQ(cpu.costs().process_wakeup, 9999u);
}

// With two cores and a single queue, the core-affinity mapping must be the
// legacy Figure 8 formula, 100 * busy / (2 * wall) — the property that keeps
// the published single-queue rows bit-identical.
TEST(CoreSchedule, ReducesToTwoCoreFormulaForOneQueue) {
  std::vector<uint64_t> queue_kernel = {14'000'000};
  std::vector<uint64_t> queue_driver = {800'000};
  double serial_ns = 55'000'000;
  double wall_ns = 492'160'000;  // 40000 MSS segments of gigabit wire
  CoreSchedule sched = ScheduleOnCores(queue_kernel, queue_driver, serial_ns, wall_ns, 2);
  double busy = serial_ns + 14'000'000 + 800'000;
  EXPECT_DOUBLE_EQ(sched.busy_ns, busy);
  EXPECT_DOUBLE_EQ(sched.wall_ns, wall_ns);
  EXPECT_DOUBLE_EQ(sched.cpu_pct, 100.0 * busy / (2.0 * wall_ns));
}

TEST(CoreSchedule, MakespanLiftsWallAboveWireFloor) {
  // One queue's kernel lump alone exceeds the wire time: the modeled wall
  // clock must stretch to the busiest core, not stay pinned to the floor.
  std::vector<uint64_t> queue_kernel = {900, 100};
  std::vector<uint64_t> queue_driver = {50, 50};
  CoreSchedule sched = ScheduleOnCores(queue_kernel, queue_driver, /*serial_ns=*/0,
                                       /*min_wall_ns=*/500, /*cores=*/4);
  EXPECT_DOUBLE_EQ(sched.makespan_ns, 900.0);
  EXPECT_DOUBLE_EQ(sched.wall_ns, 900.0);
  EXPECT_DOUBLE_EQ(sched.busy_ns, 1100.0);
}

TEST(CoreSchedule, SpreadsQueueUnitsAcrossCores) {
  // Four equal queue lumps on four cores: perfect spread, one per core.
  std::vector<uint64_t> queue_kernel = {100, 100, 100, 100};
  std::vector<uint64_t> queue_driver;
  CoreSchedule sched =
      ScheduleOnCores(queue_kernel, queue_driver, /*serial_ns=*/0, /*min_wall_ns=*/0, 4);
  EXPECT_DOUBLE_EQ(sched.makespan_ns, 100.0);
  ASSERT_EQ(sched.core_busy_ns.size(), 4u);
  for (double load : sched.core_busy_ns) {
    EXPECT_DOUBLE_EQ(load, 100.0);
  }
  // CPU% at the makespan wall: all four cores fully busy.
  EXPECT_DOUBLE_EQ(sched.cpu_pct, 100.0);
}

TEST(CoreSchedule, ZeroCoresAndEmptyInputAreSafe) {
  CoreSchedule sched = ScheduleOnCores({}, {}, 0, 0, 0);
  EXPECT_DOUBLE_EQ(sched.busy_ns, 0.0);
  EXPECT_DOUBLE_EQ(sched.wall_ns, 0.0);
  EXPECT_DOUBLE_EQ(sched.cpu_pct, 0.0);
  EXPECT_EQ(sched.core_busy_ns.size(), 1u);  // cores clamps to 1
}

}  // namespace
}  // namespace sud
