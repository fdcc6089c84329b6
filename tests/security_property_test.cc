// Randomized security property tests: fuzz the driver-reachable surfaces
// with adversarial inputs and assert the confinement invariants hold for
// *every* input, not just the hand-picked attacks of security_test.cc.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/drivers/malicious.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kDriverUid;
using testing::NetBench;

// Property: no sequence of config-space writes through the filtered syscall
// can change a routing-sensitive register (BARs, MSI address/data/control,
// capability pointer, vendor/device id).
class ConfigFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfigFuzzTest, SensitiveRegistersAreImmutable) {
  Rng rng(GetParam());
  NetBench bench;
  kern::Process& proc = bench.kernel.processes().Spawn("fuzz", kDriverUid);
  ASSERT_TRUE(bench.ctx->Bind(&proc).ok());

  hw::PciConfigSpace& config = bench.sut_nic.config();
  struct Sensitive {
    uint16_t offset;
    int width;
  };
  const Sensitive sensitive[] = {
      {hw::kPciVendorId, 2}, {hw::kPciDeviceId, 2}, {hw::kPciBar0, 4},
      {hw::kPciBar0 + 4, 4}, {hw::kPciCapPointer, 1}, {hw::kMsiAddress, 4},
      {hw::kMsiAddress + 4, 4}, {hw::kMsiData, 2}, {hw::kMsiControl, 2},
  };
  std::vector<uint32_t> before;
  for (const Sensitive& reg : sensitive) {
    before.push_back(config.Read(reg.offset, reg.width));
  }

  for (int i = 0; i < 2000; ++i) {
    uint16_t offset = static_cast<uint16_t>(rng.Below(0x110));  // incl. past-end
    int width = 1 << rng.Below(3);
    uint32_t value = static_cast<uint32_t>(rng.Next());
    (void)bench.ctx->ConfigWrite(offset, width, value);
  }

  // MSI may be masked/unmasked by the kernel but never by the driver; all
  // sensitive registers must read back exactly as before.
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(config.Read(sensitive[i].offset, sensitive[i].width), before[i])
        << "sensitive register at offset " << sensitive[i].offset << " changed";
  }
  // The MSI doorbell still points at the MSI window (no redirection).
  EXPECT_EQ(config.msi_address(), hw::kMsiRangeBase);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTest, ::testing::Values(101, 202, 303));

// Property: no MMIO access through the mediated surface can escape the
// device's own BAR windows, for any (bar, offset) the driver invents.
class MmioFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MmioFuzzTest, AccessesConfinedToOwnBars) {
  Rng rng(GetParam());
  NetBench bench;
  kern::Process& proc = bench.kernel.processes().Spawn("fuzz", kDriverUid);
  ASSERT_TRUE(bench.ctx->Bind(&proc).ok());

  // Snapshot a peer register a stray write would clobber.
  uint32_t peer_tdbal = bench.peer_nic.MmioRead(0, devices::kNicRegTdbal);

  for (int i = 0; i < 2000; ++i) {
    int bar = static_cast<int>(rng.Below(8)) - 2;  // invalid indices included
    uint64_t offset = rng.Chance(1, 4) ? rng.Next()  // wild 64-bit offsets
                                       : rng.Below(256 * 1024);
    if (rng.Chance(1, 2)) {
      Result<uint32_t> value = bench.ctx->MmioRead(bar, offset);
      if (value.ok()) {
        // An allowed read must be within BAR0's 128 KB.
        EXPECT_EQ(bar, 0);
        EXPECT_LE(offset + 4, 128u * 1024);
      }
    } else {
      (void)bench.ctx->MmioWrite(bar, offset, static_cast<uint32_t>(rng.Next()));
    }
  }
  EXPECT_EQ(bench.peer_nic.MmioRead(0, devices::kNicRegTdbal), peer_tdbal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmioFuzzTest, ::testing::Values(7, 77, 777));

// Property: whatever descriptor garbage a malicious driver programs, the
// device's DMA never touches physical memory outside the driver's own
// mappings: after any number of random attacks, all non-driver DRAM is
// byte-identical.
class DmaFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmaFuzzTest, DeviceDmaNeverEscapesDriverMappings) {
  Rng rng(GetParam());
  NetBench bench;
  // Fill a sentinel page with a known pattern.
  uint64_t sentinel = bench.machine.dram().AllocPages(4).value();
  std::vector<uint8_t> pattern(4 * hw::kPageSize);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>(rng.NextByte());
  }
  ASSERT_TRUE(bench.machine.dram().Write(sentinel, {pattern.data(), pattern.size()}).ok());

  auto attack = std::make_unique<drivers::DmaAttackDriver>(0);
  auto* p = attack.get();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  std::vector<uint8_t> payload(64, 0x5c);
  for (int round = 0; round < 40; ++round) {
    // Random attack targets: the sentinel, wild addresses, MSI window,
    // page-straddling addresses.
    uint64_t target;
    switch (rng.Below(4)) {
      case 0:
        target = sentinel + rng.Below(4 * hw::kPageSize);
        break;
      case 1:
        target = rng.Next() & 0xffffffff;
        break;
      case 2:
        target = hw::kMsiRangeBase + rng.Below(hw::kMsiRangeSize);
        break;
      default:
        target = bench.peer_nic.config().bar(0) + rng.Below(4096);
        break;
    }
    // Reuse the attack driver's machinery against the new target by
    // rewriting its descriptor directly (the driver owns its ring memory).
    drivers::DmaAttackDriver fresh(target);
    if (rng.Chance(1, 2)) {
      (void)p->LaunchTxRead();
    } else {
      (void)p->LaunchRxWrite();
      (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
    }
  }

  std::vector<uint8_t> after(pattern.size());
  ASSERT_TRUE(bench.machine.dram().Read(sentinel, {after.data(), after.size()}).ok());
  EXPECT_EQ(pattern, after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmaFuzzTest, ::testing::Values(9, 99));

// Property: random netif_rx downcall arguments never crash the proxy and
// never deliver bytes the stack did not validate.
class RxFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RxFuzzTest, BogusDowncallsNeverDeliverUnvalidatedPackets) {
  Rng rng(GetParam());
  NetBench bench;
  auto attack = std::make_unique<drivers::BogusRxDriver>();
  ASSERT_TRUE(bench.host->Start(std::move(attack)).ok());

  int delivered = 0;
  bench.kernel.net().Find("eth0")->set_rx_sink([&](const kern::Skb& skb) {
    ++delivered;
    // Anything that reaches the sink must be checksum-verified.
    EXPECT_TRUE(skb.checksum_verified);
  });

  for (int i = 0; i < 500; ++i) {
    DmaFrag frame;
    frame.iova = rng.Chance(1, 3) ? kDmaIovaBase + rng.Below(1 << 20) : rng.Next();
    frame.len = static_cast<uint32_t>(rng.Below(1 << 18));
    (void)bench.host->runtime()->NetifRx({&frame, 1});
    if (i % 50 == 0) {
      bench.host->Pump();
    }
  }
  bench.host->Pump();
  // Random bytes essentially never form a valid checksummed packet; and the
  // kernel is still alive to assert that.
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(bench.proxy->stats().rx_malformed +
            bench.kernel.net().Find("eth0")->stats().rx_dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RxFuzzTest, ::testing::Values(13, 31));

}  // namespace
}  // namespace sud
