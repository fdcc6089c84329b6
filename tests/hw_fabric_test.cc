// Fabric-level unit tests: physical memory, PCI config space, BAR
// assignment, DMA routing through switches and the root complex, ACS
// behaviour, the MSI controller, and Machine assembly.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/hw/machine.h"

namespace sud::hw {
namespace {

// A trivial device: one 4 KB MMIO BAR backed by a register array, plus an
// IO BAR, used to probe fabric mechanics without NIC complexity.
class ScratchDevice : public PciDevice {
 public:
  explicit ScratchDevice(std::string name)
      : PciDevice(std::move(name), 0x1234, 0x5678, 0xff,
                  {BarDesc{4096, false}, BarDesc{32, true}}) {}

  uint32_t MmioRead(int bar, uint64_t offset) override {
    if (bar != 0 || offset + 4 > sizeof(regs_)) {
      return 0xffffffffu;
    }
    return LoadLe32(regs_ + offset);
  }
  void MmioWrite(int bar, uint64_t offset, uint32_t value) override {
    if (bar == 0 && offset + 4 <= sizeof(regs_)) {
      StoreLe32(regs_ + offset, value);
    }
  }
  uint8_t IoRead(uint16_t port_offset) override {
    return port_offset < sizeof(io_regs_) ? io_regs_[port_offset] : 0xff;
  }
  void IoWrite(uint16_t port_offset, uint8_t value) override {
    if (port_offset < sizeof(io_regs_)) {
      io_regs_[port_offset] = value;
    }
  }

  // Test helpers to issue DMA from "firmware".
  Status TestDmaWrite(uint64_t addr, ConstByteSpan data) { return DmaWrite(addr, data); }
  Status TestDmaRead(uint64_t addr, ByteSpan out) { return DmaRead(addr, out); }
  Status TestRaiseMsi() { return RaiseMsi(); }

 private:
  uint8_t regs_[4096] = {};
  uint8_t io_regs_[32] = {};
};

TEST(PhysicalMemory, ReadWriteRoundTrip) {
  PhysicalMemory dram(1 << 20);
  uint8_t data[16] = {1, 2, 3, 4};
  ASSERT_TRUE(dram.Write(0x1000, {data, 16}).ok());
  uint8_t out[16] = {};
  ASSERT_TRUE(dram.Read(0x1000, {out, 16}).ok());
  EXPECT_EQ(memcmp(data, out, 16), 0);
}

TEST(PhysicalMemory, BoundsChecked) {
  PhysicalMemory dram(1 << 20);
  uint8_t data[16] = {};
  EXPECT_FALSE(dram.Write((1 << 20) - 8, {data, 16}).ok());
  EXPECT_FALSE(dram.Read((1 << 20), {data, 16}).ok());
}

// This process's resident set, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(PhysicalMemory, CommitsOnFirstTouchAndReadsZero) {
  constexpr uint64_t kSize = 1ull << 30;
  uint64_t before = ResidentBytes();
  PhysicalMemory dram(kSize);
  ASSERT_EQ(dram.size(), kSize);
  for (uint64_t paddr : {uint64_t{0}, kSize / 2, kSize - 1}) {
    uint8_t byte = 0xff;
    ASSERT_TRUE(dram.Read(paddr, {&byte, 1}).ok());
    EXPECT_EQ(byte, 0) << "paddr " << paddr;
  }
  Result<ByteSpan> window = dram.Window(kSize / 2 - kPageSize, 2 * kPageSize);
  ASSERT_TRUE(window.ok());
  EXPECT_TRUE(std::all_of(window.value().begin(), window.value().end(),
                          [](uint8_t b) { return b == 0; }));
  uint8_t written = 0x5a;
  ASSERT_TRUE(dram.Write(kSize / 2, {&written, 1}).ok());
  uint8_t read = 0;
  ASSERT_TRUE(dram.Read(kSize / 2, {&read, 1}).ok());
  EXPECT_EQ(read, 0x5a);
  EXPECT_EQ(window.value()[kPageSize], 0x5a);
  // A few touched pages of a 1 GiB DRAM commit a few pages, not the DRAM.
  EXPECT_LT(ResidentBytes(), before + (64ull << 20));
}

TEST(PhysicalMemory, TypedAccessorsRefuseRangesThatWrap) {
  PhysicalMemory dram(1 << 20);
  dram.Write32((1 << 20) - 4, 0x01020304u);
  EXPECT_EQ(dram.Read32((1 << 20) - 4), 0x01020304u);
  EXPECT_EQ(dram.Read32((1 << 20) - 3), 0u);
  EXPECT_EQ(dram.Read64((1 << 20) - 7), 0u);
  // paddr + width wraps past 2^64 here: a check on the sum would pass, and
  // the access would land just in front of DRAM, straddling its first bytes.
  dram.Write32(UINT64_MAX - 1, 0xffffffffu);
  dram.Write64(UINT64_MAX - 3, ~uint64_t{0});
  EXPECT_EQ(dram.Read32(UINT64_MAX - 1), 0u);
  EXPECT_EQ(dram.Read64(UINT64_MAX - 3), 0u);
  EXPECT_EQ(dram.Read64(0), 0u);
}

TEST(PhysicalMemory, AllocatorFindsRunsAndFrees) {
  PhysicalMemory dram(16 * kPageSize);
  Result<uint64_t> a = dram.AllocPages(4);
  Result<uint64_t> b = dram.AllocPages(4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(dram.allocated_pages(), 8u);
  // Exhaustion.
  EXPECT_FALSE(dram.AllocPages(16).ok());
  dram.FreePages(a.value(), 4);
  dram.FreePages(b.value(), 4);
  EXPECT_EQ(dram.allocated_pages(), 0u);
  EXPECT_TRUE(dram.AllocPages(16).ok());
}

// The first-fit allocator as it was first written, one page at a time: the
// reference the word-bitmap allocator must agree with on every call.
class BitAtATimeAllocator {
 public:
  explicit BitAtATimeAllocator(uint64_t pages) : used_(pages, false) {}

  Result<uint64_t> AllocPages(uint64_t num_pages) {
    uint64_t run = 0;
    for (uint64_t i = 0; i < used_.size(); ++i) {
      run = used_[i] ? 0 : run + 1;
      if (run == num_pages) {
        for (uint64_t j = i + 1 - num_pages; j <= i; ++j) {
          used_[j] = true;
        }
        allocated_ += num_pages;
        return (i + 1 - num_pages) * kPageSize;
      }
    }
    return Status(ErrorCode::kExhausted, "out of physical pages");
  }

  void FreePages(uint64_t paddr, uint64_t num_pages) {
    for (uint64_t j = paddr / kPageSize; j < paddr / kPageSize + num_pages && j < used_.size();
         ++j) {
      allocated_ -= used_[j] ? 1 : 0;
      used_[j] = false;
    }
  }

  uint64_t allocated_pages() const { return allocated_; }

 private:
  std::vector<bool> used_;
  uint64_t allocated_ = 0;
};

// Property: over a seeded mix of a few thousand calls, every AllocPages
// result and every allocated_pages() count equals the reference's. The DRAM
// is not a whole number of 64-page words, runs reach 3,000 pages and
// straddle words, frees hit free, never-allocated and out-of-DRAM pages, and
// DRAM runs out.
class PhysicalMemoryAllocatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhysicalMemoryAllocatorPropertyTest, MatchesBitAtATimeFirstFit) {
  constexpr uint64_t kPages = 64 * 96 + 37;
  Rng rng(GetParam());
  PhysicalMemory dram(kPages * kPageSize);
  BitAtATimeAllocator reference(kPages);
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (paddr, pages)
  int exhausted = 0;
  int big_runs = 0;  // runs of 1,000 pages or more
  int straddles = 0;
  int stray_frees = 0;
  for (int call = 0; call < 3000; ++call) {
    uint64_t pick = rng.Below(100);
    if (pick < 50) {
      uint64_t pages = rng.Chance(1, 20)   ? rng.Between(1000, 3000)
                       : rng.Chance(1, 4) ? rng.Between(64, 300)
                                          : rng.Between(1, 70);
      Result<uint64_t> got = dram.AllocPages(pages);
      Result<uint64_t> want = reference.AllocPages(pages);
      ASSERT_EQ(got.ok(), want.ok()) << "call " << call << ", " << pages << " pages";
      if (got.ok()) {
        ASSERT_EQ(got.value(), want.value()) << "call " << call << ", " << pages << " pages";
        live.emplace_back(got.value(), pages);
        big_runs += pages >= 1000;
        straddles += (got.value() / kPageSize) / 64 != (got.value() / kPageSize + pages - 1) / 64;
      } else {
        EXPECT_EQ(got.status().code(), ErrorCode::kExhausted);
        ++exhausted;
      }
    } else if (pick < 85 && !live.empty()) {
      // Free a live run whole, or a slice of it that may start mid-word.
      size_t index = rng.Below(live.size());
      auto [paddr, pages] = live[index];
      uint64_t skip = rng.Chance(1, 3) ? rng.Below(pages) : 0;
      uint64_t count = skip != 0 ? rng.Between(1, pages - skip) : pages;
      dram.FreePages(paddr + skip * kPageSize, count);
      reference.FreePages(paddr + skip * kPageSize, count);
      live.erase(live.begin() + index);
    } else {
      // A stray free: any pages, free or not, possibly past the end of DRAM.
      uint64_t first = rng.Below(kPages + 100);
      uint64_t count = rng.Between(1, 200);
      dram.FreePages(first * kPageSize, count);
      reference.FreePages(first * kPageSize, count);
      ++stray_frees;
    }
    ASSERT_EQ(dram.allocated_pages(), reference.allocated_pages()) << "call " << call;
  }
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(big_runs, 0);
  EXPECT_GT(straddles, 0);
  EXPECT_GT(stray_frees, 0);
  // Freed whole, DRAM takes one run of every page and not one more.
  dram.FreePages(0, kPages);
  EXPECT_EQ(dram.allocated_pages(), 0u);
  EXPECT_EQ(dram.AllocPages(kPages + 1).status().code(), ErrorCode::kExhausted);
  EXPECT_EQ(dram.AllocPages(kPages).value(), 0u);
  EXPECT_EQ(dram.AllocPages(1).status().code(), ErrorCode::kExhausted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysicalMemoryAllocatorPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 25u));

TEST(PciConfig, VendorDeviceAndCapabilities) {
  PciConfigSpace config(0x8086, 0x10d3, 0x02);
  EXPECT_EQ(config.vendor_id(), 0x8086);
  EXPECT_EQ(config.device_id(), 0x10d3);
  // Capability pointer leads to the MSI capability.
  uint8_t cap = static_cast<uint8_t>(config.Read(kPciCapPointer, 1));
  EXPECT_EQ(cap, kMsiCapOffset);
  EXPECT_EQ(config.Read(cap, 1), kMsiCapId);
}

TEST(PciConfig, MsiMaskAndAddress) {
  PciConfigSpace config(1, 2, 3);
  EXPECT_FALSE(config.msi_enabled());
  config.set_msi_address(0xFEE00000ull);
  config.set_msi_data(42);
  config.set_msi_enabled(true);
  EXPECT_TRUE(config.msi_enabled());
  EXPECT_EQ(config.msi_address(), 0xFEE00000ull);
  EXPECT_EQ(config.msi_data(), 42);
  EXPECT_FALSE(config.msi_masked());
  config.set_msi_masked(true);
  EXPECT_TRUE(config.msi_masked());
}

TEST(PciConfig, OutOfRangeReadsAllOnes) {
  PciConfigSpace config(1, 2, 3);
  EXPECT_EQ(config.Read(0xfe, 4), 0xffffffffu);
}

TEST(Machine, AssignsAddressesAndBars) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev_a("a"), dev_b("b");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev_a).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &dev_b).ok());

  EXPECT_NE(dev_a.address().source_id(), dev_b.address().source_id());
  uint64_t bar_a = dev_a.config().bar(0);
  uint64_t bar_b = dev_b.config().bar(0);
  EXPECT_GE(bar_a, kMmioWindowBase);
  EXPECT_NE(bar_a, bar_b);
  EXPECT_TRUE(IsPageAligned(bar_a));
  EXPECT_TRUE(IsPageAligned(bar_b));
  // IO BARs distinct too.
  EXPECT_NE(dev_a.config().bar(1), dev_b.config().bar(1));
}

TEST(Machine, MmioRoutesToOwningDevice) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandMemEnable);

  uint64_t bar = dev.config().bar(0);
  machine.MmioWrite32(bar + 0x10, 0xabcd1234);
  EXPECT_EQ(machine.MmioRead32(bar + 0x10), 0xabcd1234u);
  // Unclaimed address: master abort.
  EXPECT_EQ(machine.MmioRead32(kMmioWindowBase - 0x1000), 0xffffffffu);
}

TEST(Machine, MmioRespectsMemEnable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  uint64_t bar = dev.config().bar(0);
  machine.MmioWrite32(bar, 0x1111);                 // mem decode off: dropped
  EXPECT_EQ(machine.MmioRead32(bar), 0xffffffffu);  // and reads abort
  dev.config().set_command(kPciCommandMemEnable);
  machine.MmioWrite32(bar, 0x1111);
  EXPECT_EQ(machine.MmioRead32(bar), 0x1111u);
}

TEST(Machine, IoPortsRouteAndRespectIoEnable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  uint16_t base = static_cast<uint16_t>(dev.config().bar(1));
  machine.IoPortWrite(base + 3, 0x7e);             // io decode off
  EXPECT_EQ(machine.IoPortRead(base + 3), 0xff);
  dev.config().set_command(kPciCommandIoEnable);
  machine.IoPortWrite(base + 3, 0x7e);
  EXPECT_EQ(machine.IoPortRead(base + 3), 0x7e);
  EXPECT_EQ(machine.IoPortOwner(base + 3), &dev);
  EXPECT_EQ(machine.IoPortOwner(0x60), nullptr);
}

TEST(Fabric, DmaRequiresBusMaster) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  ASSERT_TRUE(machine.iommu().CreateContext(dev.address().source_id()).ok());
  ASSERT_TRUE(machine.iommu()
                  .Map(dev.address().source_id(), 0x10000, 0x4000, kPageSize, true, true)
                  .ok());
  uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_EQ(dev.TestDmaWrite(0x10000, {data, 4}).code(), ErrorCode::kPermissionDenied);
  dev.config().set_command(kPciCommandBusMaster);
  EXPECT_TRUE(dev.TestDmaWrite(0x10000, {data, 4}).ok());
  EXPECT_EQ(machine.dram().Read32(0x4000), 0x04030201u);
}

TEST(Fabric, DmaSplitsPageCrossingBursts) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  uint16_t src = dev.address().source_id();
  ASSERT_TRUE(machine.iommu().CreateContext(src).ok());
  // Two virtually-contiguous pages mapped to *discontiguous* frames.
  ASSERT_TRUE(machine.iommu().Map(src, 0x10000, 0x8000, kPageSize, true, true).ok());
  ASSERT_TRUE(machine.iommu().Map(src, 0x11000, 0xa000, kPageSize, true, true).ok());

  std::vector<uint8_t> data(256);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  // Burst crossing the page boundary at 0x11000.
  ASSERT_TRUE(dev.TestDmaWrite(0x10f80, {data.data(), data.size()}).ok());
  std::vector<uint8_t> lo(128), hi(128);
  ASSERT_TRUE(machine.dram().Read(0x8f80, {lo.data(), lo.size()}).ok());
  ASSERT_TRUE(machine.dram().Read(0xa000, {hi.data(), hi.size()}).ok());
  EXPECT_EQ(memcmp(lo.data(), data.data(), 128), 0);
  EXPECT_EQ(memcmp(hi.data(), data.data() + 128, 128), 0);
}

TEST(Fabric, MsiRangeIsNotReadable) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  uint8_t out[4];
  EXPECT_FALSE(dev.TestDmaRead(kMsiRangeBase, {out, 4}).ok());
}

TEST(Fabric, MsiDeliveryThroughConfigCapability) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.config().set_msi_address(kMsiRangeBase);
  dev.config().set_msi_data(55);
  dev.config().set_msi_enabled(true);

  int delivered_vector = -1;
  machine.msi().set_handler([&](uint8_t vector, uint16_t) { delivered_vector = vector; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());
  EXPECT_EQ(delivered_vector, 55);
  EXPECT_EQ(machine.msi().delivered(55), 1u);
}

TEST(Fabric, MaskedMsiPendsAndFiresOnUnmask) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.config().set_msi_address(kMsiRangeBase);
  dev.config().set_msi_data(56);
  dev.config().set_msi_enabled(true);
  dev.config().set_msi_masked(true);

  int count = 0;
  machine.msi().set_handler([&](uint8_t, uint16_t) { ++count; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());
  EXPECT_EQ(count, 0);
  EXPECT_TRUE(dev.msi_pending());
  dev.config().set_msi_masked(false);
  ASSERT_TRUE(dev.FirePendingMsi().ok());
  EXPECT_EQ(count, 1);
}

TEST(Fabric, DisabledMsiDropsInterrupt) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice dev("a");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  dev.config().set_command(kPciCommandBusMaster);
  int count = 0;
  machine.msi().set_handler([&](uint8_t, uint16_t) { ++count; });
  ASSERT_TRUE(dev.TestRaiseMsi().ok());  // MSI disabled: silently dropped
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(dev.msi_pending());
}

TEST(Acs, PeerWriteDeliveredWhenOff) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  ScratchDevice attacker("attacker"), victim("victim");
  ASSERT_TRUE(machine.AttachDevice(sw, &attacker).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &victim).ok());
  attacker.config().set_command(kPciCommandBusMaster);
  victim.config().set_command(kPciCommandMemEnable);

  uint64_t victim_bar = victim.config().bar(0);
  uint8_t payload[4] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(attacker.TestDmaWrite(victim_bar + 0x40, {payload, 4}).ok());
  EXPECT_EQ(victim.MmioRead(0, 0x40), 0xefbeaddeu);
  EXPECT_EQ(sw.p2p_deliveries(), 1u);
}

TEST(Acs, PeerWriteRedirectedAndFaultedWhenOn) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  sw.set_acs({true, true});
  ScratchDevice attacker("attacker"), victim("victim");
  ASSERT_TRUE(machine.AttachDevice(sw, &attacker).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &victim).ok());
  attacker.config().set_command(kPciCommandBusMaster);
  victim.config().set_command(kPciCommandMemEnable);
  ASSERT_TRUE(machine.iommu().CreateContext(attacker.address().source_id()).ok());

  uint64_t victim_bar = victim.config().bar(0);
  uint8_t payload[4] = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(attacker.TestDmaWrite(victim_bar + 0x40, {payload, 4}).code(),
            ErrorCode::kIommuFault);
  EXPECT_EQ(victim.MmioRead(0, 0x40), 0u);
  EXPECT_EQ(sw.p2p_deliveries(), 0u);
}

TEST(Acs, SourceValidationBlocksSpoofing) {
  Machine machine;
  PcieSwitch& sw = machine.AddSwitch("sw0");
  sw.set_acs({true, true});
  ScratchDevice dev("dev"), other("other");
  ASSERT_TRUE(machine.AttachDevice(sw, &dev).ok());
  ASSERT_TRUE(machine.AttachDevice(sw, &other).ok());
  dev.config().set_command(kPciCommandBusMaster);
  dev.set_spoofed_source_id(other.address().source_id());

  uint8_t data[4] = {};
  EXPECT_EQ(dev.TestDmaWrite(0x4000, {data, 4}).code(), ErrorCode::kAcsBlocked);
  EXPECT_EQ(sw.blocked_by_source_validation(), 1u);
}

}  // namespace
}  // namespace sud::hw
