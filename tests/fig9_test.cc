// Figure 9 reproduction as a test: after the e1000e driver probes under SUD,
// walking the device's IO page directory yields exactly the published
// layout — TX ring, RX ring, TX buffers, RX buffers at the paper's
// addresses, plus Intel's implicit MSI mapping, and *nothing else*.
//
//   Memory use            Start        End
//   TX ring descriptor    0x42430000   0x42431000
//   RX ring descriptor    0x42431000   0x42433000
//   TX buffers            0x42433000   0x42C33000
//   RX buffers            0x42C33000   0x43433000
//   Implicit MSI mapping  0xFEE00000   0xFEF00000

#include <gtest/gtest.h>

#include "tests/harness.h"

namespace sud {
namespace {

TEST(Figure9, IoMappingsMatchThePaper) {
  testing::NetBench::Options options;
  // The shared-pool allocation would add one more region between the rings
  // and the buffers; Figure 9 was captured before any pool traffic, so use a
  // tiny pool and account for it explicitly below.
  options.sud.pool_buffers = 0;  // no pool region at all for the exact dump
  testing::NetBench bench(options);
  // Pool size 0 would fail Init; export manually instead.
  ASSERT_TRUE(bench.StartSut().ok());

  auto mappings =
      bench.machine.iommu().WalkMappings(bench.sut_nic.address().source_id());

  // Partition into the pool region (first allocation at the base) and the
  // driver's Figure 9 regions.
  ASSERT_GE(mappings.size(), 2u);
  // The implicit MSI window is last (highest address).
  const hw::IoMapping& msi = mappings.back();
  EXPECT_TRUE(msi.implicit_msi);
  EXPECT_EQ(msi.iova_start, 0xFEE00000u);
  EXPECT_EQ(msi.iova_end, 0xFEF00000u);

  // Everything below the MSI window is driver DMA space, virtually
  // contiguous from the Figure 9 base. Physical contiguity may or may not
  // coalesce the walk output, so check coverage rather than range count.
  uint64_t lowest = mappings.front().iova_start;
  uint64_t highest = 0;
  uint64_t covered = 0;
  for (const hw::IoMapping& m : mappings) {
    if (m.implicit_msi) {
      continue;
    }
    highest = std::max(highest, m.iova_end);
    covered += m.iova_end - m.iova_start;
  }
  EXPECT_EQ(lowest, kDmaIovaBase);  // 0x42430000
  // tx ring (0x1000) + rx ring (0x2000) + tx buffers (0x800000) +
  // rx buffers (0x800000) = 0x1003000 bytes, ending at 0x43433000.
  EXPECT_EQ(highest, 0x43433000u);
  EXPECT_EQ(covered, 0x1003000u);  // no holes, nothing extra
}

TEST(Figure9, RegionBoundariesMatchRowByRow) {
  testing::NetBench::Options options;
  options.sud.pool_buffers = 0;
  testing::NetBench bench(options);
  ASSERT_TRUE(bench.StartSut().ok());
  const auto& regions = bench.ctx->dma().regions();

  // Probe-order allocations, keyed by IOVA (Figure 9 rows).
  struct Row {
    uint64_t start, end;
  };
  const Row expected[] = {
      {0x42430000, 0x42431000},  // TX ring descriptors
      {0x42431000, 0x42433000},  // RX ring descriptors
      {0x42433000, 0x42C33000},  // TX buffers
      {0x42C33000, 0x43433000},  // RX buffers
  };
  ASSERT_EQ(regions.size(), 4u);
  size_t i = 0;
  for (const auto& [iova, region] : regions) {
    EXPECT_EQ(region.iova, expected[i].start) << "row " << i;
    EXPECT_EQ(region.iova + region.bytes, expected[i].end) << "row " << i;
    ++i;
  }
}

TEST(Figure9, MaliciousDriverCanOnlyCorruptItsOwnRegions) {
  // "The lack of any other mappings indicates that a malicious device driver
  // can at most corrupt its own transmit and receive buffers, or raise an
  // interrupt using MSI." — §5.2. Check: every writable mapped byte belongs
  // to the driver's own DMA space (or is the MSI doorbell).
  testing::NetBench bench;
  ASSERT_TRUE(bench.StartSut().ok());
  uint16_t source = bench.sut_nic.address().source_id();
  for (const hw::IoMapping& m : bench.machine.iommu().WalkMappings(source)) {
    if (m.implicit_msi) {
      continue;
    }
    for (uint64_t iova = m.iova_start; iova < m.iova_end; iova += hw::kPageSize) {
      EXPECT_TRUE(bench.ctx->dma().HostView(iova, hw::kPageSize).ok())
          << "mapping at " << Hex(iova) << " is not driver-owned DMA memory";
    }
  }
}

}  // namespace
}  // namespace sud
