// IOMMU unit + property tests: mapping semantics, translation, faults,
// IOTLB, interrupt remapping, MSI-range rules, and the Figure 9 walk.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/base/rng.h"
#include "src/hw/iommu.h"

namespace sud::hw {
namespace {

constexpr uint16_t kSrc = 0x0100;
constexpr uint16_t kOther = 0x0200;

TEST(Iommu, TranslateRequiresContext) {
  Iommu iommu;
  Result<uint64_t> result = iommu.Translate(kSrc, 0x1000, 4, false);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(iommu.faults().size(), 1u);
  EXPECT_EQ(iommu.faults()[0].reason, "no context (device not assigned)");
}

TEST(Iommu, MapTranslateUnmap) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());

  Result<uint64_t> hit = iommu.Translate(kSrc, 0x10123, 8, true);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), 0x80123u);

  ASSERT_TRUE(iommu.Unmap(kSrc, 0x10000, kPageSize).ok());
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10123, 8, true).ok());
}

TEST(Iommu, ContextsAreIsolated) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.CreateContext(kOther).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  // Same IOVA, other device: faults.
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
  EXPECT_FALSE(iommu.Translate(kOther, 0x10000, 4, false).ok());
}

TEST(Iommu, RejectsUnalignedAndOverlappingMaps) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  EXPECT_EQ(iommu.Map(kSrc, 0x10001, 0x80000, kPageSize, true, true).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(iommu.Map(kSrc, 0x10000, 0x80001, kPageSize, true, true).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(iommu.Map(kSrc, 0x10000, 0x80000, 100, true, true).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 4 * kPageSize, true, true).ok());
  // Overlap with an existing mapping is refused whole.
  EXPECT_EQ(iommu.Map(kSrc, 0x12000, 0x90000, 2 * kPageSize, true, true).code(),
            ErrorCode::kAlreadyExists);
  // And the refused map installed nothing new past the overlap.
  EXPECT_FALSE(iommu.Translate(kSrc, 0x14000, 4, false).ok());
}

TEST(Iommu, PermissionBitsEnforced) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, /*readable=*/true,
                        /*writable=*/false).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, /*is_write=*/false).ok());
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 4, /*is_write=*/true).ok());
  ASSERT_TRUE(iommu.Unmap(kSrc, 0x10000, kPageSize).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, /*readable=*/false,
                        /*writable=*/true).ok());
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 4, /*is_write=*/false).ok());
}

TEST(Iommu, PageCrossingAccessFaults) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 2 * kPageSize, true, true).ok());
  // A single Translate may not span pages (the root complex splits bursts).
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10ffc, 8, false).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10ff8, 8, false).ok());
}

TEST(Iommu, IotlbHitsAfterFirstWalk) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
  uint64_t misses = iommu.iotlb_stats().misses;
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10008, 4, false).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10010, 4, false).ok());
  EXPECT_EQ(iommu.iotlb_stats().misses, misses);
  EXPECT_GE(iommu.iotlb_stats().hits, 2u);
}

TEST(Iommu, UnmapInvalidatesIotlb) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());  // cached
  ASSERT_TRUE(iommu.Unmap(kSrc, 0x10000, kPageSize).ok());
  // Stale IOTLB entries must not survive the unmap.
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
}

TEST(Iommu, QueuedInvalidationBatches) {
  Iommu iommu;
  iommu.set_queued_invalidation(true);
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 4 * kPageSize, true, true).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(iommu.Translate(kSrc, 0x10000 + i * kPageSize, 4, false).ok());
  }
  uint64_t invalidations_before = iommu.iotlb_stats().invalidations;
  for (int i = 0; i < 4; ++i) {
    iommu.QueueInvalidate(kSrc, 0x10000 + i * kPageSize);
  }
  // Nothing applied yet.
  EXPECT_EQ(iommu.iotlb_stats().invalidations, invalidations_before);
  iommu.SyncInvalidations();
  // One synchronisation for the whole batch.
  EXPECT_EQ(iommu.iotlb_stats().invalidations, invalidations_before + 1);
}

// ---- Write sealing: per-page permission downgrade on a live mapping -----

TEST(IommuSeal, SealBlocksWritesKeepsReads) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 2 * kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, kPageSize).ok());
  EXPECT_TRUE(iommu.IsWriteSealed(kSrc, 0x10000));
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x11000));
  // Sealed page: write faults (and is counted), read still translates.
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 64, true).ok());
  EXPECT_EQ(iommu.seal_stats().blocked_writes, 1u);
  ASSERT_EQ(iommu.faults().size(), 1u);
  EXPECT_EQ(iommu.faults()[0].reason, "write to sealed page");
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 64, false).ok());
  // The neighbouring page is untouched.
  EXPECT_TRUE(iommu.Translate(kSrc, 0x11000, 64, true).ok());
  // Unseal restores the write permission the mapping always had.
  ASSERT_TRUE(iommu.UnsealWrite(kSrc, 0x10000, kPageSize).ok());
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x10000));
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 64, true).ok());
  EXPECT_EQ(iommu.seal_stats().seals, 1u);
  EXPECT_EQ(iommu.seal_stats().unseals, 1u);
}

TEST(IommuSeal, SealAndUnsealAreIdempotent) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, kPageSize).ok());
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, kPageSize).ok());
  // The second seal was a no-op: one transition, one shootdown.
  EXPECT_EQ(iommu.seal_stats().seals, 1u);
  EXPECT_EQ(iommu.seal_stats().shootdowns, 1u);
  ASSERT_TRUE(iommu.UnsealWrite(kSrc, 0x10000, kPageSize).ok());
  ASSERT_TRUE(iommu.UnsealWrite(kSrc, 0x10000, kPageSize).ok());
  EXPECT_EQ(iommu.seal_stats().unseals, 1u);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, true).ok());
}

TEST(IommuSeal, AMappingOverAnUnmappedSealedPageStartsUnsealed) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, kPageSize).ok());
  ASSERT_TRUE(iommu.Unmap(kSrc, 0x10000, kPageSize).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x90000, kPageSize, true, true).ok());
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x10000));
  Result<uint64_t> write = iommu.Translate(kSrc, 0x10010, 8, true);
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write.value(), 0x90010u);
  EXPECT_TRUE(iommu.faults().empty());
}

// The table indexes bits 12-38: an IOVA at or past 2^39 must be refused by
// every entry point, never taken for the page 2^39 below it.
TEST(Iommu, IovasPastTheIoSpaceAreRefusedEverywhere) {
  constexpr uint64_t kIoSpace = uint64_t{1} << 39;
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x20000, 0x80000, kPageSize, true, true).ok());
  Result<uint64_t> read = iommu.Translate(kSrc, kIoSpace + 0x20000, 4, false);
  EXPECT_EQ(read.status().code(), ErrorCode::kIommuFault);
  ASSERT_EQ(iommu.faults().size(), 1u);
  EXPECT_EQ(iommu.faults()[0].reason, "iova beyond 39-bit io-virtual space");
  EXPECT_FALSE(iommu.Translate(kSrc, UINT64_MAX - 3, 4, false).ok());
  EXPECT_EQ(iommu.SealWrite(kSrc, kIoSpace + 0x20000, kPageSize).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x20000));
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x20000, kPageSize).ok());
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, kIoSpace + 0x20000));
  EXPECT_EQ(iommu.UnsealWrite(kSrc, kIoSpace + 0x20000, kPageSize).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_TRUE(iommu.IsWriteSealed(kSrc, 0x20000));
  EXPECT_EQ(iommu.Unmap(kSrc, kIoSpace + 0x20000, kPageSize).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(iommu.MappedBytes(kSrc), kPageSize);
  // A range that starts inside and runs past the end is refused whole.
  EXPECT_EQ(iommu.Map(kSrc, kIoSpace - kPageSize, 0x90000, 2 * kPageSize, true, true).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(iommu.Unmap(kSrc, kIoSpace - kPageSize, 2 * kPageSize).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(iommu.MappedBytes(kSrc), kPageSize);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x20000, 4, false).ok());
}

TEST(IommuSeal, PartialRangeIsRejectedWhole) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 2 * kPageSize, true, true).ok());
  // The third page is unmapped: the all-or-nothing pre-check refuses the
  // whole range and seals nothing.
  EXPECT_EQ(iommu.SealWrite(kSrc, 0x10000, 3 * kPageSize).code(), ErrorCode::kInvalidArgument);
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x10000));
  EXPECT_FALSE(iommu.IsWriteSealed(kSrc, 0x11000));
  EXPECT_EQ(iommu.seal_stats().seals, 0u);
  // Unaligned iova: rejected outright.
  EXPECT_EQ(iommu.SealWrite(kSrc, 0x10008, kPageSize).code(), ErrorCode::kInvalidArgument);
  // Unseal over a range never sealed is the idempotent no-op, but over an
  // unmapped range it is the same whole-range refusal.
  EXPECT_EQ(iommu.UnsealWrite(kSrc, 0x10000, 3 * kPageSize).code(), ErrorCode::kInvalidArgument);
}

TEST(IommuSeal, QueuedInvalidationBatchesUnseals) {
  Iommu iommu;
  iommu.set_queued_invalidation(true);
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 4 * kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, 4 * kPageSize).ok());
  // Seal-side shootdowns are ALWAYS synchronous — a cached writable entry
  // would admit the racing write the seal exists to stop.
  EXPECT_EQ(iommu.seal_stats().shootdowns, 4u);
  ASSERT_TRUE(iommu.UnsealWrite(kSrc, 0x10000, 4 * kPageSize).ok());
  // Unseal-side invalidations ride the queue: a stale sealed entry only
  // over-blocks (fails safe), so nothing synchronised yet...
  EXPECT_EQ(iommu.seal_stats().shootdowns, 4u);
  iommu.SyncInvalidations();
  // ...and the whole unseal batch costs ONE synchronisation.
  EXPECT_EQ(iommu.seal_stats().shootdowns, 5u);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x13000, 4, true).ok());
}

TEST(IommuSeal, ConcurrentDeviceWritesNeverBypassTheSeal) {
  // A device hammering writes while the proxy seals and unseals: every
  // individual write either lands on a writable page or faults on a sealed
  // one — at no interleaving does a write land BETWEEN seal and unseal. Run
  // under TSan this also proves the seal path is data-race free against the
  // translation path.
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> landed{0}, faulted{0};
  std::thread device([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (iommu.Translate(kSrc, 0x10000, 64, true).ok()) {
        landed.fetch_add(1, std::memory_order_relaxed);
      } else {
        faulted.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(iommu.SealWrite(kSrc, 0x10000, kPageSize).ok());
    ASSERT_TRUE(iommu.UnsealWrite(kSrc, 0x10000, kPageSize).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  device.join();
  // Accounting is exact: every blocked write the device saw as a fault.
  EXPECT_EQ(iommu.seal_stats().blocked_writes, faulted.load());
  EXPECT_EQ(iommu.seal_stats().seals, 200u);
  EXPECT_EQ(iommu.seal_stats().unseals, 200u);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 64, true).ok());
}

TEST(Iommu, InterruptRemappingBlocksUnmappedVectors) {
  Iommu iommu;
  iommu.set_interrupt_remapping(true);
  ASSERT_TRUE(iommu.SetInterruptRemapEntry(kSrc, 40, 40).ok());
  EXPECT_EQ(iommu.RemapInterrupt(kSrc, 40).value(), 40);
  EXPECT_FALSE(iommu.RemapInterrupt(kSrc, 41).ok());       // no entry
  EXPECT_FALSE(iommu.RemapInterrupt(kOther, 40).ok());     // wrong source
  ASSERT_TRUE(iommu.SetInterruptRemapEntry(kSrc, 40, std::nullopt).ok());
  EXPECT_FALSE(iommu.RemapInterrupt(kSrc, 40).ok());       // explicitly blocked
}

TEST(Iommu, RemappingDisabledPassesThrough) {
  Iommu iommu;
  EXPECT_EQ(iommu.RemapInterrupt(kSrc, 99).value(), 99);
}

TEST(Iommu, IntelAlwaysAllowsMsiWrites) {
  Iommu iommu(IommuMode::kIntelVtd);
  // No context at all: the implicit mapping still lets MSI writes through —
  // the Section 5.2 weakness.
  EXPECT_TRUE(iommu.AllowsMsiWrite(kSrc));
}

TEST(Iommu, AmdRequiresExplicitMsiMapping) {
  Iommu iommu(IommuMode::kAmdVi);
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  EXPECT_FALSE(iommu.AllowsMsiWrite(kSrc));
  ASSERT_TRUE(iommu.Map(kSrc, kMsiRangeBase, kMsiRangeBase, kPageSize, false, true).ok());
  EXPECT_TRUE(iommu.AllowsMsiWrite(kSrc));
  ASSERT_TRUE(iommu.Unmap(kSrc, kMsiRangeBase, kPageSize).ok());
  EXPECT_FALSE(iommu.AllowsMsiWrite(kSrc));  // the AMD storm defence
}

TEST(Iommu, WalkCoalescesContiguousRanges) {
  Iommu iommu(IommuMode::kIntelVtd);
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 2 * kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x12000, 0x82000, kPageSize, true, true).ok());   // contiguous
  ASSERT_TRUE(iommu.Map(kSrc, 0x20000, 0x90000, kPageSize, true, true).ok());   // gap

  auto mappings = iommu.WalkMappings(kSrc);
  // One coalesced range + one island + the implicit MSI window.
  ASSERT_EQ(mappings.size(), 3u);
  EXPECT_EQ(mappings[0].iova_start, 0x10000u);
  EXPECT_EQ(mappings[0].iova_end, 0x13000u);
  EXPECT_EQ(mappings[1].iova_start, 0x20000u);
  EXPECT_TRUE(mappings[2].implicit_msi);
  EXPECT_EQ(mappings[2].iova_start, kMsiRangeBase);
}

TEST(Iommu, DestroyContextDropsEverything) {
  Iommu iommu;
  iommu.set_interrupt_remapping(true);
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.SetInterruptRemapEntry(kSrc, 40, 40).ok());
  ASSERT_TRUE(iommu.DestroyContext(kSrc).ok());
  EXPECT_FALSE(iommu.HasContext(kSrc));
  EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
  EXPECT_FALSE(iommu.RemapInterrupt(kSrc, 40).ok());
  EXPECT_EQ(iommu.DestroyContext(kSrc).code(), ErrorCode::kNotFound);
}

TEST(Iommu, MappedBytesTracksMapUnmap) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  EXPECT_EQ(iommu.MappedBytes(kSrc), 0u);
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 3 * kPageSize, true, true).ok());
  EXPECT_EQ(iommu.MappedBytes(kSrc), 3 * kPageSize);
  ASSERT_TRUE(iommu.Unmap(kSrc, 0x11000, kPageSize).ok());
  EXPECT_EQ(iommu.MappedBytes(kSrc), 2 * kPageSize);
}

// Map walks to each leaf table once (512 PTEs, 2 MiB of IOVA) and keeps its
// all-or-nothing overlap pass: an overlap in the second leaf of a straddling
// map refuses it whole, with no PTE written in the first. A missing leaf
// table overlaps nothing.
TEST(Iommu, MapStraddlingALeafTableIsRefusedWholeOnASecondLeafOverlap) {
  constexpr uint64_t kLeafBytes = 512 * kPageSize;
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, kLeafBytes + 5 * kPageSize, 0x900000, kPageSize, true, true).ok());
  Status refused = iommu.Map(kSrc, kLeafBytes - 8 * kPageSize, 0x800000, 16 * kPageSize, true,
                             true);
  EXPECT_EQ(refused.code(), ErrorCode::kAlreadyExists);
  EXPECT_NE(refused.ToString().find(Hex(kLeafBytes + 5 * kPageSize)), std::string::npos)
      << refused.ToString();
  std::vector<IoMapping> walk = iommu.WalkMappings(kSrc);
  ASSERT_EQ(walk.size(), 2u);  // the one page, then the MSI window
  EXPECT_EQ(walk[0].iova_start, kLeafBytes + 5 * kPageSize);
  EXPECT_EQ(walk[0].iova_end, kLeafBytes + 6 * kPageSize);
  EXPECT_EQ(iommu.MappedBytes(kSrc), kPageSize);
  EXPECT_FALSE(iommu.Translate(kSrc, kLeafBytes - 8 * kPageSize, 4, false).ok());

  // Without the overlap, the same map spans both leaves, and a map over three
  // leaf tables translates page by page.
  ASSERT_TRUE(iommu.Unmap(kSrc, kLeafBytes + 5 * kPageSize, kPageSize).ok());
  ASSERT_TRUE(
      iommu.Map(kSrc, kLeafBytes - 8 * kPageSize, 0x800000, 16 * kPageSize, true, true).ok());
  walk = iommu.WalkMappings(kSrc);
  ASSERT_EQ(walk.size(), 2u);
  EXPECT_EQ(walk[0].iova_start, kLeafBytes - 8 * kPageSize);
  EXPECT_EQ(walk[0].iova_end, kLeafBytes + 8 * kPageSize);
  constexpr uint64_t kWideIova = 8 * kLeafBytes + 3 * kPageSize;  // slices of 509, 512, 100
  constexpr uint64_t kWide = 2 * kLeafBytes + 97 * kPageSize;
  ASSERT_TRUE(iommu.Map(kSrc, kWideIova, 0x4000000, kWide, false, true).ok());
  for (uint64_t off = 0; off < kWide; off += kPageSize) {
    Result<uint64_t> got = iommu.Translate(kSrc, kWideIova + off + 8, 4, true);
    ASSERT_TRUE(got.ok()) << Hex(off);
    EXPECT_EQ(got.value(), 0x4000000 + off + 8);
  }
  EXPECT_EQ(iommu.MappedBytes(kSrc), 16 * kPageSize + kWide);
}

// Unmap drops a source's IOTLB entries in one pass over the cache. Wider than
// the IOTLB, it must drop exactly that source's entries in the range:
// another source's entries and the source's pages outside the range still
// hit. It counts one invalidation per page it unmapped, not per page asked.
TEST(Iommu, UnmapWiderThanTheIotlbInvalidatesOnlyThatSourcesRange) {
  Iommu iommu;
  // 512 entries. A source's consecutive pages fill distinct sets, so the
  // pages below share a set at most two at a time and nothing is evicted.
  iommu.set_iotlb_geometry({128, 4});
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.CreateContext(kOther).ok());
  constexpr uint64_t kBase = 0x100000;
  constexpr uint64_t kPages = 600;  // the unmapped range: wider than the IOTLB
  // kSrc maps [kBase - 8 pages, kBase + 608 pages) except a 10-page hole in
  // the range; kOther maps the range itself.
  ASSERT_TRUE(iommu.Map(kSrc, kBase - 8 * kPageSize, 0x800000, 158 * kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.Map(kSrc, kBase + 160 * kPageSize, 0x900000, 448 * kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.Map(kOther, kBase, 0xa00000, kPages * kPageSize, true, true).ok());
  std::vector<uint64_t> inside;   // kSrc pages in the range
  std::vector<uint64_t> outside;  // kSrc pages next to the range
  for (uint64_t page = 0; page < 40; ++page) {
    inside.push_back(kBase + page * kPageSize);
    inside.push_back(kBase + (300 + page) * kPageSize);
  }
  for (uint64_t page = 0; page < 8; ++page) {
    outside.push_back(kBase - (page + 1) * kPageSize);
    outside.push_back(kBase + (kPages + page) * kPageSize);
  }
  auto translate_all = [&iommu](uint16_t source, const std::vector<uint64_t>& pages) {
    for (uint64_t iova : pages) {
      EXPECT_TRUE(iommu.Translate(source, iova, 4, false).ok()) << Hex(iova);
    }
  };
  translate_all(kSrc, inside);
  translate_all(kSrc, outside);
  translate_all(kOther, inside);
  ASSERT_EQ(iommu.iotlb_stats().evictions, 0u);  // every page above is cached
  const uint64_t cached = 2 * inside.size() + outside.size();
  const uint64_t hits = iommu.iotlb_stats().hits;
  translate_all(kSrc, inside);
  translate_all(kSrc, outside);
  translate_all(kOther, inside);
  ASSERT_EQ(iommu.iotlb_stats().hits, hits + cached);

  const uint64_t invalidations = iommu.iotlb_stats().invalidations;
  ASSERT_TRUE(iommu.Unmap(kSrc, kBase, kPages * kPageSize).ok());
  EXPECT_EQ(iommu.iotlb_stats().invalidations, invalidations + kPages - 10);
  EXPECT_EQ(iommu.MappedBytes(kSrc), 16 * kPageSize);
  // A cached entry left behind would still translate: each must fault.
  for (uint64_t iova : inside) {
    EXPECT_FALSE(iommu.Translate(kSrc, iova, 4, false).ok()) << Hex(iova);
  }
  const uint64_t hits_after = iommu.iotlb_stats().hits;
  const uint64_t misses_after = iommu.iotlb_stats().misses;
  translate_all(kOther, inside);
  translate_all(kSrc, outside);
  EXPECT_EQ(iommu.iotlb_stats().hits, hits_after + inside.size() + outside.size());
  EXPECT_EQ(iommu.iotlb_stats().misses, misses_after);
}

// ---- IOTLB cache behaviour ------------------------------------------------------

TEST(IommuIotlb, StatsAcrossConflictEviction) {
  Iommu iommu;
  // One set, two ways: the third distinct page in the set must evict.
  iommu.set_iotlb_geometry({1, 2});
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 4 * kPageSize, true, true).ok());

  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());  // miss, fill
  EXPECT_TRUE(iommu.Translate(kSrc, 0x11000, 4, false).ok());  // miss, fill
  EXPECT_EQ(iommu.iotlb_stats().misses, 2u);
  EXPECT_EQ(iommu.iotlb_stats().evictions, 0u);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());  // hit
  EXPECT_TRUE(iommu.Translate(kSrc, 0x11000, 4, false).ok());  // hit
  EXPECT_EQ(iommu.iotlb_stats().hits, 2u);

  EXPECT_TRUE(iommu.Translate(kSrc, 0x12000, 4, false).ok());  // miss, evicts a way
  EXPECT_EQ(iommu.iotlb_stats().misses, 3u);
  EXPECT_EQ(iommu.iotlb_stats().evictions, 1u);
  // The working set (3 pages) exceeds the capacity (2): at least one of the
  // original pages was displaced and must miss again.
  uint64_t misses_before = iommu.iotlb_stats().misses;
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x11000, 4, false).ok());
  EXPECT_GT(iommu.iotlb_stats().misses, misses_before);
}

TEST(IommuIotlb, PerSourceGenerationInvalidationIsIsolated) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.CreateContext(kOther).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  ASSERT_TRUE(iommu.Map(kOther, 0x10000, 0x90000, kPageSize, true, true).ok());
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());    // fill
  EXPECT_TRUE(iommu.Translate(kOther, 0x10000, 4, false).ok());  // fill
  uint64_t misses = iommu.iotlb_stats().misses;
  uint64_t invalidations = iommu.iotlb_stats().invalidations;

  // O(1) whole-source invalidation: only kSrc's entries go stale.
  iommu.InvalidateIotlb(kSrc);
  EXPECT_EQ(iommu.iotlb_stats().invalidations, invalidations + 1);
  EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, false).ok());
  EXPECT_EQ(iommu.iotlb_stats().misses, misses + 1);  // stale entry re-walked
  uint64_t hits = iommu.iotlb_stats().hits;
  EXPECT_TRUE(iommu.Translate(kOther, 0x10000, 4, false).ok());
  EXPECT_EQ(iommu.iotlb_stats().hits, hits + 1);  // other source unaffected
}

TEST(IommuIotlb, RepeatedSourceInvalidationNeverServesStaleEntries) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, kPageSize, true, true).ok());
  for (int round = 0; round < 8; ++round) {
    EXPECT_TRUE(iommu.Translate(kSrc, 0x10000, 4, true).ok());
    ASSERT_TRUE(iommu.Unmap(kSrc, 0x10000, kPageSize).ok());
    iommu.InvalidateIotlb(kSrc);
    // Stale translations must not survive the invalidation.
    EXPECT_FALSE(iommu.Translate(kSrc, 0x10000, 4, true).ok());
    ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000 + round * kPageSize, kPageSize, true, true).ok());
    Result<uint64_t> fresh = iommu.Translate(kSrc, 0x10123, 4, true);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value(), 0x80123ull + round * kPageSize);
  }
}

TEST(IommuIotlb, GeometryReshapeKeepsTranslationCorrect) {
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());
  ASSERT_TRUE(iommu.Map(kSrc, 0x10000, 0x80000, 8 * kPageSize, true, true).ok());
  for (auto [sets, ways] : {std::pair<uint32_t, uint32_t>{1, 1}, {4, 2}, {64, 4}}) {
    iommu.set_iotlb_geometry({sets, ways});
    for (uint64_t page = 0; page < 8; ++page) {
      Result<uint64_t> got = iommu.Translate(kSrc, 0x10000 + page * kPageSize + 8, 4, false);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), 0x80000 + page * kPageSize + 8);
    }
  }
}

// ---- property tests ------------------------------------------------------------

// Property: for any set of disjoint mappings, Translate agrees with the
// arithmetic of whichever mapping contains the IOVA, and faults outside.
class IommuPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IommuPropertyTest, TranslateMatchesMappingArithmetic) {
  Rng rng(GetParam());
  Iommu iommu;
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());

  struct M {
    uint64_t iova, paddr, len;
    bool writable;
  };
  std::vector<M> mappings;
  uint64_t next_iova = kPageSize;
  uint64_t next_paddr = 1ull << 24;
  for (int i = 0; i < 20; ++i) {
    uint64_t pages = rng.Between(1, 8);
    uint64_t gap_pages = rng.Between(0, 3);
    M m{next_iova + gap_pages * kPageSize, next_paddr, pages * kPageSize, rng.Chance(1, 2)};
    ASSERT_TRUE(iommu.Map(kSrc, m.iova, m.paddr, m.len, true, m.writable).ok());
    mappings.push_back(m);
    next_iova = m.iova + m.len;
    next_paddr += m.len;
  }

  for (int trial = 0; trial < 500; ++trial) {
    uint64_t iova = rng.Below(next_iova + 16 * kPageSize);
    uint64_t len = rng.Between(1, 64);
    bool is_write = rng.Chance(1, 2);
    // Reference model.
    const M* owner = nullptr;
    for (const M& m : mappings) {
      if (iova >= m.iova && iova + len <= m.iova + m.len) {
        owner = &m;
        break;
      }
    }
    bool crosses_page = PageAlignDown(iova) != PageAlignDown(iova + len - 1);
    Result<uint64_t> got = iommu.Translate(kSrc, iova, len, is_write);
    if (owner != nullptr && !crosses_page && (!is_write || owner->writable)) {
      ASSERT_TRUE(got.ok()) << "iova " << iova;
      EXPECT_EQ(got.value(), owner->paddr + (iova - owner->iova));
    } else {
      EXPECT_FALSE(got.ok()) << "iova " << iova;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IommuPropertyTest, ::testing::Values(1, 2, 3, 42, 1337));

// Property: WalkMappings exactly covers what was mapped (no more, no less),
// for random map/unmap sequences.
class IommuWalkPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IommuWalkPropertyTest, WalkCoversExactlyTheMappedPages) {
  Rng rng(GetParam());
  Iommu iommu(IommuMode::kAmdVi);  // no implicit window to exclude
  ASSERT_TRUE(iommu.CreateContext(kSrc).ok());

  std::set<uint64_t> model;  // mapped iova pages
  for (int step = 0; step < 200; ++step) {
    uint64_t page = rng.Below(256);
    uint64_t iova = page * kPageSize;
    if (rng.Chance(2, 3)) {
      Status mapped = iommu.Map(kSrc, iova, (1ull << 24) + iova, kPageSize, true, true);
      if (model.count(page) != 0) {
        EXPECT_EQ(mapped.code(), ErrorCode::kAlreadyExists);
      } else {
        EXPECT_TRUE(mapped.ok());
        model.insert(page);
      }
    } else {
      EXPECT_TRUE(iommu.Unmap(kSrc, iova, kPageSize).ok());
      model.erase(page);
    }
  }

  std::set<uint64_t> walked;
  for (const IoMapping& m : iommu.WalkMappings(kSrc)) {
    for (uint64_t a = m.iova_start; a < m.iova_end; a += kPageSize) {
      walked.insert(a / kPageSize);
    }
  }
  EXPECT_EQ(walked, model);
  EXPECT_EQ(iommu.MappedBytes(kSrc), model.size() * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IommuWalkPropertyTest, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace sud::hw
