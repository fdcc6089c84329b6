// Unit tests for the SUD core pieces below the proxies: DmaSpace, the
// shared buffer pool, and the SudDeviceContext surface (binding, the config
// filter as a parameterized sweep, MMIO confinement, IO ports, teardown, and
// the per-queue uchan shards the context owns).

#include <gtest/gtest.h>

#include "src/base/log.h"
#include "src/devices/sim_nic.h"
#include "src/sud/safe_pci.h"
#include "src/sud/wire_schema.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kDriverUid;
using testing::kMacA;

class DmaSpaceTest : public ::testing::Test {
 protected:
  DmaSpaceTest() : dram_(8 * 1024 * 1024), iommu_() {
    (void)iommu_.CreateContext(kSrc);
    space_ = std::make_unique<DmaSpace>(&dram_, &iommu_, kSrc);
  }
  static constexpr uint16_t kSrc = 0x100;
  hw::PhysicalMemory dram_;
  hw::Iommu iommu_;
  std::unique_ptr<DmaSpace> space_;
};

TEST_F(DmaSpaceTest, AllocMapsAtFigure9Base) {
  Result<DmaRegion> region = space_->Alloc(4096, true);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region.value().iova, kDmaIovaBase);
  EXPECT_EQ(region.value().bytes, 4096u);
  // The device can reach it through the IOMMU.
  EXPECT_TRUE(iommu_.Translate(kSrc, kDmaIovaBase, 4, true).ok());
}

TEST_F(DmaSpaceTest, SequentialAllocationsAreContiguousInIova) {
  uint64_t a = space_->Alloc(4096, true).value().iova;
  uint64_t b = space_->Alloc(8192, true).value().iova;
  uint64_t c = space_->Alloc(100, false).value().iova;  // rounds to a page
  EXPECT_EQ(b, a + 4096);
  EXPECT_EQ(c, b + 8192);
  EXPECT_EQ(space_->total_bytes(), 4096u + 8192u + 4096u);
}

TEST_F(DmaSpaceTest, HostViewSharesBackingStore) {
  DmaRegion region = space_->Alloc(4096, false).value();
  ByteSpan view = space_->HostView(region.iova, 16).value();
  view[0] = 0xaa;
  // Visible through physical memory at the mapped frame.
  uint64_t paddr = space_->IovaToPaddr(region.iova).value();
  uint8_t byte;
  ASSERT_TRUE(dram_.Read(paddr, {&byte, 1}).ok());
  EXPECT_EQ(byte, 0xaa);
}

TEST_F(DmaSpaceTest, HostViewRejectsOutOfRegion) {
  DmaRegion region = space_->Alloc(4096, false).value();
  EXPECT_FALSE(space_->HostView(region.iova + 4090, 16).ok());  // straddles end
  EXPECT_FALSE(space_->HostView(0x1000, 4).ok());               // before base
  EXPECT_FALSE(space_->HostView(region.iova + 8192, 4).ok());   // past it
}

TEST_F(DmaSpaceTest, FreeUnmapsAndReturnsPages) {
  DmaRegion region = space_->Alloc(8192, false).value();
  uint64_t pages_before = dram_.allocated_pages();
  ASSERT_TRUE(space_->Free(region.iova).ok());
  EXPECT_EQ(dram_.allocated_pages(), pages_before - 2);
  EXPECT_FALSE(iommu_.Translate(kSrc, region.iova, 4, false).ok());
  EXPECT_EQ(space_->Free(region.iova).code(), ErrorCode::kNotFound);
}

TEST_F(DmaSpaceTest, ReleaseAllReclaimsEverything) {
  (void)space_->Alloc(4096, true);
  (void)space_->Alloc(65536, false);
  space_->ReleaseAll();
  EXPECT_EQ(dram_.allocated_pages(), 0u);
  EXPECT_EQ(iommu_.MappedBytes(kSrc), 0u);
  EXPECT_EQ(space_->regions().size(), 0u);
}

class PoolTest : public DmaSpaceTest {
 protected:
  PoolTest() : pool_(space_.get(), /*count=*/8, /*buffer_bytes=*/512) {
    EXPECT_TRUE(pool_.Init().ok());
  }
  SharedBufferPool pool_;
};

TEST_F(PoolTest, AllocFreeCycle) {
  EXPECT_EQ(pool_.free_count(), 8u);
  int32_t id = pool_.Alloc().value();
  EXPECT_EQ(pool_.free_count(), 7u);
  pool_.Free(id);
  EXPECT_EQ(pool_.free_count(), 8u);
}

TEST_F(PoolTest, ExhaustionAndRecovery) {
  std::vector<int32_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(pool_.Alloc().value());
  }
  EXPECT_EQ(pool_.Alloc().status().code(), ErrorCode::kExhausted);
  pool_.Free(ids.back());
  EXPECT_TRUE(pool_.Alloc().ok());
}

TEST_F(PoolTest, DoubleFreeToleratedAndCounted) {
  int32_t id = pool_.Alloc().value();
  pool_.Free(id);
  pool_.Free(id);       // double free
  pool_.Free(-5);       // garbage id
  pool_.Free(100);      // out of range
  EXPECT_EQ(pool_.double_frees(), 3u);
  EXPECT_EQ(pool_.free_count(), 8u);  // free list never corrupted
}

TEST_F(PoolTest, BuffersAreDeviceVisible) {
  int32_t id = pool_.Alloc().value();
  ByteSpan buffer = pool_.Buffer(id).value();
  buffer[0] = 0x42;
  uint64_t iova = pool_.BufferIova(id).value();
  // Device-side translation reaches the same byte.
  uint64_t paddr = iommu_.Translate(kSrc, iova, 1, false).value();
  uint8_t byte;
  ASSERT_TRUE(dram_.Read(paddr, {&byte, 1}).ok());
  EXPECT_EQ(byte, 0x42);
}

// A guessed handle with the shape of a live one — current epoch, generation
// 1 — for a slot nobody allocated: refused everywhere, and counted on free.
TEST_F(PoolTest, ForgedHandleForNeverAllocatedSlotIsRefused) {
  for (uint32_t index : {5u, 100u}) {  // a staged slot, then a grant slot
    int32_t forged = static_cast<int32_t>(
        index | (1u << SharedBufferPool::kIndexBits) |
        (pool_.epoch() << (SharedBufferPool::kIndexBits + SharedBufferPool::kGenBits)));
    EXPECT_FALSE(pool_.Buffer(forged).ok()) << index;
    EXPECT_FALSE(pool_.BufferIova(forged).ok()) << index;
    pool_.Free(forged);
  }
  EXPECT_EQ(pool_.double_frees(), 2u);
  EXPECT_EQ(pool_.stale_frees(), 0u);
  EXPECT_EQ(pool_.free_count(), 8u);
  EXPECT_EQ(pool_.outstanding(), 0u);
}

TEST_F(PoolTest, BuffersDoNotOverlap) {
  int32_t a = pool_.Alloc().value();
  int32_t b = pool_.Alloc().value();
  uint64_t iova_a = pool_.BufferIova(a).value();
  uint64_t iova_b = pool_.BufferIova(b).value();
  EXPECT_GE(iova_a > iova_b ? iova_a - iova_b : iova_b - iova_a, 512u);
}

// ---- SudDeviceContext surface ---------------------------------------------------

class ContextTest : public ::testing::Test {
 protected:
  explicit ContextTest(uint32_t queues = 1) : bench_(MakeOptions(queues)) {
    proc_ = &bench_.kernel.processes().Spawn("drv", kDriverUid);
  }
  static testing::NetBench::Options MakeOptions(uint32_t queues) {
    testing::NetBench::Options options;
    options.start_peer = false;  // keep it minimal
    options.nic_queues = queues;
    return options;
  }
  testing::NetBench bench_;
  kern::Process* proc_;
};

TEST_F(ContextTest, BindSetsUpInterruptAndPool) {
  ASSERT_TRUE(bench_.ctx->Bind(proc_).ok());
  EXPECT_TRUE(bench_.ctx->bound());
  EXPECT_TRUE(bench_.sut_nic.config().msi_enabled());
  EXPECT_EQ(bench_.sut_nic.config().msi_address(), hw::kMsiRangeBase);
  EXPECT_TRUE(bench_.machine.iommu().HasContext(bench_.ctx->source_id()));
  EXPECT_GT(bench_.ctx->pool().count(), 0u);
  // Pool memory charged against the process rlimit.
  EXPECT_GT(proc_->memory_used(), 0u);
  // Double bind refused.
  EXPECT_EQ(bench_.ctx->Bind(proc_).code(), ErrorCode::kAlreadyExists);
}

TEST_F(ContextTest, MmioConfinedToDeviceBars) {
  ASSERT_TRUE(bench_.ctx->Bind(proc_).ok());
  EXPECT_TRUE(bench_.ctx->MmioRead(0, devices::kNicRegStatus).ok());
  EXPECT_FALSE(bench_.ctx->MmioRead(0, 128 * 1024).ok());      // past the BAR
  EXPECT_FALSE(bench_.ctx->MmioRead(1, 0).ok());               // no such BAR
  EXPECT_FALSE(bench_.ctx->MmioRead(-1, 0).ok());
  EXPECT_FALSE(bench_.ctx->MmioWrite(0, 128 * 1024 - 2, 1).ok());  // partial overrun
}

using ConfigCase = std::tuple<uint16_t, int, uint32_t, bool>;  // offset,width,value,allowed

class ConfigFilterTest : public ContextTest, public ::testing::WithParamInterface<ConfigCase> {};

TEST_P(ConfigFilterTest, WriteFilter) {
  ASSERT_TRUE(bench_.ctx->Bind(proc_).ok());
  auto [offset, width, value, allowed] = GetParam();
  Status status = bench_.ctx->ConfigWrite(offset, width, value);
  if (allowed) {
    EXPECT_TRUE(status.ok()) << "offset " << offset;
  } else {
    EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied) << "offset " << offset;
  }
  // Reads are always allowed.
  EXPECT_TRUE(bench_.ctx->ConfigRead(offset, width).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigFilterTest,
    ::testing::Values(
        // Allowed: command-register safe bits, cacheline, latency timer.
        ConfigCase{hw::kPciCommand, 2, hw::kPciCommandBusMaster, true},
        ConfigCase{hw::kPciCommand, 2,
                   hw::kPciCommandIoEnable | hw::kPciCommandMemEnable, true},
        ConfigCase{hw::kPciCacheLineSize, 1, 0x10, true},
        ConfigCase{hw::kPciLatencyTimer, 1, 0x40, true},
        // Denied: evil command bits, BARs, MSI capability, cap pointer, etc.
        ConfigCase{hw::kPciCommand, 2, 0xffff, false},
        ConfigCase{hw::kPciBar0, 4, 0xfee00000, false},
        ConfigCase{hw::kPciBar0 + 8, 4, 0x12345000, false},
        ConfigCase{hw::kPciBar0 + 20, 4, 0x0, false},
        ConfigCase{hw::kMsiAddress, 4, 0x1000, false},
        ConfigCase{hw::kMsiData, 2, 0xfe, false},
        ConfigCase{hw::kMsiControl, 2, 0, false},
        ConfigCase{hw::kMsiMaskBits, 4, 0, false},
        ConfigCase{hw::kPciCapPointer, 1, 0, false},
        ConfigCase{hw::kPciInterruptLine, 1, 9, false},
        ConfigCase{hw::kPciVendorId, 2, 0xdead, false}));

TEST_F(ContextTest, IoPortsRequireGrant) {
  ASSERT_TRUE(bench_.ctx->Bind(proc_).ok());
  // The NIC has no IO BAR, so RequestIoRegion reports not-found and any port
  // access is denied.
  EXPECT_EQ(bench_.ctx->RequestIoRegion().code(), ErrorCode::kNotFound);
  EXPECT_EQ(bench_.ctx->IoPortRead(0xc000).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(bench_.ctx->IoPortWrite(0x60, 1).code(), ErrorCode::kPermissionDenied);
}

TEST_F(ContextTest, TeardownQuiescesDeviceAndFreesVector) {
  ASSERT_TRUE(bench_.ctx->Bind(proc_).ok());
  uint8_t vector = bench_.ctx->irq_vector();
  (void)bench_.ctx->ConfigWrite(hw::kPciCommand, 2, hw::kPciCommandBusMaster);
  EXPECT_TRUE(bench_.sut_nic.config().bus_master_enabled());

  bench_.ctx->Teardown();
  EXPECT_FALSE(bench_.ctx->bound());
  EXPECT_FALSE(bench_.sut_nic.config().bus_master_enabled());
  EXPECT_FALSE(bench_.sut_nic.config().msi_enabled());
  EXPECT_FALSE(bench_.machine.iommu().HasContext(bench_.ctx->source_id()));
  // The vector is reusable.
  EXPECT_TRUE(bench_.kernel.RequestIrq(vector, [](uint16_t) {}).ok());
  // Process memory fully uncharged.
  EXPECT_EQ(proc_->memory_used(), 0u);
  // Driver-facing surfaces now fail cleanly.
  EXPECT_EQ(bench_.ctx->MmioRead(0, 0).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(bench_.ctx->ConfigRead(0, 2).status().code(), ErrorCode::kUnavailable);
}

TEST_F(ContextTest, ExportRevokeLifecycle) {
  devices::SimNic extra("extra-nic", kMacA);
  auto& sw = *bench_.sw;
  ASSERT_TRUE(bench_.machine.AttachDevice(sw, &extra).ok());
  Result<SudDeviceContext*> ctx = bench_.safe_pci.ExportDevice(&extra, kDriverUid);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(bench_.safe_pci.ExportDevice(&extra, kDriverUid).status().code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(bench_.safe_pci.Find(&extra), ctx.value());
  ASSERT_TRUE(bench_.safe_pci.RevokeDevice(&extra).ok());
  EXPECT_EQ(bench_.safe_pci.Find(&extra), nullptr);
  EXPECT_EQ(bench_.safe_pci.RevokeDevice(&extra).code(), ErrorCode::kNotFound);
}

TEST_F(ContextTest, ExportEnablesAcsOnAllSwitches) {
  // The harness already exported one device; ACS must be on.
  EXPECT_TRUE(bench_.sw->acs().source_validation);
  EXPECT_TRUE(bench_.sw->acs().p2p_request_redirect);
}

// ---- the sharded ctl file: one uchan ring pair per device queue ----------------

// A 4-queue context, bound to a driver process that no driver runs in: the
// tests play the driver on the shards directly.
class ShardTest : public ContextTest {
 protected:
  ShardTest() : ContextTest(4) { EXPECT_TRUE(bench_.ctx->Bind(proc_).ok()); }
  Uchan& shard(uint16_t queue) { return bench_.ctx->ctl(queue); }
  // The driver side's single-message dequeue: a WaitBatch of one.
  Status PollOne(uint16_t queue) {
    std::vector<UchanMsg> batch;
    return shard(queue).WaitBatch(0, 1, &batch);
  }
};

TEST_F(ShardTest, MessagesNeverCrossShards) {
  // Distinct traffic on every shard.
  for (uint16_t q = 0; q < 4; ++q) {
    for (uint32_t i = 0; i < 3; ++i) {
      UchanMsg msg;
      msg.opcode = 1000 * (q + 1) + i;
      ASSERT_TRUE(shard(q).SendAsync(std::move(msg)).ok());
    }
  }
  // Each shard surfaces exactly its own messages, in its own FIFO order.
  for (uint16_t q = 0; q < 4; ++q) {
    std::vector<UchanMsg> batch;
    ASSERT_TRUE(shard(q).WaitBatch(0, 64, &batch).ok());
    ASSERT_EQ(batch.size(), 3u);
    for (uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(batch[i].opcode, 1000 * (q + 1) + i);
    }
    EXPECT_EQ(PollOne(q).code(), ErrorCode::kTimedOut);
  }
}

TEST_F(ShardTest, DowncallHandlerLearnsQueueFromShardNotMessage) {
  struct Seen {
    uint32_t opcode;
    uint16_t shard;
    wire::Malform verdict;
  };
  std::vector<Seen> handled;
  bench_.ctx->set_downcall_handler([&](UchanMsg& msg, uint16_t shard, wire::Malform verdict) {
    handled.push_back({msg.opcode, shard, verdict});
    msg.error = 0;
  });
  for (uint16_t q = 0; q < 4; ++q) {
    // A schema-valid queue-lane message whose payload names some other
    // queue's number: the handler must see the shard it actually travelled.
    UchanMsg msg;
    int32_t id = 99;
    wire::EncodeFreeBuffers(&id, 1, &msg);
    ASSERT_TRUE(shard(q).DowncallSync(msg).ok());
  }
  ASSERT_EQ(handled.size(), 4u);
  for (uint16_t q = 0; q < 4; ++q) {
    EXPECT_EQ(handled[q].opcode, kEthDownFreeBuffer);
    EXPECT_EQ(handled[q].shard, q);
    EXPECT_EQ(handled[q].verdict, wire::Malform::kNone);
  }
  EXPECT_EQ(bench_.ctx->wire_rejects().total(), 0u);
}

TEST_F(ShardTest, ShardsDoNotShareLocksOrWakeups) {
  // Put shard 0's driver side to sleep; shard 1 traffic must not wake it.
  (void)PollOne(0);
  (void)PollOne(1);
  ASSERT_TRUE(shard(1).SendAsync(UchanMsg{}).ok());
  EXPECT_EQ(shard(0).stats().wakeups, 0u);
  EXPECT_EQ(shard(1).stats().wakeups, 1u);
}

TEST_F(ShardTest, PerShardCpuAccountingAndAggregate) {
  CpuModel& cpu = bench_.machine.cpu();
  SimTime busy_before = cpu.busy(kAccountKernel) + cpu.busy(kAccountDriver);
  ASSERT_TRUE(shard(1).SendAsync(UchanMsg{}).ok());
  ASSERT_TRUE(PollOne(1).ok());
  Uchan::Stats busy = shard(1).stats();
  Uchan::Stats idle = shard(0).stats();
  EXPECT_GT(busy.kernel_ns, 0u);
  EXPECT_GT(busy.driver_ns, 0u);
  EXPECT_EQ(idle.kernel_ns, 0u);
  // The aggregate view sums the shards (= what a single lane would report).
  Uchan::Stats total = bench_.ctx->AggregateCtlStats();
  EXPECT_EQ(total.upcalls_async, 1u);
  EXPECT_EQ(total.kernel_ns, busy.kernel_ns);
  // And the shards' own accounts match what they charged the CpuModel.
  EXPECT_EQ(total.kernel_ns + total.driver_ns,
            static_cast<uint64_t>(cpu.busy(kAccountKernel) + cpu.busy(kAccountDriver) -
                                  busy_before));
}

TEST_F(ShardTest, TeardownShutsEveryShard) {
  bench_.ctx->Teardown();
  for (uint16_t q = 0; q < 4; ++q) {
    EXPECT_EQ(shard(q).SendAsync(UchanMsg{}).code(), ErrorCode::kUnavailable);
  }
}

}  // namespace
}  // namespace sud
