// Ablation benches for design choices the paper calls out (§3.1.2, §5.1,
// §6), measured in *simulated CPU nanoseconds per operation* — the currency
// the Figure 8 model is built on:
//
//   BM_IotlbGeometry    IOTLB sets x ways sweep: hit rate vs working set
//   BM_MsiMaskVsRemap   masking an interrupt via PCI config vs rewriting the
//                       interrupt-remapping table (§6 "it might be faster to
//                       mask an interrupt by remapping")
//   BM_IotlbGeometryRr  IOTLB geometry against UDP_RR transaction cost
//   BM_WakeupLatency    UDP_RR CPU sensitivity to the 4 us process wakeup
//                       (explains the 2x CPU row of Figure 8)
//
// Alternatives the trusted code no longer carries are closed-form costs
// (bench/README.md): a transmit bounce copy or a guard copy not fused with
// the checksum each add CpuCosts::per_byte_copy per frame byte, and an
// unbatched netif_rx downcall adds one CpuCosts::syscall per packet.

#include <benchmark/benchmark.h>

#include "src/drivers/malicious.h"
#include "src/base/log.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kMacA;
using testing::kMacB;
using testing::NetBench;

// IOTLB geometry sweep: hit rate of a striding DMA working set against the
// cache shape. The modeled iotlb_miss cost makes the geometry visible in
// simulated CPU ns exactly the way Section 3.1.2's invalidation-avoidance
// argument needs it to be.
void BM_IotlbGeometry(benchmark::State& state) {
  uint32_t sets = static_cast<uint32_t>(state.range(0));
  uint32_t ways = static_cast<uint32_t>(state.range(1));
  CpuModel cpu;
  hw::Iommu iommu(hw::IommuMode::kIntelVtd, &cpu);
  iommu.set_iotlb_geometry({sets, ways});
  constexpr uint16_t kSource = 0x100;
  (void)iommu.CreateContext(kSource);
  constexpr uint64_t kWorkingSetPages = 48;  // e1000e rx ring's buffer pages
  (void)iommu.Map(kSource, 0x100000, 0x800000, kWorkingSetPages * hw::kPageSize,
                  /*readable=*/true, /*writable=*/true);

  uint64_t accesses = 0;
  for (auto _ : state) {
    for (uint64_t page = 0; page < kWorkingSetPages; ++page) {
      benchmark::DoNotOptimize(
          iommu.Translate(kSource, 0x100000 + page * hw::kPageSize, 64, false));
      ++accesses;
    }
  }
  const hw::Iommu::IotlbStats& stats = iommu.iotlb_stats();
  state.counters["hit_rate"] =
      static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses);
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["sim_cpu_ns_per_access"] = static_cast<double>(cpu.total_busy()) / accesses;
  state.SetLabel(std::to_string(sets) + "x" + std::to_string(ways));
}
BENCHMARK(BM_IotlbGeometry)
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({16, 8});

// Masking an interrupt: PCI-config MSI mask vs interrupt-remapping rewrite.
void BM_MsiMaskVsRemap(benchmark::State& state) {
  bool use_remap = state.range(0) != 0;
  NetBench::Options options;
  options.machine.interrupt_remapping = use_remap;
  NetBench bench(options);
  auto attack = std::make_unique<drivers::NeverAckDriver>();
  auto* p = attack.get();
  (void)bench.host->Start(std::move(attack));

  CpuModel& cpu = bench.machine.cpu();
  uint64_t operations = 0;
  for (auto _ : state) {
    if (use_remap) {
      cpu.Charge(kAccountKernel, cpu.costs().irq_remap_update);
      (void)bench.machine.iommu().SetInterruptRemapEntry(bench.ctx->source_id(),
                                                         bench.ctx->irq_vector(), std::nullopt);
      (void)bench.machine.iommu().SetInterruptRemapEntry(
          bench.ctx->source_id(), bench.ctx->irq_vector(), bench.ctx->irq_vector());
    } else {
      (void)p->TriggerInterrupt();  // second unacked interrupt masks via config
      (void)p->TriggerInterrupt();
      (void)bench.ctx->InterruptAck(0);  // unmask for the next round
    }
    ++operations;
  }
  state.counters["sim_cpu_ns_per_op"] =
      static_cast<double>(cpu.total_busy()) / operations;
  state.SetLabel(use_remap ? "remap-table-rewrite" : "pci-config-mask");
}
BENCHMARK(BM_MsiMaskVsRemap)->Arg(0)->Arg(1);

// IOTLB geometry against UDP_RR-style transaction cost: the shape decides
// how much of the descriptor+buffer working set translates without a page
// walk. The knee is at 16x4: the RR working set (a handful of descriptor and
// buffer pages per direction) already fits, larger shapes only add lookup
// cost without lifting the hit rate, and 4x1 visibly pays extra page walks.
// Iommu::IotlbGeometry keeps {16, 4}.
void BM_IotlbGeometryRr(benchmark::State& state) {
  uint32_t sets = static_cast<uint32_t>(state.range(0));
  uint32_t ways = static_cast<uint32_t>(state.range(1));
  NetBench bench;
  bench.machine.iommu().set_iotlb_geometry({sets, ways});
  (void)bench.StartSut();
  std::vector<uint8_t> payload(42, 0x5);

  uint64_t transactions = 0;
  for (auto _ : state) {
    (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
    bench.host->Pump();
    auto reply = kern::BuildPacket(kMacB, kMacA, 2, 1, {payload.data(), payload.size()});
    (void)bench.kernel.net().Transmit("eth0", kern::MakeSkb({reply.data(), reply.size()}));
    bench.host->Pump();
    ++transactions;
  }
  // All accounts, including the device: IOTLB walk costs land on the device
  // account and must be visible to the sweep.
  state.counters["sim_ns_per_txn"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / transactions;
  const hw::Iommu::IotlbStats& iotlb = bench.machine.iommu().iotlb_stats();
  state.counters["iotlb_hit_rate"] =
      static_cast<double>(iotlb.hits) / static_cast<double>(iotlb.hits + iotlb.misses);
  state.SetLabel("iotlb=" + std::to_string(sets) + "x" + std::to_string(ways));
}
BENCHMARK(BM_IotlbGeometryRr)->Args({16, 4})->Args({4, 1})->Args({64, 8});

// UDP_RR sensitivity to the process wakeup cost: the §5.1 explanation for
// the 2x CPU row. Sweeps kProcessWakeup from 0 to 8 us.
void BM_WakeupLatency(benchmark::State& state) {
  SimTime wakeup_ns = static_cast<SimTime>(state.range(0));
  NetBench bench;
  CpuCosts costs;
  costs.process_wakeup = wakeup_ns;
  bench.machine.cpu().set_costs(costs);
  (void)bench.StartSut();
  std::vector<uint8_t> payload(42, 0x4);

  uint64_t transactions = 0;
  for (auto _ : state) {
    (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
    bench.host->Pump();
    auto reply = kern::BuildPacket(kMacB, kMacA, 2, 1, {payload.data(), payload.size()});
    (void)bench.kernel.net().Transmit("eth0", kern::MakeSkb({reply.data(), reply.size()}));
    bench.host->Pump();
    ++transactions;
  }
  state.counters["sim_cpu_ns_per_txn"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / transactions;
  state.counters["wakeup_ns"] = static_cast<double>(wakeup_ns);
}
BENCHMARK(BM_WakeupLatency)->Arg(0)->Arg(1000)->Arg(2000)->Arg(4000)->Arg(8000);

}  // namespace
}  // namespace sud

int main(int argc, char** argv) {
  sud::Logger::Get().set_min_level(sud::LogLevel::kError);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
