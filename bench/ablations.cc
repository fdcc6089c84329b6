// Ablation benches for the design choices DESIGN.md calls out (§3.1.2, §4.2,
// §6 of the paper), measured in *simulated CPU nanoseconds per operation* —
// the currency the Figure 8 model is built on:
//
//   abl/uchan_batching     async-downcall batching on/off: kernel entries
//                          per netif_rx downcall
//   abl/uchan_batch_depth  NAPI rx batch depth {1,4,16,64}: uchan crossings
//                          per packet fall monotonically with depth
//   abl/iotlb_geometry     IOTLB sets x ways sweep: hit rate vs working set
//   abl/zero_copy          shared-buffer hand-off vs copying transmit path
//   abl/guard_fusion       guard-copy fused with the checksum pass vs a
//                          separate pass
//   abl/msi_mask_vs_remap  masking an interrupt via PCI config vs rewriting
//                          the interrupt-remapping table (§6 "it might be
//                          faster to mask an interrupt by remapping")
//   abl/wakeup_latency     UDP_RR CPU sensitivity to the 4 us process wakeup
//                          (explains the 2x CPU row of Figure 8)

#include <benchmark/benchmark.h>

#include "src/drivers/malicious.h"
#include "src/base/log.h"
#include "tests/harness.h"

namespace sud {
namespace {

using testing::kMacA;
using testing::kMacB;
using testing::NetBench;

// Simulated kernel-entry count and CPU-ns per packet with and without
// downcall batching.
void BM_UchanBatching(benchmark::State& state) {
  bool batching = state.range(0) != 0;
  NetBench::Options options;
  options.sud.uchan.batch_async_downcalls = batching;
  NetBench bench(options);
  (void)bench.StartSut();
  std::vector<uint8_t> payload(64, 0x1);

  uint64_t packets = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
    }
    bench.host->Pump();
    packets += 16;
  }
  const Uchan::Stats& stats = bench.ctx->ctl().stats();
  state.counters["kernel_entries_per_pkt"] =
      static_cast<double>(stats.downcall_batches) / packets;
  state.counters["sim_cpu_ns_per_pkt"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / packets;
  state.SetLabel(batching ? "batched" : "unbatched");
}
BENCHMARK(BM_UchanBatching)->Arg(1)->Arg(0);

// NAPI rx batch depth sweep: how many packets the driver accumulates before
// entering the kernel with the netif_rx array. Crossings (kernel entries +
// wakeups) per packet must fall monotonically as depth grows — the
// Section 3.1.2 batching win, quantified.
void BM_UchanBatchDepth(benchmark::State& state) {
  uint32_t depth = static_cast<uint32_t>(state.range(0));
  NetBench bench;
  (void)bench.StartSut();
  bench.host->runtime()->set_rx_batch_depth(depth);
  std::vector<uint8_t> payload(64, 0x1);

  uint64_t packets = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      (void)bench.PeerSendBurst(1, 80, {payload.data(), payload.size()}, 16);
      bench.host->Pump();
    }
    packets += 64;
  }
  Uchan::Stats stats = bench.ctx->ctl().stats();
  state.counters["kernel_entries_per_pkt"] =
      static_cast<double>(stats.downcall_batches) / packets;
  state.counters["crossings_per_pkt"] =
      static_cast<double>(stats.downcall_batches + stats.wakeups) / packets;
  state.counters["sim_cpu_ns_per_pkt"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / packets;
  state.SetLabel("depth=" + std::to_string(depth));
}
BENCHMARK(BM_UchanBatchDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

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

// Transmit path: zero-copy shared-buffer hand-off vs an extra bounce copy.
void BM_ZeroCopy(benchmark::State& state) {
  bool zero_copy = state.range(0) != 0;
  NetBench::Options options;
  options.proxy.zero_copy = zero_copy;
  NetBench bench(options);
  (void)bench.StartSut();
  std::vector<uint8_t> payload(1400, 0x2);

  uint64_t packets = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      auto frame = kern::BuildPacket(kMacB, kMacA, 1, 2, {payload.data(), payload.size()});
      (void)bench.kernel.net().Transmit("eth0", kern::MakeSkb({frame.data(), frame.size()}));
    }
    bench.host->Pump();
    packets += 16;
  }
  state.counters["sim_cpu_ns_per_pkt"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / packets;
  state.SetLabel(zero_copy ? "zero-copy" : "bounce-copy");
}
BENCHMARK(BM_ZeroCopy)->Arg(1)->Arg(0);

// Receive guard copy: fused with the checksum pass vs a separate pass.
void BM_GuardFusion(benchmark::State& state) {
  bool fused = state.range(0) != 0;
  NetBench::Options options;
  options.proxy.fuse_guard_with_checksum = fused;
  NetBench bench(options);
  (void)bench.StartSut();
  std::vector<uint8_t> payload(1400, 0x3);

  uint64_t packets = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      (void)bench.PeerSend(1, 80, {payload.data(), payload.size()});
    }
    bench.host->Pump();
    packets += 16;
  }
  state.counters["sim_cpu_ns_per_pkt"] =
      static_cast<double>(bench.machine.cpu().total_busy()) / packets;
  state.SetLabel(fused ? "fused-with-checksum" : "separate-pass");
}
BENCHMARK(BM_GuardFusion)->Arg(1)->Arg(0);

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

// Joint sweep: NAPI rx batch depth x IOTLB geometry against UDP_RR-style
// transaction latency. Batching depth trades crossings for queueing delay,
// and the IOTLB shape decides how much of the descriptor+buffer working set
// translates without a page walk; this sweep shows where the knee sits.
//
// Result (recorded from this sweep, and folded into the defaults): UDP_RR
// latency is INSENSITIVE to rx_batch_depth — with one transaction in flight
// the rx array always flushes on the next kernel entry (Wait/ack), never on
// the depth trigger — so the deep default (64) that wins the streaming
// benches costs RR nothing and stays (UmlRuntime::rx_batch_depth_). The
// IOTLB knee is at 16x4: the RR working set (a handful of descriptor and
// buffer pages per direction) already fits, larger shapes only add lookup
// cost without lifting the hit rate, and 4x1 visibly pays extra page walks.
// Iommu::IotlbGeometry keeps {16, 4}.
void BM_RxDepthIotlbRr(benchmark::State& state) {
  uint32_t depth = static_cast<uint32_t>(state.range(0));
  uint32_t sets = static_cast<uint32_t>(state.range(1));
  uint32_t ways = static_cast<uint32_t>(state.range(2));
  NetBench bench;
  bench.machine.iommu().set_iotlb_geometry({sets, ways});
  (void)bench.StartSut();
  bench.host->runtime()->set_rx_batch_depth(depth);
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
  state.SetLabel("depth=" + std::to_string(depth) + " iotlb=" + std::to_string(sets) + "x" +
                 std::to_string(ways));
}
BENCHMARK(BM_RxDepthIotlbRr)
    ->Args({1, 16, 4})
    ->Args({16, 16, 4})
    ->Args({64, 16, 4})
    ->Args({1, 4, 1})
    ->Args({64, 4, 1})
    ->Args({1, 64, 8})
    ->Args({64, 64, 8});

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
