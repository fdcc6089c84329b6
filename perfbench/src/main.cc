// perfbench: the repository benchmark. Runs one workload for a fixed time
// and prints every metric by name with its unit and sample count, then, as
// the last line, one JSON object with the correctness verdict and the
// metrics: end-to-end metrics untraced (--trace 0), per-layer metrics from a
// traced run (--trace 1). Exits non-zero when any correctness check fails.
//
//   perfbench --workload rx_stream --seed 1 --seconds 10 --trace 0
//             [--trace-out spans.json]

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/base/log.h"

namespace perfbench {
namespace {

// Traced rounds alternate with untraced ones, so a traced run needs at least
// two of each to report its own overhead.
constexpr int kMinRounds = 4;
constexpr size_t kTraceCapacity = 1 << 18;  // spans kept for the trace file
constexpr double kStallUs = 1000.0;
// The host is shared, and its speed drifts by 10-30% over seconds; that
// interference only ever slows a chunk down. Each end-to-end timing is
// therefore read at the fast end of the run's chunk distribution, where
// runs repeat (medians over chunks swing with the host's load).
constexpr double kRateQuantile = 0.9;     // of chunk rates
constexpr double kLatencyQuantile = 0.1;  // of chunk p50s and chunk p99s

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double PerPkt(double value, uint64_t pkts) {
  return pkts == 0 ? 0 : value / static_cast<double>(pkts);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Summary {
  std::vector<double> setup_s;
  std::vector<double> pps[2];  // [untraced, traced]
  // Untraced rounds: per-chunk values and every measured latency.
  std::vector<double> chunk_rate;
  std::vector<double> chunk_p50_us;
  std::vector<double> chunk_p99_us;
  LatencyHistogram pooled;
  uint64_t stalls = 0;  // latencies above kStallUs
  std::vector<double> waits_us;  // traced rounds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pkts_all = 0;
  uint64_t pkts_traced = 0;
  Counters counters;  // summed over every round
  bool correct = true;
};

void Print(const Metric& m, const std::string& note) {
  std::printf("  %-36s %14.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
              note.c_str());
}

std::vector<Metric> EndToEnd(const Summary& s, const Workload& w) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::vector<double> rates = s.chunk_rate;
  std::vector<double> p50s = s.chunk_p50_us;
  std::vector<double> p99s = s.chunk_p99_us;
  std::vector<Metric> metrics = {
      {"setup_s", Median(s.setup_s), "s"},
      {"pkts_per_s", Percentile(rates, kRateQuantile), "1/s"},
      {"lat_p50_us", Percentile(p50s, kLatencyQuantile), "us"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
  std::string per = w.shape == Workload::Shape::kRr ? "transactions" : "packets";
  std::string chunks = std::to_string(rates.size()) + " chunks of " +
                       std::to_string(w.chunk_ops) + " " + per + ", " +
                       std::to_string(s.pps[0].size()) + " rounds";
  Print(metrics[0], "median of " + std::to_string(s.setup_s.size()) + " rounds");
  Print(metrics[1], "90th percentile of " + chunks + "; round median " +
                        std::to_string(Median(s.pps[0])));
  Print(metrics[2], "10th percentile of per-chunk p50 over " + chunks);
  Print(metrics[3], "peak of the run");
  // The tail is printed but not bounded: on a shared host its run-to-run
  // spread exceeds any bound the benchmark may set. The traced run reports
  // it as the per-layer lat_p99_us.
  Print({"lat_p99_us", Percentile(p99s, kLatencyQuantile), "us"},
        "(unbounded) 10th percentile of per-chunk p99 over " + chunks);
  double tail = HighestSupportedQuantile(s.pooled.count());
  std::printf("  pooled over all %llu %s: p50 %.4g us, p%g %.4g us, max %.4g us, "
              "%llu slower than 1 ms\n",
              static_cast<unsigned long long>(s.pooled.count()), per.c_str(),
              s.pooled.Quantile(0.5), tail * 100, s.pooled.Quantile(tail), s.pooled.max(),
              static_cast<unsigned long long>(s.stalls));
  return metrics;
}

std::vector<Metric> PerLayer(const Summary& s, const Workload& w, const Tracer& tracer) {
  uint64_t pt = s.pkts_traced;
  uint64_t pa = s.pkts_all;
  const Counters& c = s.counters;
  auto self = [&](SpanKind kind) { return PerPkt(tracer.Totals(kind).self_ns, pt); };
  SpanTotals loop = tracer.Totals(SpanKind::kLoop);
  std::vector<double> waits = s.waits_us;
  std::vector<double> p99s = s.chunk_p99_us;
  double wait_p99 = PercentileSupported(waits.size(), 0.99) ? Percentile(waits, 0.99) : 0;
  double wait_p50 = Percentile(waits, 0.5);
  uint64_t queue_max = std::max(c.queue_rx_pkts[0], c.queue_rx_pkts[1]);
  double queue_mean =
      static_cast<double>(c.queue_rx_pkts[0] + c.queue_rx_pkts[1]) / static_cast<double>(w.queues);
  double pps_untraced = Median(s.pps[0]);
  double pps_traced = Median(s.pps[1]);
  std::vector<Metric> m = {
      {"devices.rx_ns", self(SpanKind::kDevicesRx), "ns"},
      {"uml.pump_ns", self(SpanKind::kUmlPump), "ns"},
      {"kern.xmit_ns", self(SpanKind::kKernXmit), "ns"},
      {"peer.rx_ns", self(SpanKind::kPeerRx), "ns"},
      {"bench.gen_ns", self(SpanKind::kGen), "ns"},
      {"bench.sink_ns", self(SpanKind::kSink), "ns"},
      {"bench.wait_ns", self(SpanKind::kWait) + self(SpanKind::kHandoffWait), "ns"},
      {"bench.unattributed_ns", PerPkt(loop.self_ns, pt), "ns"},
      {"bench.loop_ns", PerPkt(loop.total_ns, pt), "ns"},
      {"lat_p99_us", Percentile(p99s, kLatencyQuantile), "us"},
      {"uchan.handoff_wait_p50_us", wait_p50, "us"},
      {"uchan.handoff_wait_p99_us", wait_p99, "us"},
      {"uchan.stalled_txns", static_cast<double>(s.stalls), "count"},
      {"trace_overhead_pct", pps_traced > 0 ? (pps_untraced / pps_traced - 1) * 100 : 0, "%"},
      {"sud.uchan.crossings_per_pkt", PerPkt(c.uchan_crossings, pa), "1/pkt"},
      {"sud.uchan.msgs_per_pkt", PerPkt(c.uchan_msgs, pa), "1/pkt"},
      {"sud.uchan.wakeups_per_pkt", PerPkt(c.uchan_wakeups, pa), "1/pkt"},
      {"sud.uchan.kernel_ns_per_pkt", PerPkt(c.uchan_kernel_ns, pa), "model_ns"},
      {"sud.uchan.driver_ns_per_pkt", PerPkt(c.uchan_driver_ns, pa), "model_ns"},
      {"sud.uchan.q0.driver_ns_per_pkt", PerPkt(c.uchan_q_driver_ns[0], pa), "model_ns"},
      {"sud.uchan.q1.driver_ns_per_pkt", PerPkt(c.uchan_q_driver_ns[1], pa), "model_ns"},
      {"sud.uchan.ring_full_retries", static_cast<double>(c.uchan_ring_full_retries), "count"},
      {"sud.uchan.dropped_full", static_cast<double>(c.uchan_dropped_full), "count"},
      {"sud.proxy.guard_copies_per_pkt", PerPkt(c.proxy_guard_copies, pa), "1/pkt"},
      {"sud.proxy.pkts_per_rx_bundle", Ratio(c.stack_rx_pkts, c.proxy_rx_bundles), "pkt"},
      {"sud.proxy.pkts_per_xmit_batch", Ratio(c.driver_tx_frames, c.proxy_xmit_batches), "pkt"},
      {"sud.proxy.free_batches_per_pkt", PerPkt(c.proxy_free_batches, pa), "1/pkt"},
      {"sud.proxy.xmit_dropped", static_cast<double>(c.proxy_xmit_dropped), "count"},
      {"sud.pool.outstanding_end", static_cast<double>(c.pool_outstanding), "count"},
      {"hw.iommu.iotlb_misses_per_pkt", PerPkt(c.iotlb_misses, pa), "1/pkt"},
      {"hw.iommu.iotlb_hit_ratio", Ratio(c.iotlb_hits, c.iotlb_hits + c.iotlb_misses), "ratio"},
      {"hw.iommu.iotlb_lookups", static_cast<double>(c.iotlb_hits + c.iotlb_misses), "count"},
      {"devices.nic.desc_dma_per_pkt", PerPkt(c.nic_desc_dma, pa), "1/pkt"},
      {"devices.nic.rx_dropped_no_desc", static_cast<double>(c.nic_rx_dropped_no_desc),
       "count"},
      {"drivers.e1000e.desc_windows_per_pkt", PerPkt(c.driver_desc_windows, pa), "1/pkt"},
      {"drivers.e1000e.tx_desc_per_pkt", Ratio(c.driver_tx_desc, c.driver_tx_frames), "1/pkt"},
      {"uml.runtime.upcalls_per_pkt", PerPkt(c.runtime_upcalls, pa), "1/pkt"},
      {"uml.runtime.irq_upcalls_per_pkt", PerPkt(c.runtime_irq_upcalls, pa), "1/pkt"},
      {"uml.runtime.pkts_per_rx_flush", Ratio(c.stack_rx_pkts, c.runtime_rx_flushes), "pkt"},
      {"kern.irqs_per_pkt", PerPkt(c.kern_irqs, pa), "1/pkt"},
      {"base.cpu.kernel_ns_per_pkt", PerPkt(c.cpu_kernel_ns, pa), "model_ns"},
      {"base.cpu.driver_ns_per_pkt", PerPkt(c.cpu_driver_ns, pa), "model_ns"},
      {"base.cpu.device_ns_per_pkt", PerPkt(c.cpu_device_ns, pa), "model_ns"},
      {"model_ns_per_pkt", PerPkt(c.cpu_kernel_ns + c.cpu_driver_ns, pa), "model_ns"},
      {"mq.queue_imbalance", queue_mean > 0 ? static_cast<double>(queue_max) / queue_mean : 0,
       "ratio"},
      {"fail_frac", Ratio(s.failed, s.attempted), "ratio"},
  };
  std::string traced_note = std::to_string(pt) + " traced pkts";
  for (const Metric& metric : m) {
    std::string note = traced_note;
    if (metric.name == "lat_p99_us") {
      note = "10th percentile of per-chunk p99 over " + std::to_string(p99s.size()) +
             " untraced chunks";
    } else if (metric.name == "uchan.stalled_txns") {
      note = "of " + std::to_string(s.pooled.count()) + " untraced ops slower than 1 ms";
    } else if (metric.unit == "us") {
      note = std::to_string(waits.size()) + " waits";
    } else if (metric.unit != "ns" && metric.unit != "%") {
      note = std::to_string(pa) + " pkts";
    }
    Print(metric, note);
  }
  // The loop decomposes exactly: its top-level spans plus its own
  // unattributed time are its wall time.
  int64_t top = tracer.TopLevelNs();
  std::printf("  loop wall %lld ns = top-level spans %lld ns + unattributed %lld ns (%s); "
              "%zu spans stored, %llu not stored\n",
              static_cast<long long>(loop.total_ns), static_cast<long long>(top),
              static_cast<long long>(loop.self_ns),
              top + loop.self_ns == loop.total_ns ? "exact" : "MISMATCH", tracer.stored(),
              static_cast<unsigned long long>(tracer.dropped()));
  return m;
}

int Run(const Args& args) {
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  Tracer tracer(args.trace ? kTraceCapacity : 0);
  Runner runner(w, args.seed, args.trace ? &tracer : nullptr);
  Summary s;
  int64_t start = NowNs();
  auto deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
    bool traced = args.trace && round % 2 == 1;
    RoundResult r = runner.RunRound(traced);
    s.setup_s.push_back(r.setup_s);
    s.attempted += r.attempted;
    s.failed += r.failed;
    for (const std::string& error : r.errors) {
      std::fprintf(stderr, "round %d: %s\n", round, error.c_str());
    }
    if (!r.errors.empty() || r.failed != 0) {
      s.correct = false;
      break;
    }
    s.pps[traced ? 1 : 0].push_back(static_cast<double>(r.pkts) / r.loop_s);
    s.pkts_all += r.pkts;
    s.counters += r.delta;
    if (traced) {
      s.pkts_traced += r.pkts;
      s.waits_us.insert(s.waits_us.end(), r.handoff_waits_us.begin(), r.handoff_waits_us.end());
    } else {
      for (double us : r.latencies_us) {
        s.stalls += us > kStallUs ? 1 : 0;
        s.pooled.Add(us);
      }
      for (const Chunk& chunk : r.chunks) {
        s.chunk_rate.push_back(chunk.rate);
        s.chunk_p50_us.push_back(chunk.p50_us);
        s.chunk_p99_us.push_back(chunk.p99_us);
      }
    }
  }
  std::printf("perfbench %s seed=%llu trace=%d: %zu rounds in %.2f s, %s\n", w.name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0, s.setup_s.size(),
              static_cast<double>(NowNs() - start) / 1e9, s.correct ? "correct" : "INCORRECT");
  std::vector<Metric> metrics = args.trace ? PerLayer(s, w, tracer) : EndToEnd(s, w);
  std::printf("  %llu of %llu attempted packets not delivered intact\n",
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.attempted));
  if (args.trace && !args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  std::printf("%s\n", FormatResultLine(s.correct, s.attempted, s.failed, metrics).c_str());
  std::fflush(stdout);
  return s.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  sud::Logger::Get().set_min_level(sud::LogLevel::kError);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n");
    return 2;
  }
  return perfbench::Run(args);
}
