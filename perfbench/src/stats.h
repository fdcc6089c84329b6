// Reduction helpers for the perfbench harness: percentiles under the
// ten-samples-beyond rule, medians, arrival-order latency matching and the
// one-line JSON result the benchmark prints last.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A tail percentile is only reported when at least this many samples lie
// beyond it; otherwise the "p99" of 50 samples would be one outlier.
inline constexpr size_t kMinTailSamples = 10;

// Whether quantile `q` in (0, 1] of `samples` values has at least
// kMinTailSamples samples strictly above its nearest rank.
bool PercentileSupported(size_t samples, double q);

// Nearest-rank percentile: the value at rank ceil(q * n) of the ascending
// sort. Sorts `values` in place. Returns 0 for an empty input.
double Percentile(std::vector<double>& values, double q);

// The highest of p99, p99.9 and p99.99 that `samples` supports, or 0 when
// even p99 is unsupported.
double HighestSupportedQuantile(size_t samples);

// Median (upper middle element for even counts). Returns 0 when empty.
double Median(std::vector<double> values);

// Arrival-order latency matching: the i-th frame handed in at `sent_ns[i]`
// is the i-th one observed at `arrived_ns[i]`. Valid because every queue
// delivers in order and a run with any loss fails its correctness check.
// Appends arrived - sent (in microseconds) for indices [begin, end) to
// `latencies_us`. Returns false, appending nothing, when either side holds
// fewer than `end` entries or an arrival precedes its send.
bool MatchArrivalOrder(const std::vector<int64_t>& sent_ns,
                       const std::vector<int64_t>& arrived_ns, size_t begin, size_t end,
                       std::vector<double>* latencies_us);

// Latency histogram with log-spaced buckets 1% apart from 0.01 us to about
// 100 s: pools every sample of a run in fixed memory. Quantile returns the
// upper edge of the bucket holding the nearest-rank sample, so it reads at
// most 1% high.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double us);
  uint64_t count() const { return count_; }
  double max() const { return max_; }  // exact
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double max_ = 0;
};

// One chunk of consecutive completed operations: its completion rate and
// the latency percentiles of the operations it holds.
struct Chunk {
  double rate = 0;  // packets per second
  double p50_us = 0;
  double p99_us = 0;  // 0 when the chunk is too small for the percentile rule
};

// Cuts operations, given in completion order with their completion times and
// latencies, into chunks of `per_chunk`. Chunk k spans the completion of
// operation k*per_chunk-1 to that of (k+1)*per_chunk-1, so the first chunk
// (which has no preceding completion) and a trailing partial chunk are
// skipped. `pkts_per_op` converts operations to packets.
std::vector<Chunk> ChunkStats(const std::vector<int64_t>& done_ns,
                              const std::vector<double>& latencies_us, size_t per_chunk,
                              double pkts_per_op);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {name: {"value": v, "unit": u}, ...}}, values printed with
// round-trip precision.
std::string FormatResultLine(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
