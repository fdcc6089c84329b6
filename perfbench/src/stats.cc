#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

// 1-based nearest rank of quantile q among n samples.
size_t NearestRank(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

bool PercentileSupported(size_t samples, double q) {
  if (samples == 0 || q <= 0 || q > 1) {
    return false;
  }
  return samples - NearestRank(samples, q) >= kMinTailSamples;
}

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0;
  }
  size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double HighestSupportedQuantile(size_t samples) {
  double best = 0;
  for (double q : {0.99, 0.999, 0.9999}) {
    if (PercentileSupported(samples, q)) {
      best = q;
    }
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  auto mid = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

bool MatchArrivalOrder(const std::vector<int64_t>& sent_ns,
                       const std::vector<int64_t>& arrived_ns, size_t begin, size_t end,
                       std::vector<double>* latencies_us) {
  if (begin > end || sent_ns.size() < end || arrived_ns.size() < end) {
    return false;
  }
  for (size_t i = begin; i < end; ++i) {
    if (arrived_ns[i] < sent_ns[i]) {
      return false;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    latencies_us->push_back(static_cast<double>(arrived_ns[i] - sent_ns[i]) / 1000.0);
  }
  return true;
}

namespace {
constexpr double kHistogramMinUs = 0.01;
constexpr double kHistogramGrowth = 1.01;
constexpr size_t kHistogramBuckets = 2400;  // 0.01 us * 1.01^2400 is about 200 s
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kHistogramBuckets, 0) {}

void LatencyHistogram::Add(double us) {
  size_t index = 0;
  if (us > kHistogramMinUs) {
    double position = std::log(us / kHistogramMinUs) / std::log(kHistogramGrowth);
    index = std::min(static_cast<size_t>(std::ceil(position)), kHistogramBuckets - 1);
  }
  ++buckets_[index];
  ++count_;
  max_ = std::max(max_, us);
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  uint64_t rank = NearestRank(count_, q);
  uint64_t seen = 0;
  size_t index = 0;
  for (; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= rank) {
      break;
    }
  }
  return kHistogramMinUs * std::pow(kHistogramGrowth, static_cast<double>(index));
}

std::vector<Chunk> ChunkStats(const std::vector<int64_t>& done_ns,
                              const std::vector<double>& latencies_us, size_t per_chunk,
                              double pkts_per_op) {
  std::vector<Chunk> chunks;
  size_t n = std::min(done_ns.size(), latencies_us.size());
  if (per_chunk == 0) {
    return chunks;
  }
  std::vector<double> window;
  for (size_t begin = per_chunk; begin + per_chunk <= n; begin += per_chunk) {
    int64_t elapsed = done_ns[begin + per_chunk - 1] - done_ns[begin - 1];
    Chunk chunk;
    chunk.rate = elapsed > 0 ? static_cast<double>(per_chunk) * pkts_per_op * 1e9 /
                                   static_cast<double>(elapsed)
                             : 0;
    window.assign(latencies_us.begin() + begin, latencies_us.begin() + begin + per_chunk);
    chunk.p50_us = Percentile(window, 0.5);
    chunk.p99_us = PercentileSupported(window.size(), 0.99) ? Percentile(window, 0.99) : 0;
    chunks.push_back(chunk);
  }
  return chunks;
}

std::string FormatResultLine(bool correct, uint64_t attempted, uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + FormatDouble(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
