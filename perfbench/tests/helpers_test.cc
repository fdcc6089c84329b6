// Tests of the benchmark's own helpers: the percentile rule, self-time
// subtraction, arrival-order latency matching and the result-line schema.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {
namespace {

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_FALSE(PercentileSupported(100, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(999), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(10000), 0.999);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) {
    values.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(values, 0.5), 500);
  EXPECT_DOUBLE_EQ(Percentile(values, 0.99), 990);
  EXPECT_DOUBLE_EQ(Percentile(values, 1.0), 1000);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Percentile, HistogramReadsWithinOnePercent) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.Add(i);
  }
  histogram.Add(0);
  EXPECT_EQ(histogram.count(), 1001u);
  EXPECT_GE(histogram.Quantile(0.5), 500);
  EXPECT_LE(histogram.Quantile(0.5), 500 * 1.01);
  EXPECT_GE(histogram.Quantile(0.99), 990);
  EXPECT_LE(histogram.Quantile(0.99), 990 * 1.01);
  EXPECT_LE(histogram.Quantile(0.0005), 0.01);
  EXPECT_DOUBLE_EQ(histogram.max(), 1000);
}

TEST(Chunks, RateAndPercentilesPerChunk) {
  // Ten operations completing 1 us apart, chunks of four: chunk 1 spans the
  // completions of operations 3 to 7, chunk 0 and the partial tail are skipped.
  std::vector<int64_t> done;
  std::vector<double> latency;
  for (int i = 0; i < 10; ++i) {
    done.push_back(1000 * i);
    latency.push_back(i);
  }
  std::vector<Chunk> chunks = ChunkStats(done, latency, 4, 2.0);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_DOUBLE_EQ(chunks[0].rate, 4 * 2.0 * 1e9 / 4000);
  EXPECT_DOUBLE_EQ(chunks[0].p50_us, 5);
  EXPECT_DOUBLE_EQ(chunks[0].p99_us, 0);  // four samples cannot support a p99
}

TEST(Trace, SelfTimeSubtractsChildren) {
  Tracer tracer(16);
  tracer.Begin(SpanKind::kLoop, 1, 0);
  tracer.Begin(SpanKind::kGen, 2, 10);
  tracer.Begin(SpanKind::kDevicesRx, 3, 20);
  tracer.End(50);  // devices.rx: 30
  tracer.Begin(SpanKind::kDevicesRx, 4, 60);
  tracer.End(70);  // devices.rx: 10
  tracer.End(100);  // gen: 90, self 50
  tracer.Begin(SpanKind::kUmlPump, 5, 110);
  tracer.End(150);  // pump: 40
  tracer.End(200);  // loop: 200, self 70
  EXPECT_EQ(tracer.Totals(SpanKind::kDevicesRx).self_ns, 40);
  EXPECT_EQ(tracer.Totals(SpanKind::kDevicesRx).count, 2u);
  EXPECT_EQ(tracer.Totals(SpanKind::kGen).total_ns, 90);
  EXPECT_EQ(tracer.Totals(SpanKind::kGen).self_ns, 50);
  SpanTotals loop = tracer.Totals(SpanKind::kLoop);
  EXPECT_EQ(loop.total_ns, 200);
  EXPECT_EQ(loop.self_ns, 70);
  // Top-level spans plus the loop's unattributed time give its wall time.
  EXPECT_EQ(tracer.TopLevelNs() + loop.self_ns, loop.total_ns);
  EXPECT_EQ(tracer.stored(), 5u);
}

TEST(Trace, ThreadsNestIndependentlyAndOverflowIsCounted) {
  Tracer tracer(2);
  tracer.Begin(SpanKind::kLoop, 1, 0);
  std::thread other([&tracer]() {
    tracer.Begin(SpanKind::kSink, 7, 5);  // a root on its own thread
    tracer.End(25);
  });
  other.join();
  tracer.Begin(SpanKind::kGen, 2, 30);
  tracer.End(40);
  tracer.End(100);
  EXPECT_EQ(tracer.Totals(SpanKind::kLoop).self_ns, 90);
  EXPECT_EQ(tracer.Totals(SpanKind::kSink).self_ns, 20);
  EXPECT_EQ(tracer.stored(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(ArrivalOrder, PairsTheIthSendWithTheIthArrival) {
  std::vector<int64_t> sent = {100, 200, 300, 400};
  std::vector<int64_t> arrived = {1100, 1300, 2300, 2400};
  std::vector<double> lat;
  ASSERT_TRUE(MatchArrivalOrder(sent, arrived, 1, 4, &lat));
  EXPECT_EQ(lat, (std::vector<double>{1.1, 2.0, 2.0}));
}

TEST(ArrivalOrder, RejectsShortStreamsAndArrivalsBeforeSends) {
  std::vector<double> lat;
  EXPECT_FALSE(MatchArrivalOrder({100, 200}, {150}, 0, 2, &lat));
  EXPECT_FALSE(MatchArrivalOrder({100, 200}, {150, 190}, 0, 2, &lat));
  EXPECT_TRUE(lat.empty());
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  std::string line = FormatResultLine(true, 1000, 0,
                                      {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(ResultLine, KeepsEveryDigit) {
  std::string line = FormatResultLine(false, 3, 1, {{"x", 0.1234567890123, "s"}});
  EXPECT_NE(line.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(line.find("0.1234567890123"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
