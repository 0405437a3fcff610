#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

// 1..n in shuffled order: the p-th nearest-rank percentile is ceil(p/100 n).
std::vector<double> Ramp(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  for (size_t i = 0; i < n; i++) {
    std::swap(values[i], values[(i * 7919) % n]);
  }
  return values;
}

TEST(Stats, NinetyNineSamplesFallBackToP75) {
  // p99 and p95 and p90 leave fewer than 10 samples beyond them at n=99.
  const Summary s = Summarize(Ramp(99));
  EXPECT_EQ(s.count, 99u);
  EXPECT_EQ(s.median, 50);
  EXPECT_EQ(s.tail_percentile, 75);
  EXPECT_EQ(s.tail, 75);  // rank ceil(74.25) = 75; 24 samples beyond
  EXPECT_GE(SamplesBeyond(s.tail_percentile, s.count), kTailSamples);
  EXPECT_LT(SamplesBeyond(90, 99), kTailSamples);
}

TEST(Stats, ThousandSamplesReachP99) {
  const Summary s = Summarize(Ramp(1000), 99);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.median, 500.5);
  EXPECT_EQ(s.tail_percentile, 99);
  EXPECT_EQ(s.tail, 990);  // exactly 10 samples beyond
  EXPECT_EQ(SamplesBeyond(99, 1000), 10u);
  // Uncapped, p99.9 has 1 sample beyond: still p99.
  EXPECT_EQ(Summarize(Ramp(1000)).tail_percentile, 99);
}

TEST(Stats, TenThousandSamplesReachP999Uncapped) {
  const Summary uncapped = Summarize(Ramp(10000));
  EXPECT_EQ(uncapped.tail_percentile, 99.9);
  EXPECT_EQ(uncapped.tail, 9990);
  const Summary capped = Summarize(Ramp(10000), 99);
  EXPECT_EQ(capped.tail_percentile, 99);
  EXPECT_EQ(capped.tail, 9900);
  EXPECT_EQ(capped.median, 5000.5);
}

TEST(Stats, TooFewSamplesReportTheLargest) {
  const Summary s = Summarize(Ramp(15));
  EXPECT_EQ(s.median, 8);
  EXPECT_EQ(s.tail_percentile, 100);
  EXPECT_EQ(s.tail, 15);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(Stats, TrimmedMeanDropsEachTenth) {
  EXPECT_EQ(TrimmedMean({}), 0);
  EXPECT_EQ(TrimmedMean({3, 1, 2}), 2);  // fewer than 10: nothing dropped
  // 1..20 plus an outlier: 21 values, the lowest and highest 2 dropped.
  std::vector<double> values = Ramp(20);
  values.push_back(1e9);
  EXPECT_DOUBLE_EQ(TrimmedMean(values), 11.0);  // mean of 3..19
}

TEST(RoundLog, ReadsEveryWindow) {
  // 1 ms windows. Ten rounds of 10 ops; round r takes (r + 1) ms of op time
  // (instrumented time twice that) against a 1 ms baseline, so every round
  // fills a window of its own. Its samples read r, and a set-up of
  // (r + 1) ms follows it.
  RoundLog log(1000, 100, 1000000);
  for (int r = 0; r < 10; r++) {
    for (int i = 0; i < 10; i++) {
      log.AddSample(r);
    }
    const uint64_t ns = static_cast<uint64_t>(r + 1) * 1000000;
    log.EndRound(10, ns, 2 * ns, 1000000);
    log.AddSetup(0.001 * (r + 1));
  }
  EXPECT_EQ(log.rounds(), 10u);
  EXPECT_EQ(log.ops(), 100u);
  EXPECT_DOUBLE_EQ(log.seconds(), 0.055);

  const RoundLog::View all = log.All();
  EXPECT_EQ(all.rounds, 10u);
  EXPECT_EQ(all.windows, 10u);
  EXPECT_DOUBLE_EQ(all.ops_per_s, 100 / 0.055);  // op time only
  EXPECT_DOUBLE_EQ(all.baseline_ns_per_op, 100000);  // 10 ms over 100 ops
  // Window ratios 2, 4, ..., 20; the trimmed mean drops 2 and 20.
  EXPECT_DOUBLE_EQ(all.ratio, 11);
  EXPECT_DOUBLE_EQ(all.setup_s, 0.0055);
  EXPECT_EQ(all.latency.count, 100u);
  // Window medians and tails read r; the trimmed mean drops 0 and 9.
  EXPECT_DOUBLE_EQ(all.latency.median, 4.5);
  EXPECT_DOUBLE_EQ(all.latency.tail, 4.5);
  EXPECT_EQ(all.latency.tail_percentile, 100);  // 10 samples a window
}

TEST(RoundLog, GroupsRoundsIntoWindows) {
  // 10 ms windows of 4 ms rounds (3 ms op + 1 ms baseline): rounds 0-2
  // fill the first window, 3-5 the second, and the short tail 6-7 joins it.
  RoundLog log(1000, 100, 10000000);
  for (int r = 0; r < 8; r++) {
    for (int i = 0; i < 100; i++) {
      log.AddSample(r < 3 ? 1 : 3);
    }
    log.EndRound(100, 3000000, 3000000, 1000000);
  }
  const RoundLog::View all = log.All();
  EXPECT_EQ(all.windows, 2u);
  EXPECT_DOUBLE_EQ(all.latency.median, 2);  // windows read 1 and 3
  EXPECT_DOUBLE_EQ(all.ratio, 3);
  EXPECT_EQ(all.latency.tail_percentile, 95);  // 300 samples: p99 has 3 beyond
  EXPECT_EQ(all.latency.count, 800u);
}

TEST(RoundLog, CountsWhatDoesNotFit) {
  RoundLog log(3, 1);
  for (int i = 0; i < 5; i++) {
    log.AddSample(i);
  }
  log.EndRound(5, 100, 100, 50);
  log.EndRound(1, 100, 100, 50);
  EXPECT_EQ(log.dropped(), 3u);  // two samples and one round
  EXPECT_EQ(log.ops(), 6u);      // totals still count every round
}

}  // namespace
}  // namespace perfbench
