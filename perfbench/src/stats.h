// Sample statistics for the benchmark's timings.
//
// A timing is reported as its median plus the highest percentile that still
// has at least kTailSamples samples beyond it, with the sample count — a p99
// read off 120 samples is one sample, not a tail. Percentiles use the
// nearest-rank definition: the p-th percentile of n sorted samples is the
// sample at 1-based rank ceil(p/100 * n), so exactly n - rank samples lie
// beyond it.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailSamples = 10;

// The percentile ladder a tail is read from, highest first.
inline constexpr double kTailLadder[] = {99.99, 99.9, 99, 95, 90, 75, 50};

struct Summary {
  size_t count = 0;
  double median = 0;
  // Highest ladder percentile (capped by max_percentile) with at least
  // kTailSamples samples beyond it; 100 (the largest sample) when even the
  // median has fewer.
  double tail_percentile = 0;
  double tail = 0;  // the sample at tail_percentile
};

// 1-based nearest rank of the p-th percentile among n samples.
inline size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

// Samples strictly beyond the p-th percentile of n samples.
inline size_t SamplesBeyond(double p, size_t n) { return n - NearestRank(p, n); }

// Median and tail of `samples`, which it sorts in place.
template <typename T>
Summary SummarizeInPlace(std::span<T> samples, double max_percentile = 100) {
  Summary summary;
  summary.count = samples.size();
  if (samples.empty()) {
    return summary;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  summary.median = n % 2 == 1 ? samples[n / 2]
                              : (static_cast<double>(samples[n / 2 - 1]) + samples[n / 2]) / 2;
  summary.tail_percentile = 100;
  summary.tail = samples[n - 1];
  for (double p : kTailLadder) {
    if (p <= max_percentile && SamplesBeyond(p, n) >= kTailSamples) {
      summary.tail_percentile = p;
      summary.tail = samples[NearestRank(p, n) - 1];
      break;
    }
  }
  return summary;
}

inline Summary Summarize(std::vector<double> samples, double max_percentile = 100) {
  return SummarizeInPlace(std::span<double>(samples), max_percentile);
}

inline double Median(std::vector<double> values) {
  return SummarizeInPlace(std::span<double>(values)).median;
}

// Mean of `values` without their lowest and highest tenth (rounded down):
// it moves smoothly with the share of slow stretches in a run, where a
// median jumps between modes, and a few outliers cannot pull it.
inline double TrimmedMean(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; i++) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * cut);
}

// Per-op latency samples grouped into rounds, and rounds into windows.
//
// A round is a complete unit of a workload's work (OLTP: 64 calls;
// sessions: one epoch; replay: 8 replays), so TESLA's periodic costs, such
// as an epoch's cleanup sweep, land in every round alike. Each round also
// carries the time of its uninstrumented baseline, the same work without
// TESLA run right after it (sessions: the round's own event generation),
// and the set-up timed after it, if any.
//
// Consecutive rounds form windows of about `window_ns` of round time. The
// latency percentiles and overhead_x are read per window and reported as
// the trimmed mean over the windows. On a shared host, co-tenant load slows
// whole seconds of a run by 2x and more and comes and goes; a median or
// p99 pooled over the run jumps with which level holds it, while the mean
// of per-window figures moves only in proportion to the share of the run
// the load covered.
//
// Buffers are allocated and touched up front, so the run's resident set
// does not grow with the number of ops it measures (peak_rss_mb would
// otherwise track throughput). Samples past capacity are counted, not kept.
class RoundLog {
 public:
  struct View {
    size_t rounds = 0;
    size_t windows = 0;
    double ops_per_s = 0;  // sum of ops / sum of their time over the rounds
    // Trimmed mean over the windows of instrumented time / baseline time.
    double ratio = 0;
    // count: all samples; median, tail: trimmed means over the windows of
    // the window's median and tail; tail_percentile: the lowest percentile
    // a window's tail was read at.
    Summary latency;
    double setup_s = 0;  // median of the set-ups timed after the rounds
    // Sum of baseline time / sum of ops: the host's speed on work without
    // TESLA, for telling a host shift from a program change.
    double baseline_ns_per_op = 0;
  };

  RoundLog(size_t sample_capacity, size_t round_capacity, uint64_t window_ns = 1000000000)
      : samples_(sample_capacity, 0.0f), rounds_(round_capacity, Round{}), window_ns_(window_ns) {}

  void AddSample(double value) {
    if (sample_count_ < samples_.size()) {
      samples_[sample_count_++] = static_cast<float>(value);
    } else {
      dropped_++;
    }
  }

  // Closes the round holding the samples added since the last EndRound:
  // `ops` completed in `ns` of the program's time (throughput's time); the
  // instrumented work took `instrumented_ns` and the same work without
  // TESLA `baseline_ns` (overhead_x is their ratio). The round's time, which
  // fills its window, is `ns + baseline_ns`.
  void EndRound(uint64_t ops, uint64_t ns, uint64_t instrumented_ns, uint64_t baseline_ns) {
    ops_ += ops;
    ns_ += ns;
    if (round_count_ < rounds_.size()) {
      rounds_[round_count_++] = {ns + baseline_ns, instrumented_ns, baseline_ns, round_first_,
                                 sample_count_ - round_first_, -1};
    } else {
      dropped_++;
    }
    round_first_ = sample_count_;
  }

  // Records a set-up timed right after the last closed round.
  void AddSetup(double seconds) {
    if (round_count_ > 0) {
      rounds_[round_count_ - 1].setup_s = seconds;
    }
  }

  uint64_t ops() const { return ops_; }
  double seconds() const { return static_cast<double>(ns_) / 1e9; }
  size_t rounds() const { return round_count_; }
  uint64_t dropped() const { return dropped_; }

  View All() const {
    View view;
    view.rounds = round_count_;
    view.ops_per_s = ns_ > 0 ? static_cast<double>(ops_) * 1e9 / static_cast<double>(ns_) : 0;
    uint64_t baseline_total = 0;
    view.latency.tail_percentile = 100;
    std::vector<double> ratios, medians, tails, setups;
    std::vector<float> window;
    uint64_t window_time = 0, instrumented = 0, baseline = 0;
    auto close_window = [&] {
      ratios.push_back(static_cast<double>(instrumented) /
                       static_cast<double>(std::max<uint64_t>(baseline, 1)));
      const Summary summary = SummarizeInPlace(std::span<float>(window), 99);
      medians.push_back(summary.median);
      tails.push_back(summary.tail);
      view.latency.tail_percentile =
          std::min(view.latency.tail_percentile, summary.tail_percentile);
      view.latency.count += summary.count;
      view.windows++;
      window.clear();
      window_time = instrumented = baseline = 0;
    };
    uint64_t remaining = 0;  // round time from the current round on
    for (size_t i = 0; i < round_count_; i++) {
      remaining += rounds_[i].time_ns;
    }
    for (size_t i = 0; i < round_count_; i++) {
      const Round& round = rounds_[i];
      // A short last window joins the one before it.
      if (window_time >= window_ns_ && remaining >= window_ns_) {
        close_window();
      }
      remaining -= round.time_ns;
      baseline_total += round.baseline_ns;
      window_time += round.time_ns;
      instrumented += round.instrumented_ns;
      baseline += round.baseline_ns;
      window.insert(window.end(), samples_.begin() + round.first,
                    samples_.begin() + round.first + round.count);
      if (round.setup_s >= 0) {
        setups.push_back(round.setup_s);
      }
    }
    if (window_time > 0) {
      close_window();
    }
    view.ratio = TrimmedMean(ratios);
    view.latency.median = TrimmedMean(medians);
    view.latency.tail = TrimmedMean(tails);
    view.setup_s = Summarize(setups).median;
    view.baseline_ns_per_op =
        ops_ > 0 ? static_cast<double>(baseline_total) / static_cast<double>(ops_) : 0;
    return view;
  }

 private:
  struct Round {
    uint64_t time_ns = 0;  // ns + baseline_ns
    uint64_t instrumented_ns = 0;
    uint64_t baseline_ns = 0;
    size_t first = 0;  // samples_[first, first + count)
    size_t count = 0;
    double setup_s = -1;  // < 0: no set-up followed this round
  };

  std::vector<float> samples_;
  std::vector<Round> rounds_;
  uint64_t window_ns_;
  size_t sample_count_ = 0;
  size_t round_count_ = 0;
  size_t round_first_ = 0;
  uint64_t ops_ = 0;
  uint64_t ns_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
