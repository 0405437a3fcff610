// Each correctness check passes on the right expectation and fails when
// handed a wrong one.
#include <gtest/gtest.h>

#include "kernelsim/assertions.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Checks, OltpStatsCatchAWrongCount) {
  tesla::runtime::RuntimeStats want;
  want.events = 271;
  want.transitions = 40;
  want.accepts = 12;
  EXPECT_TRUE(CheckOltpStats(want, want).ok);

  tesla::runtime::RuntimeStats off_by_one = want;
  off_by_one.transitions++;
  const Check check = CheckOltpStats(off_by_one, want);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.detail.find("transitions"), std::string::npos);
}

TEST(Checks, OltpStatsRejectViolationsEvenWhenExpected) {
  tesla::runtime::RuntimeStats want;
  want.violations = 1;
  EXPECT_FALSE(CheckOltpStats(want, want).ok);
}

TEST(Checks, OltpStatsIgnoreQueueSideCounters) {
  tesla::runtime::RuntimeStats want;
  tesla::runtime::RuntimeStats got;
  got.queue_events = 99;  // replay column 0: ingestion-side, not compared
  EXPECT_TRUE(CheckOltpStats(got, want).ok);
}

TEST(Checks, SessionCensus) {
  EXPECT_TRUE(CheckSessionCensus(17, 0, 17).ok);
  EXPECT_FALSE(CheckSessionCensus(17, 0, 18).ok);
  EXPECT_FALSE(CheckSessionCensus(17, 1, 17).ok);
}

TEST(Checks, ReplayMatched) {
  tesla::trace::ReplayResult result;
  result.matched = true;
  EXPECT_TRUE(CheckReplayMatched(result).ok);
  result.matched = false;
  result.divergence = "events: capture 10 vs replay 9\n";
  const Check check = CheckReplayMatched(result);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.detail, result.divergence);
}

// End to end: the calibrated per-chunk counts predict a real run exactly,
// and a wrong chunk plan is caught.
TEST(Checks, CalibrationPredictsAnInlineRun) {
  auto manifest = tesla::kernelsim::KernelAssertions(tesla::kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());
  tesla::runtime::RuntimeOptions options;
  options.fail_stop = false;
  auto rig = MakeRig(&manifest.value(), options, nullptr);
  ASSERT_TRUE(rig.ok());
  KernelRig& r = *rig.value();
  r.Run(kMaxChunk);  // the same warm-up the workloads use

  std::vector<tesla::runtime::RuntimeStats> per_chunk(kMaxChunk + 1);
  for (int k = kMinChunk; k <= kMaxChunk; k++) {
    const auto before = r.rt->stats();
    r.Run(k);
    const auto after = r.rt->stats();
    per_chunk[k].events = after.events - before.events;
    per_chunk[k].transitions = after.transitions - before.transitions;
  }
  // Per-chunk counts do not depend on kernel history: re-running k gives
  // the same delta.
  for (int k : {kMinChunk, 33, kMaxChunk}) {
    const auto before = r.rt->stats();
    r.Run(k);
    EXPECT_EQ(r.rt->stats().events - before.events, per_chunk[k].events) << k;
    EXPECT_EQ(r.rt->stats().transitions - before.transitions, per_chunk[k].transitions) << k;
  }
  EXPECT_NE(per_chunk[kMinChunk].events, per_chunk[kMaxChunk].events);
}

}  // namespace
}  // namespace perfbench
