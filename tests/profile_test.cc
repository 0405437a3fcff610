// tesla::profile — workload profiling and profile-guided plan compilation.
//
// Covers: profile determinism across sync / async-queue / multi-consumer
// dispatch (the same differential discipline as queue_mc_test, extended to
// the profile's deterministic cells, partial-binding attribution and
// sketches); the secondary prefix index a plan hint builds (differential
// against the naive scan); hints text round-trip; sketch estimate accuracy;
// the v5 capture round-trip; ResetStats rewinding SlotPool high-water marks
// (regression, alongside the shard_pool_overflows() reset test in
// metrics_test); and the once-only OnWarning when the population gate keeps
// disabling the key probe for a profiled class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "profile/collector.h"
#include "profile/hints.h"
#include "profile/snapshot.h"
#include "queue/queue.h"
#include "runtime/handler.h"
#include "runtime/runtime.h"
#include "support/hash.h"
#include "support/log.h"
#include "trace/format.h"
#include "trace/replay.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::ThreadContext;

Symbol S(const char* name) { return InternString(name); }

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") + "/" + name;
}

// Deterministic-profile equality: every cell the schema marks deterministic,
// the partial-binding attribution and the sketches must agree; latency cells
// are wall-clock and excluded by the same schema bit the replay comparator
// uses.
void ExpectSameDeterministicProfile(const profile::Snapshot& a, const profile::Snapshot& b,
                                    const char* where) {
  ASSERT_EQ(a.classes.size(), b.classes.size()) << where;
  for (size_t c = 0; c < a.classes.size(); c++) {
    const profile::ClassProfile& pa = a.classes[c];
    const profile::ClassProfile& pb = b.classes[c];
    ASSERT_EQ(pa.name, pb.name) << where;
    EXPECT_EQ(pa.key_vars, pb.key_vars) << where << " " << pa.name;
    for (size_t i = 0; i < profile::kCellCount; i++) {
      if (!profile::kCellDeterministic[i]) {
        continue;
      }
      EXPECT_EQ(pa.cells[i], pb.cells[i])
          << where << " " << pa.name << "." << profile::kCellNames[i];
    }
    for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
      EXPECT_EQ(pa.var_partial[p], pb.var_partial[p])
          << where << " " << pa.name << " partial[" << p << "]";
      for (size_t w = 0; w < profile::kSketchWords; w++) {
        EXPECT_EQ(pa.sketch[p][w], pb.sketch[p][w])
            << where << " " << pa.name << " sketch[" << p << "][" << w << "]";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism differential: the same per-class event streams, dispatched
// inline, through one drain thread, and through four shard-owning consumers,
// must produce identical profile snapshots.

constexpr int kClasses = 4;
constexpr int kIterations = 300;

struct ClassSymbols {
  Symbol enter;
  Symbol check;
  Symbol exit;
  uint32_t id;
};

automata::Manifest MakeManifest() {
  automata::Manifest manifest;
  for (int g = 0; g < kClasses; g++) {
    const std::string n = std::to_string(g);
    const std::string source = "TESLA_GLOBAL(call(pfenter" + n + "), returnfrom(pfexit" + n +
                               "), previously(pfcheck" + n + "(x) == 0))";
    auto automaton = CompileAssertion(source, {}, "profile-" + n);
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    manifest.Add(std::move(automaton.value()));
  }
  return manifest;
}

profile::Snapshot RunWorkload(size_t consumers) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.global_shards = 8;
  options.profile = true;
  Runtime rt(options);
  automata::Manifest manifest = MakeManifest();
  EXPECT_TRUE(rt.Register(manifest).ok());

  std::vector<ClassSymbols> symbols;
  for (int g = 0; g < kClasses; g++) {
    const std::string n = std::to_string(g);
    symbols.push_back({InternString("pfenter" + n), InternString("pfcheck" + n),
                       InternString("pfexit" + n),
                       static_cast<uint32_t>(rt.FindAutomaton("profile-" + n))});
  }
  std::vector<std::unique_ptr<ThreadContext>> contexts;
  for (int g = 0; g < kClasses; g++) {
    contexts.push_back(std::make_unique<ThreadContext>(rt));
  }
  std::unique_ptr<queue::EventQueue> q;
  if (consumers > 0) {
    queue::QueueOptions queue_options;
    queue_options.consumers = consumers;
    q = std::make_unique<queue::EventQueue>(rt, queue_options);
    q->Start();
  }

  std::vector<std::thread> workers;
  for (int g = 0; g < kClasses; g++) {
    workers.emplace_back([&rt, &symbols, &contexts, g] {
      const ClassSymbols& s = symbols[g];
      ThreadContext& ctx = *contexts[g];
      for (int i = 0; i < kIterations; i++) {
        rt.OnFunctionCall(ctx, s.enter, {});
        if (i % 5 != 4) {
          int64_t args[] = {i % 7};
          rt.OnFunctionReturn(ctx, s.check, args, 0);
        }
        Binding site[] = {{0, i % 7}};
        rt.OnAssertionSite(ctx, s.id, site);
        rt.OnFunctionReturn(ctx, s.exit, {}, 0);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (q != nullptr) {
    q->Stop();
  }
  return rt.CollectProfile();
}

TEST(ProfileDifferential, AsyncAndMultiConsumerMatchSync) {
  const profile::Snapshot sync = RunWorkload(0);
  const profile::Snapshot async_one = RunWorkload(1);
  const profile::Snapshot mc = RunWorkload(4);

  // Sanity: the workload really dispatched and really profiled.
  ASSERT_EQ(sync.classes.size(), static_cast<size_t>(kClasses));
  uint64_t dispatches = 0;
  for (const profile::ClassProfile& cls : sync.classes) {
    dispatches += cls.cell(profile::Cell::dispatches);
    EXPECT_GT(cls.cell(profile::Cell::fanout_peak), 0u) << cls.name;
  }
  EXPECT_GT(dispatches, 0u);

  ExpectSameDeterministicProfile(sync, async_one, "async-queue");
  ExpectSameDeterministicProfile(sync, mc, "multi-consumer");
}

// ---------------------------------------------------------------------------
// The secondary prefix index: a plan hint naming a key position must change
// *where* partially-bound dispatch looks, never *what* it computes.

struct Side {
  Side(const std::string& source, RuntimeOptions options) : rt(options) {
    auto automaton = CompileAssertion(source, {}, "diff");
    EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
    automata::Manifest manifest;
    manifest.Add(std::move(automaton.value()));
    EXPECT_TRUE(rt.Register(manifest).ok());
    id = static_cast<uint32_t>(rt.FindAutomaton("diff"));
    rt.AddHandler(&handler);
    ctx = std::make_unique<ThreadContext>(rt);
  }
  Runtime rt;
  runtime::CountingHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  uint32_t id = 0;
};

TEST(ProfileHints, PrefixIndexedDispatchAgreesWithNaiveScan) {
  SetLogLevel(LogLevel::kSilent);
  const std::string source = "TESLA_WITHIN(syscall, previously(pair(x, y) == 0))";

  RuntimeOptions hinted_options;
  hinted_options.fail_stop = false;
  hinted_options.profile = true;
  {
    profile::ClassHint hint;
    hint.name = "diff";
    hint.min_population = 0;
    hint.prefix_key_pos = 0;  // secondary index on x
    hinted_options.plan_hints.classes.push_back(hint);
  }
  RuntimeOptions naive_options;
  naive_options.fail_stop = false;
  naive_options.instance_index = false;
  Side hinted(source, hinted_options);
  Side naive(source, naive_options);

  uint64_t rng = 12345;
  for (int round = 0; round < 400; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 5);
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding partial[] = {{0, x}};

    for (Side* s : {&hinted, &naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("pair"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, full);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, partial);
          break;
        case 4:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    const runtime::RuntimeStats& a = hinted.rt.stats();
    const runtime::RuntimeStats& b = naive.rt.stats();
    ASSERT_EQ(a.instances_created, b.instances_created) << "round " << round;
    ASSERT_EQ(a.instances_cloned, b.instances_cloned) << "round " << round;
    ASSERT_EQ(a.transitions, b.transitions) << "round " << round;
    ASSERT_EQ(a.accepts, b.accepts) << "round " << round;
    ASSERT_EQ(a.violations, b.violations) << "round " << round;
  }
  const std::vector<runtime::Violation>& va = hinted.handler.violations();
  const std::vector<runtime::Violation>& vb = naive.handler.violations();
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); i++) {
    EXPECT_EQ(va[i].kind, vb[i].kind) << "violation " << i;
  }

  // The hint really built and served the secondary index: partially-bound
  // dispatches took prefix probes instead of full scans.
  const profile::Snapshot snapshot = hinted.rt.CollectProfile();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  EXPECT_GT(snapshot.classes[0].cell(profile::Cell::prefix_probes), 0u);
  EXPECT_GT(snapshot.classes[0].cell(profile::Cell::index_probes), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: ResetStats() rewinds SlotPool high-water marks.

TEST(ProfileReset, ResetStatsRewindsPoolHighWater) {
  // A global automaton stores instances in runtime-owned shard contexts.
  // Clone a burst of instances, retire them (returnfrom deactivates the
  // class and frees its instances), and verify the recorded peak survives —
  // then that ResetStats() rewinds it to the *live* population rather than
  // leaving the stale peak behind to pollute the next profile window.
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  Runtime rt(options);
  auto automaton = CompileAssertion(
      "TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))", {}, "m");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);

  rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 8; v++) {
    int64_t args[] = {v};
    rt.OnFunctionReturn(ctx, S("check"), args, 0);
  }
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);  // deactivates; instances freed

  const uint64_t peak = rt.shard_pool_high_water();
  EXPECT_GE(peak, 8u);  // wildcard + clones were simultaneously live
  EXPECT_EQ(rt.CollectProfile().pool_high_water, peak);

  rt.ResetStats();

  // The peak rewound to the (now empty) live population.
  EXPECT_LT(rt.shard_pool_high_water(), peak);
  EXPECT_EQ(rt.CollectProfile().pool_high_water, rt.shard_pool_high_water());

  // And the mark still tracks new activity after the reset.
  rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {1};
  rt.OnFunctionReturn(ctx, S("check"), args, 0);
  EXPECT_GT(rt.shard_pool_high_water(), 0u);
}

// ---------------------------------------------------------------------------
// Satellite: once-only warning when the population gate keeps forcing scans.

class WarningLog : public runtime::EventHandler {
 public:
  void OnWarning(const runtime::ClassInfo& cls, const std::string& message) override {
    count_++;
    last_ = message;
  }
  uint64_t count() const { return count_; }
  const std::string& last() const { return last_; }

 private:
  uint64_t count_ = 0;
  std::string last_;
};

TEST(ProfileWarnings, GateDisablingProbeWarnsExactlyOnce) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  options.index_min_population = 1 << 20;  // the probe can never win
  Runtime rt(options);
  auto automaton =
      CompileAssertion("TESLA_WITHIN(syscall, previously(check(x) == 0))", {}, "m");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  WarningLog warnings;
  rt.AddHandler(&warnings);
  ThreadContext ctx(rt);

  rt.OnFunctionCall(ctx, S("syscall"), {});
  int64_t args[] = {1};
  rt.OnFunctionReturn(ctx, S("check"), args, 0);
  // Well past the warm-up threshold: every fully-bound site dispatch is a
  // gated scan the index would have served.
  for (int i = 0; i < 200; i++) {
    Binding site[] = {{0, 1}};
    rt.OnAssertionSite(ctx, rt.FindAutomaton("m"), site);
  }

  EXPECT_EQ(warnings.count(), 1u);
  EXPECT_NE(warnings.last().find("index_min_population"), std::string::npos);

  // The profile attributes those dispatches to the gate.
  const profile::Snapshot snapshot = rt.CollectProfile();
  ASSERT_EQ(snapshot.classes.size(), 1u);
  EXPECT_GE(snapshot.classes[0].cell(profile::Cell::small_population), 64u);
}

// ---------------------------------------------------------------------------
// Hints text round-trip and hint-derived plan behaviour.

TEST(ProfileHints, TextRoundTrip) {
  profile::PlanHints hints;
  hints.classes.push_back({"mac.fs open", 128, 0, 1});  // space in the name
  hints.classes.push_back({"proc.setuid", 16, -1, -1});
  const std::string text = profile::HintsToText(hints);
  auto parsed = profile::ParseHints(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  ASSERT_EQ(parsed.value().classes.size(), 2u);
  EXPECT_EQ(parsed.value().classes[0].name, "mac.fs open");
  EXPECT_EQ(parsed.value().classes[0].capacity, 128u);
  EXPECT_EQ(parsed.value().classes[0].min_population, 0);
  EXPECT_EQ(parsed.value().classes[0].prefix_key_pos, 1);
  EXPECT_EQ(parsed.value().classes[1].name, "proc.setuid");
  EXPECT_EQ(parsed.value().classes[1].min_population, -1);

  EXPECT_FALSE(profile::ParseHints("class nonsense").ok());
  EXPECT_TRUE(profile::ParseHints("# comment only\n\n").ok());

  // Fields the int32_t hint cannot hold are reported, never wrapped into a
  // different hint: 2^32 would wrap to 0 (probe gate off), 2^31 to INT32_MIN,
  // and values below -1 ("no hint") mean nothing.
  for (const char* line : {
           "class 1:a capacity=16 min_population=4294967296 prefix_key_pos=-1\n",
           "class 1:a capacity=16 min_population=2147483648 prefix_key_pos=-1\n",
           "class 1:a capacity=16 min_population=-9 prefix_key_pos=-7\n",
       }) {
    auto out_of_range = profile::ParseHints(line);
    ASSERT_FALSE(out_of_range.ok()) << line;
    EXPECT_NE(out_of_range.error().ToString().find("field out of range"), std::string::npos)
        << out_of_range.error().ToString();
  }
  auto edge = profile::ParseHints(
      "class 1:a capacity=16 min_population=2147483647 prefix_key_pos=-1\n");
  ASSERT_TRUE(edge.ok()) << edge.error().ToString();
  EXPECT_EQ(edge.value().classes[0].min_population, INT32_MAX);
}

TEST(ProfileHints, SnapshotDistillsGatedScansIntoHints) {
  profile::Snapshot snapshot;
  profile::ClassProfile cls;
  cls.name = "gated";
  cls.key_vars = {0};
  cls.cells[static_cast<size_t>(profile::Cell::dispatches)] = 1000;
  cls.cells[static_cast<size_t>(profile::Cell::scan_fallbacks)] = 900;
  cls.cells[static_cast<size_t>(profile::Cell::small_population)] = 900;
  cls.cells[static_cast<size_t>(profile::Cell::fanout_peak)] = 24;
  snapshot.classes.push_back(cls);

  const profile::PlanHints hints = profile::HintsFromSnapshot(snapshot);
  ASSERT_EQ(hints.classes.size(), 1u);
  EXPECT_EQ(hints.classes[0].min_population, 0);    // turn the probe back on
  EXPECT_GE(hints.classes[0].capacity, 48u);        // ≥ 2× the observed peak
  EXPECT_EQ(hints.classes[0].prefix_key_pos, -1);   // scans weren't partial-bound
}

// ---------------------------------------------------------------------------
// Sketch accuracy: linear counting is exact for small n and within its
// documented error for n ≈ m/2.

TEST(ProfileSketch, EstimatesDistinctValues) {
  profile::Collector collector;
  collector.EnsureClassCapacity(2);
  profile::Shard* shard = collector.RegisterShard();
  for (uint64_t v = 0; v < 10; v++) {
    shard->SketchValue(0, 0, HashU64(v));
    shard->SketchValue(0, 0, HashU64(v));  // duplicates must not inflate
  }
  for (uint64_t v = 0; v < 120; v++) {
    shard->SketchValue(1, 0, HashU64(v * 7919 + 3));
  }

  std::vector<uint64_t> merged(2 * profile::kClassStride);
  collector.Merge(2, merged.data());
  profile::ClassProfile small;
  profile::ClassProfile large;
  small.key_vars = {0};
  large.key_vars = {0};
  std::copy_n(merged.data() + profile::kSketchOffset, profile::kSketchWords,
              small.sketch[0]);
  std::copy_n(merged.data() + profile::kClassStride + profile::kSketchOffset,
              profile::kSketchWords, large.sketch[0]);

  EXPECT_NEAR(small.EstimatedDistinct(0), 10.0, 2.0);
  EXPECT_NEAR(large.EstimatedDistinct(0), 120.0, 30.0);
}

// ---------------------------------------------------------------------------
// The v5 capture round-trip: the profile section survives write → read and
// merges into fleet reports.

TEST(ProfileCapture, SurvivesCaptureRoundTrip) {
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.fail_stop = false;
  options.profile = true;
  options.trace_mode = trace::TraceMode::kFullCapture;
  Runtime rt(options);
  auto automaton =
      CompileAssertion("TESLA_WITHIN(syscall, previously(check(x) == 0))", {}, "m");
  ASSERT_TRUE(automaton.ok());
  automata::Manifest manifest;
  manifest.Add(std::move(automaton.value()));
  ASSERT_TRUE(rt.Register(manifest).ok());
  ThreadContext ctx(rt);
  rt.OnFunctionCall(ctx, S("syscall"), {});
  for (int64_t v = 0; v < 5; v++) {
    int64_t args[] = {v};
    rt.OnFunctionReturn(ctx, S("check"), args, 0);
    Binding site[] = {{0, v}};
    rt.OnAssertionSite(ctx, rt.FindAutomaton("m"), site);
  }
  rt.OnFunctionReturn(ctx, S("syscall"), {}, 0);

  const std::string path = TempPath("profile_roundtrip.trc");
  ASSERT_TRUE(trace::WriteCapture(path, "file:none", rt).ok());
  auto read = trace::TraceFile::Read(path);
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(read.value().version, trace::kTraceVersion);
  ASSERT_TRUE(read.value().summary.has_profile);

  const profile::Snapshot want = rt.CollectProfile();
  ExpectSameDeterministicProfile(want, read.value().summary.profile, "capture");
  EXPECT_EQ(read.value().summary.profile.pool_high_water, want.pool_high_water);
  EXPECT_EQ(read.value().summary.profile.pool_capacity, want.pool_capacity);

  // Self-merge doubles the sums and keeps the peaks — the fleet rule.
  profile::Snapshot doubled = want;
  profile::MergeInto(&doubled, want);
  ASSERT_EQ(doubled.classes.size(), want.classes.size());
  EXPECT_EQ(doubled.classes[0].cell(profile::Cell::dispatches),
            2 * want.classes[0].cell(profile::Cell::dispatches));
  EXPECT_EQ(doubled.classes[0].cell(profile::Cell::fanout_peak),
            want.classes[0].cell(profile::Cell::fanout_peak));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tesla
