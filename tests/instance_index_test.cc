// Differential coverage for the binding-keyed instance index: the indexed
// fast path (RuntimeOptions::instance_index, default on) must agree
// event-for-event with the naive two-pass scan it replaces. Both modes are
// driven through identical pseudo-random schedules and compared on every
// semantically observable quantity after every event; index_probes and
// index_scans are excluded (they intentionally differ between modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "runtime/handler.h"
#include "runtime/runtime.h"

namespace tesla {
namespace {

using automata::CompileAssertion;
using runtime::Binding;
using runtime::CountingHandler;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::ThreadContext;
using runtime::Violation;

Symbol S(const char* name) { return InternString(name); }

RuntimeOptions TestOptions() {
  RuntimeOptions options;
  options.fail_stop = false;
  // These schedules keep only a handful of instances live; pin the probe
  // threshold to zero so the indexed side actually takes the probe path the
  // differential exists to compare. The default threshold is covered by
  // ProbeDecisionIsMonotoneInPopulation below.
  options.index_min_population = 0;
  return options;
}

// One runtime + handler, compiled from `source` with the given options.
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
  CountingHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  uint32_t id = 0;
};

// Indexed and naive runtimes built from the same source; Check() compares
// all semantic stats fields plus the violation-kind sequence.
struct Pair {
  explicit Pair(const std::string& source, RuntimeOptions options = TestOptions())
      : indexed(source, WithIndex(options, true)), naive(source, WithIndex(options, false)) {}

  static RuntimeOptions WithIndex(RuntimeOptions options, bool on) {
    options.instance_index = on;
    return options;
  }

  void Check(const char* where) {
    const RuntimeStats& a = indexed.rt.stats();
    const RuntimeStats& b = naive.rt.stats();
    ASSERT_EQ(a.events, b.events) << where;
    ASSERT_EQ(a.bound_entries, b.bound_entries) << where;
    ASSERT_EQ(a.bound_exits, b.bound_exits) << where;
    ASSERT_EQ(a.instances_created, b.instances_created) << where;
    ASSERT_EQ(a.instances_cloned, b.instances_cloned) << where;
    ASSERT_EQ(a.transitions, b.transitions) << where;
    ASSERT_EQ(a.accepts, b.accepts) << where;
    ASSERT_EQ(a.violations, b.violations) << where;
    ASSERT_EQ(a.overflows, b.overflows) << where;
    ASSERT_EQ(a.ignored_events, b.ignored_events) << where;
    ASSERT_EQ(a.arg_truncations, b.arg_truncations) << where;
    ASSERT_EQ(a.site_variant_truncations, b.site_variant_truncations) << where;
    // index_probes / index_scans are deliberately NOT compared: the naive
    // side never touches the index, so they differ by construction.

    const std::vector<Violation>& va = indexed.handler.violations();
    const std::vector<Violation>& vb = naive.handler.violations();
    ASSERT_EQ(va.size(), vb.size()) << where;
    for (size_t i = 0; i < va.size(); i++) {
      ASSERT_EQ(va[i].kind, vb[i].kind) << where << " violation " << i;
      ASSERT_EQ(va[i].automaton, vb[i].automaton) << where << " violation " << i;
    }
  }

  Side indexed;
  Side naive;
};

// ---------------------------------------------------------------------------
// Randomized differential schedules.

TEST(InstanceIndex, RandomizedOneVariableAgrees) {
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))");

  uint64_t rng = 7;
  for (int round = 0; round < 400; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 4);
    int64_t value = static_cast<int64_t>((rng >> 40) % 5);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    p.Check("round");
  }
  // The schedule must actually have exercised the fast path.
  EXPECT_GT(p.indexed.rt.stats().index_probes, 0u);
  EXPECT_EQ(p.naive.rt.stats().index_probes, 0u);
}

TEST(InstanceIndex, RandomizedTwoVariableWithPartialBindingsAgrees) {
  // pair(x, y) binds both variables on clone events, but assertion sites
  // sometimes supply only x: those dispatches cannot use the index and must
  // take the fall-back scan, which has to agree with the naive mode too.
  Pair p("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))");

  uint64_t rng = 12345;
  for (int round = 0; round < 400; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 5);
    int64_t x = static_cast<int64_t>((rng >> 40) % 4);
    int64_t y = static_cast<int64_t>((rng >> 45) % 4);
    int64_t args[] = {x, y};
    Binding full[] = {{0, x}, {1, y}};
    Binding partial[] = {{0, x}};

    for (Side* s : {&p.indexed, &p.naive}) {
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
    p.Check("round");
  }
  EXPECT_GT(p.indexed.rt.stats().index_probes, 0u);  // fully-bound sites
  EXPECT_GT(p.indexed.rt.stats().index_scans, 0u);   // partially-bound sites
}

TEST(InstanceIndex, RandomizedGlobalAutomatonAgrees) {
  Pair p("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))");

  uint64_t rng = 4242;
  for (int round = 0; round < 300; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 4);
    int64_t value = static_cast<int64_t>((rng >> 40) % 4);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    p.Check("round");
  }
  EXPECT_GT(p.indexed.rt.stats().index_probes, 0u);
}

TEST(InstanceIndex, RandomizedDfaModeAgrees) {
  RuntimeOptions options = TestOptions();
  options.use_dfa = true;
  Pair p("TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))", options);

  uint64_t rng = 555;
  for (int round = 0; round < 300; round++) {
    rng = rng * 6364136223846793005ull + 1;
    int action = static_cast<int>((rng >> 33) % 5);
    int64_t value = static_cast<int64_t>((rng >> 40) % 4);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("ca"), args, 0);
          break;
        case 2:
          s->rt.OnFunctionReturn(*s->ctx, S("cb"), args, 0);
          break;
        case 3:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 4:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    p.Check("round");
  }
}

TEST(InstanceIndex, RandomizedOverflowPressureAgrees) {
  // A tiny pool: both modes must report the same kOverflow violations and
  // the same overflow counts even when most clones are dropped.
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 3;
  Pair p("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  uint64_t rng = 31337;
  for (int round = 0; round < 300; round++) {
    rng = rng * 6364136223846793005ull + 1;
    // Biased towards clone events so the tiny pool actually fills within a
    // bound: 0 = enter, 1..5 = check, 6 = site, 7 = exit.
    int roll = static_cast<int>((rng >> 33) % 8);
    int action = roll == 0 ? 0 : roll <= 5 ? 1 : roll == 6 ? 2 : 3;
    int64_t value = static_cast<int64_t>((rng >> 40) % 16);
    int64_t args[] = {value};
    Binding site[] = {{0, value}};

    for (Side* s : {&p.indexed, &p.naive}) {
      switch (action) {
        case 0:
          s->rt.OnFunctionCall(*s->ctx, S("syscall"), {});
          break;
        case 1:
          s->rt.OnFunctionReturn(*s->ctx, S("check"), args, 0);
          break;
        case 2:
          s->rt.OnAssertionSite(*s->ctx, s->id, site);
          break;
        case 3:
          s->rt.OnFunctionReturn(*s->ctx, S("syscall"), {}, 0);
          break;
      }
    }
    p.Check("round");
  }
  EXPECT_GT(p.indexed.rt.stats().overflows, 0u);
}

// ---------------------------------------------------------------------------
// Directed checks on index engagement and fall-back routing.

TEST(InstanceIndex, FastPathEngagesForFullyBoundDispatch) {
  RuntimeOptions options = TestOptions();
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {42};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  EXPECT_GT(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);

  Binding site[] = {{0, 42}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, PartialBindingFallsBackToScan) {
  Side s("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", TestOptions());

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {1, 2};
  s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
  uint64_t scans_before = s.rt.stats().index_scans;

  // Only x bound at the site: mask mismatch, must take the scan path.
  Binding partial[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, partial);
  EXPECT_GT(s.rt.stats().index_scans, scans_before);
}

TEST(InstanceIndex, IndexDisabledNeverProbes) {
  RuntimeOptions options = TestOptions();
  options.instance_index = false;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {1};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  Binding site[] = {{0, 1}};
  s.rt.OnAssertionSite(*s.ctx, s.id, site);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  EXPECT_EQ(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);
  EXPECT_EQ(s.rt.stats().violations, 0u);
}

TEST(InstanceIndex, ProbeDecisionIsMonotoneInPopulation) {
  // With the default index_min_population, a fully-bound dispatch must scan
  // below the threshold, probe at or above it, and never flip back to
  // scanning as the population grows (the decision is monotone in the live
  // count). The live population at the site is the wildcard plus one clone
  // per bound value.
  const size_t threshold = RuntimeOptions{}.index_min_population;
  ASSERT_GT(threshold, 1u);  // the small-population fallthrough is on by default
  bool probed_before = false;
  for (size_t clones = 1; clones <= 2 * threshold; clones++) {
    RuntimeOptions options;
    options.fail_stop = false;
    Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
    for (size_t v = 0; v < clones; v++) {
      int64_t args[] = {static_cast<int64_t>(v)};
      s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
    }
    s.rt.ResetStats();
    Binding site[] = {{0, 0}};
    s.rt.OnAssertionSite(*s.ctx, s.id, site);
    const bool probed = s.rt.stats().index_probes > 0;
    const bool scanned = s.rt.stats().index_scans > 0;
    ASSERT_NE(probed, scanned) << "clones=" << clones;  // exactly one path taken
    ASSERT_EQ(probed, clones + 1 >= threshold) << "clones=" << clones;
    ASSERT_TRUE(probed || !probed_before) << "clones=" << clones;  // monotone
    probed_before = probed;
    s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
    EXPECT_EQ(s.rt.stats().violations, 0u) << "clones=" << clones;
  }

  // Threshold zero probes unconditionally, even for the first dispatch.
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", TestOptions());
  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  int64_t args[] = {7};
  s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  EXPECT_GT(s.rt.stats().index_probes, 0u);
  EXPECT_EQ(s.rt.stats().index_scans, 0u);
}

TEST(InstanceIndex, ManyDistinctKeysStayIndependent) {
  // Grow the index through several rehashes and verify per-key isolation:
  // each bound value must only satisfy its own assertion site.
  RuntimeOptions options = TestOptions();
  options.instances_per_context = 512;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  for (int64_t v = 0; v < 200; v += 2) {  // bind even values only
    int64_t args[] = {v};
    s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  }
  uint64_t violations = 0;
  for (int64_t v = 0; v < 200; v++) {
    Binding site[] = {{0, v}};
    s.rt.OnAssertionSite(*s.ctx, s.id, site);
    if (v % 2 != 0) violations++;  // odd values were never bound
    ASSERT_EQ(s.rt.stats().violations, violations) << "v=" << v;
  }
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
}

// ---------------------------------------------------------------------------
// Building the index at the crossover.
//
// A keyed class files nothing into its index while its population is below
// the index_min_population gate; the first dispatch at the gate files every
// live instance in creation order, and cleanup drops the index so a
// re-opened bound rebuilds it from scratch. The schedules above run again
// at several gates, each against the index-off reference, comparing every
// replay-compared RuntimeStats field and the violation sequence after every
// event.

constexpr size_t kGates[] = {0, 1, 3, 8};

// Every replay-compared field except the two route counters (the index-off
// reference counts neither).
void CheckReplayFields(const RuntimeStats& got, const RuntimeStats& ref, const std::string& where) {
#define TESLA_GATE_CHECK(name, desc, replay)                                  \
  if ((replay) && std::string(#name) != "index_probes" &&                     \
      std::string(#name) != "index_scans") {                                  \
    ASSERT_EQ(got.name, ref.name) << where << " " #name;                      \
  }
  TESLA_RUNTIME_STATS(TESLA_GATE_CHECK)
#undef TESLA_GATE_CHECK
}

// One pseudo-random event for both sides of a pair (the schedule reads the
// round's random word).
using Schedule = void (*)(Side& side, uint64_t rng);

// Runs `schedule` at every gate, appending each gate's final stats to
// `finals`.
void RunAtEveryGate(const std::string& source, RuntimeOptions options, Schedule schedule,
                    uint64_t seed, int rounds, std::vector<RuntimeStats>& finals) {
  for (size_t gate : kGates) {
    options.index_min_population = gate;
    Pair p(source, options);
    uint64_t rng = seed;
    for (int round = 0; round < rounds; round++) {
      rng = rng * 6364136223846793005ull + 1;
      schedule(p.indexed, rng);
      schedule(p.naive, rng);
      const std::string where = "gate " + std::to_string(gate) + " round " + std::to_string(round);
      CheckReplayFields(p.indexed.rt.stats(), p.naive.rt.stats(), where);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
      const std::vector<Violation>& va = p.indexed.handler.violations();
      const std::vector<Violation>& vb = p.naive.handler.violations();
      ASSERT_EQ(va.size(), vb.size()) << where;
      for (size_t i = 0; i < va.size(); i++) {
        ASSERT_EQ(va[i].kind, vb[i].kind) << where << " violation " << i;
        ASSERT_EQ(va[i].detail, vb[i].detail) << where << " violation " << i;
      }
    }
    finals.push_back(p.indexed.rt.stats());
  }
}

// Route counts across gates: every keyed dispatch counts exactly one probe
// or scan whatever the gate, and a lower gate never probes less.
void ExpectRoutesConsistent(const std::vector<RuntimeStats>& finals) {
  ASSERT_EQ(finals.size(), std::size(kGates));
  for (size_t g = 0; g < finals.size(); g++) {
    EXPECT_EQ(finals[g].index_probes + finals[g].index_scans,
              finals[0].index_probes + finals[0].index_scans)
        << "gate " << kGates[g];
    if (g > 0) {
      EXPECT_LE(finals[g].index_probes, finals[g - 1].index_probes) << "gate " << kGates[g];
    }
  }
  EXPECT_GT(finals[0].index_probes, 0u);
}

void OneVariableEvent(Side& s, uint64_t rng) {
  const int64_t value = static_cast<int64_t>((rng >> 40) % 5);
  int64_t args[] = {value};
  Binding site[] = {{0, value}};
  switch ((rng >> 33) % 4) {
    case 0:
      s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
      break;
    case 1:
      s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
      break;
    case 2:
      s.rt.OnAssertionSite(*s.ctx, s.id, site);
      break;
    default:
      s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
      break;
  }
}

void TwoVariableEvent(Side& s, uint64_t rng) {
  const int64_t x = static_cast<int64_t>((rng >> 40) % 4);
  const int64_t y = static_cast<int64_t>((rng >> 45) % 4);
  int64_t args[] = {x, y};
  Binding full[] = {{0, x}, {1, y}};
  Binding partial[] = {{0, x}};
  // Long, clone-heavy bounds (one enter and one exit in 32 events, pair()
  // in half), so populations pass gate 8.
  const uint64_t roll = (rng >> 33) % 32;
  if (roll == 0) {
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  } else if (roll == 1) {
    s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  } else if (roll < 18) {
    s.rt.OnFunctionReturn(*s.ctx, S("pair"), args, 0);
  } else if (roll < 25) {
    s.rt.OnAssertionSite(*s.ctx, s.id, full);
  } else {
    s.rt.OnAssertionSite(*s.ctx, s.id, partial);
  }
}

void DfaEvent(Side& s, uint64_t rng) {
  const int64_t value = static_cast<int64_t>((rng >> 40) % 4);
  int64_t args[] = {value};
  Binding site[] = {{0, value}};
  switch ((rng >> 33) % 5) {
    case 0:
      s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
      break;
    case 1:
      s.rt.OnFunctionReturn(*s.ctx, S("ca"), args, 0);
      break;
    case 2:
      s.rt.OnFunctionReturn(*s.ctx, S("cb"), args, 0);
      break;
    case 3:
      s.rt.OnAssertionSite(*s.ctx, s.id, site);
      break;
    default:
      s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
      break;
  }
}

TEST(IndexGate, OneVariableAgreesAtEveryGate) {
  std::vector<RuntimeStats> finals;
  RunAtEveryGate("TESLA_WITHIN(syscall, previously(check(x) == 0))", TestOptions(),
                 OneVariableEvent, 7, 400, finals);
  ExpectRoutesConsistent(finals);
}

TEST(IndexGate, TwoVariablePartialBindingsAgreeAtEveryGate) {
  std::vector<RuntimeStats> finals;
  RunAtEveryGate("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", TestOptions(),
                 TwoVariableEvent, 12345, 600, finals);
  ExpectRoutesConsistent(finals);
  EXPECT_GT(finals.back().index_probes, 0u);  // populations pass the largest gate
}

TEST(IndexGate, PrefixHintedClassAgreesAtEveryGate) {
  // The hint names the prefix variable (x, key position 0) and keeps the
  // global gate: the prefix index is built with the primary one.
  RuntimeOptions options = TestOptions();
  options.plan_hints.classes.push_back({"diff", 0, -1, 0});
  std::vector<RuntimeStats> finals;
  RunAtEveryGate("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))", options,
                 TwoVariableEvent, 999, 600, finals);
  ExpectRoutesConsistent(finals);
  EXPECT_GT(finals.back().index_probes, 0u);
}

// ---------------------------------------------------------------------------
// Clone content across routes. The stats above count clones; this compares
// what was cloned: every OnClone of one event — the parent's and the clone's
// bindings and state sets — must be the same multiset whether the event was
// served by the naive scan, the full-key probe or the prefix-hinted index.
// Within one event the routes visit parents in different orders, so each
// event's list is compared sorted.

using BoundValues = std::vector<std::pair<int, int64_t>>;
using CloneRecord = std::tuple<BoundValues, automata::StateSet, BoundValues, automata::StateSet>;

BoundValues BoundOf(const runtime::Instance& instance) {
  BoundValues out;
  for (int var = 0; var < runtime::kMaxVariables; var++) {
    if (instance.IsBound(static_cast<uint16_t>(var))) {
      out.emplace_back(var, instance.values[var]);
    }
  }
  return out;
}

class CloneRecorder : public runtime::EventHandler {
 public:
  void OnClone(const runtime::ClassInfo&, const runtime::Instance& parent,
               const runtime::Instance& clone) override {
    clones_.emplace_back(BoundOf(parent), parent.states, BoundOf(clone), clone.states);
  }
  // This event's clones, sorted; clears the record for the next event.
  std::vector<CloneRecord> TakeSorted() {
    std::sort(clones_.begin(), clones_.end());
    return std::exchange(clones_, {});
  }

 private:
  std::vector<CloneRecord> clones_;
};

struct CloneSide {
  CloneSide(const std::string& source, RuntimeOptions options) : side(source, options) {
    side.rt.AddHandler(&recorder);
  }
  Side side;
  CloneRecorder recorder;
};

// Drives index off, index on (gate 0) and the prefix-hinted class (prefix =
// key position 0) through one schedule, comparing each event's clones;
// appends the three sides' final stats to `finals`, in that order.
void ExpectSameClonesPerEvent(const std::string& source, Schedule schedule, uint64_t seed,
                              int rounds, std::vector<RuntimeStats>& finals) {
  RuntimeOptions naive = TestOptions();
  naive.instance_index = false;
  RuntimeOptions hinted = TestOptions();
  hinted.plan_hints.classes.push_back({"diff", 0, -1, 0});
  std::vector<std::unique_ptr<CloneSide>> sides;
  sides.push_back(std::make_unique<CloneSide>(source, naive));
  sides.push_back(std::make_unique<CloneSide>(source, TestOptions()));
  sides.push_back(std::make_unique<CloneSide>(source, hinted));

  size_t clones = 0;
  uint64_t rng = seed;
  for (int round = 0; round < rounds; round++) {
    rng = rng * 6364136223846793005ull + 1;
    for (auto& s : sides) {
      schedule(s->side, rng);
    }
    const std::vector<CloneRecord> want = sides[0]->recorder.TakeSorted();
    for (size_t i = 1; i < sides.size(); i++) {
      ASSERT_EQ(sides[i]->recorder.TakeSorted(), want) << "side " << i << " round " << round;
    }
    clones += want.size();
  }
  EXPECT_GT(clones, 0u);
  for (auto& s : sides) {
    finals.push_back(s->side.rt.stats());
  }
}

TEST(IndexGate, OneVariableClonesAgreeAcrossRoutes) {
  std::vector<RuntimeStats> finals;
  ExpectSameClonesPerEvent("TESLA_WITHIN(syscall, previously(check(x) == 0))",
                           OneVariableEvent, 7, 400, finals);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_GT(finals[1].index_probes, 0u);  // the full-key probe ran
}

TEST(IndexGate, TwoVariableClonesAgreeAcrossRoutes) {
  std::vector<RuntimeStats> finals;
  ExpectSameClonesPerEvent("TESLA_WITHIN(syscall, previously(pair(x, y) == 0))",
                           TwoVariableEvent, 12345, 600, finals);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_GT(finals[1].index_probes, 0u);
  // Partially-bound sites probe the prefix index on the hinted side only.
  EXPECT_GT(finals[2].index_probes, finals[1].index_probes);
}

// open(x) binds only the prefix variable and steps the (∗) wildcard, so on
// the hinted side its clone parent comes from tail2, not the prefix bucket.
void SequenceEvent(Side& s, uint64_t rng) {
  const int64_t x = static_cast<int64_t>((rng >> 40) % 4);
  const int64_t y = static_cast<int64_t>((rng >> 45) % 4);
  int64_t open_args[] = {x};
  int64_t pair_args[] = {x, y};
  Binding full[] = {{0, x}, {1, y}};
  Binding partial[] = {{0, x}};
  const uint64_t roll = (rng >> 33) % 16;
  if (roll == 0) {
    s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  } else if (roll == 1) {
    s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  } else if (roll < 6) {
    s.rt.OnFunctionReturn(*s.ctx, S("open"), open_args, 0);
  } else if (roll < 11) {
    s.rt.OnFunctionReturn(*s.ctx, S("pair"), pair_args, 0);
  } else if (roll < 14) {
    s.rt.OnAssertionSite(*s.ctx, s.id, full);
  } else {
    s.rt.OnAssertionSite(*s.ctx, s.id, partial);
  }
}

TEST(IndexGate, PrefixTailClonesAgreeAcrossRoutes) {
  std::vector<RuntimeStats> finals;
  ExpectSameClonesPerEvent(
      "TESLA_WITHIN(syscall, previously(TSEQUENCE(open(x) == 0, pair(x, y) == 0)))",
      SequenceEvent, 31337, 600, finals);
  ASSERT_EQ(finals.size(), 3u);
  EXPECT_GT(finals[2].index_probes, finals[1].index_probes);
}

TEST(IndexGate, GlobalAutomatonAgreesAtEveryGate) {
  std::vector<RuntimeStats> finals;
  RunAtEveryGate("TESLA_GLOBAL(call(syscall), returnfrom(syscall), previously(check(x) == 0))",
                 TestOptions(), OneVariableEvent, 4242, 300, finals);
  ExpectRoutesConsistent(finals);
}

TEST(IndexGate, DfaModeAgreesAtEveryGate) {
  RuntimeOptions options = TestOptions();
  options.use_dfa = true;
  std::vector<RuntimeStats> finals;
  RunAtEveryGate("TESLA_WITHIN(syscall, previously(ca(x) == 0 || cb(x) == 0))", options,
                 DfaEvent, 555, 300, finals);
  ExpectRoutesConsistent(finals);
}

TEST(IndexGate, ReopenedBoundRebuildsTheIndex) {
  // Gate 3: the first bound grows past it and probes; after cleanup the
  // re-opened bound must not see the first bound's keys — its index is
  // rebuilt from its own population when that reaches the gate again.
  RuntimeOptions options = TestOptions();
  options.index_min_population = 3;
  Side s("TESLA_WITHIN(syscall, previously(check(x) == 0))", options);
  auto check = [&](int64_t v) {
    int64_t args[] = {v};
    s.rt.OnFunctionReturn(*s.ctx, S("check"), args, 0);
  };
  auto site = [&](int64_t v) {
    Binding bindings[] = {{0, v}};
    s.rt.OnAssertionSite(*s.ctx, s.id, bindings);
  };

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  for (int64_t v = 1; v <= 4; v++) {
    check(v);
  }
  const uint64_t probes = s.rt.stats().index_probes;
  site(4);
  EXPECT_EQ(s.rt.stats().index_probes, probes + 1);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
  ASSERT_EQ(s.rt.stats().violations, 0u);

  s.rt.OnFunctionCall(*s.ctx, S("syscall"), {});
  check(9);  // population 2: below the gate, scanned, nothing filed
  check(8);  // population 3 at dispatch: the index is built here
  site(8);
  EXPECT_EQ(s.rt.stats().violations, 0u);
  site(4);  // bound only in the previous bound: must fail
  EXPECT_EQ(s.rt.stats().violations, 1u);
  site(9);  // filed by the rebuild, not by its own (below-gate) clone
  EXPECT_EQ(s.rt.stats().violations, 1u);
  s.rt.OnFunctionReturn(*s.ctx, S("syscall"), {}, 0);
}

}  // namespace
}  // namespace tesla
