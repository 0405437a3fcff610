// Batched cleanup: with no handler registered, a bound whose every live
// instance can take «cleanup» is stepped and expunged in one batch kernel
// call; any handler (or any instance that cannot accept) keeps the
// per-instance walk. Both paths must be indistinguishable: the same
// schedule runs once without handlers and once with a no-op handler, and
// the full RuntimeStats, the per-class metrics counters and the transition
// coverage bitmap must be identical — on the interpreted and specialised
// tiers, in NFA and in use_dfa mode, for bounds that close with
// every instance accepting and with a mix of accepting and failing ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "metrics/collector.h"
#include "runtime/runtime.h"
#include "support/log.h"

namespace tesla {
namespace {

using runtime::Binding;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::StepTier;
using runtime::ThreadContext;

Symbol S(const char* name) { return InternString(name); }

// Forces the per-instance cleanup walk without observing anything.
class NoopHandler : public runtime::EventHandler {};

// A per-thread eventually() class (fails cleanup when an audit is missing),
// a per-thread previously() class, a global eventually() class on a shard
// context, and an incallstack() class (an NFA-stepped kernel).
struct Rig {
  Rig(RuntimeOptions options, bool with_handler) : rt(options) {
    const char* sources[][2] = {
        {"ev", "TESLA_WITHIN(syscall, eventually(audit(x) == 0))"},
        {"pv", "TESLA_WITHIN(syscall, previously(check(x) == 0))"},
        {"gv", "TESLA_GLOBAL(call(syscall), returnfrom(syscall), eventually(audit(x) == 0))"},
        {"cs", "TESLA_WITHIN(syscall, incallstack(inner) || previously(check(x) == 0))"},
    };
    automata::Manifest manifest;
    for (const auto& [name, source] : sources) {
      auto automaton = automata::CompileAssertion(source, {}, name);
      EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
      manifest.Add(std::move(automaton.value()));
    }
    EXPECT_TRUE(rt.Register(manifest).ok());
    for (const char* name : {"ev", "pv", "gv", "cs"}) {
      ids.push_back(static_cast<uint32_t>(rt.FindAutomaton(name)));
    }
    if (with_handler) {
      rt.AddHandler(&handler);
    }
    ctx = std::make_unique<ThreadContext>(rt);
  }

  Runtime rt;
  NoopHandler handler;
  std::unique_ptr<ThreadContext> ctx;
  std::vector<uint32_t> ids;
};

// One bound per iteration. `all_accept`: previously() sites follow their
// check(), and every eventually() site value gets its audit() before the
// bound closes, so every instance accepts at cleanup; otherwise audits and
// checks are random and some bounds close with failing instances next to
// accepting ones.
void Drive(Rig& r, uint64_t seed, bool all_accept) {
  uint64_t rng = seed;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int bound = 0; bound < 120; bound++) {
    r.rt.OnFunctionCall(*r.ctx, S("syscall"), {});
    std::vector<int64_t> sited;
    const int events = 1 + static_cast<int>(next() % 8);
    for (int e = 0; e < events; e++) {
      const int64_t v = static_cast<int64_t>(next() % 4);
      int64_t args[] = {v};
      Binding site[] = {{0, v}};
      switch (next() % 6) {
        case 0:
          r.rt.OnFunctionReturn(*r.ctx, S("check"), args, 0);
          break;
        case 1:
          if (!all_accept) {
            r.rt.OnFunctionReturn(*r.ctx, S("audit"), args, 0);
          }
          break;
        case 2:
          r.rt.OnAssertionSite(*r.ctx, r.ids[next() % 2 == 0 ? 0 : 2], site);
          sited.push_back(v);
          break;
        case 3:
          if (all_accept) {
            r.rt.OnFunctionReturn(*r.ctx, S("check"), args, 0);
          }
          r.rt.OnAssertionSite(*r.ctx, r.ids[1], site);
          break;
        case 4:
          r.rt.OnFunctionCall(*r.ctx, S("inner"), {});
          r.rt.OnAssertionSite(*r.ctx, r.ids[3], site);
          r.rt.OnFunctionReturn(*r.ctx, S("inner"), {}, 0);
          break;
        default:
          if (all_accept) {
            r.rt.OnFunctionReturn(*r.ctx, S("check"), args, 0);
          }
          r.rt.OnAssertionSite(*r.ctx, r.ids[3], site);
          break;
      }
    }
    if (all_accept) {
      for (int64_t v : sited) {
        int64_t args[] = {v};
        r.rt.OnFunctionReturn(*r.ctx, S("audit"), args, 0);
      }
    }
    r.rt.OnFunctionReturn(*r.ctx, S("syscall"), {}, 0);
  }
}

void ExpectBatchMatchesWalk(RuntimeOptions options, uint64_t seed, bool all_accept,
                            const std::string& what) {
  options.fail_stop = false;
  options.metrics_mode = metrics::MetricsMode::kCounters;
  Rig batch(options, false);
  Rig walk(options, true);
  Drive(batch, seed, all_accept);
  Drive(walk, seed, all_accept);

  const RuntimeStats a = batch.rt.stats();
  const RuntimeStats b = walk.rt.stats();
#define TESLA_CLEANUP_CHECK(name, desc, replay) EXPECT_EQ(a.name, b.name) << what << " " #name;
  TESLA_RUNTIME_STATS(TESLA_CLEANUP_CHECK)
#undef TESLA_CLEANUP_CHECK
  EXPECT_GT(a.accepts, 0u) << what;
  if (all_accept) {
    EXPECT_EQ(a.violations, 0u) << what;
  } else {
    EXPECT_GT(a.violations, 0u) << what;
  }

  const metrics::Snapshot sa = batch.rt.CollectMetrics();
  const metrics::Snapshot sb = walk.rt.CollectMetrics();
  ASSERT_EQ(sa.classes.size(), sb.classes.size()) << what;
  for (size_t c = 0; c < sa.classes.size(); c++) {
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      EXPECT_EQ(sa.classes[c].counters[k], sb.classes[c].counters[k])
          << what << " class " << sa.classes[c].name << " counter " << k;
    }
  }
  const metrics::Collector* ca = batch.rt.collector();
  const metrics::Collector* cb = walk.rt.collector();
  ASSERT_EQ(ca->coverage_bits(), cb->coverage_bits()) << what;
  size_t fired = 0;
  for (size_t bit = 0; bit < ca->coverage_bits(); bit++) {
    const uint32_t b32 = static_cast<uint32_t>(bit);
    EXPECT_EQ(ca->CoverageBit(b32), cb->CoverageBit(b32)) << what << " coverage bit " << bit;
    fired += ca->CoverageBit(b32) ? 1 : 0;
  }
  EXPECT_GT(fired, 0u) << what;
}

TEST(BatchedCleanup, MatchesPerInstanceWalk) {
  SetLogLevel(LogLevel::kSilent);
  for (StepTier tier : {StepTier::kInterpreted, StepTier::kSpecialised}) {
    for (bool use_dfa : {false, true}) {
      for (bool all_accept : {true, false}) {
        RuntimeOptions options;
        options.step_tier = tier;
        options.use_dfa = use_dfa;
        const std::string what = "tier " + std::to_string(static_cast<int>(tier)) +
                                 (use_dfa ? " dfa" : " nfa") +
                                 (all_accept ? " all-accept" : " mixed");
        ExpectBatchMatchesWalk(options, 17 + static_cast<uint64_t>(tier), all_accept, what);
      }
    }
  }
}

TEST(BatchedCleanup, MatchesPerInstanceWalkWithEagerInit) {
  // Naive (non-lazy) initialisation cleans every class at every bound exit.
  SetLogLevel(LogLevel::kSilent);
  RuntimeOptions options;
  options.lazy_init = false;
  ExpectBatchMatchesWalk(options, 99, true, "eager all-accept");
  ExpectBatchMatchesWalk(options, 99, false, "eager mixed");
}

}  // namespace
}  // namespace tesla
