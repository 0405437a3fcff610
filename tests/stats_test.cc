// Statistics ownership: every hot-path counter lives in the stats block of
// a context its bumping thread holds exclusively, and Runtime::stats() sums
// the blocks with relaxed loads. Scraping stats() and CollectMetrics() while
// threads dispatch must therefore be race-free (this suite runs under TSan
// in CI), every snapshot must be monotone, and the totals at quiescence must
// equal exactly what was delivered.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "automata/lower.h"
#include "automata/manifest.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "support/log.h"

namespace tesla {
namespace {

using runtime::Event;
using runtime::RuntimeStats;

constexpr int kInlineThreads = 4;
constexpr int kQueuedStreams = 2;
constexpr int kStreams = kInlineThreads + kQueuedStreams;
constexpr int kIterations = 1500;

struct StreamSymbols {
  Symbol enter, check, exit, noise;
  uint32_t global_id, local_id;
};

// Per stream g: a global and a per-thread class over the same alphabet, so
// every stream touches both a shard context and its own context.
automata::Manifest MakeManifest() {
  automata::Manifest manifest;
  for (int g = 0; g < kStreams; g++) {
    const std::string n = std::to_string(g);
    const std::string body = "(call(enter" + n + "), returnfrom(exit" + n + "), previously(check" +
                             n + "(x) == 0))";
    for (const char* kind : {"GLOBAL", "PERTHREAD"}) {
      auto automaton = automata::CompileAssertion(std::string("TESLA_") + kind + body, {},
                                                  std::string("stats-") + kind + "-" + n);
      EXPECT_TRUE(automaton.ok()) << automaton.error().ToString();
      manifest.Add(std::move(automaton.value()));
    }
  }
  return manifest;
}

// Interned on the main thread: workers only read symbols.
std::vector<StreamSymbols> ResolveSymbols(const runtime::Runtime& rt) {
  std::vector<StreamSymbols> symbols;
  for (int g = 0; g < kStreams; g++) {
    const std::string n = std::to_string(g);
    StreamSymbols s;
    s.enter = InternString("enter" + n);
    s.check = InternString("check" + n);
    s.exit = InternString("exit" + n);
    s.noise = InternString("noise" + n);
    s.global_id = static_cast<uint32_t>(rt.FindAutomaton("stats-GLOBAL-" + n));
    s.local_id = static_cast<uint32_t>(rt.FindAutomaton("stats-PERTHREAD-" + n));
    symbols.push_back(s);
  }
  return symbols;
}

// One stream: every 5th bound skips the check, so both sites violate; with
// `noise`, each bound is followed by an event no automaton names, every
// 10th of them with a truncated argument list.
std::vector<Event> MakeStream(const StreamSymbols& s, bool noise) {
  std::vector<Event> events;
  for (int i = 0; i < kIterations; i++) {
    events.push_back(Event::Call(s.enter, {}));
    if (i % 5 != 4) {
      const int64_t args[] = {i % 7};
      events.push_back(Event::Return(s.check, args, 0));
    }
    const runtime::Binding site[] = {{0, i % 7}};
    events.push_back(Event::Site(s.global_id, site));
    events.push_back(Event::Site(s.local_id, site));
    events.push_back(Event::Return(s.exit, {}, 0));
    if (noise) {
      const int64_t wide[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
      events.push_back(Event::Call(s.noise, std::span<const int64_t>(wide, i % 10 == 0 ? 9 : 1)));
    }
  }
  return events;
}

runtime::RuntimeOptions Options() {
  runtime::RuntimeOptions options;
  options.fail_stop = false;
  options.global_shards = 8;
  options.metrics_mode = metrics::MetricsMode::kCounters;
  return options;
}

TEST(StatsOwnership, ScrapeDuringInlineAndQueuedDispatchIsExact) {
  SetLogLevel(LogLevel::kSilent);
  automata::Manifest manifest = MakeManifest();

  // Reference: every stream dispatched inline, one after another.
  runtime::Runtime reference(Options());
  ASSERT_TRUE(reference.Register(manifest).ok());
  std::vector<StreamSymbols> symbols = ResolveSymbols(reference);
  std::vector<std::vector<Event>> streams;
  for (int g = 0; g < kStreams; g++) {
    streams.push_back(MakeStream(symbols[g], /*noise=*/g < kInlineThreads));
  }
  for (const std::vector<Event>& stream : streams) {
    runtime::ThreadContext ctx(reference);
    for (const Event& event : stream) {
      reference.OnEvent(ctx, event);
    }
  }

  // Concurrent: 4 inline threads, a 2-consumer queue draining the other
  // streams, and a scraper reading stats() and CollectMetrics() throughout.
  runtime::Runtime rt(Options());
  ASSERT_TRUE(rt.Register(manifest).ok());
  queue::QueueOptions queue_options;
  queue_options.install_hook = false;  // the inline threads stay inline
  queue_options.consumers = 2;
  queue::EventQueue q(rt, queue_options);
  q.Start();

  std::atomic<bool> done{false};
  uint64_t scrapes = 0;
  std::thread scraper([&rt, &done, &scrapes] {
    RuntimeStats last;
    while (!done.load(std::memory_order_acquire)) {
      const RuntimeStats now = rt.stats();
      EXPECT_GE(now.events, last.events);
      EXPECT_GE(now.transitions, last.transitions);
      EXPECT_GE(now.violations, last.violations);
      last = now;
      EXPECT_GE(rt.CollectMetrics().stats.events, last.events);
      scrapes++;
    }
  });
  std::vector<std::thread> workers;
  for (int g = 0; g < kInlineThreads; g++) {
    workers.emplace_back([&rt, &streams, g] {
      runtime::ThreadContext ctx(rt);  // unregisters (folding its block) on exit
      for (const Event& event : streams[g]) {
        rt.OnEvent(ctx, event);
      }
    });
  }
  std::vector<std::unique_ptr<runtime::ThreadContext>> queued_contexts;
  std::vector<std::thread> producers;
  for (int g = kInlineThreads; g < kStreams; g++) {
    queued_contexts.push_back(std::make_unique<runtime::ThreadContext>(rt));
    producers.emplace_back([&q, &streams, ctx = queued_contexts.back().get(), g] {
      for (const Event& event : streams[g]) {
        ASSERT_TRUE(q.Enqueue(*ctx, event));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (std::thread& producer : producers) {
    producer.join();
  }
  q.Stop();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes, 0u);

  // Delivered = the inline events the interest gate passed + every queued
  // event (the queue's batch path delivers exactly what it is given).
  uint64_t delivered = 0;
  uint64_t dropped_truncations = 0;
  for (int g = 0; g < kStreams; g++) {
    for (const Event& event : streams[g]) {
      if (g >= kInlineThreads || rt.Observes(event)) {
        delivered++;
      } else if (event.truncated) {
        dropped_truncations++;
      }
    }
  }
  ASSERT_GT(dropped_truncations, 0u);
  const RuntimeStats got = rt.stats();
  const RuntimeStats want = reference.stats();
  EXPECT_EQ(got.events, delivered);
  EXPECT_EQ(want.events, delivered);
  EXPECT_EQ(got.arg_truncations, dropped_truncations);
  EXPECT_EQ(got.queue_events, q.totals().enqueued);
  EXPECT_EQ(q.totals().enqueued, static_cast<uint64_t>(streams[kInlineThreads].size() +
                                                       streams[kInlineThreads + 1].size()));
  EXPECT_GT(got.violations, 0u);
#define TESLA_STATS_EQ(name, desc, replay)   \
  if (replay) {                              \
    EXPECT_EQ(got.name, want.name) << #name; \
  }
  TESLA_RUNTIME_STATS(TESLA_STATS_EQ)
#undef TESLA_STATS_EQ
  EXPECT_EQ(rt.CollectMetrics().stats.events, got.events);
}

TEST(StatsOwnership, ContextTeardownKeepsCountsAndResetClearsThem) {
  SetLogLevel(LogLevel::kSilent);
  automata::Manifest manifest = MakeManifest();
  runtime::Runtime rt(Options());
  ASSERT_TRUE(rt.Register(manifest).ok());
  std::vector<StreamSymbols> symbols = ResolveSymbols(rt);
  const std::vector<Event> stream = MakeStream(symbols[0], /*noise=*/false);

  runtime::ThreadContext survivor(rt);
  {
    runtime::ThreadContext departed(rt);
    rt.OnEvents(departed, stream);
  }
  const RuntimeStats after_teardown = rt.stats();
  EXPECT_EQ(after_teardown.events, stream.size());
  EXPECT_GT(after_teardown.accepts, 0u);

  rt.OnEvents(survivor, stream);
  EXPECT_EQ(rt.stats().events, 2 * stream.size());
  EXPECT_EQ(rt.stats().accepts, 2 * after_teardown.accepts);

  // Live, retired and shard blocks all rewind.
  rt.ResetStats();
  const RuntimeStats reset = rt.stats();
#define TESLA_STATS_ZERO(name, desc, replay) EXPECT_EQ(reset.name, 0u) << #name;
  TESLA_RUNTIME_STATS(TESLA_STATS_ZERO)
#undef TESLA_STATS_ZERO
  rt.OnEvents(survivor, stream);
  EXPECT_EQ(rt.stats().events, stream.size());
}

}  // namespace
}  // namespace tesla
