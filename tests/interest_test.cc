// The interest gate: inline dispatch (Runtime::OnEvent) drops events no
// registered automaton can use before any other work. Two properties pin it
// down:
//   * the runtime's interest set is exactly the manifest's instrumentation
//     requirements (ComputeRequirements()) — the set the instrumenter would
//     weave hooks for — for every manifest the repository ships;
//   * dropping those events changes no verdict: kernelsim traffic through
//     the gated inline path and the same traffic, every emitted event
//     included, through the ungated batch path (OnEvents) reach identical
//     violation sequences, RuntimeStats (except `events`) and per-class
//     counters — clean and with each of the paper's injected bugs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernelsim/assertions.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "objsim/trace.h"
#include "runtime/runtime.h"
#include "sslsim/fetch.h"
#include "support/log.h"

namespace tesla {
namespace {

using runtime::Event;
using runtime::Runtime;
using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::ThreadContext;

void ExpectInterestMatchesRequirements(const automata::Manifest& manifest, const char* what) {
  RuntimeOptions options;
  options.fail_stop = false;
  Runtime rt(options);
  ASSERT_TRUE(rt.Register(manifest).ok()) << what;
  const automata::InstrumentationRequirements req = manifest.ComputeRequirements();
  ASSERT_FALSE(req.call_hooks.empty()) << what;

  ThreadContext ctx(rt);
  const Symbol symbols = static_cast<Symbol>(GlobalInterner().size());
  for (Symbol s = 0; s < symbols; s++) {
    EXPECT_EQ(rt.Observes(Event::Call(s, {})), req.call_hooks.count(s) != 0)
        << what << ": call " << SymbolName(s);
    EXPECT_EQ(rt.Observes(Event::Return(s, {}, 0)), req.return_hooks.count(s) != 0)
        << what << ": return " << SymbolName(s);
    EXPECT_EQ(rt.Observes(Event::FieldStore(s, 0, 0, 0)), req.field_hooks.count(s) != 0)
        << what << ": field " << SymbolName(s);
    // stack_queries: the runtime tracks exactly these functions' depth.
    rt.OnEvent(ctx, Event::Call(s, {}));
    EXPECT_EQ(ctx.InCallStack(s), req.stack_queries.count(s) != 0)
        << what << ": incallstack " << SymbolName(s);
    rt.OnEvent(ctx, Event::Return(s, {}, 0));
  }
  for (uint32_t id = 0; id < rt.class_count(); id++) {
    EXPECT_TRUE(rt.Observes(Event::Site(id, {}))) << what;
  }
  // A symbol interned after Register() cannot name a pattern.
  EXPECT_FALSE(rt.Observes(Event::Call(symbols + 1, {}))) << what;
}

TEST(InterestSet, EqualsComputeRequirementsForShippedManifests) {
  SetLogLevel(LogLevel::kSilent);
  auto kernel = kernelsim::KernelAssertions(kernelsim::kSetAll | kernelsim::kSetTimed);
  ASSERT_TRUE(kernel.ok());
  ExpectInterestMatchesRequirements(kernel.value(), "kernelsim");

  auto fetch = sslsim::FetchAssertions();
  ASSERT_TRUE(fetch.ok());
  ExpectInterestMatchesRequirements(fetch.value(), "sslsim");

  objsim::ObjcRuntime objc;
  objsim::AppKit app(objc, objsim::AppKitConfig{});
  auto gui = objsim::GuiManifest(app);
  ASSERT_TRUE(gui.ok());
  ExpectInterestMatchesRequirements(gui.value(), "objsim");
}

// --- gated vs ungated differential ---

// Deterministic kernel traffic covering every MAC/proc assertion family and
// each injected bug's code path; two threads, so per-thread classes live in
// two contexts.
void DriveKernel(Runtime& rt, const kernelsim::BugConfig& bugs) {
  kernelsim::KernelConfig config;
  config.tesla = &rt;
  config.bugs = bugs;
  kernelsim::Kernel kernel(config);
  kernelsim::Proc* proc = kernel.NewProcess(0);
  kernelsim::KThread td = kernel.NewThread(proc);
  kernelsim::KThread td2 = kernel.NewThread(proc);
  kernelsim::OpenCloseLoop(kernel, td, 20);
  kernelsim::OltpTransactions(kernel, td, 40);
  kernelsim::BuildCompile(kernel, td2, 4, 1);
  const int64_t sock = kernel.SysSocket(td);
  kernel.SysBind(td, sock);
  kernel.SysConnect(td, sock);
  kernel.SysPoll(td, sock, 1);
  kernel.SysKevent(td, sock, 1);  // kqueue_missing_mac_check
  kernel.SysSetuid(td, 0);
  kernel.SysPoll(td, sock, 1);  // poll_uses_file_credential
  kernel.SysSetuid(td, 5);      // setuid_skips_sugid_flag
  kernel.SysKill(td2, proc->pid, 0);
  kernelsim::OltpTransactions(kernel, td2, 10);
}

RuntimeOptions DifferentialOptions() {
  RuntimeOptions options;
  options.fail_stop = false;
  // The recorder keeps the violation sequence (violation_log) without an
  // event handler — a handler would switch dispatch off its flattened path.
  options.trace_mode = trace::TraceMode::kFlightRecorder;
  options.trace_ring_capacity = 64;
  options.metrics_mode = metrics::MetricsMode::kCounters;
  return options;
}

// Every event the kernel emits, in order, with its context's index. The
// capture runtime registers a timed class, so its gate is off, and its
// ingest hook swallows each event before dispatch.
struct EmittedStream {
  std::unordered_map<const ThreadContext*, size_t> context_index;
  std::vector<std::pair<size_t, Event>> events;

  static bool Record(void* state, ThreadContext& ctx, const Event& event) {
    auto* self = static_cast<EmittedStream*>(state);
    auto [it, fresh] = self->context_index.emplace(&ctx, self->context_index.size());
    Event copy = event;
    copy.ts_ns = 0;  // stamped by the capture runtime's clock; unused untimed
    self->events.emplace_back(it->second, copy);
    return true;
  }
};

void ExpectGatedMatchesUngated(const kernelsim::BugConfig& bugs, const char* what,
                               bool expect_violations = true) {
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll);
  ASSERT_TRUE(manifest.ok());

  // Gated: the simulator's hooks call OnEvent inline.
  Runtime gated(DifferentialOptions());
  ASSERT_TRUE(gated.Register(manifest.value()).ok());
  DriveKernel(gated, bugs);

  // Capture every emitted event, the ones the gate drops included.
  auto timed = kernelsim::KernelAssertions(kernelsim::kSetAll | kernelsim::kSetTimed);
  ASSERT_TRUE(timed.ok());
  RuntimeOptions capture_options;
  capture_options.fail_stop = false;
  Runtime capture(capture_options);
  ASSERT_TRUE(capture.Register(timed.value()).ok());
  for (uint32_t id = 0; id < gated.class_count(); id++) {
    ASSERT_EQ(capture.automaton(id).name, gated.automaton(id).name);  // same site ids
  }
  EmittedStream stream;
  capture.SetIngestHook(&EmittedStream::Record, &stream);
  DriveKernel(capture, bugs);
  capture.SetIngestHook(nullptr, nullptr);

  // Ungated: the same stream through the batch path, which delivers all.
  Runtime ungated(DifferentialOptions());
  ASSERT_TRUE(ungated.Register(manifest.value()).ok());
  std::vector<std::unique_ptr<ThreadContext>> contexts;
  uint64_t observed = 0;
  for (const auto& [index, event] : stream.events) {
    while (contexts.size() <= index) {
      contexts.push_back(std::make_unique<ThreadContext>(ungated));
    }
    ungated.OnEvents(*contexts[index], std::span<const Event>(&event, 1));
    observed += gated.Observes(event) ? 1 : 0;
  }

  const RuntimeStats a = gated.stats();
  const RuntimeStats b = ungated.stats();
  EXPECT_EQ(b.events, stream.events.size()) << what;
  EXPECT_EQ(a.events, observed) << what;
  EXPECT_LT(a.events, b.events) << what << ": the gate dropped nothing";
#define TESLA_GATE_EQ(name, desc, replay)               \
  if (std::string_view(#name) != "events") {            \
    EXPECT_EQ(a.name, b.name) << what << ": " << #name; \
  }
  TESLA_RUNTIME_STATS(TESLA_GATE_EQ)
#undef TESLA_GATE_EQ
  EXPECT_EQ(gated.violation_log(), ungated.violation_log()) << what;

  const metrics::Snapshot ma = gated.CollectMetrics();
  const metrics::Snapshot mb = ungated.CollectMetrics();
  ASSERT_EQ(ma.classes.size(), mb.classes.size());
  for (size_t c = 0; c < ma.classes.size(); c++) {
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      EXPECT_EQ(ma.classes[c].counters[k], mb.classes[c].counters[k])
          << what << ": " << ma.classes[c].name << " counter " << k;
    }
  }
  if (expect_violations) {
    EXPECT_GT(a.violations, 0u) << what;
  } else {
    EXPECT_EQ(a.violations, 0u) << what;
  }
}

TEST(InterestGate, GatedInlineMatchesUngatedBatchOnKernelTraffic) {
  SetLogLevel(LogLevel::kSilent);
  ExpectGatedMatchesUngated({}, "clean", /*expect_violations=*/false);

  kernelsim::BugConfig kqueue;
  kqueue.kqueue_missing_mac_check = true;
  ExpectGatedMatchesUngated(kqueue, "kqueue poll");

  kernelsim::BugConfig file_cred;
  file_cred.poll_uses_file_credential = true;
  ExpectGatedMatchesUngated(file_cred, "file_cred");

  kernelsim::BugConfig sugid;
  sugid.setuid_skips_sugid_flag = true;
  ExpectGatedMatchesUngated(sugid, "P_SUGID");
}

}  // namespace
}  // namespace tesla
