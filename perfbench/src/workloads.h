// The benchmark's four workloads, their correctness checks and the per-layer
// table. See perfbench/README.md for what each workload runs and why.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "automata/manifest.h"
#include "kernelsim/kernel.h"
#include "kernelsim/workloads.h"
#include "queue/queue.h"
#include "runtime/runtime.h"
#include "spans.h"
#include "support/result.h"
#include "trace/replay.h"

namespace perfbench {

enum class Workload { kOltpInline, kOltpObserved, kSessionsKeyed, kReplayCapture };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RunConfig {
  Workload workload = Workload::kOltpInline;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // scratch files (captures, span dumps)
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // op failures; a failed check fails every op
  std::vector<Check> checks;
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  // Extra fields for the detail record: key → JSON value text.
  std::vector<std::pair<std::string, std::string>> detail;

  bool correct() const;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Runs one workload for config.seconds: untraced → the end-to-end metrics;
// traced → the per-layer table. Correctness checks run either way.
RunResult RunWorkload(const RunConfig& config);

// --- seeded inputs ---

// OLTP traffic is a sequence of kernelsim::OltpTransactions calls whose
// transaction counts (kMinChunk..kMaxChunk) come from the seed.
inline constexpr int kMinChunk = 16;
inline constexpr int kMaxChunk = 48;

class ChunkSizes {
 public:
  explicit ChunkSizes(uint64_t seed) : rng_(seed ^ 0x4f4c5450ull) {}
  int Next() { return kMinChunk + static_cast<int>(rng_() % (kMaxChunk - kMinChunk + 1)); }

 private:
  std::mt19937_64 rng_;
};

std::vector<int> ChunkPlan(uint64_t seed, size_t chunks);

// OLTP chunks in replay_capture's capture: one replay (its op) covers them.
inline constexpr size_t kCaptureChunks = 16;

// The first `events` events of the sessions_keyed stream for `seed`, plus
// the broken sessions whose site it contains.
struct SessionStream {
  std::vector<tesla::runtime::Event> events;
  uint64_t broken_sited = 0;
};
tesla::Result<SessionStream> MakeSessionStream(uint64_t seed, size_t events);

// The OLTP stream for a chunk plan, captured through the runtime's ingest
// hook (events are swallowed, not dispatched) under `manifest`.
tesla::Result<std::vector<tesla::runtime::Event>> CaptureOltpStream(
    const tesla::automata::Manifest& manifest, std::span<const int> plan);

// --- correctness checks (exposed so the self-tests can feed them wrong
// expectations) ---

// Every replay-compared RuntimeStats field (TESLA_RUNTIME_STATS column 3)
// of `got` equals `want`, and neither reports a violation.
Check CheckOltpStats(const tesla::runtime::RuntimeStats& got,
                     const tesla::runtime::RuntimeStats& want);

// The violation census: every broken session reported exactly one kBadSite
// on sessions.auth, and nothing else reported anything but a rate() window.
Check CheckSessionCensus(uint64_t auth_bad_sites, uint64_t unexpected_violations,
                         uint64_t broken_sessions);

Check CheckReplayMatched(const tesla::trace::ReplayResult& result);

// --- shared plumbing for the workloads and the layer table ---

// One simulated kernel with its thread, optionally instrumented by `rt` and
// fed through an async queue. Member order is destruction order reversed:
// the queue drains into the thread's context before the context goes.
struct KernelRig {
  std::unique_ptr<tesla::runtime::Runtime> rt;  // null: uninstrumented kernel
  std::unique_ptr<tesla::kernelsim::Kernel> kernel;
  std::unique_ptr<tesla::kernelsim::KThread> td;
  std::unique_ptr<tesla::queue::EventQueue> queue;

  tesla::kernelsim::WorkloadResult Run(int transactions) {
    return tesla::kernelsim::OltpTransactions(*kernel, *td, transactions);
  }

  // Replaces the simulated kernel, keeping the runtime, the queue and the
  // thread's TESLA context (callers flush the queue first). kernelsim keeps
  // every socket an OltpTransactions call opens (~56 bytes per call), so long
  // loops recycle the kernel to keep the simulator's table growth out of
  // peak_rss_mb. The context is carried over, not recreated: the flight
  // recorder keeps every context's ring for post-mortem harvest.
  void Recycle();
};

// Builds a rig: rt is registered with `manifest` when non-null; a non-null
// `queue` starts an EventQueue with those options.
tesla::Result<std::unique_ptr<KernelRig>> MakeRig(const tesla::automata::Manifest* manifest,
                                                  const tesla::runtime::RuntimeOptions& options,
                                                  const tesla::queue::QueueOptions* queue);

// oltp_observed's queue: 2 consumers (1 producer + 2 drain threads fit a
// 4-vCPU machine) and a ring that holds a whole round of events, so the
// producer pays the enqueue path and the round's Flush pays the drain.
tesla::queue::QueueOptions ObservedQueueOptions();

// The workload's assertion set.
tesla::Result<tesla::automata::Manifest> WorkloadManifest(Workload workload);

// The per-layer table for `workload` on its own stream; appends metrics
// and checks to `out`. `partition` carries the op-loop figures measured by
// RunWorkload (untraced/traced per-op time, span self times).
struct Partition {
  double untraced_ns = 0;
  double traced_ns = 0;
  double source_span_ns = 0;   // source layer self time per op, from spans
  double monitor_span_ns = 0;  // TESLA layers' self time per op, from spans
  double flush_span_ns = 0;    // oltp_observed: Flush self time per op
};
void MeasureLayers(const RunConfig& config, const Partition& partition, RunResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
