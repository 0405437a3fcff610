#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>

#include "json.h"
#include "kernelsim/assertions.h"
#include "sessions.h"
#include "stats.h"
#include "trace/format.h"

namespace perfbench {

using tesla::automata::Manifest;
using tesla::kernelsim::KernelAssertions;
using tesla::kernelsim::kSetAll;
using tesla::kernelsim::kSetTimed;
using tesla::runtime::Event;
using tesla::runtime::Runtime;
using tesla::runtime::RuntimeOptions;
using tesla::runtime::RuntimeStats;

namespace {

// Chunks per OLTP round (a few ms): one round is timed instrumented, then
// the same chunk sizes run on the uninstrumented kernel (the overhead_x
// baseline).
constexpr int kRoundChunks = 64;
// Replays per replay_capture round.
constexpr int kRoundReplays = 8;
// Rounds between timed set-ups (OLTP: every kRecycleRounds), chosen so a
// 40 s run times a few hundred set-ups at a few percent of its wall time.
constexpr uint64_t kSessionSetUpRounds = 8;
constexpr uint64_t kReplaySetUpRounds = 2;
// Events per sessions_keyed OnEvents batch.
constexpr size_t kSessionBatch = 256;
// Share of a traced run spent in each of its two op loops, and the length
// of their alternating segments: untraced and traced segments take turns,
// so both loops see the same host load.
constexpr double kTracedLoopShare = 0.3;
constexpr double kTracedSegment = 0.5;
// Rounds between fresh simulated kernels (~1-2k OltpTransactions calls);
// see KernelRig::Recycle.
constexpr uint64_t kRecycleRounds = 16;

// A throwaway set-up of the workload's state, timed in seconds (< 0 on
// failure). The loops run one every few rounds, outside the timed rounds,
// so setup_s samples the whole run, as the other time metrics do.
using SetUpOnce = std::function<double()>;

void TimeSetUp(const SetUpOnce& set_up, uint64_t every, RoundLog& log, bool* failed) {
  if (!set_up || log.rounds() % every != 0) {
    return;
  }
  const double seconds = set_up();
  if (seconds < 0) {
    *failed = true;
  } else {
    log.AddSetup(seconds);
  }
}

Check SetUpCheck(bool failed) {
  return {"setup.repeated", !failed, failed ? "a repeated set-up failed" : ""};
}

// RoundLog capacity for a loop of `seconds`: well above the fastest per-op
// sample rate (OLTP calls, session batches: < 20k/s on a 4-vCPU VM) and
// round rate (< 1k/s). Windows of `window_s` hold enough samples for a p99
// with 10 samples beyond it: 1 s holds ~10k OLTP calls or session batches,
// 10 s ~1000 replays.
RoundLog MakeRoundLog(double seconds, double window_s = 1) {
  return RoundLog(static_cast<size_t>(seconds * 40000) + 4096,
                  static_cast<size_t>(seconds * 4000) + 1024,
                  static_cast<uint64_t>(window_s * 1e9));
}

double SecondsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

void AddStats(RuntimeStats& acc, const RuntimeStats& d, uint64_t times) {
#define TESLA_ADD(name, desc, replay) acc.name += d.name * times;
  TESLA_RUNTIME_STATS(TESLA_ADD)
#undef TESLA_ADD
}

RuntimeStats SubStats(const RuntimeStats& after, const RuntimeStats& before) {
  RuntimeStats d;
#define TESLA_SUB(name, desc, replay) d.name = after.name - before.name;
  TESLA_RUNTIME_STATS(TESLA_SUB)
#undef TESLA_SUB
  return d;
}

// Peak resident set of this process image (VmHWM: unlike ru_maxrss it is
// reset by exec, so a launcher's footprint does not leak in).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// Adds the end-to-end metrics, and to the detail record the round and
// window counts, the baseline's time per op, the percentile the tail was
// read at, and the sample counts.
void AddEndToEnd(RunResult& out, const RoundLog& log) {
  const RoundLog::View all = log.All();
  out.Add("throughput", all.ops_per_s, "ops/s");
  out.Add("latency_p50_us", all.latency.median, "us");
  out.Add("latency_p99_us", all.latency.tail, "us");
  out.Add("overhead_x", all.ratio, "ratio");
  out.Add("setup_s", all.setup_s, "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
  out.detail.push_back({"rounds", std::to_string(all.rounds)});
  out.detail.push_back({"windows", std::to_string(all.windows)});
  out.detail.push_back({"baseline_ns_per_op", JsonNumber(all.baseline_ns_per_op)});
  out.detail.push_back({"latency_samples", std::to_string(all.latency.count)});
  out.detail.push_back({"latency_tail_percentile", JsonNumber(all.latency.tail_percentile)});
  out.detail.push_back({"samples_dropped", std::to_string(log.dropped())});
}

// Calls of OltpTransactions(k), indexed by k.
using ChunkCounts = std::vector<uint64_t>;

// Per-k RuntimeStats of one OltpTransactions(k) call on an inline runtime:
// the reference every OLTP run's counts are checked against.
struct Calibration {
  std::vector<RuntimeStats> per_chunk;  // index k

  RuntimeStats Expected(const ChunkCounts& calls) const {
    RuntimeStats total;
    for (size_t k = 0; k < calls.size(); k++) {
      AddStats(total, per_chunk[k], calls[k]);
    }
    return total;
  }
};

tesla::Result<Calibration> Calibrate(const Manifest& manifest) {
  RuntimeOptions options;
  options.fail_stop = false;
  auto rig = MakeRig(&manifest, options, nullptr);
  if (!rig.ok()) {
    return rig.error();
  }
  KernelRig& r = *rig.value();
  r.Run(kMaxChunk);  // warm-up: first-touch effects stay out of the table
  Calibration calibration;
  calibration.per_chunk.resize(kMaxChunk + 1);
  for (int k = kMinChunk; k <= kMaxChunk; k++) {
    const RuntimeStats before = r.rt->stats();
    r.Run(k);
    calibration.per_chunk[static_cast<size_t>(k)] = SubStats(r.rt->stats(), before);
  }
  return calibration;
}

// Violation census for sessions_keyed.
class CensusHandler : public tesla::runtime::EventHandler {
 public:
  void OnViolation(const tesla::runtime::ClassInfo& cls,
                   const tesla::runtime::Violation& violation) override {
    using tesla::runtime::ViolationKind;
    if (violation.kind == ViolationKind::kBadSite && violation.automaton == kAuthClass) {
      auth_bad_sites++;
    } else if (violation.kind != ViolationKind::kRateExceeded) {
      unexpected++;
    }
  }
  uint64_t auth_bad_sites = 0;
  uint64_t unexpected = 0;
};

// Self time per op of the spans whose names are in `names`.
double SelfNsPerOp(const std::map<std::string, uint64_t>& self,
                   std::initializer_list<const char*> names, double ops) {
  double total = 0;
  for (const char* name : names) {
    auto it = self.find(name);
    if (it != self.end()) {
      total += static_cast<double>(it->second);
    }
  }
  return ops > 0 ? total / ops : 0;
}

std::string SpansPath(const RunConfig& config) {
  return config.work_dir + "/spans-" + WorkloadName(config.workload) + ".csv";
}

// ---------------------------------------------------------------------------
// oltp_inline / oltp_observed

RuntimeOptions OltpOptions(Workload workload) {
  RuntimeOptions options;
  options.fail_stop = false;
  if (workload == Workload::kOltpObserved) {
    options.metrics_mode = tesla::metrics::MetricsMode::kFull;
    options.profile = true;
    options.trace_mode = tesla::trace::TraceMode::kFlightRecorder;
  }
  return options;
}

struct OltpLoop {
  explicit OltpLoop(double seconds) : log(MakeRoundLog(seconds)) {}

  uint64_t errors = 0;
  bool setup_failed = false;
  RoundLog log;  // ops: transactions; samples: µs per transaction, per call
  ChunkCounts calls = ChunkCounts(kMaxChunk + 1, 0);
};

void RunOltpLoop(KernelRig& rig, KernelRig& base, ChunkSizes& sizes, double seconds,
                 SpanLog& spans, const SetUpOnce& set_up, OltpLoop& loop) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  int round[kRoundChunks];
  do {
    for (int& k : round) {
      k = sizes.Next();
    }
    const int32_t op = spans.Begin("op.round");
    const uint64_t start = NowNs();
    uint64_t transactions = 0;
    for (int k : round) {
      const uint64_t t0 = NowNs();
      tesla::kernelsim::WorkloadResult result;
      {
        Scope span(spans, "kernelsim.OltpTransactions");
        result = rig.Run(k);
      }
      const uint64_t t1 = NowNs();
      loop.log.AddSample(static_cast<double>(t1 - t0) / 1e3 / k);
      loop.errors += result.errors;
      transactions += static_cast<uint64_t>(k);
      loop.calls[static_cast<size_t>(k)]++;
    }
    if (rig.queue != nullptr) {
      Scope span(spans, "queue.Flush");
      rig.queue->Flush();
    }
    const uint64_t end = NowNs();
    spans.End(op);
    for (int k : round) {
      base.Run(k);
    }
    const uint64_t base_end = NowNs();
    loop.log.EndRound(transactions, end - start, end - start, base_end - end);
    if (loop.log.rounds() % kRecycleRounds == 0) {
      rig.Recycle();
      base.Recycle();
    }
    TimeSetUp(set_up, kRecycleRounds, loop.log, &loop.setup_failed);
  } while (NowNs() < deadline);
}

RunResult RunOltp(const RunConfig& config) {
  RunResult out;
  const bool observed = config.workload == Workload::kOltpObserved;
  const RuntimeOptions options = OltpOptions(config.workload);
  const tesla::queue::QueueOptions queue_options = ObservedQueueOptions();
  const tesla::queue::QueueOptions* queue = observed ? &queue_options : nullptr;

  // Set-up: compile + Register (+ queue Start). The repeats are torn down
  // (queue Stop included) after the clock stops.
  const SetUpOnce set_up = [&] {
    const uint64_t start = NowNs();
    auto manifest = WorkloadManifest(config.workload);
    auto made = manifest.ok() ? MakeRig(&manifest.value(), options, queue)
                              : tesla::Result<std::unique_ptr<KernelRig>>(manifest.error());
    const uint64_t end = NowNs();
    return made.ok() ? SecondsBetween(start, end) : -1.0;
  };
  auto manifest = WorkloadManifest(config.workload);
  if (!manifest.ok()) {
    out.checks.push_back({"setup", false, manifest.error().ToString()});
    return out;
  }
  auto made = MakeRig(&manifest.value(), options, queue);
  auto base = MakeRig(nullptr, {}, nullptr);
  auto calibration = Calibrate(manifest.value());
  if (!made.ok() || !base.ok() || !calibration.ok()) {
    out.checks.push_back({"setup", false, "rig, baseline kernel or calibration failed"});
    return out;
  }
  KernelRig* rig = made.value().get();

  // Warm-up, then counting starts from zero.
  ChunkSizes sizes(config.seed);
  SpanLog off(false);
  OltpLoop warm(0.2);
  RunOltpLoop(*rig, *base.value(), sizes, 0.2, off, nullptr, warm);
  rig->rt->ResetStats();
  const tesla::queue::ProducerStats queue_before =
      observed ? rig->queue->totals() : tesla::queue::ProducerStats{};

  const double loop_seconds = config.trace ? config.seconds * kTracedLoopShare : config.seconds;
  OltpLoop loop(loop_seconds);
  uint64_t attempted = 0;  // the traced loop's transactions
  Partition partition;
  if (!config.trace) {
    RunOltpLoop(*rig, *base.value(), sizes, loop_seconds, off, set_up, loop);
  } else {
    SpanLog spans(true, 1 << 20);
    OltpLoop traced(loop_seconds);
    for (double done = 0; done < loop_seconds; done += kTracedSegment) {
      RunOltpLoop(*rig, *base.value(), sizes, kTracedSegment, off, nullptr, loop);
      RunOltpLoop(*rig, *base.value(), sizes, kTracedSegment, spans, nullptr, traced);
    }
    partition.untraced_ns = loop.log.seconds() * 1e9 / static_cast<double>(loop.log.ops());
    const double tx = static_cast<double>(traced.log.ops());
    partition.traced_ns = traced.log.seconds() * 1e9 / tx;
    const auto self = spans.SelfTimes();
    partition.flush_span_ns = SelfNsPerOp(self, {"queue.Flush"}, tx);
    spans.WriteCsv(SpansPath(config));
    // Both loops' traffic is in the runtime's counts.
    attempted += traced.log.ops();
    loop.errors += traced.errors;
    for (size_t k = 0; k < loop.calls.size(); k++) {
      loop.calls[k] += traced.calls[k];
    }
  }

  const RuntimeStats got = rig->rt->stats();
  out.checks.push_back(CheckOltpStats(got, calibration.value().Expected(loop.calls)));
  out.checks.push_back(SetUpCheck(loop.setup_failed));
  out.attempted = attempted + loop.log.ops();
  out.failed = loop.errors + got.overflows;
  if (observed) {
    const tesla::queue::ProducerStats totals = rig->queue->totals();
    out.failed += (totals.dropped - queue_before.dropped) + (totals.rejected - queue_before.rejected);
  }

  if (!config.trace) {
    AddEndToEnd(out, loop.log);
  } else {
    MeasureLayers(config, partition, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// sessions_keyed

struct SessionLoop {
  explicit SessionLoop(double seconds) : log(MakeRoundLog(seconds)) {}

  // Nanoseconds per event of the whole op loop: generation + dispatch.
  double LoopNsPerEvent() const {
    return (generate_s + log.seconds()) * 1e9 / static_cast<double>(log.ops());
  }

  double generate_s = 0;
  bool setup_failed = false;
  // ops: events, in OnEvents time; samples: µs per OnEvents batch
  RoundLog log;
};

void RunSessionLoop(Runtime& rt, tesla::runtime::ThreadContext& ctx, SessionGenerator& gen,
                    double seconds, SpanLog& spans, const SetUpOnce& set_up,
                    SessionLoop& loop) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<Event> batch;
  batch.reserve(kSessionBatch);
  do {
    // A round is one epoch: every round carries one bound exit and its
    // cleanup sweep of the epoch's sessions.
    const uint64_t epoch = gen.epochs_closed();
    uint64_t generate = 0;
    uint64_t dispatch = 0;
    uint64_t events = 0;
    while (gen.epochs_closed() == epoch) {
      Scope op(spans, "op.batch");
      batch.clear();
      const uint64_t t0 = NowNs();
      {
        Scope span(spans, "generator.Next");
        gen.Next(kSessionBatch, batch);
      }
      const uint64_t t1 = NowNs();
      {
        Scope span(spans, "runtime.OnEvents");
        rt.OnEvents(ctx, batch);
      }
      const uint64_t t2 = NowNs();
      generate += t1 - t0;
      dispatch += t2 - t1;
      loop.log.AddSample(static_cast<double>(t2 - t1) / 1e3);
      events += batch.size();
    }
    loop.generate_s += static_cast<double>(generate) / 1e9;
    loop.log.EndRound(events, dispatch, generate + dispatch, generate);
    TimeSetUp(set_up, kSessionSetUpRounds, loop.log, &loop.setup_failed);
  } while (NowNs() < deadline);
}

RunResult RunSessions(const RunConfig& config) {
  RunResult out;
  // Set-up: compile + Register.
  auto make_runtime = [&]() -> tesla::Result<std::unique_ptr<Runtime>> {
    auto manifest = SessionsManifest(true);
    if (!manifest.ok()) {
      return manifest.error();
    }
    auto made = std::make_unique<Runtime>(SessionsOptions());
    if (tesla::Status status = made->Register(manifest.value()); !status.ok()) {
      return status.error();
    }
    return made;
  };
  const SetUpOnce set_up = [&] {
    const uint64_t start = NowNs();
    auto made = make_runtime();
    const uint64_t end = NowNs();
    return made.ok() ? SecondsBetween(start, end) : -1.0;
  };
  auto made = make_runtime();
  if (!made.ok()) {
    out.checks.push_back({"setup", false, made.error().ToString()});
    return out;
  }
  std::unique_ptr<Runtime> rt = std::move(made.value());
  CensusHandler census;
  rt->AddHandler(&census);
  uint64_t overflows = 0;
  const double loop_seconds = config.trace ? config.seconds * kTracedLoopShare : config.seconds;
  SessionLoop loop(loop_seconds);
  uint64_t attempted = 0;  // the traced loop's events
  Partition partition;
  {
    tesla::runtime::ThreadContext ctx(*rt);
    SessionGenerator gen(*rt, config.seed);
    SpanLog off(false);
    if (!config.trace) {
      RunSessionLoop(*rt, ctx, gen, loop_seconds, off, set_up, loop);
    } else {
      SpanLog spans(true, 1 << 20);
      SessionLoop traced(loop_seconds);
      for (double done = 0; done < loop_seconds; done += kTracedSegment) {
        RunSessionLoop(*rt, ctx, gen, kTracedSegment, off, nullptr, loop);
        RunSessionLoop(*rt, ctx, gen, kTracedSegment, spans, nullptr, traced);
      }
      partition.untraced_ns = loop.LoopNsPerEvent();
      partition.traced_ns = traced.LoopNsPerEvent();
      const double events = static_cast<double>(traced.log.ops());
      const auto self = spans.SelfTimes();
      partition.source_span_ns = SelfNsPerOp(self, {"generator.Next"}, events);
      partition.monitor_span_ns = SelfNsPerOp(self, {"runtime.OnEvents"}, events);
      spans.WriteCsv(SpansPath(config));
      attempted += traced.log.ops();
    }
    overflows = rt->stats().overflows;
    out.checks.push_back(
        CheckSessionCensus(census.auth_bad_sites, census.unexpected, gen.broken_sited()));
    out.checks.push_back(SetUpCheck(loop.setup_failed));
  }
  out.attempted = attempted + loop.log.ops();
  out.failed = overflows;
  if (!config.trace) {
    AddEndToEnd(out, loop.log);
  } else {
    MeasureLayers(config, partition, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// replay_capture

struct ReplayLoop {
  explicit ReplayLoop(double seconds) : log(MakeRoundLog(seconds, 10)) {}

  uint64_t unmatched = 0;
  std::string divergence;
  bool setup_failed = false;
  RoundLog log;  // kRoundReplays replays per round, one µs sample each
};

// One replay decomposed into the public calls ReplayFile makes, each in its
// own span (the traced run's view of trace::ReplayFile).
tesla::Result<tesla::trace::ReplayResult> TracedReplay(const std::string& path, SpanLog& spans) {
  tesla::Result<tesla::trace::TraceFile> read = [&] {
    Scope span(spans, "trace.TraceFile::Read");
    return tesla::trace::TraceFile::Read(path);
  }();
  if (!read.ok()) {
    return read.error();
  }
  tesla::trace::TraceFile& file = read.value();
  tesla::Result<Manifest> manifest = [&] {
    Scope span(spans, "automata.Manifest::Deserialize");
    return Manifest::Deserialize(file.manifest_text);
  }();
  if (!manifest.ok()) {
    return manifest.error();
  }
  {
    Scope span(spans, "trace.InternAndRemap");
    file.InternAndRemap();
  }
  Runtime rt(tesla::trace::ReplayOptions(file));
  {
    Scope span(spans, "runtime.Register");
    if (tesla::Status status = rt.Register(manifest.value()); !status.ok()) {
      return status.error();
    }
  }
  Scope span(spans, "trace.Replay");
  return tesla::trace::Replay(file, rt);
}

void RunReplayLoop(const std::string& path, KernelRig& base, const std::vector<int>& plan,
                   double seconds, SpanLog& spans, const SetUpOnce& set_up, ReplayLoop& loop) {
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    uint64_t replay_ns = 0;
    uint64_t base_ns = 0;
    for (int r = 0; r < kRoundReplays; r++) {
      const uint64_t t0 = NowNs();
      tesla::Result<tesla::trace::ReplayResult> result = [&] {
        if (!spans.enabled()) {
          return tesla::trace::ReplayFile(path);
        }
        Scope op(spans, "op.replay");
        return TracedReplay(path, spans);
      }();
      const uint64_t t1 = NowNs();
      for (int k : plan) {
        base.Run(k);
      }
      const uint64_t t2 = NowNs();
      if (!result.ok() || !result.value().matched) {
        loop.unmatched++;
        if (loop.divergence.empty()) {
          loop.divergence = result.ok() ? result.value().divergence : result.error().ToString();
        }
      }
      loop.log.AddSample(static_cast<double>(t1 - t0) / 1e3);
      replay_ns += t1 - t0;
      base_ns += t2 - t1;
    }
    loop.log.EndRound(kRoundReplays, replay_ns, replay_ns, base_ns);
    if (loop.log.rounds() % kRecycleRounds == 0) {
      base.Recycle();
    }
    TimeSetUp(set_up, kReplaySetUpRounds, loop.log, &loop.setup_failed);
  } while (NowNs() < deadline);
}

RunResult RunReplay(const RunConfig& config) {
  RunResult out;
  const std::vector<int> plan = ChunkPlan(config.seed, kCaptureChunks);
  const std::string path = config.work_dir + "/capture-" + std::to_string(getpid()) + ".trace";
  RuntimeOptions options;
  options.fail_stop = false;
  options.trace_mode = tesla::trace::TraceMode::kFullCapture;
  options.metrics_mode = tesla::metrics::MetricsMode::kCounters;

  // Set-up: compile + Register + the capture run + WriteCapture. Repeats
  // write to their own file, so the replayed capture never changes.
  auto capture = [&](const std::string& to) -> tesla::Status {
    auto manifest = WorkloadManifest(config.workload);
    if (!manifest.ok()) {
      return manifest.error();
    }
    auto rig = MakeRig(&manifest.value(), options, nullptr);
    if (!rig.ok()) {
      return rig.error();
    }
    for (int k : plan) {
      if (rig.value()->Run(k).errors != 0) {
        return tesla::Error{"syscall errors in the capture run"};
      }
    }
    return tesla::trace::WriteCapture(to, "kernelsim:all", *rig.value()->rt);
  };
  const std::string setup_path = path + ".setup";
  const SetUpOnce set_up = [&] {
    const uint64_t start = NowNs();
    const bool ok = capture(setup_path).ok();
    return ok ? SecondsBetween(start, NowNs()) : -1.0;
  };
  if (tesla::Status status = capture(path); !status.ok()) {
    out.checks.push_back({"setup", false, status.error().ToString()});
    return out;
  }
  auto base = MakeRig(nullptr, {}, nullptr);
  if (!base.ok()) {
    out.checks.push_back({"setup", false, base.error().ToString()});
    return out;
  }

  SpanLog off(false);
  const double loop_seconds = config.trace ? config.seconds * kTracedLoopShare : config.seconds;
  ReplayLoop loop(loop_seconds);
  uint64_t attempted = 0;  // the traced loop's replays
  Partition partition;
  if (!config.trace) {
    RunReplayLoop(path, *base.value(), plan, loop_seconds, off, set_up, loop);
  } else {
    SpanLog spans(true, 1 << 16);
    ReplayLoop traced(loop_seconds);
    for (double done = 0; done < loop_seconds; done += kTracedSegment) {
      RunReplayLoop(path, *base.value(), plan, kTracedSegment, off, nullptr, loop);
      RunReplayLoop(path, *base.value(), plan, kTracedSegment, spans, nullptr, traced);
    }
    partition.untraced_ns = loop.log.seconds() * 1e9 / static_cast<double>(loop.log.ops());
    const double replays = static_cast<double>(traced.log.ops());
    partition.traced_ns = traced.log.seconds() * 1e9 / replays;
    const auto self = spans.SelfTimes();
    partition.source_span_ns = SelfNsPerOp(self, {"trace.TraceFile::Read"}, replays);
    partition.monitor_span_ns =
        SelfNsPerOp(self,
                    {"automata.Manifest::Deserialize", "trace.InternAndRemap", "runtime.Register",
                     "trace.Replay"},
                    replays);
    spans.WriteCsv(SpansPath(config));
    attempted += traced.log.ops();
    loop.unmatched += traced.unmatched;
    if (loop.divergence.empty()) {
      loop.divergence = traced.divergence;
    }
  }
  std::remove(path.c_str());
  std::remove(setup_path.c_str());

  tesla::trace::ReplayResult summary;
  summary.matched = loop.unmatched == 0;
  summary.divergence = loop.divergence;
  out.checks.push_back(CheckReplayMatched(summary));
  out.checks.push_back(SetUpCheck(loop.setup_failed));
  out.attempted = attempted + loop.log.ops();
  out.failed += loop.unmatched;
  if (!config.trace) {
    AddEndToEnd(out, loop.log);
  } else {
    MeasureLayers(config, partition, out);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------

bool RunResult::correct() const {
  if (checks.empty()) {
    return false;
  }
  for (const Check& check : checks) {
    if (!check.ok) {
      return false;
    }
  }
  return true;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kOltpInline, Workload::kOltpObserved, Workload::kSessionsKeyed,
                     Workload::kReplayCapture}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kOltpInline:
      return "oltp_inline";
    case Workload::kOltpObserved:
      return "oltp_observed";
    case Workload::kSessionsKeyed:
      return "sessions_keyed";
    case Workload::kReplayCapture:
      return "replay_capture";
  }
  return "?";
}

std::vector<int> ChunkPlan(uint64_t seed, size_t chunks) {
  ChunkSizes sizes(seed);
  std::vector<int> plan(chunks);
  for (int& k : plan) {
    k = sizes.Next();
  }
  return plan;
}

tesla::Result<SessionStream> MakeSessionStream(uint64_t seed, size_t events) {
  auto manifest = SessionsManifest(true);
  if (!manifest.ok()) {
    return manifest.error();
  }
  Runtime rt(SessionsOptions());
  if (tesla::Status status = rt.Register(manifest.value()); !status.ok()) {
    return status.error();
  }
  SessionGenerator gen(rt, seed);
  SessionStream stream;
  stream.events.reserve(events);
  gen.Next(events, stream.events);
  stream.broken_sited = gen.broken_sited();
  return stream;
}

tesla::Result<std::vector<Event>> CaptureOltpStream(const Manifest& manifest,
                                                    std::span<const int> plan) {
  RuntimeOptions options;
  options.fail_stop = false;
  auto rig = MakeRig(&manifest, options, nullptr);
  if (!rig.ok()) {
    return rig.error();
  }
  std::vector<Event> events;
  rig.value()->rt->SetIngestHook(
      [](void* state, tesla::runtime::ThreadContext&, const Event& event) {
        static_cast<std::vector<Event>*>(state)->push_back(event);
        return true;
      },
      &events);
  for (int k : plan) {
    rig.value()->Run(k);
  }
  rig.value()->rt->SetIngestHook(nullptr, nullptr);
  return events;
}

Check CheckOltpStats(const RuntimeStats& got, const RuntimeStats& want) {
  Check check{"oltp.counts_match_calibration", true, ""};
  if (got.violations != 0 || want.violations != 0) {
    check.ok = false;
    check.detail += "violations: run " + std::to_string(got.violations) + ", calibration " +
                    std::to_string(want.violations) + "; ";
  }
#define TESLA_CMP(name, desc, replay)                                                   \
  if (replay && got.name != want.name) {                                                \
    check.ok = false;                                                                   \
    check.detail += std::string(#name) + ": run " + std::to_string(got.name) +          \
                    " vs calibration " + std::to_string(want.name) + "; ";             \
  }
  TESLA_RUNTIME_STATS(TESLA_CMP)
#undef TESLA_CMP
  return check;
}

Check CheckSessionCensus(uint64_t auth_bad_sites, uint64_t unexpected_violations,
                         uint64_t broken_sessions) {
  Check check{"sessions.violation_census", true, ""};
  if (auth_bad_sites != broken_sessions || unexpected_violations != 0) {
    check.ok = false;
    check.detail = std::string(kAuthClass) + " bad sites " + std::to_string(auth_bad_sites) +
                   " vs broken sessions " + std::to_string(broken_sessions) +
                   ", unexpected violations " + std::to_string(unexpected_violations);
  }
  return check;
}

Check CheckReplayMatched(const tesla::trace::ReplayResult& result) {
  return {"replay.matched", result.matched, result.divergence};
}

tesla::Result<std::unique_ptr<KernelRig>> MakeRig(const Manifest* manifest,
                                                  const RuntimeOptions& options,
                                                  const tesla::queue::QueueOptions* queue) {
  auto rig = std::make_unique<KernelRig>();
  if (manifest != nullptr) {
    rig->rt = std::make_unique<Runtime>(options);
    if (tesla::Status status = rig->rt->Register(*manifest); !status.ok()) {
      return status.error();
    }
  }
  rig->Recycle();
  if (queue != nullptr && rig->rt != nullptr) {
    rig->queue = std::make_unique<tesla::queue::EventQueue>(*rig->rt, *queue);
    rig->queue->Start();
  }
  return rig;
}

void KernelRig::Recycle() {
  std::unique_ptr<tesla::runtime::ThreadContext> context;
  if (td != nullptr) {
    context = std::move(td->tesla);
  } else if (rt != nullptr) {
    context = std::make_unique<tesla::runtime::ThreadContext>(*rt);
  }
  td.reset();
  tesla::kernelsim::KernelConfig config;
  config.tesla = rt.get();
  kernel = std::make_unique<tesla::kernelsim::Kernel>(config);
  td = std::make_unique<tesla::kernelsim::KThread>(nullptr, kernel->NewProcess(0));
  td->tesla = std::move(context);
}

tesla::queue::QueueOptions ObservedQueueOptions() {
  tesla::queue::QueueOptions options;
  options.consumers = 2;
  options.ring_capacity = 1 << 16;
  return options;
}

tesla::Result<Manifest> WorkloadManifest(Workload workload) {
  switch (workload) {
    case Workload::kOltpObserved:
      return KernelAssertions(kSetAll | kSetTimed);
    case Workload::kSessionsKeyed:
      return SessionsManifest(true);
    case Workload::kOltpInline:
    case Workload::kReplayCapture:
      break;
  }
  return KernelAssertions(kSetAll);
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult out;
  switch (config.workload) {
    case Workload::kOltpInline:
    case Workload::kOltpObserved:
      out = RunOltp(config);
      break;
    case Workload::kSessionsKeyed:
      out = RunSessions(config);
      break;
    case Workload::kReplayCapture:
      out = RunReplay(config);
      break;
  }
  out.attempted = std::max<uint64_t>(out.attempted, 1);
  if (!out.correct()) {
    out.failed = out.attempted;
  }
  out.detail.push_back({"error_rate", JsonNumber(static_cast<double>(out.failed) /
                                                  static_cast<double>(out.attempted))});
  std::string checks = "[";
  for (const Check& check : out.checks) {
    if (checks.size() > 1) {
      checks += ",";
    }
    checks += "{\"name\":" + JsonString(check.name) + ",\"ok\":" + (check.ok ? "true" : "false") +
              ",\"detail\":" + JsonString(check.detail) + "}";
  }
  out.detail.push_back({"checks", checks + "]"});
  return out;
}

}  // namespace perfbench
