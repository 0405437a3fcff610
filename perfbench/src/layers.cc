// The per-layer table of a traced run.
//
// Every layer is measured from outside, on the workload's own event stream
// (captured once through the runtime's ingest hook, or generated), by timing
// calls into the layer's public functions:
//   * "Δ" rows re-dispatch the stream through Runtime::OnEvents with one
//     option changed; the configurations are interleaved rep by rep and each
//     row is a difference of per-configuration minima (the unloaded cost:
//     interference only ever adds time);
//   * count rows come from RuntimeStats / ProducerStats / ConsumerStats.
// Rows are reported on every workload, including layers the workload itself
// bypasses: there they say what the layer would cost on this traffic, and
// the README's "should not move" column names the end-to-end rows they must
// leave alone.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "kernelsim/assertions.h"
#include "sessions.h"
#include "stats.h"
#include "trace/format.h"
#include "workloads.h"

namespace perfbench {

using tesla::automata::Manifest;
using tesla::runtime::Event;
using tesla::runtime::Runtime;
using tesla::runtime::RuntimeOptions;
using tesla::runtime::RuntimeStats;

namespace {

constexpr int kReps = 9;
constexpr int kCaptureReps = 3;
constexpr size_t kBatch = 256;
constexpr size_t kOltpStreamChunks = 32;
constexpr size_t kSessionStreamEvents = 1 << 17;

double Ms(uint64_t start, uint64_t end) { return static_cast<double>(end - start) / 1e6; }

struct Stream {
  std::vector<Event> events;
  double ops = 1;  // ops the stream represents (events_per_op = events / ops)
};

struct Dispatched {
  double ns = 0;  // whole-stream dispatch time
  RuntimeStats stats;
  size_t pool_high_water = 0;
};

// Dispatches `stream` through a fresh runtime in kBatch-event OnEvents
// batches. `strip_ts` clears every timestamp (self-clocked dispatch);
// `after` runs on the runtime once the stream is through.
tesla::Result<Dispatched> Dispatch(const Manifest& manifest, const RuntimeOptions& options,
                                   const Stream& stream, bool strip_ts,
                                   const std::function<void(Runtime&)>& after = nullptr) {
  Runtime rt(options);
  if (tesla::Status status = rt.Register(manifest); !status.ok()) {
    return status.error();
  }
  std::vector<Event> events = stream.events;
  if (strip_ts) {
    for (Event& e : events) {
      e.ts_ns = 0;
    }
  }
  Dispatched out;
  {
    tesla::runtime::ThreadContext ctx(rt);
    const uint64_t start = NowNs();
    for (size_t i = 0; i < events.size(); i += kBatch) {
      const size_t n = std::min(kBatch, events.size() - i);
      rt.OnEvents(ctx, std::span<const Event>(events.data() + i, n));
    }
    out.ns = static_cast<double>(NowNs() - start);
    out.pool_high_water = std::max(ctx.pool_high_water(), rt.shard_pool_high_water());
  }
  out.stats = rt.stats();
  if (after) {
    after(rt);
  }
  return out;
}

struct Manifests {
  Manifest untimed;  // without timed classes
  Manifest timed;    // with timed classes
  bool own_timed;    // the workload's own set is `timed` (else `untimed`)
  RuntimeOptions base;

  const Manifest& own() const { return own_timed ? timed : untimed; }
};

tesla::Result<Manifests> LayerManifests(Workload workload) {
  using tesla::kernelsim::KernelAssertions;
  using tesla::kernelsim::kSetAll;
  using tesla::kernelsim::kSetTimed;
  const bool sessions = workload == Workload::kSessionsKeyed;
  auto untimed = sessions ? SessionsManifest(false) : KernelAssertions(kSetAll);
  auto timed = sessions ? SessionsManifest(true) : KernelAssertions(kSetAll | kSetTimed);
  if (!untimed.ok() || !timed.ok()) {
    return tesla::Error{"layer manifests failed to compile"};
  }
  // WorkloadManifest: sessions_keyed and oltp_observed run timed classes.
  const bool own_timed = sessions || workload == Workload::kOltpObserved;
  Manifests m{std::move(untimed.value()), std::move(timed.value()), own_timed, {}};
  m.base = sessions ? SessionsOptions() : RuntimeOptions{};
  m.base.fail_stop = false;
  return m;
}

tesla::Result<Stream> LayerStream(const RunConfig& config, const Manifest& untimed) {
  Stream stream;
  if (config.workload == Workload::kSessionsKeyed) {
    auto sessions = MakeSessionStream(config.seed, kSessionStreamEvents);
    if (!sessions.ok()) {
      return sessions.error();
    }
    stream.events = std::move(sessions.value().events);
    stream.ops = static_cast<double>(stream.events.size());
    return stream;
  }
  // replay_capture's op is one replay of its whole capture.
  const bool replay = config.workload == Workload::kReplayCapture;
  const std::vector<int> plan =
      ChunkPlan(config.seed, replay ? kCaptureChunks : kOltpStreamChunks);
  auto events = CaptureOltpStream(untimed, plan);
  if (!events.ok()) {
    return events.error();
  }
  stream.events = std::move(events.value());
  // Pre-stamp on a virtual 1 µs clock so timed rows can compare stamped
  // and self-clocked dispatch of the same traffic.
  for (size_t i = 0; i < stream.events.size(); i++) {
    stream.events[i].ts_ns = (i + 1) * 1000;
  }
  double transactions = 0;
  for (int k : plan) {
    transactions += k;
  }
  stream.ops = replay ? 1 : transactions;
  return stream;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void MeasureLayers(const RunConfig& config, const Partition& partition, RunResult& out) {
  auto manifests_or = LayerManifests(config.workload);
  if (!manifests_or.ok()) {
    out.checks.push_back({"layers.setup", false, manifests_or.error().ToString()});
    return;
  }
  const Manifests& m = manifests_or.value();
  auto stream_or = LayerStream(config, m.untimed);
  if (!stream_or.ok()) {
    out.checks.push_back({"layers.stream", false, stream_or.error().ToString()});
    return;
  }
  const Stream& stream = stream_or.value();
  const double events = static_cast<double>(stream.events.size());

  // kernelsim: the uninstrumented control row.
  {
    auto base = MakeRig(nullptr, {}, nullptr);
    if (!base.ok()) {
      out.checks.push_back({"layers.kernelsim", false, base.error().ToString()});
      return;
    }
    const std::vector<int> plan = ChunkPlan(config.seed, kOltpStreamChunks);
    std::vector<double> per_tx;
    double syscalls = 0;
    double transactions = 0;
    for (int rep = 0; rep < kReps; rep++) {
      const uint64_t start = NowNs();
      for (int k : plan) {
        const auto result = base.value()->Run(k);
        if (rep == 0) {
          syscalls += static_cast<double>(result.syscalls);
          transactions += k;
        }
      }
      per_tx.push_back(static_cast<double>(NowNs() - start) / transactions);
    }
    out.Add("kernelsim.op_ns", Median(per_tx), "ns");
    out.Add("kernelsim.syscalls_per_op", syscalls / transactions, "count");
  }

  // automata + runtime set-up.
  {
    std::vector<double> compile_ms;
    std::vector<double> register_ms;
    for (int rep = 0; rep < kReps; rep++) {
      const uint64_t t0 = NowNs();
      auto manifest = WorkloadManifest(config.workload);
      const uint64_t t1 = NowNs();
      Runtime rt(m.base);
      if (!manifest.ok() || !rt.Register(manifest.value()).ok()) {
        out.checks.push_back({"layers.register", false, "compile or Register failed"});
        return;
      }
      register_ms.push_back(Ms(t1, NowNs()));
      compile_ms.push_back(Ms(t0, t1));
    }
    double states = 0;
    for (const auto& automaton : m.own().automata) {
      states += automaton.state_count;
    }
    out.Add("automata.compile_ms", Median(compile_ms), "ms");
    out.Add("automata.classes", static_cast<double>(m.own().automata.size()), "count");
    out.Add("automata.nfa_states", states, "count");
    out.Add("runtime.register_ms", Median(register_ms), "ms");
  }

  // Δ rows: all configurations interleaved, rep by rep.
  RuntimeOptions counters = m.base;
  counters.metrics_mode = tesla::metrics::MetricsMode::kCounters;
  RuntimeOptions full = m.base;
  full.metrics_mode = tesla::metrics::MetricsMode::kFull;
  RuntimeOptions profiled = m.base;
  profiled.profile = true;
  RuntimeOptions recorded = m.base;
  recorded.trace_mode = tesla::trace::TraceMode::kFlightRecorder;
  std::vector<double> metrics_snapshot_ms;
  std::vector<double> profile_snapshot_ms;
  auto time_metrics = [&](Runtime& rt) {
    const uint64_t start = NowNs();
    const std::string text = tesla::metrics::ToPrometheus(rt.CollectMetrics());
    metrics_snapshot_ms.push_back(Ms(start, NowNs()));
    if (text.empty()) {
      out.checks.push_back({"layers.metrics_snapshot", false, "empty exposition"});
    }
  };
  auto time_profile = [&](Runtime& rt) {
    const uint64_t start = NowNs();
    const tesla::profile::Snapshot snapshot = rt.CollectProfile();
    profile_snapshot_ms.push_back(Ms(start, NowNs()));
    if (snapshot.classes.empty()) {
      out.checks.push_back({"layers.profile_snapshot", false, "empty profile"});
    }
  };
  struct Config {
    const Manifest* manifest;
    const RuntimeOptions* options;
    bool strip_ts;
    std::function<void(Runtime&)> after;
    std::vector<double> ns;
  };
  Config configs[] = {
      {&m.untimed, &m.base, false, nullptr, {}},      // 0 without timed classes
      {&m.timed, &m.base, false, nullptr, {}},        // 1 with timed classes, stamped
      {&m.timed, &m.base, true, nullptr, {}},         // 2 with timed classes, self-clocked
      {&m.own(), &counters, false, nullptr, {}},      // 3 metrics counters
      {&m.own(), &full, false, time_metrics, {}},     // 4 metrics kFull
      {&m.own(), &profiled, false, time_profile, {}}, // 5 profile
      {&m.own(), &recorded, false, nullptr, {}},      // 6 flight recorder
  };
  // The base row, everything off, runs the workload's own set: config 1
  // when that set is timed, else config 0.
  const size_t base = m.own_timed ? 1 : 0;
  Dispatched base_run;
  for (int rep = 0; rep < kReps; rep++) {
    for (size_t c = 0; c < std::size(configs); c++) {
      Config& config_c = configs[c];
      auto run = Dispatch(*config_c.manifest, *config_c.options, stream, config_c.strip_ts,
                          config_c.after);
      if (!run.ok()) {
        out.checks.push_back({"layers.dispatch", false, run.error().ToString()});
        return;
      }
      config_c.ns.push_back(run.value().ns);
      if (c == base) {
        base_run = run.value();
      }
    }
  }
  auto per_event = [&](size_t c) {
    return *std::min_element(configs[c].ns.begin(), configs[c].ns.end()) / events;
  };
  const double dispatch_ns = per_event(base);
  const RuntimeStats& s = base_run.stats;
  out.Add("runtime.dispatch_ns_per_event", dispatch_ns, "ns");
  out.Add("runtime.events_per_op", events / stream.ops, "count");
  out.Add("runtime.ignored_ratio", Ratio(static_cast<double>(s.ignored_events), events), "ratio");
  out.Add("runtime.transitions_per_event", Ratio(static_cast<double>(s.transitions), events),
          "ratio");
  out.Add("runtime.bound_entries_per_op", static_cast<double>(s.bound_entries) / stream.ops,
          "count");
  out.Add("runtime.instances_created_per_op",
          static_cast<double>(s.instances_created) / stream.ops, "count");
  out.Add("runtime.index_probe_ratio",
          Ratio(static_cast<double>(s.index_probes),
                static_cast<double>(s.index_probes + s.index_scans)),
          "ratio");
  out.Add("runtime.pool_high_water", static_cast<double>(base_run.pool_high_water), "count");
  out.Add("runtime.overflows", static_cast<double>(s.overflows), "count");
  out.Add("runtime.clock_ns_per_event", per_event(2) - per_event(1), "ns");
  out.Add("runtime.timed_ns_per_event", per_event(1) - per_event(0), "ns");
  out.Add("runtime.rate_violations", static_cast<double>(s.rate_violations), "count");
  out.Add("metrics.counters_ns_per_event", per_event(3) - per_event(base), "ns");
  out.Add("metrics.histograms_ns_per_event", per_event(4) - per_event(3), "ns");
  out.Add("metrics.snapshot_ms", Median(metrics_snapshot_ms), "ms");
  out.Add("profile.ns_per_event", per_event(5) - per_event(base), "ns");
  out.Add("profile.snapshot_ms", Median(profile_snapshot_ms), "ms");
  out.Add("trace.recorder_ns_per_event", per_event(6) - per_event(base), "ns");

  // trace capture format: write, read, replay.
  {
    RuntimeOptions capture = m.base;
    capture.trace_mode = tesla::trace::TraceMode::kFullCapture;
    capture.metrics_mode = tesla::metrics::MetricsMode::kCounters;
    const std::string path =
        config.work_dir + "/layers-" + std::to_string(getpid()) + ".trace";
    std::vector<double> write_ms, decode_ns, replay_ns;
    double bytes = 0;
    for (int rep = 0; rep < kCaptureReps; rep++) {
      tesla::Status written;
      auto run = Dispatch(m.own(), capture, stream, false, [&](Runtime& rt) {
        const uint64_t start = NowNs();
        written = tesla::trace::WriteCapture(path, "perfbench", rt);
        write_ms.push_back(Ms(start, NowNs()));
      });
      if (!run.ok() || !written.ok()) {
        out.checks.push_back({"layers.capture", false, "capture dispatch or write failed"});
        return;
      }
      bytes = static_cast<double>(std::filesystem::file_size(path));
      const uint64_t t0 = NowNs();
      auto file = tesla::trace::TraceFile::Read(path);
      const uint64_t t1 = NowNs();
      if (!file.ok()) {
        out.checks.push_back({"layers.capture_read", false, file.error().ToString()});
        return;
      }
      decode_ns.push_back(static_cast<double>(t1 - t0) / events);
      auto manifest = Manifest::Deserialize(file.value().manifest_text);
      file.value().InternAndRemap();
      // A capture does not carry plan hints; the replayer supplies the
      // recording run's own, as `tesla-trace replay --plan-hints` would.
      RuntimeOptions replay_options = tesla::trace::ReplayOptions(file.value());
      replay_options.plan_hints = m.base.plan_hints;
      Runtime rt(replay_options);
      if (!manifest.ok() || !rt.Register(manifest.value()).ok()) {
        out.checks.push_back({"layers.capture_register", false, "replay set-up failed"});
        return;
      }
      const uint64_t t2 = NowNs();
      auto replayed = tesla::trace::Replay(file.value(), rt);
      replay_ns.push_back(static_cast<double>(NowNs() - t2) / events);
      if (!replayed.ok() || !replayed.value().matched) {
        out.checks.push_back({"layers.capture_replay", false,
                              replayed.ok() ? replayed.value().divergence
                                            : replayed.error().ToString()});
        return;
      }
    }
    std::remove(path.c_str());
    out.Add("trace.capture_bytes_per_event", bytes / events, "bytes");
    out.Add("trace.write_ms", Median(write_ms), "ms");
    out.Add("trace.decode_ns_per_event", Median(decode_ns), "ns");
    out.Add("trace.replay_dispatch_ns_per_event", Median(replay_ns), "ns");
  }

  // queue: Enqueue + Flush with the oltp_observed queue shape. Each rep
  // pushes the stream twice and times the second pass: the first registers
  // the producer (allocating its rings) and faults the ring pages in, as
  // oltp_observed's warm-up does.
  double enqueue_ns_per_event = 0;
  {
    std::vector<double> enqueue_ns, drain_ms;
    tesla::queue::ProducerStats producer;
    double busy = 0, forwards = 0, steals = 0;
    for (int rep = 0; rep < kReps; rep++) {
      Runtime rt(m.base);
      if (!rt.Register(m.own()).ok()) {
        out.checks.push_back({"layers.queue", false, "Register failed"});
        return;
      }
      tesla::runtime::ThreadContext ctx(rt);
      tesla::queue::QueueOptions options = ObservedQueueOptions();
      options.install_hook = false;
      tesla::queue::EventQueue queue(rt, options);
      queue.Start();
      for (const Event& e : stream.events) {
        queue.Enqueue(ctx, e);
      }
      queue.Flush();
      const tesla::queue::ProducerStats producer_before = queue.totals();
      const std::vector<tesla::queue::ConsumerStats> consumers_before = queue.consumer_stats();
      const uint64_t t0 = NowNs();
      for (const Event& e : stream.events) {
        queue.Enqueue(ctx, e);
      }
      const uint64_t t1 = NowNs();
      queue.Flush();
      const uint64_t t2 = NowNs();
      enqueue_ns.push_back(static_cast<double>(t1 - t0) / events);
      drain_ms.push_back(Ms(t1, t2));
      const tesla::queue::ProducerStats producer_after = queue.totals();
      const std::vector<tesla::queue::ConsumerStats> consumers_after = queue.consumer_stats();
      queue.Stop();
      producer.blocked_spins = producer_after.blocked_spins - producer_before.blocked_spins;
      producer.dropped = producer_after.dropped;
      producer.rejected = producer_after.rejected;
      busy = forwards = steals = 0;
      for (size_t c = 0; c < consumers_after.size(); c++) {
        busy += static_cast<double>(consumers_after[c].busy_ns - consumers_before[c].busy_ns);
        forwards += static_cast<double>(consumers_after[c].forwards_out -
                                        consumers_before[c].forwards_out);
        steals += static_cast<double>(consumers_after[c].steals - consumers_before[c].steals);
      }
    }
    enqueue_ns_per_event = Median(enqueue_ns);
    out.Add("queue.enqueue_ns_per_event", enqueue_ns_per_event, "ns");
    out.Add("queue.consumer_busy_ns_per_event", busy / events, "ns");
    out.Add("queue.blocked_spins_per_event", static_cast<double>(producer.blocked_spins) / events,
            "ratio");
    out.Add("queue.forward_ratio", forwards / events, "ratio");
    out.Add("queue.steals", steals, "count");
    out.Add("queue.drain_ms", Median(drain_ms), "ms");
    if (producer.dropped != 0 || producer.rejected != 0) {
      out.checks.push_back({"layers.queue", false, "queue dropped or rejected events"});
    }
  }

  // The op partition: source + monitor + residual = untraced per-op time.
  const double events_per_op = events / stream.ops;
  double source = partition.source_span_ns;
  double monitor = partition.monitor_span_ns;
  if (config.workload == Workload::kOltpInline || config.workload == Workload::kOltpObserved) {
    for (const Metric& metric : out.metrics) {
      if (metric.name == "kernelsim.op_ns") {
        source = metric.value;
      }
    }
    monitor = config.workload == Workload::kOltpInline
                  ? events_per_op * dispatch_ns
                  : events_per_op * enqueue_ns_per_event + partition.flush_span_ns;
  }
  out.Add("op.untraced_ns", partition.untraced_ns, "ns");
  out.Add("op.traced_ns", partition.traced_ns, "ns");
  out.Add("op.tracing_overhead_ns", partition.traced_ns - partition.untraced_ns, "ns");
  out.Add("op.source_ns", source, "ns");
  out.Add("op.monitor_ns", monitor, "ns");
  out.Add("runtime.unattributed_ns_per_op", partition.untraced_ns - source - monitor, "ns");
}

}  // namespace perfbench
