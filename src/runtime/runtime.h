// libtesla: the TESLA run-time support library (paper §4.4).
//
// A Runtime holds compiled automaton classes registered from a Manifest and
// manages their instances. Events arrive as unified Event records (see
// runtime/event.h) through OnEvent() — built either by generated event
// translators (the IR instrumentation path) or by native instrumentation
// scope guards (see runtime/scope.h). The legacy On*() entry points are thin
// wrappers that marshal into an Event.
//
// Dispatch plan: Register() compiles all per-symbol routing into flat
// vectors indexed by (Symbol, call/return) keys — candidate lists, bound
// start/end handling, tracked-call-stack slots. Symbols are dense interner
// indices (the interner is frozen at Register() time), so the hot path
// performs zero hash lookups: every event costs one or two vector indexings
// plus the per-candidate matches, each a walk of a flat op list compiled
// from the candidate's pattern (runtime/match.h).
//
// Event serialisation contexts (§3.2):
//   * per-thread automata store instances in a ThreadContext, one per
//     (simulated or real) thread — serialisation is implicit;
//   * global automata store instances in runtime-owned shard contexts, each
//     behind its own spinlock — the explicit synchronisation whose cost
//     fig. 12 measures. Automaton classes map to shards by id, so
//     independent global automata no longer contend on one lock.
//
// Shard ownership (async multi-consumer dispatch, src/queue): a shard is
// either *locked* — the legacy state; every toucher takes its spinlock — or
// *owned* by one queue consumer. The owner claims its shards per batch with
// two fetch-free atomics (owner_active + an intruder count) and, when no
// inline caller is intruding, skips the spinlock entirely: the owner is the
// shard's single writer. Inline callers that land on an owned shard run the
// handoff protocol — announce themselves as intruders, take the lock, and
// wait for the owner to retreat (RuntimeStats::shard_handoffs counts these).
// Consumers restrict a dispatch pass to the shards they own via a
// DispatchScope; see OnEventsScoped(). Classes whose site dispatch must read
// the *producer's* call stack (incallstack() variants) are pinned to
// dedicated always-locked shards handled in the context stage.
//
// Instance lifecycle (§4.4.1): «init» on the bound's start event creates the
// wildcard (∗) instance; events binding new variable values clone it; the
// assertion-site event must be consumable by some matching instance or a
// violation is reported; «cleanup» on the bound's end event checks automata
// that passed their site, reports acceptance, and expunges all instances.
// A population whose every instance accepts, with no handler registered, is
// stepped and expunged in one batch kernel call (see CleanupClass).
#ifndef TESLA_RUNTIME_RUNTIME_H_
#define TESLA_RUNTIME_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/determinize.h"
#include "automata/manifest.h"
#include "metrics/collector.h"
#include "metrics/snapshot.h"
#include "profile/collector.h"
#include "profile/snapshot.h"
#include "runtime/deadline.h"
#include "runtime/event.h"
#include "runtime/handler.h"
#include "runtime/instance.h"
#include "runtime/instance_store.h"
#include "runtime/match.h"
#include "runtime/options.h"
#include "runtime/step.h"
#include "support/pool.h"
#include "support/result.h"
#include "support/spinlock.h"
#include "trace/recorder.h"

namespace tesla::runtime {

class Runtime;

// Restricts one dispatch pass to a slice of the runtime's state. The async
// queue splits each record into two stages that may run on different
// consumer threads:
//   * the *context* stage (context = true) — everything anchored to the
//     producer's ThreadContext: per-thread classes, pinned global classes
//     (incallstack() site variants need the producer's stack), event-level
//     stats/trace/timing, and the per-event bookkeeping that must happen
//     exactly once;
//   * the *shard* stage (context = false) — unpinned global classes living
//     on the shards in shard_mask, run by the consumer owning them.
// Inline dispatch uses no scope (both stages at once, all shards).
struct DispatchScope {
  bool context = true;
  uint64_t shard_mask = ~uint64_t{0};
};

// Timed-clause bookkeeping for one TimedSpec of one class in one storage
// context. within_ms: `armed` + `deadline_ns` track the live deadline (the
// first arm wins until the region fully empties); `serial` lazily cancels
// wheel entries — a popped entry whose serial mismatches is stale. rate:
// `window_start`/`window_count` implement the tumbling window, and
// `window_tripped` dedups the per-window violation report.
struct TimedCell {
  uint64_t deadline_ns = 0;
  uint64_t serial = 0;
  uint64_t window_start = 0;
  uint64_t window_count = 0;
  bool armed = false;
  bool window_tripped = false;
};

// Per-serialisation-context storage for one automaton class. Instances are
// slots into the owning context's InstanceStore; `instances` is the full
// population in creation order (the cleanup sweep and the naive scan walk
// it), while the binding-keyed index partitions the same population into
// keyed buckets (all key variables bound; chained through the store's
// next() links) and the short unkeyed tail (the (∗) wildcard and partial
// bindings — the only possible clone parents on the indexed fast path).
//
// Nothing is filed below the class's probe gate (CompiledClass::
// min_population), where every dispatch scans: the first dispatch at the
// gate files every live slot in `instances` order and sets `indexed`.
struct ClassState {
  bool active = false;
  bool indexed = false;
  uint64_t epoch = 0;  // bound epoch at activation (lazy-init bookkeeping)
  std::vector<uint32_t> instances;
  KeyIndex index;
  std::vector<uint32_t> unkeyed;
  // Profile-hinted secondary prefix index (CompiledClass::prefix_pos): the
  // same population partitioned by one key variable's value — instances with
  // the prefix variable bound chain through the store's next2() links;
  // instances without it (the (∗) wildcard) sit in the tail2 list. Empty for
  // classes without a prefix hint.
  KeyIndex index2;
  std::vector<uint32_t> tail2;
  // Timed-clause cells, one per entry of the class automaton's `timed` list
  // (lazily sized on first observation; empty for untimed classes).
  std::vector<TimedCell> timed;

  // Empties both index partitions (a no-op while nothing is filed).
  void DropIndex() {
    if (!indexed) {
      return;
    }
    index.Clear();
    unkeyed.clear();
    index2.Clear();
    tail2.clear();
    indexed = false;
  }
};

// Lazy-init bookkeeping for one temporal bound (paper §5.2.2's optimisation:
// "keeping a per-context record of common initialisation and cleanup events
// and doing lazy initialisation of automaton instances after they received
// their first non-initialisation event").
struct BoundEpoch {
  uint64_t epoch = 0;
  bool open = false;
};

// One event-serialisation context: all per-thread automata instances for one
// thread of execution, plus its instance pool and call-stack view. Simulated
// kernels may host many ThreadContexts on one host thread. The runtime's
// global shards are ThreadContexts too, owned by the Runtime and guarded by
// their shard's lock.
class ThreadContext {
 public:
  explicit ThreadContext(Runtime& runtime);
  ~ThreadContext();

  ThreadContext(const ThreadContext&) = delete;
  ThreadContext& operator=(const ThreadContext&) = delete;

  // incallstack() support: whether `function` is on this context's stack.
  bool InCallStack(Symbol function) const;

  uint64_t pool_overflows() const { return store_.overflows(); }
  // The instance pool's high-water mark and capacity (the capacity-headroom
  // signal a workload profile reports). Rewound by Runtime::ResetStats().
  size_t pool_high_water() const { return store_.high_water(); }
  size_t pool_capacity() const { return store_.capacity(); }

 private:
  friend class Runtime;

  Runtime& runtime_;
  // This context's share of RuntimeStats. Single-writer like the rest of
  // the context: the thread holding it exclusively bumps with a relaxed
  // load and store; Runtime::stats() sums it with relaxed loads.
  RuntimeStats stats_;
  // The plan generation this context's slot-indexed vectors are sized for
  // (Runtime::plan_generation_; one compare per event replaces the
  // capacity checks).
  uint64_t plan_generation_ = 0;
  std::vector<ClassState> classes_;
  InstanceStore store_;
  // Dense plan-slot indexed state (see Runtime's compiled dispatch plan):
  std::vector<BoundEpoch> bound_epochs_;               // by bound slot
  std::vector<std::vector<uint32_t>> active_classes_;  // live classes, by cleanup slot
  std::vector<int32_t> stack_depth_;                   // by tracked-stack slot
  // Flight-recorder log for events entering through this context (null when
  // tracing is off). Owned by the runtime's Recorder, which outlives us —
  // the history survives context teardown for capture and forensics.
  trace::ContextLog* trace_ = nullptr;
  // Metrics shard for counters/histograms recorded through this context
  // (null when RuntimeOptions::metrics_mode is off). Owned by the runtime's
  // Collector; single-writer — per-thread contexts by contract, global shard
  // contexts by their shard lock.
  metrics::Shard* metrics_ = nullptr;
  // Workload-profile shard (null when RuntimeOptions::profile is off). Same
  // ownership and single-writer discipline as metrics_.
  profile::Shard* profile_ = nullptr;
  // Timed-clause clock domain for this context: the deadline wheel (lazily
  // allocated on first arm — untimed workloads never pay its footprint), the
  // monotonically clamped event clock (a backwards timestamp is clamped and
  // counted in RuntimeStats::clock_regressions, never underflows a window),
  // and a scratch buffer for expiry pops. Single-writer like everything
  // else here: per-thread contexts by contract, shard contexts by lock.
  std::unique_ptr<DeadlineWheel> wheel_;
  uint64_t timed_now_ = 0;
  std::vector<DeadlineWheel::Entry> fired_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Compiles and registers every automaton in `manifest`, then (re)compiles
  // the dispatch plan. Must be called before ThreadContexts are created.
  // Fails on automata with more than kMaxVariables variables or malformed
  // bounds.
  Status Register(const automata::Manifest& manifest);

  // Looks up a registered automaton by name; returns -1 if absent.
  int FindAutomaton(const std::string& name) const;

  void AddHandler(EventHandler* handler) { handlers_.push_back(handler); }

  // --- the unified event entry point ---

  // Delivers `event` to dispatch, unless no registered automaton can use it
  // (see Observes()) and no timed class is registered: such an event
  // returns before stamping, the ingest hook, the recorder and the stats,
  // counting only an argument truncation.
  void OnEvent(ThreadContext& ctx, const Event& event);

  // The interest table: true when the compiled plan gives `event` a role —
  // a call or return with a candidate pattern, a bound start, a bound end or
  // a tracked incallstack() slot; a field store with a candidate pattern.
  // Assertion sites are always observed. Equals the manifest's
  // ComputeRequirements() hook sets by construction.
  bool Observes(const Event& event) const {
    if (event.kind == EventKind::kAssertionSite) {
      return true;
    }
    const size_t index = size_t{event.target} * 3 + static_cast<size_t>(event.kind);
    return index < interest_.size() && interest_[index] != 0;
  }

  // Async ingestion interposition (src/queue). When a hook is installed,
  // OnEvent offers every event to it *before* touching the context or any
  // dispatch state; a true return means the hook took ownership (queued it
  // for dispatch elsewhere) and OnEvent returns immediately. A false return
  // falls back to inline dispatch. A plain function pointer plus state —
  // not std::function — so the uninstalled fast path is one relaxed-ish
  // atomic load. Install with SetIngestHook(hook, state); uninstall with
  // SetIngestHook(nullptr, nullptr) — the queue drains in-flight events
  // itself before uninstalling.
  using IngestHook = bool (*)(void* state, ThreadContext& ctx, const Event& event);
  void SetIngestHook(IngestHook hook, void* state) {
    // State first, hook second: a reader that observes the hook (acquire)
    // is guaranteed to observe its matching state.
    ingest_state_.store(state, std::memory_order_release);
    ingest_hook_.store(hook, std::memory_order_release);
  }

  // Queue-side accounting (folded into RuntimeStats so the existing
  // exposition formats surface it): a consumer batch of `events` events
  // dispatched, and `dropped` events rejected at enqueue.
  void AccountQueueBatch(uint64_t events) {
    BumpShared(shared_stats_.queue_events, events);
    BumpShared(shared_stats_.queue_batches);
  }
  void AccountQueueDrops(uint64_t dropped) { BumpShared(shared_stats_.queue_drops, dropped); }
  void AccountQueueForwards(uint64_t forwards) {
    BumpShared(shared_stats_.queue_forwards, forwards);
  }
  void AccountQueueSteals(uint64_t steals) { BumpShared(shared_stats_.queue_steals, steals); }

  // Batch ingestion: dispatches exactly the events given — no interest
  // gate, so a capture replays every event it holds — and amortises the
  // per-call overheads: the plan-generation check runs once, and when global
  // automata are registered every shard lock is taken once for the whole
  // batch instead of once per event (nested per-event acquisitions are
  // elided via the batch-owner check). The replay path and event-queue
  // front-ends feed this.
  void OnEvents(ThreadContext& ctx, std::span<const Event> events);

  // Scope-restricted batch dispatch for the async queue's two-stage routing
  // (see DispatchScope). The caller promises that for every event in the
  // batch, the work outside `scope` is (or will be) dispatched elsewhere —
  // the queue forwards records to the consumers owning the other shards.
  // Shards inside the scope's mask that this runtime registered as owned by
  // a consumer are claimed with the ownership fast path; everything else is
  // locked as an intruder.
  void OnEventsScoped(ThreadContext& ctx, std::span<const Event> events,
                      const DispatchScope& scope);

  // The unpinned global shards `event` can touch, as a bit mask — the
  // queue's routing key: a consumer forwards the record to the owner of
  // every touched shard outside its own set. Conservative (a superset of
  // the shards the dispatch will really lock) and cheap: one plan lookup.
  uint64_t ShardStageMask(const Event& event) const;

  // Shards hosting only unpinned global classes — the shards eligible for
  // consumer ownership. Pinned classes (incallstack() site variants need
  // the producer context's stack) live outside this mask and are always
  // dispatched in the context stage under their locks.
  uint64_t unpinned_shard_mask() const { return unpinned_shard_mask_; }

  // Marks each unpinned shard s as owned by consumer (s % consumers); the
  // owner id is bookkeeping for the handoff counter, the protocol itself is
  // per-batch (owner_active). Called by EventQueue::Start()/Stop(); a
  // runtime has at most one owning queue at a time.
  void AssignShardOwners(uint32_t consumers);
  void ReleaseShardOwners();

  // --- legacy entry points (thin wrappers over OnEvent) ---

  void OnFunctionCall(ThreadContext& ctx, Symbol function, std::span<const int64_t> args) {
    OnEvent(ctx, Event::Call(function, args));
  }
  void OnFunctionReturn(ThreadContext& ctx, Symbol function, std::span<const int64_t> args,
                        int64_t return_value) {
    OnEvent(ctx, Event::Return(function, args, return_value));
  }
  // A store to `object`'s field: `old_value` is the field's prior contents
  // (the translator receives "a pointer to the field (and thus its current
  // value) and the new value", §4.2), which lets compound-assignment patterns
  // (+=, ++) match.
  void OnFieldStore(ThreadContext& ctx, Symbol field, int64_t object, int64_t old_value,
                    int64_t new_value) {
    OnEvent(ctx, Event::FieldStore(field, object, old_value, new_value));
  }
  // `automaton_id` is FindAutomaton()'s result; `site_bindings` carries the
  // current values of the assertion's in-scope variables.
  void OnAssertionSite(ThreadContext& ctx, uint32_t automaton_id,
                       std::span<const Binding> site_bindings) {
    OnEvent(ctx, Event::Site(automaton_id, site_bindings));
  }

  // A snapshot of the counters: the shared block, plus every live
  // context's block, plus the blocks folded in when contexts unregistered.
  // Relaxed loads, so safe to call while other threads dispatch; each
  // counter is exact at a quiescent point.
  RuntimeStats stats() const;
  // Zeroes every stats block *and* every derived tally a stats consumer can
  // observe: the per-shard instance-pool overflow counts and the metrics
  // collector's counters, histograms and coverage bitmap. Call at a
  // quiescent point for exact deltas.
  void ResetStats();
  const RuntimeOptions& options() const { return options_; }

  // The metrics collector (null when RuntimeOptions::metrics_mode is off).
  metrics::Collector* collector() { return collector_.get(); }
  const metrics::Collector* collector() const { return collector_.get(); }

  // Merges every shard into one snapshot and joins it with the static
  // automaton structure (class names, statically-valid DFA transitions and
  // their coverage bits). Cheap enough to call from a scrape handler.
  metrics::Snapshot CollectMetrics() const;

  // The workload-profile collector (null when RuntimeOptions::profile is
  // off) and its merged snapshot: per-class fan-out, probe/scan attribution,
  // binding-key sketches and pool marks, in plan (class-id) order. Pool
  // marks cover every live context plus the high-water folded in when a
  // context was destroyed; call at a quiescent point for exact figures.
  profile::Collector* profile_collector() { return profile_collector_.get(); }
  const profile::Collector* profile_collector() const { return profile_collector_.get(); }
  profile::Snapshot CollectProfile() const;

  // Lets a front-end (the async queue) append its own sections — per-
  // producer and per-consumer tallies — to every CollectMetrics() snapshot.
  // One augmenter at a time; pass nullptr to clear. The callback must be
  // safe to invoke from any thread calling CollectMetrics().
  using MetricsAugmenter = std::function<void(metrics::Snapshot&)>;
  void SetMetricsAugmenter(MetricsAugmenter augmenter);

  // Sum of the global shard contexts' instance-pool overflow tallies (the
  // per-context counts behind RuntimeStats::overflows); reset by
  // ResetStats(). Exposed so stats-reset consumers can verify the derived
  // counters really rewound.
  uint64_t shard_pool_overflows() const;
  // Largest instance-pool high-water mark across the global shard contexts;
  // rewound (to each pool's current live population) by ResetStats() like
  // the overflow tallies above.
  uint64_t shard_pool_high_water() const;

  // The registered automata re-serialised in the .tesla text format, in
  // registration order — so assertion-site targets (automaton ids) resolve
  // by position on a fresh Register() of the deserialised result. Cold path:
  // capture writers embed this so their files are self-describing
  // (trace/format.h's v4 manifest section, ipc's shm header).
  std::string ManifestText() const;

  size_t class_count() const { return classes_.size(); }
  const automata::Automaton& automaton(uint32_t id) const { return classes_[id].automaton; }
  const automata::Dfa& dfa(uint32_t id) const { return classes_[id].dfa; }

  // Number of global-context shards in use (≤ RuntimeOptions::global_shards).
  uint32_t shard_count() const { return shard_count_; }

  // The flight recorder (null when RuntimeOptions::trace_mode is off).
  trace::Recorder* recorder() { return recorder_.get(); }
  const trace::Recorder* recorder() const { return recorder_.get(); }

  // The violation sequence observed while tracing was active: (kind,
  // automaton name) in report order. Captures embed it so replays can check
  // they reproduce not just the stats but the same failures in the same
  // order. Empty when trace_mode is off.
  std::vector<std::pair<ViolationKind, std::string>> violation_log() const {
    LockGuard<Spinlock> guard(violation_log_lock_);
    return violation_log_;
  }

 private:
  friend class ThreadContext;

  struct CompiledClass {
    uint32_t id = 0;
    automata::Automaton automaton;
    automata::Dfa dfa;
    bool is_global = false;
    // Global classes with incallstack() site variants must dispatch where
    // the producer's call stack is visible: they are *pinned* — placed on
    // shards excluded from consumer ownership and handled in the context
    // stage of a scoped dispatch.
    bool pinned = false;
    uint32_t shard = 0;      // global classes: owning shard index
    uint64_t start_key = 0;  // (function, kind) key of the «init» event
    uint64_t end_key = 0;    // (function, kind) key of the «cleanup» event
    int32_t bound_slot = -1;    // dense slot shared by classes with this start key
    int32_t cleanup_slot = -1;  // dense slot shared by classes with this end key
    std::vector<uint16_t> site_variants;  // incallstack() symbols
    // Computed in CompilePlan(): the class's site event is exactly the
    // automaton's site symbol (no incallstack() variants to evaluate), so an
    // unbound site event on an already-active per-thread class can take the
    // flattened steady-state path in ProcessSiteEvent.
    bool site_fast = false;
    // The automaton carries within_ms()/rate() clauses: dispatch must run
    // the timed-observation hooks (and skip the flattened site fast path,
    // which bypasses them).
    bool timed = false;
    automata::StateSet initial_states = 0;
    uint32_t initial_dfa_state = 0;
    // Key-variable analysis (computed once per class in CompilePlan()): the
    // variables clone events can bind, i.e. the instance index's key tuple.
    // key_vars holds the same set as an ascending list for tuple extraction.
    uint32_t key_mask = 0;
    uint8_t key_count = 0;
    std::array<uint8_t, kMaxVariables> key_vars{};
    // Plan-hint resolution (CompilePlan): the index_min_population gate for
    // this class (the global knob, or a PlanHints override), and the
    // profile-chosen secondary prefix index — prefix_pos is the key_vars
    // position (kNoPrefix: none), prefix_var the variable id it names.
    static constexpr uint8_t kNoPrefix = 0xff;
    uint32_t min_population = 0;
    uint8_t prefix_pos = kNoPrefix;
    uint8_t prefix_var = 0;
    // Every function/field symbol the class's patterns name (including the
    // bound's init/cleanup functions): the forensics filter for "events
    // relevant to this automaton".
    std::vector<uint32_t> trace_symbols;
    // Transition-coverage layout (metrics on only). The class owns a dense
    // bit grid of cov_states × cov_symbols slots starting at cov_first in
    // the collector's bitmap — bit = cov_first + dfa_state*cov_symbols +
    // symbol. dfa_flat is the DFA transition table flattened to the same
    // indexing (kNoTarget for invalid), so NFA-mode stepping can advance the
    // mirrored DFA state with a single load.
    uint32_t cov_first = 0;
    uint32_t cov_symbols = 0;
    uint32_t cov_states = 0;
    std::vector<uint32_t> dfa_flat;
    // The compiled step function (see runtime/step.h): lowered from the
    // frozen automaton at Register() time, tier per RuntimeOptions::step_tier.
    StepProgram step;
  };

  // One body-event candidate; function candidates carry their compiled
  // matcher (ops in match_pool_), field candidates match their pattern.
  struct Candidate {
    uint32_t class_id = 0;
    uint16_t symbol = 0;
    CompiledMatch match;
  };

  // Compiled routing for one (symbol, call/return) key — or, in field_plan_,
  // for one field symbol (only the candidate range is used there). All
  // ranges index the flat pools below; every hot-path decision is a couple
  // of loads from this one cache line.
  struct KeyPlan {
    uint32_t cand_first = 0;  // candidate_pool_ range
    uint32_t cand_count = 0;
    int32_t bound_slot = -1;    // ≥0: this key opens a temporal bound
    int32_t cleanup_slot = -1;  // ≥0: this key closes a temporal bound
    int32_t stack_slot = -1;    // ≥0: incallstack()-tracked function
    uint8_t start_contexts = 0;  // bit0: per-thread classes start here; bit1: global
    uint32_t start_first = 0;  // class_pool_ range: classes to activate (naive mode)
    uint32_t start_count = 0;
    uint32_t end_first = 0;  // class_pool_ range: classes to clean up (naive mode)
    uint32_t end_count = 0;
    uint32_t closes_first = 0;  // closed_bounds_pool_ range: bound slots closed here
    uint32_t closes_count = 0;
    // Union of the *unpinned* global shards any event with this key can
    // touch: candidate classes' shards plus the bound/cleanup slot masks it
    // opens or closes. ShardStageMask()'s answer — the queue's routing key.
    uint64_t touched_shards = 0;
  };

  // One global-automaton storage shard: a runtime-owned context behind its
  // own lock (heap-allocated so the vector never needs to move a Spinlock).
  //
  // Ownership protocol (see the header comment). The spinlock serialises
  // *intruders* — inline/sync callers and non-owning scoped passes. The
  // owning consumer claims the shard per batch without the lock:
  //
  //   owner, per batch:   owner_active.store(true, seq_cst);
  //                       if (intruders.load(seq_cst) == 0) → lock-free claim
  //                       else retreat (owner_active = false) and take the
  //                       lock like everyone else;
  //                       release: owner_active.store(false, release).
  //   intruder, always:   intruders.fetch_add(1, seq_cst);
  //                       lock.lock();
  //                       while (owner_active.load(seq_cst)) spin;  // owner
  //                       ... critical section under the lock ...   // retreats
  //                       lock.unlock();
  //                       intruders.fetch_sub(1, release);
  //
  // The seq_cst store-then-load on each side (owner_active/intruders,
  // Dekker-style) guarantees at least one side sees the other: either the
  // owner sees the intruder and falls back to the lock, or the intruder
  // sees owner_active and waits for the owner's release store (the
  // intruder's load sits after the owner's store in the seq_cst order, so
  // it cannot read the stale false). Every hand-over then gives the usual
  // release/acquire happens-before edge — the owner's release of
  // owner_active, or the intruder's unlock + release-decrement that the
  // owner's next seq_cst intruders load acquires — so the shard's plain
  // state stays single-writer without fences TSan cannot model.
  // Deadlock-free: the owner retreats *before* blocking on the lock, and
  // everyone acquires multi-shard sets in ascending index order.
  struct GlobalShard {
    Spinlock lock;
    std::atomic<uint32_t> intruders{0};
    std::atomic<bool> owner_active{false};
    // Who owns this shard (-1: locked/legacy). Bookkeeping only — used to
    // count handoffs and by tests; the claim protocol never reads it.
    std::atomic<int32_t> owner_id{-1};
    std::unique_ptr<ThreadContext> context;
  };

  // The bindings of an unbound event (DispatchUnbound's profile view).
  static const BindingSet kNoBindings;

  // Routing keys: function symbol + call/return discriminator.
  static uint64_t CallKey(Symbol function) { return (uint64_t{function} << 1) | 1; }
  static uint64_t ReturnKey(Symbol function) { return uint64_t{function} << 1; }

  // Recompiles the flat dispatch plan from classes_ (idempotent; run after
  // every Register() so repeated registration stays legal).
  void CompilePlan();
  // Grows `ctx`'s slot-indexed vectors to the current plan's extents when
  // Register() ran after the context was created (the entry points call it
  // only on a plan-generation mismatch).
  void EnsurePlanCapacity(ThreadContext& ctx);
  bool PlanCurrent(const ThreadContext& ctx) const {
    return ctx.plan_generation_ == plan_generation_;
  }

  // The storage context hosting `class_id`'s instances. Every storage
  // context is sized for the current plan: shard contexts are rebuilt by
  // Register(), per-thread ones grown by the entry points.
  ThreadContext& ContextFor(ThreadContext& ctx, uint32_t class_id) {
    const CompiledClass& cls = classes_[class_id];
    return cls.is_global ? *shards_[cls.shard]->context : ctx;
  }
  int32_t StackSlotFor(Symbol function) const {
    const uint64_t key = CallKey(function);
    return key < function_plan_.size() ? function_plan_[key].stack_slot : -1;
  }

  // OnEvent minus the gate and the plan-generation check: the shared core of
  // the one-at-a-time and batch entry points (records to the flight recorder,
  // then routes by kind).
  void DispatchEvent(ThreadContext& ctx, const Event& event);
  // The batch loop with DispatchEvent's per-event prologue hoisted out —
  // valid only with no active scope, no flight recorder on this context and
  // no dispatch timing (OnEvents checks once per batch).
  void DispatchBatchPlain(ThreadContext& ctx, std::span<const Event> events);

  void ProcessFunctionEvent(ThreadContext& ctx, const Event& event);
  void ProcessFieldEvent(ThreadContext& ctx, const Event& event);
  void ProcessSiteEvent(ThreadContext& ctx, const Event& event);

  // True when the calling thread already holds (locked or owner-claimed)
  // `shard` via a batch entry point; per-event acquisitions must then be
  // elided (the spinlock is not recursive).
  bool ShardHeld(uint32_t shard) const {
    return engaged_runtime_ == this && ((engaged_shards_ >> shard) & 1) != 0;
  }

  // The active scope's view of the plan (thread-local; null scope — or a
  // scope belonging to a different Runtime — means full inline semantics).
  const DispatchScope* ActiveScope() const {
    return scope_runtime_ == this ? active_scope_ : nullptr;
  }
  bool ScopeContext() const {
    const DispatchScope* scope = ActiveScope();
    return scope == nullptr || scope->context;
  }
  bool ClassInScope(const CompiledClass& cls) const {
    const DispatchScope* scope = ActiveScope();
    if (scope == nullptr) {
      return true;
    }
    if (!cls.is_global || cls.pinned) {
      return scope->context;
    }
    return ((scope->shard_mask >> cls.shard) & 1) != 0;
  }
  // Shards the active scope may touch: pinned shards ride with the context
  // stage, unpinned shards follow the scope's mask.
  uint64_t AllowedShardMask() const {
    const DispatchScope* scope = ActiveScope();
    if (scope == nullptr) {
      return ~uint64_t{0};
    }
    return (scope->context ? pinned_shard_mask_ : 0) |
           (scope->shard_mask & unpinned_shard_mask_);
  }

  // The intruder side of the shard-ownership protocol (see GlobalShard).
  // Const (with the handoff counter bumped through an atomic_ref) so const
  // accessors like shard_pool_overflows() can intrude too.
  void LockShardAsIntruder(GlobalShard& shard) const;
  void UnlockShardAsIntruder(GlobalShard& shard) const;
  class ShardGuard;

  // Runs the registered metrics augmenter (if any) over `snapshot`.
  void AugmentSnapshot(metrics::Snapshot& snapshot) const;

  // Live-context registry (profile pool marks and stats reset): every
  // ThreadContext registers for its lifetime; unregistration folds its pool
  // marks into the retired maxima so a destroyed context's peak still shows
  // in CollectProfile().
  void RegisterContext(ThreadContext* ctx);
  void UnregisterContext(ThreadContext* ctx);
  // Per-context SlotPool capacity: the plan-hint total when hints are
  // loaded, else the instances_per_context knob.
  size_t ContextPoolCapacity() const {
    return pool_capacity_hint_ != 0 ? pool_capacity_hint_ : options_.instances_per_context;
  }

  void HandleBoundStart(ThreadContext& ctx, const KeyPlan& plan);
  void HandleBoundEnd(ThreadContext& ctx, const KeyPlan& plan);
  // Lock-aware wrappers: take the class's shard lock for global classes.
  void ActivateClassSharded(ThreadContext& ctx, uint32_t class_id);
  void CleanupClassSharded(ThreadContext& ctx, uint32_t class_id);
  void ActivateClass(ThreadContext& ctx, uint32_t class_id);
  void CleanupClass(ThreadContext& ctx, uint32_t class_id);
  // Returns true if the class is (or, lazily, becomes) active. For global
  // classes the caller must hold the class's shard lock. Takes the class,
  // storage context and state the caller already resolved: every candidate
  // resolves them exactly once.
  bool EnsureActive(ThreadContext& ctx, const CompiledClass& cls, ThreadContext& storage,
                    ClassState& state);

  // One function or field candidate whose pattern matched: takes the
  // class's shard, activates it lazily, dispatches, and accounts an
  // unconsumed event (strict violation or ignored).
  void HandleEvent(ThreadContext& ctx, const Candidate& candidate, const BindingSet& bindings);
  void HandleSiteEvent(ThreadContext& ctx, uint32_t class_id, const BindingSet& bindings);
  // Shared instance-matching core: steps exact matches or clones consistent
  // instances on any of `symbols`; returns true if any instance stepped.
  // Routes an unbound event with no handlers to DispatchUnbound; everything
  // else runs DispatchTwoPass over the walks of one route, decided once:
  // the probed key bucket when the bindings are exactly the class's key
  // variables, the prefix bucket when they bind the profile-hinted prefix,
  // and the (semantics-identical) linear scan otherwise.
  bool DispatchToInstances(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                           const BindingSet& bindings, std::span<const uint16_t> symbols);
  // The flattened path: an unbound event exact-matches every live instance,
  // so with no handlers the whole dispatch is one batch kernel call over
  // the population. Same stats, coverage and profile attribution as the
  // scan it replaces. Also the site fast path in ProcessSiteEvent.
  bool DispatchUnbound(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                       std::span<const uint16_t> symbols);
  // Runs `run` (one dispatch decision of `cls` on `storage`) under the
  // profiler: route attribution plus the 1-in-64 latency sample. One null
  // check when profiling is off.
  template <typename Run>
  auto Profiled(ThreadContext& storage, const CompiledClass& cls, const ClassState& state,
                const BindingSet& bindings, profile::Cell route, Run&& run);
  // Paper §4.4.1's two passes over one route's candidates: pass 1 steps the
  // exact matches `exact_walk` visits; when there are none, pass 2 clones
  // the consistent parents `parent_walk` visits, deduplicated against this
  // event's earlier clones and filed through IndexInstance. The routes
  // (probed bucket + unkeyed tail, prefix bucket + bucket and tail2, or the
  // whole population twice) differ only in their walks.
  template <typename ExactWalk, typename ParentWalk>
  bool DispatchTwoPass(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                       const BindingSet& bindings, std::span<const uint16_t> symbols,
                       ExactWalk&& exact_walk, ParentWalk&& parent_walk);

  // Files a freshly created slot under the class's index partition (keyed
  // bucket or unkeyed tail) and, for a prefix-hinted class, its secondary
  // partition (prefix bucket through next2(), or the prefix-unbound tail2).
  // `instances` membership is the caller's job. Files nothing while the
  // class's index is not built (state.indexed).
  void IndexInstance(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                     uint32_t slot);

  // Steps a stored instance (slot form) or a stack-built clone candidate.
  // `storage` is the context owning (or about to own) the instance — the
  // metrics shard the transition is attributed to.
  bool StepSlot(const CompiledClass& cls, ThreadContext& storage, uint32_t slot,
                std::span<const uint16_t> symbols);
  bool StepInstance(const CompiledClass& cls, ThreadContext& storage, Instance& instance,
                    std::span<const uint16_t> symbols);
  // One indirect call into the class's compiled step program (runtime/step.h).
  bool StepCore(const CompiledClass& cls, automata::StateSet& states, uint32_t& dfa_state,
                std::span<const uint16_t> symbols, automata::StateSet* from_out,
                uint16_t* symbol_out) {
    return cls.step.Run(collector_.get(), states, dfa_state, symbols, from_out, symbol_out);
  }

  // `owner`: the context whose stats block counts the violation (the one
  // the caller holds). `highlight`: the automaton states live at the
  // violation (0 when the call site cannot cheaply know them) — rendered
  // into the forensic DOT graph.
  void ReportViolation(ThreadContext& owner, uint32_t class_id, ViolationKind kind,
                       const std::string& detail, automata::StateSet highlight = 0);
  // Harvests the flight recorder and renders the temporal backtrace plus the
  // highlighted DOT graph for one violating class.
  std::string BuildForensics(uint32_t class_id, automata::StateSet highlight) const;

  // Statistics ownership (DESIGN.md): every hot-path counter lives in the
  // stats block of a context the bumping thread holds exclusively — the
  // storage context for class-scoped counts, the entry context for
  // event-level ones — so a bump is a relaxed load and store, never an RMW.
  // stats() reads the same words with relaxed loads.
  static void Bump(uint64_t& counter, uint64_t amount = 1) {
    std::atomic_ref<uint64_t> ref(counter);
    ref.store(ref.load(std::memory_order_relaxed) + amount, std::memory_order_relaxed);
  }
  // Rare counters with no exclusive context (queue accounting, shard
  // handoffs, truncated events the interest gate drops): one atomic RMW on
  // the shared block.
  void BumpShared(uint64_t& counter, uint64_t amount = 1) const {
    std::atomic_ref<uint64_t>(counter).fetch_add(amount, std::memory_order_relaxed);
  }

  // Per-class metrics bump, attributed to `storage`'s shard. One null check
  // when metrics are off; the spill path only runs for events racing a late
  // Register() (the shard predates the class).
  void BumpClass(ThreadContext& storage, uint32_t class_id, metrics::ClassCounter kind,
                 uint64_t amount = 1) {
    metrics::Shard* shard = storage.metrics_;
    if (shard == nullptr) {
      return;
    }
    if (class_id < shard->class_capacity()) {
      shard->Bump(class_id, kind, amount);
    } else {
      collector_->BumpSpill(class_id, kind, amount);
    }
  }

  // `storage`'s profile shard if it can record `class_id`, else null (after
  // routing additive cells racing a late Register() to the spill block —
  // peaks and sketches have no spill form and are simply not recorded on
  // that cold path). One null check when profiling is off.
  profile::Shard* ProfileShard(ThreadContext& storage, uint32_t class_id) {
    profile::Shard* shard = storage.profile_;
    if (shard == nullptr || class_id >= shard->class_capacity()) [[unlikely]] {
      return nullptr;
    }
    return shard;
  }

  // The profiler's view of one dispatch decision (called from
  // DispatchToInstances and the flattened site path): fan-out, probe/scan
  // attribution, partial-binding analysis per tracked key variable,
  // distinct-key sketches, and 1-in-64 sampled latency. Out of line — the
  // hot path pays only the shard null check.
  void ProfileDispatch(ThreadContext& storage, const CompiledClass& cls,
                       const ClassState& state, const BindingSet& bindings,
                       profile::Cell served_by);

  // --- timed clauses (within_ms / rate) ---

  // The monotonic clock behind every runtime clock read — event stamping,
  // the dispatch-latency bracket and the profile latency sampler — so
  // RuntimeOptions::now_ns can substitute a deterministic source in tests.
  uint64_t NowNs() const;
  // Clamps `storage`'s clock forward to `ts_ns` (counting regressions) and
  // fires any deadlines that are strictly past. Runs *before* the event is
  // dispatched into the context: an event arriving at ts == deadline can
  // still satisfy its region, anything later fires first.
  void TimedTick(ThreadContext& storage, uint64_t ts_ns);
  void FireExpired(ThreadContext& storage, uint64_t now_ns);
  // Post-dispatch bookkeeping for one timed class: recompute the union of
  // live instance states, arm/disarm within_ms deadlines on armed_mask
  // occupancy edges, and advance rate windows (`stepped` gates counting to
  // events the class actually consumed).
  void TimedObserve(ThreadContext& storage, const CompiledClass& cls, ClassState& state,
                    std::span<const uint16_t> symbols, bool stepped);
  // Cleanup-time teardown: cancels armed deadlines (serial bump) and resets
  // rate windows — the bound closed, so its clauses are settled.
  void ResetTimedCells(ClassState& state);

  // Satellite fix: a class whose index_min_population gate keeps forcing
  // scans would silently degrade to O(live) dispatch; once the gated-scan
  // tally crosses the warm-up threshold, OnWarning fires once for the class.
  static constexpr uint32_t kGateWarnThreshold = 64;
  void NoteGatedScan(uint32_t class_id);

  RuntimeOptions options_;
  // Counters bumped from threads holding no context (see BumpShared).
  mutable RuntimeStats shared_stats_;
  // Async ingestion interposition (SetIngestHook): read first in OnEvent.
  std::atomic<IngestHook> ingest_hook_{nullptr};
  std::atomic<void*> ingest_state_{nullptr};
  std::vector<CompiledClass> classes_;
  std::vector<EventHandler*> handlers_;
  std::unordered_map<std::string, uint32_t> by_name_;

  // --- the compiled dispatch plan (rebuilt by CompilePlan()) ---
  std::vector<KeyPlan> function_plan_;  // by (symbol << 1) | is_call
  std::vector<KeyPlan> field_plan_;     // by field symbol (candidates only)
  // Interest table (see Observes()): one byte per (symbol, event kind),
  // indexed symbol * 3 + kind for calls, returns and field stores.
  std::vector<uint8_t> interest_;
  // Bumped by every Register(); contexts compare it to their own.
  uint64_t plan_generation_ = 0;
  std::vector<Candidate> candidate_pool_;
  std::vector<MatchOp> match_pool_;  // function candidates' compiled matchers
  std::vector<uint32_t> class_pool_;         // naive-mode start/end class lists
  std::vector<int32_t> closed_bounds_pool_;  // bound slots closed per end key
  // Shard masks, by slot: which shards host global classes sharing the slot.
  std::vector<uint64_t> bound_slot_shards_;
  std::vector<uint64_t> cleanup_slot_shards_;
  uint32_t bound_slot_count_ = 0;
  uint32_t cleanup_slot_count_ = 0;
  uint32_t stack_slot_count_ = 0;
  bool any_global_ = false;
  // Any registered class carries timed clauses (CompilePlan). False keeps
  // the timed machinery entirely off the hot path: no stamping, no clock
  // reads, no wheel probes.
  bool any_timed_ = false;
  // Shard partition (CompilePlan): pinned classes segregate onto their own
  // shards so a pinned and an unpinned class never share a shard context —
  // the context and shard stages of a scoped dispatch would otherwise race
  // on shared bound-epoch slots.
  uint64_t pinned_shard_mask_ = 0;
  uint64_t unpinned_shard_mask_ = 0;

  // Live-context registry (see RegisterContext). Declared before shards_ so
  // the shard contexts' destructors can still unregister while the runtime
  // itself is being destroyed (members destruct in reverse order).
  mutable Spinlock contexts_lock_;
  std::vector<ThreadContext*> live_contexts_;
  uint64_t retired_pool_high_water_ = 0;  // guarded by contexts_lock_
  uint64_t retired_pool_capacity_ = 0;
  RuntimeStats retired_stats_;  // unregistered contexts' blocks; guarded likewise

  // Global-context storage, sharded (shared across threads, each shard
  // spinlock-serialised).
  uint32_t shard_count_ = 1;
  std::vector<std::unique_ptr<GlobalShard>> shards_;

  // The metrics collector (metrics_mode != off); owns every context's shard
  // and the transition-coverage bitmap.
  std::unique_ptr<metrics::Collector> collector_;
  // Cached collector_->histograms_enabled(): the per-event timing decision
  // must not cost a pointer chase when metrics are off.
  bool time_dispatch_ = false;

  // The workload profiler (options_.profile): owns every context's profile
  // shard; merged by CollectProfile().
  std::unique_ptr<profile::Collector> profile_collector_;
  // Per-context SlotPool capacity resolved from plan hints in CompilePlan()
  // (0: no hints loaded; use options_.instances_per_context).
  size_t pool_capacity_hint_ = 0;
  // Gated-scan tallies behind the once-only index-gate warning
  // (NoteGatedScan), by class id; rebuilt zeroed on every CompilePlan().
  std::unique_ptr<std::atomic<uint32_t>[]> gate_scans_;
  size_t gate_scan_count_ = 0;

  // The flight recorder (trace_mode != off) and the violation sequence it
  // captures alongside the event stream.
  std::unique_ptr<trace::Recorder> recorder_;
  mutable Spinlock violation_log_lock_;
  std::vector<std::pair<ViolationKind, std::string>> violation_log_;

  // Snapshot augmentation (SetMetricsAugmenter): the async queue's hook for
  // folding its per-producer/per-consumer tallies into CollectMetrics().
  mutable Spinlock augmenter_lock_;
  MetricsAugmenter metrics_augmenter_;

  // The runtime whose batch entry point currently holds shards on this
  // thread, and which shards (a bit per index). Thread-local so concurrent
  // batches on other threads still serialise on the shards themselves.
  static thread_local const Runtime* engaged_runtime_;
  static thread_local uint64_t engaged_shards_;
  // The DispatchScope restricting dispatch on this thread (null: full) and
  // the runtime it belongs to.
  static thread_local const Runtime* scope_runtime_;
  static thread_local const DispatchScope* active_scope_;
  // The timestamp of the event currently being dispatched on this thread
  // (set by DispatchEvent/DispatchBatchPlain when any_timed_; the timed
  // hooks read it instead of re-deriving the clock per class).
  static thread_local uint64_t current_event_ts_;
};

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_RUNTIME_H_
