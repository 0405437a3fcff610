#include "runtime/runtime.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "automata/dot.h"
#include "automata/stepc.h"
#include "runtime/coverage.h"
#include "support/log.h"
#include "support/smallvec.h"
#include "trace/forensics.h"

namespace tesla::runtime {

// A shard guard that engages only when asked: per-event acquisitions are
// skipped when a batch entry point already holds the shard for the whole
// batch (the spinlock is not recursive). Engaged acquisition always runs
// the intruder side of the ownership protocol — correct whether the shard
// is consumer-owned or plain locked.
class Runtime::ShardGuard {
 public:
  ShardGuard(const Runtime& rt, uint32_t shard, bool engage)
      : rt_(rt), shard_(engage ? rt.shards_[shard].get() : nullptr) {
    if (shard_ != nullptr) {
      rt_.LockShardAsIntruder(*shard_);
    }
  }
  ~ShardGuard() {
    if (shard_ != nullptr) {
      rt_.UnlockShardAsIntruder(*shard_);
    }
  }

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  const Runtime& rt_;
  GlobalShard* shard_;
};

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kBadSite:
      return "assertion failed at site";
    case ViolationKind::kBadCleanup:
      return "assertion incomplete at bound exit";
    case ViolationKind::kStrictEvent:
      return "unexpected event (strict automaton)";
    case ViolationKind::kOverflow:
      return "instance pool overflow";
    case ViolationKind::kDeadlineExpired:
      return "within_ms() deadline expired";
    case ViolationKind::kRateExceeded:
      return "rate() limit exceeded";
  }
  return "?";
}

namespace {

// The interest table's index is symbol * 3 + kind.
static_assert(static_cast<int>(EventKind::kFunctionCall) == 0 &&
              static_cast<int>(EventKind::kFunctionReturn) == 1 &&
              static_cast<int>(EventKind::kFieldStore) == 2);

uint64_t LoadRelaxed(const uint64_t& word) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(word)).load(std::memory_order_relaxed);
}

// Adds every counter of `block` into `total`. Relaxed loads: `block` may be
// a live context's, bumped concurrently by the thread holding it.
void AccumulateStats(RuntimeStats& total, const RuntimeStats& block) {
#define TESLA_STATS_ADD(name, desc, replay) total.name += LoadRelaxed(block.name);
  TESLA_RUNTIME_STATS(TESLA_STATS_ADD)
#undef TESLA_STATS_ADD
}

// Zeroes `block` with relaxed stores, so a concurrent stats() never races.
void ClearStats(RuntimeStats& block) {
#define TESLA_STATS_CLEAR(name, desc, replay) \
  std::atomic_ref<uint64_t>(block.name).store(0, std::memory_order_relaxed);
  TESLA_RUNTIME_STATS(TESLA_STATS_CLEAR)
#undef TESLA_STATS_CLEAR
}

}  // namespace

// --- ThreadContext ---

ThreadContext::ThreadContext(Runtime& runtime)
    : runtime_(runtime),
      plan_generation_(runtime.plan_generation_),
      classes_(runtime.classes_.size()),
      store_(runtime.ContextPoolCapacity()),
      bound_epochs_(runtime.bound_slot_count_),
      active_classes_(runtime.cleanup_slot_count_),
      stack_depth_(runtime.stack_slot_count_, 0) {
  if (runtime.recorder_ != nullptr) {
    trace_ = runtime.recorder_->RegisterContext();
  }
  if (runtime.collector_ != nullptr) {
    metrics_ = runtime.collector_->RegisterShard();
  }
  if (runtime.profile_collector_ != nullptr) {
    profile_ = runtime.profile_collector_->RegisterShard();
  }
  runtime.RegisterContext(this);
}

ThreadContext::~ThreadContext() {
  for (ClassState& state : classes_) {
    for (uint32_t slot : state.instances) {
      store_.Free(slot);
    }
    state.instances.clear();
  }
  runtime_.UnregisterContext(this);
}

bool ThreadContext::InCallStack(Symbol function) const {
  const int32_t slot = runtime_.StackSlotFor(function);
  return slot >= 0 && static_cast<size_t>(slot) < stack_depth_.size() &&
         stack_depth_[slot] > 0;
}

// --- Runtime ---

thread_local const Runtime* Runtime::engaged_runtime_ = nullptr;
thread_local uint64_t Runtime::engaged_shards_ = 0;
thread_local const Runtime* Runtime::scope_runtime_ = nullptr;
thread_local const DispatchScope* Runtime::active_scope_ = nullptr;
thread_local uint64_t Runtime::current_event_ts_ = 0;
const BindingSet Runtime::kNoBindings{};

// The intruder side of the shard-ownership protocol (see GlobalShard in
// runtime.h for the full memory-ordering argument). The first owner_active
// load must be seq_cst: it has to order after the owner's claim store in
// the single total order, or it could read a stale false while the owner is
// mid-claim. The spin itself is rare — the owner retreats as soon as it
// observes the intruder count.
void Runtime::LockShardAsIntruder(GlobalShard& shard) const {
  shard.intruders.fetch_add(1, std::memory_order_seq_cst);
  shard.lock.lock();
  if (shard.owner_id.load(std::memory_order_relaxed) >= 0) {
    // An inline/sync dispatch landed on a consumer-owned shard: the handoff
    // path (const accessors intrude too, hence the shared block).
    BumpShared(shared_stats_.shard_handoffs);
  }
  while (shard.owner_active.load(std::memory_order_seq_cst)) {
    // Owner mid-claim: it will see our intruder announcement and retreat.
  }
}

void Runtime::UnlockShardAsIntruder(GlobalShard& shard) const {
  // Unlock before decrementing: the owner's fast claim reads intruders == 0
  // as "no one is in (or can be entering) the critical section".
  shard.lock.unlock();
  shard.intruders.fetch_sub(1, std::memory_order_release);
}

Runtime::Runtime(RuntimeOptions options) : options_(std::move(options)) {
  const size_t requested = options_.global_shards;
  shard_count_ = static_cast<uint32_t>(requested < 1 ? 1 : (requested > 64 ? 64 : requested));
  if (options_.trace_mode != trace::TraceMode::kOff) {
    recorder_ = std::make_unique<trace::Recorder>(trace::TraceConfig{
        options_.trace_mode, options_.trace_ring_capacity, options_.trace_capture_limit});
  }
  if (options_.metrics_mode != metrics::MetricsMode::kOff) {
    collector_ = std::make_unique<metrics::Collector>(options_.metrics_mode);
    time_dispatch_ = collector_->histograms_enabled();
  }
  if (options_.profile) {
    profile_collector_ = std::make_unique<profile::Collector>();
  }
}

void Runtime::RegisterContext(ThreadContext* ctx) {
  LockGuard<Spinlock> guard(contexts_lock_);
  live_contexts_.push_back(ctx);
}

void Runtime::UnregisterContext(ThreadContext* ctx) {
  LockGuard<Spinlock> guard(contexts_lock_);
  live_contexts_.erase(std::remove(live_contexts_.begin(), live_contexts_.end(), ctx),
                       live_contexts_.end());
  // Fold the departing pool's marks into the retired maxima so its peak
  // still shows in CollectProfile()'s capacity-headroom figures.
  retired_pool_high_water_ =
      std::max<uint64_t>(retired_pool_high_water_, ctx->store_.high_water());
  retired_pool_capacity_ = std::max<uint64_t>(retired_pool_capacity_, ctx->store_.capacity());
  // Its counters too: stats() keeps reporting a destroyed context's work.
  AccumulateStats(retired_stats_, ctx->stats_);
}

Runtime::~Runtime() = default;

Status Runtime::Register(const automata::Manifest& manifest) {
  for (const automata::Automaton& source : manifest.automata) {
    if (source.variables.size() > kMaxVariables) {
      return Error{"automaton '" + source.name + "' uses " +
                   std::to_string(source.variables.size()) + " variables (max " +
                   std::to_string(kMaxVariables) + ")"};
    }
    if (source.state_count > automata::kMaxStates) {
      return Error{"automaton '" + source.name + "' exceeds the state limit"};
    }

    CompiledClass cls;
    cls.automaton = source;
    cls.automaton.Finalize();
    cls.dfa = automata::Determinize(cls.automaton);
    cls.is_global = source.context == ast::Context::kGlobal;

    const automata::EventPattern& init = cls.automaton.alphabet[cls.automaton.init_symbol];
    const automata::EventPattern& cleanup =
        cls.automaton.alphabet[cls.automaton.cleanup_symbol];
    cls.start_key = init.kind == automata::PatternKind::kFunctionCall ? CallKey(init.function)
                                                                      : ReturnKey(init.function);
    cls.end_key = cleanup.kind == automata::PatternKind::kFunctionCall
                      ? CallKey(cleanup.function)
                      : ReturnKey(cleanup.function);

    cls.initial_states = cls.automaton.InitialInstanceStates();
    if (cls.initial_states == 0) {
      return Error{"automaton '" + source.name + "' has no «init» transition"};
    }
    cls.initial_dfa_state = cls.dfa.Step(0, cls.automaton.init_symbol);
    if (cls.initial_dfa_state == automata::Dfa::kNoTarget) {
      return Error{"automaton '" + source.name + "' has a malformed DFA"};
    }

    uint32_t id = static_cast<uint32_t>(classes_.size());
    cls.id = id;
    for (uint16_t symbol = 0; symbol < cls.automaton.alphabet.size(); symbol++) {
      if (symbol == cls.automaton.init_symbol || symbol == cls.automaton.cleanup_symbol) {
        continue;
      }
      if (cls.automaton.alphabet[symbol].kind == automata::PatternKind::kInCallStack) {
        cls.site_variants.push_back(symbol);
      }
    }
    by_name_.emplace(cls.automaton.name, id);
    classes_.push_back(std::move(cls));
  }

  CompilePlan();
  plan_generation_++;

  // (Re)create the sharded global stores now that classes and the plan are
  // known; their contexts size themselves from the plan's slot counts.
  shards_.clear();
  shards_.reserve(shard_count_);
  for (uint32_t i = 0; i < shard_count_; i++) {
    auto shard = std::make_unique<GlobalShard>();
    shard->context = std::make_unique<ThreadContext>(*this);
    shards_.push_back(std::move(shard));
  }
  return Status::Ok();
}

// Compiles all per-symbol routing into flat Symbol-indexed tables. Symbols
// are dense interner indices; freezing the interner here pins the table
// extent — anything interned later cannot name a registered pattern and
// falls off the bounds check in O(1).
void Runtime::CompilePlan() {
  StringInterner& interner = GlobalInterner();
  interner.Freeze();
  const size_t symbols = interner.size();

  function_plan_.assign(symbols * 2, KeyPlan{});
  field_plan_.assign(symbols, KeyPlan{});
  interest_.assign(symbols * 3, 0);
  candidate_pool_.clear();
  match_pool_.clear();
  class_pool_.clear();
  closed_bounds_pool_.clear();
  bound_slot_count_ = 0;
  cleanup_slot_count_ = 0;
  stack_slot_count_ = 0;
  any_global_ = false;
  any_timed_ = false;

  // Shard partition: a global class whose site dispatch reads the
  // producer's call stack (incallstack() variants) is *pinned* — it must be
  // handled in the context stage of a scoped dispatch, under its lock. A
  // pinned and an unpinned class must never share a shard context: the two
  // stages of one scoped record would race on shared bound-epoch slots. So
  // the top shards are reserved for pinned classes when both kinds exist;
  // with a single shard the whole store degrades to pinned (always locked).
  bool any_pinned = false;
  bool any_unpinned = false;
  for (CompiledClass& cls : classes_) {
    cls.pinned = cls.is_global && !cls.site_variants.empty();
    cls.timed = !cls.automaton.timed.empty();
    any_timed_ |= cls.timed;
    // Timed classes must not take the flattened site path: it bypasses the
    // timed observation hooks (deadline arming follows instance occupancy).
    cls.site_fast = cls.automaton.has_site && cls.site_variants.empty() && !cls.timed;
    any_pinned |= cls.pinned;
    any_unpinned |= cls.is_global && !cls.pinned;
  }
  uint32_t pinned_shards = 0;
  if (any_pinned) {
    if (shard_count_ == 1 || !any_unpinned) {
      pinned_shards = shard_count_;
      for (CompiledClass& cls : classes_) {
        cls.pinned = cls.is_global;
      }
    } else {
      pinned_shards = shard_count_ >= 8 ? shard_count_ / 8 : 1;
    }
  }
  const uint32_t unpinned_shards = shard_count_ - pinned_shards;
  pinned_shard_mask_ = 0;
  unpinned_shard_mask_ = 0;
  if (any_pinned || any_unpinned) {
    for (uint32_t s = 0; s < shard_count_; s++) {
      if (s < unpinned_shards) {
        unpinned_shard_mask_ |= uint64_t{1} << s;
      } else {
        pinned_shard_mask_ |= uint64_t{1} << s;
      }
    }
  }

  // Pass 1: dense slot assignment, shard placement, candidate gathering.
  std::unordered_map<uint64_t, int32_t> bound_slots;
  std::unordered_map<uint64_t, int32_t> cleanup_slots;
  std::vector<std::vector<Candidate>> call_cands(symbols);
  std::vector<std::vector<Candidate>> return_cands(symbols);
  std::vector<std::vector<Candidate>> field_cands(symbols);

  for (CompiledClass& cls : classes_) {
    // Key-variable analysis: the variables clone events can bind form the
    // instance index's key tuple (kept as an ascending list for extraction).
    cls.key_mask = cls.automaton.CloneBoundMask();
    cls.key_count = 0;
    for (uint8_t var = 0; var < kMaxVariables; var++) {
      if ((cls.key_mask & (1u << var)) != 0) {
        cls.key_vars[cls.key_count++] = var;
      }
    }
    // Plan-hint resolution: the per-class index gate (hint override or the
    // global knob) and the profile-chosen secondary prefix index. A prefix
    // position outside the class's key set (stale profile, renamed class)
    // is ignored rather than applied wrong.
    cls.min_population = static_cast<uint32_t>(options_.index_min_population);
    cls.prefix_pos = CompiledClass::kNoPrefix;
    cls.prefix_var = 0;
    if (const profile::ClassHint* hint = options_.plan_hints.Find(cls.automaton.name)) {
      if (hint->min_population >= 0) {
        cls.min_population = static_cast<uint32_t>(hint->min_population);
      }
      if (hint->prefix_key_pos >= 0 && hint->prefix_key_pos < cls.key_count &&
          static_cast<size_t>(hint->prefix_key_pos) < profile::kMaxKeyVars) {
        cls.prefix_pos = static_cast<uint8_t>(hint->prefix_key_pos);
        cls.prefix_var = cls.key_vars[cls.prefix_pos];
      }
    }
    cls.bound_slot =
        bound_slots.emplace(cls.start_key, static_cast<int32_t>(bound_slots.size()))
            .first->second;
    cls.cleanup_slot =
        cleanup_slots.emplace(cls.end_key, static_cast<int32_t>(cleanup_slots.size()))
            .first->second;
    if (cls.is_global) {
      cls.shard = cls.pinned ? unpinned_shards + cls.id % pinned_shards
                             : cls.id % unpinned_shards;
      any_global_ = true;
    } else {
      cls.shard = 0;
    }

    // Forensics filter: every function/field symbol the class's patterns
    // name, bound init/cleanup functions included.
    cls.trace_symbols.clear();
    auto add_trace_symbol = [&cls](uint32_t symbol) {
      if (std::find(cls.trace_symbols.begin(), cls.trace_symbols.end(), symbol) ==
          cls.trace_symbols.end()) {
        cls.trace_symbols.push_back(symbol);
      }
    };
    for (const automata::EventPattern& pattern : cls.automaton.alphabet) {
      switch (pattern.kind) {
        case automata::PatternKind::kFunctionCall:
        case automata::PatternKind::kFunctionReturn:
        case automata::PatternKind::kInCallStack:
          add_trace_symbol(pattern.function);
          break;
        case automata::PatternKind::kFieldAssign:
          add_trace_symbol(pattern.field);
          break;
        case automata::PatternKind::kAssertionSite:
          break;
      }
    }

    for (uint16_t symbol = 0; symbol < cls.automaton.alphabet.size(); symbol++) {
      if (symbol == cls.automaton.init_symbol || symbol == cls.automaton.cleanup_symbol) {
        continue;
      }
      const automata::EventPattern& pattern = cls.automaton.alphabet[symbol];
      switch (pattern.kind) {
        case automata::PatternKind::kFunctionCall:
          call_cands[pattern.function].push_back(
              {cls.id, symbol, LowerFunctionPattern(pattern, match_pool_)});
          break;
        case automata::PatternKind::kFunctionReturn:
          return_cands[pattern.function].push_back(
              {cls.id, symbol, LowerFunctionPattern(pattern, match_pool_)});
          break;
        case automata::PatternKind::kFieldAssign:
          field_cands[pattern.field].push_back({cls.id, symbol, {}});
          break;
        case automata::PatternKind::kInCallStack: {
          KeyPlan& call_plan = function_plan_[CallKey(pattern.function)];
          if (call_plan.stack_slot < 0) {
            const int32_t slot = static_cast<int32_t>(stack_slot_count_++);
            call_plan.stack_slot = slot;
            function_plan_[ReturnKey(pattern.function)].stack_slot = slot;
          }
          break;
        }
        case automata::PatternKind::kAssertionSite:
          break;  // routed by automaton id via site events
      }
    }
  }
  bound_slot_count_ = static_cast<uint32_t>(bound_slots.size());
  cleanup_slot_count_ = static_cast<uint32_t>(cleanup_slots.size());
  bound_slot_shards_.assign(bound_slot_count_, 0);
  cleanup_slot_shards_.assign(cleanup_slot_count_, 0);

  // Pass 2: bound routing per key.
  std::vector<std::vector<uint32_t>> starts(symbols * 2);
  std::vector<std::vector<uint32_t>> ends(symbols * 2);
  std::vector<std::vector<int32_t>> closes(symbols * 2);
  for (const CompiledClass& cls : classes_) {
    starts[cls.start_key].push_back(cls.id);
    ends[cls.end_key].push_back(cls.id);
    auto& closed = closes[cls.end_key];
    if (std::find(closed.begin(), closed.end(), cls.bound_slot) == closed.end()) {
      closed.push_back(cls.bound_slot);
    }
    KeyPlan& start_plan = function_plan_[cls.start_key];
    start_plan.bound_slot = cls.bound_slot;
    start_plan.start_contexts |= cls.is_global ? 2 : 1;
    function_plan_[cls.end_key].cleanup_slot = cls.cleanup_slot;
    if (cls.is_global) {
      bound_slot_shards_[cls.bound_slot] |= uint64_t{1} << cls.shard;
      cleanup_slot_shards_[cls.cleanup_slot] |= uint64_t{1} << cls.shard;
    }
  }

  // Pass 3: flatten the gathered lists into contiguous pools.
  for (uint64_t key = 0; key < symbols * 2; key++) {
    KeyPlan& plan = function_plan_[key];
    const Symbol symbol = static_cast<Symbol>(key >> 1);
    const auto& cands = (key & 1) != 0 ? call_cands[symbol] : return_cands[symbol];
    plan.cand_first = static_cast<uint32_t>(candidate_pool_.size());
    plan.cand_count = static_cast<uint32_t>(cands.size());
    candidate_pool_.insert(candidate_pool_.end(), cands.begin(), cands.end());
    plan.start_first = static_cast<uint32_t>(class_pool_.size());
    plan.start_count = static_cast<uint32_t>(starts[key].size());
    class_pool_.insert(class_pool_.end(), starts[key].begin(), starts[key].end());
    plan.end_first = static_cast<uint32_t>(class_pool_.size());
    plan.end_count = static_cast<uint32_t>(ends[key].size());
    class_pool_.insert(class_pool_.end(), ends[key].begin(), ends[key].end());
    plan.closes_first = static_cast<uint32_t>(closed_bounds_pool_.size());
    plan.closes_count = static_cast<uint32_t>(closes[key].size());
    closed_bounds_pool_.insert(closed_bounds_pool_.end(), closes[key].begin(),
                               closes[key].end());

    // The unpinned shards any event with this key can touch — candidates
    // plus the bound slots it opens or closes (ShardStageMask's answer).
    uint64_t touched = 0;
    for (const Candidate& cand : cands) {
      const CompiledClass& cls = classes_[cand.class_id];
      if (cls.is_global && !cls.pinned) {
        touched |= uint64_t{1} << cls.shard;
      }
    }
    if (plan.bound_slot >= 0) {
      touched |= bound_slot_shards_[plan.bound_slot];
    }
    if (plan.cleanup_slot >= 0) {
      touched |= cleanup_slot_shards_[plan.cleanup_slot];
      for (int32_t slot : closes[key]) {
        touched |= bound_slot_shards_[slot];
      }
    }
    plan.touched_shards = touched & unpinned_shard_mask_;
    interest_[symbol * 3 + ((key & 1) != 0 ? 0 : 1)] =
        plan.cand_count != 0 || plan.bound_slot >= 0 || plan.cleanup_slot >= 0 ||
        plan.stack_slot >= 0;
  }
  for (Symbol symbol = 0; symbol < symbols; symbol++) {
    KeyPlan& plan = field_plan_[symbol];
    interest_[symbol * 3 + 2] = !field_cands[symbol].empty();
    plan.cand_first = static_cast<uint32_t>(candidate_pool_.size());
    plan.cand_count = static_cast<uint32_t>(field_cands[symbol].size());
    candidate_pool_.insert(candidate_pool_.end(), field_cands[symbol].begin(),
                           field_cands[symbol].end());
    uint64_t touched = 0;
    for (const Candidate& cand : field_cands[symbol]) {
      const CompiledClass& cls = classes_[cand.class_id];
      if (cls.is_global && !cls.pinned) {
        touched |= uint64_t{1} << cls.shard;
      }
    }
    plan.touched_shards = touched & unpinned_shard_mask_;
  }

  // Pass 4: flattened DFA tables and (metrics on) the transition-coverage
  // layout. dfa_flat — the DFA transition table in (state × symbol) indexing
  // — is built unconditionally: the step-program lowering reads it whether
  // or not metrics are on. The coverage layout gives each class a dense
  // cov_states × cov_symbols bit grid over the same indexing, 64-aligned so
  // no bitmap word is shared between classes. Reinstalling clears any
  // stamped bits — the bit layout just changed.
  size_t bits = 0;
  for (CompiledClass& cls : classes_) {
    cls.cov_states = static_cast<uint32_t>(cls.dfa.states.size());
    cls.cov_symbols = cls.dfa.symbol_count;
    const size_t grid = static_cast<size_t>(cls.cov_states) * cls.cov_symbols;
    cls.dfa_flat.resize(grid);
    for (uint32_t state = 0; state < cls.cov_states; state++) {
      for (uint32_t symbol = 0; symbol < cls.cov_symbols; symbol++) {
        cls.dfa_flat[state * cls.cov_symbols + symbol] =
            cls.dfa.states[state].transitions[symbol];
      }
    }
    if (collector_ != nullptr) {
      cls.cov_first = static_cast<uint32_t>(bits);
      bits += (grid + 63) & ~size_t{63};
    }
  }
  if (collector_ != nullptr) {
    collector_->EnsureClassCapacity(classes_.size());
    collector_->InstallCoverage(bits);
  }
  if (profile_collector_ != nullptr) {
    profile_collector_->EnsureClassCapacity(classes_.size());
  }

  // Pool sizing from capacity hints: any context can host any class's
  // instances, so the per-context pool is the sum of the per-class hints
  // (unhinted classes get a small floor — they never dispatched in the
  // profile window). Without hints the instances_per_context knob stands.
  pool_capacity_hint_ = 0;
  if (!options_.plan_hints.empty() && !classes_.empty()) {
    size_t total = 0;
    for (const CompiledClass& cls : classes_) {
      const profile::ClassHint* hint = options_.plan_hints.Find(cls.automaton.name);
      total += hint != nullptr && hint->capacity > 0 ? hint->capacity : 16;
    }
    pool_capacity_hint_ = std::clamp<size_t>(total, 64, size_t{1} << 20);
  }

  // Once-only index-gate warning state: one zeroed tally per class.
  gate_scan_count_ = classes_.size();
  gate_scans_ = gate_scan_count_ != 0
                    ? std::make_unique<std::atomic<uint32_t>[]>(gate_scan_count_)
                    : nullptr;

  // Pass 5: compile each class's step program (runtime/step.h). Recompiled
  // for every class on every Register(): classes_ may have reallocated, so
  // even previously compiled programs need their interpreted-tier
  // automaton/DFA pointers refreshed.
  for (CompiledClass& cls : classes_) {
    StepCompileOptions step_options;
    step_options.tier = options_.step_tier;
    step_options.use_dfa = options_.use_dfa;
    step_options.coverage = collector_ != nullptr;
    step_options.cov_first = cls.cov_first;
    cls.step = CompileStepProgram(cls.automaton, cls.dfa,
                                  automata::LowerStep(cls.automaton, cls.dfa), step_options);
  }
}

void Runtime::EnsurePlanCapacity(ThreadContext& ctx) {
  if (ctx.classes_.size() < classes_.size()) {
    ctx.classes_.resize(classes_.size());
  }
  if (ctx.bound_epochs_.size() < bound_slot_count_) {
    ctx.bound_epochs_.resize(bound_slot_count_);
  }
  if (ctx.active_classes_.size() < cleanup_slot_count_) {
    ctx.active_classes_.resize(cleanup_slot_count_);
  }
  if (ctx.stack_depth_.size() < stack_slot_count_) {
    ctx.stack_depth_.resize(stack_slot_count_, 0);
  }
  // A Register() after this context was created: swap in a shard sized for
  // the new classes (the stale block stays behind and is still merged).
  if (collector_ != nullptr && ctx.metrics_ != nullptr &&
      ctx.metrics_->class_capacity() < classes_.size()) {
    ctx.metrics_ = collector_->RegisterShard();
  }
  if (profile_collector_ != nullptr && ctx.profile_ != nullptr &&
      ctx.profile_->class_capacity() < classes_.size()) {
    ctx.profile_ = profile_collector_->RegisterShard();
  }
  ctx.plan_generation_ = plan_generation_;
}

int Runtime::FindAutomaton(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? -1 : static_cast<int>(it->second);
}

// --- stats & metrics snapshots ---

RuntimeStats Runtime::stats() const {
  RuntimeStats total;
  AccumulateStats(total, shared_stats_);
  LockGuard<Spinlock> guard(contexts_lock_);
  AccumulateStats(total, retired_stats_);
  for (const ThreadContext* ctx : live_contexts_) {
    AccumulateStats(total, ctx->stats_);
  }
  return total;
}

void Runtime::ResetStats() {
  ClearStats(shared_stats_);
  // The pool overflow tallies rewind with the counters — a reset that left
  // them behind would double-report through shard_pool_overflows(). So do
  // the pool high-water marks: a measurement window opened now must not
  // inherit an earlier peak through shard_pool_high_water() or a profile
  // snapshot.
  for (uint32_t s = 0; s < shards_.size(); s++) {
    ShardGuard guard(*this, s, !ShardHeld(s));
    shards_[s]->context->store_.ResetOverflows();
    shards_[s]->context->store_.ResetHighWater();
  }
  {
    // Every context's stats block and pool peak rewinds too, and the retired
    // blocks and maxima restart from nothing. Quiescent-point contract as
    // above: a context dispatching now could store back a stale count.
    LockGuard<Spinlock> guard(contexts_lock_);
    for (ThreadContext* ctx : live_contexts_) {
      ClearStats(ctx->stats_);
      ctx->store_.ResetHighWater();
    }
    ClearStats(retired_stats_);
    retired_pool_high_water_ = 0;
    retired_pool_capacity_ = 0;
  }
  if (collector_ != nullptr) {
    collector_->Reset();
  }
  if (profile_collector_ != nullptr) {
    profile_collector_->Reset();
  }
}

uint64_t Runtime::shard_pool_overflows() const {
  uint64_t total = 0;
  for (uint32_t s = 0; s < shards_.size(); s++) {
    ShardGuard guard(*this, s, !ShardHeld(s));
    total += shards_[s]->context->store_.overflows();
  }
  return total;
}

uint64_t Runtime::shard_pool_high_water() const {
  uint64_t peak = 0;
  for (uint32_t s = 0; s < shards_.size(); s++) {
    ShardGuard guard(*this, s, !ShardHeld(s));
    peak = std::max<uint64_t>(peak, shards_[s]->context->store_.high_water());
  }
  return peak;
}

void Runtime::SetMetricsAugmenter(MetricsAugmenter augmenter) {
  LockGuard<Spinlock> guard(augmenter_lock_);
  metrics_augmenter_ = std::move(augmenter);
}

void Runtime::AssignShardOwners(uint32_t consumers) {
  if (consumers == 0) {
    consumers = 1;
  }
  for (uint32_t s = 0; s < shards_.size(); s++) {
    const bool owned = ((unpinned_shard_mask_ >> s) & 1) != 0;
    shards_[s]->owner_id.store(owned ? static_cast<int32_t>(s % consumers) : -1,
                               std::memory_order_release);
  }
}

void Runtime::ReleaseShardOwners() {
  for (auto& shard : shards_) {
    shard->owner_id.store(-1, std::memory_order_release);
  }
}

std::string Runtime::ManifestText() const {
  automata::Manifest manifest;
  manifest.automata.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    manifest.automata.push_back(cls.automaton);
  }
  return manifest.Serialize();
}

metrics::Snapshot Runtime::CollectMetrics() const {
  metrics::Snapshot snapshot;
  snapshot.stats = stats();
  if (collector_ == nullptr) {
    AugmentSnapshot(snapshot);
    return snapshot;
  }
  snapshot.mode = collector_->mode();

  std::vector<uint64_t> counters(classes_.size() * metrics::kClassCounterCount, 0);
  if (!classes_.empty()) {
    collector_->MergeCounters(classes_.size(), counters.data());
  }
  snapshot.classes.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    metrics::ClassSnapshot entry;
    entry.name = cls.automaton.name;
    for (size_t k = 0; k < metrics::kClassCounterCount; k++) {
      entry.counters[k] = counters[cls.id * metrics::kClassCounterCount + k];
    }
    for (uint32_t state = 0; state < cls.cov_states; state++) {
      for (uint32_t symbol = 0; symbol < cls.cov_symbols; symbol++) {
        const uint32_t target = cls.dfa_flat[state * cls.cov_symbols + symbol];
        if (target == automata::Dfa::kNoTarget) {
          continue;
        }
        metrics::TransitionCoverage transition;
        transition.state = state;
        transition.symbol = static_cast<uint16_t>(symbol);
        transition.fired =
            collector_->CoverageBit(cls.cov_first + state * cls.cov_symbols + symbol);
        const char* role = symbol == cls.automaton.init_symbol      ? "«init» "
                           : symbol == cls.automaton.cleanup_symbol ? "«cleanup» "
                                                                    : "";
        transition.description = cls.dfa.StateLabel(state) + " --" + role +
                                 cls.automaton.alphabet[symbol].ToString() + "--> " +
                                 cls.dfa.StateLabel(target);
        entry.transitions.push_back(std::move(transition));
      }
    }
    snapshot.classes.push_back(std::move(entry));
  }
  collector_->MergeHistograms(snapshot.histograms);
  AugmentSnapshot(snapshot);
  return snapshot;
}

profile::Snapshot Runtime::CollectProfile() const {
  profile::Snapshot snapshot;
  {
    // Pool marks: the max over every live context's pool plus the retired
    // maxima. Plain reads of other threads' pools — the quiescent-point
    // contract documented on the accessor.
    LockGuard<Spinlock> guard(contexts_lock_);
    snapshot.pool_high_water = retired_pool_high_water_;
    snapshot.pool_capacity = retired_pool_capacity_;
    for (ThreadContext* ctx : live_contexts_) {
      snapshot.pool_high_water =
          std::max<uint64_t>(snapshot.pool_high_water, ctx->store_.high_water());
      snapshot.pool_capacity =
          std::max<uint64_t>(snapshot.pool_capacity, ctx->store_.capacity());
    }
  }
  if (profile_collector_ == nullptr || classes_.empty()) {
    return snapshot;
  }
  std::vector<uint64_t> words(classes_.size() * profile::kClassStride, 0);
  profile_collector_->Merge(classes_.size(), words.data());
  snapshot.classes.reserve(classes_.size());
  for (const CompiledClass& cls : classes_) {
    profile::ClassProfile entry;
    entry.name = cls.automaton.name;
    const size_t tracked = std::min<size_t>(cls.key_count, profile::kMaxKeyVars);
    entry.key_vars.reserve(tracked);
    for (size_t p = 0; p < tracked; p++) {
      entry.key_vars.push_back(cls.key_vars[p]);
    }
    const uint64_t* block = words.data() + cls.id * profile::kClassStride;
    for (size_t c = 0; c < profile::kCellCount; c++) {
      entry.cells[c] = block[c];
    }
    for (size_t p = 0; p < profile::kMaxKeyVars; p++) {
      entry.var_partial[p] = block[profile::kVarPartialOffset + p];
      for (size_t w = 0; w < profile::kSketchWords; w++) {
        entry.sketch[p][w] = block[profile::kSketchOffset + p * profile::kSketchWords + w];
      }
    }
    snapshot.classes.push_back(std::move(entry));
  }
  return snapshot;
}

// The profiler's view of one dispatch decision. Out of line so the hot path
// pays only ProfileShard's null check; `served_by` names the route
// DispatchToInstances chose (Cell::dispatches: a plain scan with no
// fallback attribution — unkeyed class or index off).
void Runtime::ProfileDispatch(ThreadContext& storage, const CompiledClass& cls,
                              const ClassState& state, const BindingSet& bindings,
                              profile::Cell served_by) {
  // The class's word block, hoisted once: every write below is base-relative
  // so no store forces a reload of the shard's internal pointer.
  std::atomic<uint64_t>* base = storage.profile_->ClassCells(cls.id);
  const uint64_t population = state.instances.size();
  profile::Shard::AddAt(base, profile::Cell::dispatches);
  profile::Shard::AddAt(base, profile::Cell::fanout_sum, population);
  profile::Shard::PeakAt(base, profile::Cell::fanout_peak, population);
  // Distinct-key sketches: one linear-counting bit per bound tracked key
  // variable. Hash of the value, so the sketch is deterministic in the
  // event stream and merges by OR.
  const size_t tracked = std::min<size_t>(cls.key_count, profile::kMaxKeyVars);
  for (size_t p = 0; p < tracked; p++) {
    const uint8_t var = cls.key_vars[p];
    for (size_t b = 0; b < bindings.count; b++) {
      if (bindings.entries[b].var == var) {
        profile::Shard::SketchAt(base, p,
                                 HashU64(static_cast<uint64_t>(bindings.entries[b].value)));
        break;
      }
    }
  }
  switch (served_by) {
    case profile::Cell::index_probes:
      profile::Shard::AddAt(base, profile::Cell::index_probes);
      break;
    case profile::Cell::prefix_probes:
      profile::Shard::AddAt(base, profile::Cell::prefix_probes);
      break;
    case profile::Cell::small_population:
      profile::Shard::AddAt(base, profile::Cell::scan_fallbacks);
      profile::Shard::AddAt(base, profile::Cell::small_population);
      NoteGatedScan(cls.id);
      break;
    case profile::Cell::partial_bound:
      profile::Shard::AddAt(base, profile::Cell::scan_fallbacks);
      profile::Shard::AddAt(base, profile::Cell::partial_bound);
      // Which tracked key variables *were* bound: the prefix-index signal —
      // a secondary index on one of these would have served this dispatch.
      for (size_t p = 0; p < tracked; p++) {
        const uint8_t var = cls.key_vars[p];
        for (size_t b = 0; b < bindings.count; b++) {
          if (bindings.entries[b].var == var) {
            profile::Shard::VarPartialAt(base, p);
            break;
          }
        }
      }
      break;
    default:
      break;  // plain scan: no index to fall back from
  }
}

void Runtime::NoteGatedScan(uint32_t class_id) {
  if (gate_scans_ == nullptr || class_id >= gate_scan_count_) {
    return;
  }
  // Saturating tally: past the threshold the hot path pays one relaxed load
  // instead of an RMW per gated dispatch (the warning can no longer fire).
  if (gate_scans_[class_id].load(std::memory_order_relaxed) >= kGateWarnThreshold) {
    return;
  }
  const uint32_t tally =
      gate_scans_[class_id].fetch_add(1, std::memory_order_relaxed) + 1;
  if (tally != kGateWarnThreshold || handlers_.empty()) {
    return;  // fires exactly once, past the warm-up threshold
  }
  const CompiledClass& cls = classes_[class_id];
  const std::string message =
      "index_min_population (" + std::to_string(cls.min_population) +
      ") keeps disabling the key probe: " + std::to_string(kGateWarnThreshold) +
      " dispatches fell back to a full scan; consider a plan hint with "
      "min_population=0 for this class";
  ClassInfo info{class_id, &cls.automaton};
  for (EventHandler* handler : handlers_) {
    handler->OnWarning(info, message);
  }
}

void Runtime::AugmentSnapshot(metrics::Snapshot& snapshot) const {
  MetricsAugmenter augmenter;
  {
    LockGuard<Spinlock> guard(augmenter_lock_);
    augmenter = metrics_augmenter_;
  }
  if (augmenter) {
    augmenter(snapshot);
  }
}

// --- the unified event entry point ---

void Runtime::OnEvent(ThreadContext& ctx, const Event& event) {
  // Interest gate: an event no registered automaton can use costs one table
  // load. With a timed class registered every event is delivered — any
  // event can fire a due deadline. The calling thread may not hold `ctx`
  // (the ingest hook below hands contexts to queue consumers), so a dropped
  // truncation is counted in the shared block.
  if (!any_timed_ && !Observes(event)) {
    if (event.truncated) [[unlikely]] {
      BumpShared(shared_stats_.arg_truncations);
    }
    return;
  }
  // Producer-side stamping: with timed clauses registered, the monotonic
  // clock is read once, here, *before* the ingest hook can queue the event —
  // async and sidecar consumers then evaluate deadlines against the
  // producer's clock, and a capture carries the same value into replay.
  // Pre-stamped events (replay, simulators with virtual clocks) pass
  // through untouched, which is what makes timed verdicts reproducible.
  if (any_timed_ && event.ts_ns == 0) [[unlikely]] {
    Event stamped = event;
    stamped.ts_ns = NowNs();
    OnEvent(ctx, stamped);
    return;
  }
  // The ingest hook runs before the context is touched at all: with the
  // async queue installed, the producer thread only copies the event into a
  // ring while the consumer thread is the context's sole mutator.
  if (IngestHook hook = ingest_hook_.load(std::memory_order_acquire)) {
    if (hook(ingest_state_.load(std::memory_order_acquire), ctx, event)) {
      return;
    }
  }
  if (!PlanCurrent(ctx)) [[unlikely]] {
    EnsurePlanCapacity(ctx);
  }
  DispatchEvent(ctx, event);
}

void Runtime::OnEvents(ThreadContext& ctx, std::span<const Event> events) {
  if (events.empty()) {
    return;
  }
  if (!PlanCurrent(ctx)) [[unlikely]] {
    EnsurePlanCapacity(ctx);
  }
  // With no flight recorder, no dispatch timing and no active scope, every
  // event's DispatchEvent prologue is the same few checks — hoist them out
  // of the loop (DispatchBatchPlain). The three inputs are fixed for the
  // runtime/context lifetime, so one test covers the whole batch.
  const bool plain = ActiveScope() == nullptr &&
                     (recorder_ == nullptr || ctx.trace_ == nullptr) &&
                     !(time_dispatch_ && ctx.metrics_ != nullptr);
  if (any_global_ && engaged_runtime_ != this) {
    // Take every shard once for the whole batch, in ascending order
    // (concurrent batches on other threads acquire in the same order, so
    // there is no cycle), running the intruder protocol on each — correct
    // whether a shard is consumer-owned or plain locked. The per-event
    // acquisitions inside DispatchEvent see ShardHeld() and elide
    // themselves. The guard releases in reverse order and clears the
    // engagement even when a violation handler throws out of DispatchEvent
    // — a leaked shard lock (or stale engagement bits marking shards as
    // held that aren't) deadlocks every later dispatch.
    struct BatchShardLocks {
      Runtime& rt;
      explicit BatchShardLocks(Runtime& runtime) : rt(runtime) {
        for (auto& shard : rt.shards_) {
          rt.LockShardAsIntruder(*shard);
        }
        Runtime::engaged_runtime_ = &rt;
        Runtime::engaged_shards_ = ~uint64_t{0};
      }
      ~BatchShardLocks() {
        Runtime::engaged_runtime_ = nullptr;
        Runtime::engaged_shards_ = 0;
        for (auto it = rt.shards_.rbegin(); it != rt.shards_.rend(); ++it) {
          rt.UnlockShardAsIntruder(**it);
        }
      }
    };
    BatchShardLocks locks(*this);
    if (plain) {
      DispatchBatchPlain(ctx, events);
    } else {
      for (const Event& event : events) {
        DispatchEvent(ctx, event);
      }
    }
    return;
  }
  if (plain) {
    DispatchBatchPlain(ctx, events);
  } else {
    for (const Event& event : events) {
      DispatchEvent(ctx, event);
    }
  }
}

void Runtime::DispatchBatchPlain(ThreadContext& ctx, std::span<const Event> events) {
  // The whole batch is counted up front (one Bump instead of one per event);
  // a violation handler observing stats mid-batch sees the batch's event
  // count already applied, which is the documented batch semantics.
  Bump(ctx.stats_.events, events.size());
  for (const Event& event : events) {
    if (event.truncated) [[unlikely]] {
      Bump(ctx.stats_.arg_truncations);
    }
    if (any_timed_) [[unlikely]] {
      current_event_ts_ = event.ts_ns != 0 ? event.ts_ns : NowNs();
      if (current_event_ts_ < ctx.timed_now_) {
        Bump(ctx.stats_.clock_regressions);
      }
      TimedTick(ctx, current_event_ts_);
    }
    switch (event.kind) {
      case EventKind::kFunctionCall:
      case EventKind::kFunctionReturn:
        ProcessFunctionEvent(ctx, event);
        break;
      case EventKind::kFieldStore:
        ProcessFieldEvent(ctx, event);
        break;
      case EventKind::kAssertionSite:
        ProcessSiteEvent(ctx, event);
        break;
    }
  }
}

void Runtime::OnEventsScoped(ThreadContext& ctx, std::span<const Event> events,
                             const DispatchScope& scope) {
  if (events.empty()) {
    return;
  }
  if (scope.context && !PlanCurrent(ctx)) [[unlikely]] {
    // Only the context stage may grow the producer's context: the plan is
    // frozen before consumers run, so this never fires in steady state, and
    // the shard stage must not write another consumer's home context.
    EnsurePlanCapacity(ctx);
  }
  // Publish the scope for the duration (restoring any outer frame so a
  // handler re-entering dispatch cannot inherit a stale scope).
  struct ScopeFrame {
    const Runtime* prev_runtime;
    const DispatchScope* prev_scope;
    ScopeFrame(const Runtime& rt, const DispatchScope& scope)
        : prev_runtime(scope_runtime_), prev_scope(active_scope_) {
      scope_runtime_ = &rt;
      active_scope_ = &scope;
    }
    ~ScopeFrame() {
      scope_runtime_ = prev_runtime;
      active_scope_ = prev_scope;
    }
  };
  ScopeFrame frame(*this, scope);

  const uint64_t mask = AllowedShardMask();
  if (mask != 0 && engaged_runtime_ != this) {
    // Claim the scope's shards for the whole batch, ascending. Shards this
    // thread owns (the queue routed them here) are claimed with the owner
    // fast path — no lock when no intruder is present; the rest (pinned
    // shards in the context stage) run the intruder protocol. The caller
    // guarantees no other thread owner-claims the same shard concurrently.
    struct BatchOwnership {
      Runtime& rt;
      uint64_t mask;
      uint64_t locked = 0;
      BatchOwnership(Runtime& runtime, uint64_t m) : rt(runtime), mask(m) {
        for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
          const uint32_t s = static_cast<uint32_t>(std::countr_zero(rest));
          GlobalShard& shard = *rt.shards_[s];
          if (shard.owner_id.load(std::memory_order_relaxed) < 0) {
            rt.LockShardAsIntruder(shard);
            locked |= uint64_t{1} << s;
            continue;
          }
          // Owner fast claim: announce, then check for intruders (the
          // Dekker pairing documented on GlobalShard).
          shard.owner_active.store(true, std::memory_order_seq_cst);
          if (shard.intruders.load(std::memory_order_seq_cst) != 0) {
            // Retreat before blocking, or a spinning intruder deadlocks.
            shard.owner_active.store(false, std::memory_order_release);
            rt.LockShardAsIntruder(shard);
            locked |= uint64_t{1} << s;
          }
        }
        Runtime::engaged_runtime_ = &rt;
        Runtime::engaged_shards_ = mask;
      }
      ~BatchOwnership() {
        Runtime::engaged_runtime_ = nullptr;
        Runtime::engaged_shards_ = 0;
        for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
          const uint32_t s = static_cast<uint32_t>(std::countr_zero(rest));
          GlobalShard& shard = *rt.shards_[s];
          if (((locked >> s) & 1) != 0) {
            rt.UnlockShardAsIntruder(shard);
          } else {
            shard.owner_active.store(false, std::memory_order_release);
          }
        }
      }
    };
    BatchOwnership ownership(*this, mask);
    for (const Event& event : events) {
      DispatchEvent(ctx, event);
    }
    return;
  }
  for (const Event& event : events) {
    DispatchEvent(ctx, event);
  }
}

uint64_t Runtime::ShardStageMask(const Event& event) const {
  switch (event.kind) {
    case EventKind::kFunctionCall:
    case EventKind::kFunctionReturn: {
      const uint64_t key = event.kind == EventKind::kFunctionReturn
                               ? ReturnKey(event.target)
                               : CallKey(event.target);
      return key < function_plan_.size() ? function_plan_[key].touched_shards : 0;
    }
    case EventKind::kFieldStore:
      return event.target < field_plan_.size() ? field_plan_[event.target].touched_shards
                                               : 0;
    case EventKind::kAssertionSite: {
      if (event.target >= classes_.size()) {
        return 0;
      }
      const CompiledClass& cls = classes_[event.target];
      return cls.is_global && !cls.pinned ? uint64_t{1} << cls.shard : 0;
    }
  }
  return 0;
}

void Runtime::DispatchEvent(ThreadContext& ctx, const Event& event) {
  // Event-level bookkeeping — the global event count, the flight recorder,
  // dispatch timing — happens exactly once per event, in the context stage
  // (a shard-stage pass of the same record skips it).
  const bool context_stage = ScopeContext();
  if (any_timed_) [[unlikely]] {
    // Resolve the event clock once per event (the timed hooks read
    // current_event_ts_ instead of re-deriving it per class). The producer
    // context ticks here, in the context stage — exactly once per event, so
    // an armed deadline fires on the next event through the context even if
    // that event touches no timed class; shard contexts tick when a timed
    // class dispatches into them. A backwards timestamp is counted here
    // (once) and clamped in TimedTick — per-context stream order is
    // preserved by the queue and by replay, so the count is deterministic.
    current_event_ts_ = event.ts_ns != 0 ? event.ts_ns : NowNs();
    if (context_stage) {
      if (current_event_ts_ < ctx.timed_now_) [[unlikely]] {
        Bump(ctx.stats_.clock_regressions);
      }
      TimedTick(ctx, current_event_ts_);
    }
  }
  if (context_stage) {
    Bump(ctx.stats_.events);
    if (event.truncated) {
      Bump(ctx.stats_.arg_truncations);
    }
    if (recorder_ != nullptr && ctx.trace_ != nullptr) {
      recorder_->Record(*ctx.trace_, event);
    }
  }
  // kFull mode: two clock reads bracket the dispatch, bucketed per event
  // kind into the entry context's shard.
  const bool timed = context_stage && time_dispatch_ && ctx.metrics_ != nullptr;
  uint64_t start_ns = 0;
  if (timed) {
    start_ns = NowNs();
  }
  switch (event.kind) {
    case EventKind::kFunctionCall:
    case EventKind::kFunctionReturn:
      ProcessFunctionEvent(ctx, event);
      break;
    case EventKind::kFieldStore:
      ProcessFieldEvent(ctx, event);
      break;
    case EventKind::kAssertionSite:
      ProcessSiteEvent(ctx, event);
      break;
  }
  if (timed) {
    const int64_t ns = static_cast<int64_t>(NowNs()) - static_cast<int64_t>(start_ns);
    if (ns < 0) {
      // A stepped clock produced a negative delta. The sample still lands
      // in bucket 0 (dropping it would skew sample counts), but it is
      // counted so a depressed p50 can be traced to the clock, not TESLA.
      Bump(ctx.stats_.negative_latencies);
    }
    ctx.metrics_->RecordLatency(static_cast<size_t>(event.kind),
                                ns > 0 ? static_cast<uint64_t>(ns) : 0);
  }
}

void Runtime::ProcessFunctionEvent(ThreadContext& ctx, const Event& event) {
  const bool is_return = event.kind == EventKind::kFunctionReturn;
  const uint64_t key = is_return ? ReturnKey(event.target) : CallKey(event.target);
  if (key >= function_plan_.size()) {
    return;  // interned after the plan was compiled: cannot name any pattern
  }
  const KeyPlan& plan = function_plan_[key];

  if (plan.stack_slot >= 0 && ScopeContext()) {
    int32_t& depth = ctx.stack_depth_[plan.stack_slot];
    if (is_return && depth == 0) {
      // A return with no tracked call: the stream started mid-call (e.g. a
      // wrapped flight-recorder capture). Clamp instead of going negative,
      // which would poison incallstack() for the rest of the run.
      Bump(ctx.stats_.unmatched_returns);
    } else {
      depth += is_return ? -1 : 1;
    }
  }

  // 1. «init» transitions for bounds opened by this event.
  if (plan.bound_slot >= 0) {
    HandleBoundStart(ctx, plan);
  }

  // 2. Body events, matched by each candidate's compiled op list.
  for (uint32_t i = 0; i < plan.cand_count; i++) {
    const Candidate& candidate = candidate_pool_[plan.cand_first + i];
    if (!ClassInScope(classes_[candidate.class_id])) {
      continue;  // another stage of this record dispatches it
    }
    BindingSet bindings;
    if (MatchFunction(candidate.match, match_pool_.data(), event.args(), is_return,
                      event.return_value, options_.memory_reader, bindings)) {
      HandleEvent(ctx, candidate, bindings);
    }
  }

  // 3. «cleanup» transitions for bounds closed by this event.
  if (plan.cleanup_slot >= 0) {
    HandleBoundEnd(ctx, plan);
  }
}

void Runtime::ProcessFieldEvent(ThreadContext& ctx, const Event& event) {
  if (event.target >= field_plan_.size()) {
    return;
  }
  const KeyPlan& plan = field_plan_[event.target];
  const int64_t object = event.values[0];
  const int64_t old_value = event.values[1];
  const int64_t new_value = event.values[2];
  for (uint32_t i = 0; i < plan.cand_count; i++) {
    const Candidate& candidate = candidate_pool_[plan.cand_first + i];
    if (!ClassInScope(classes_[candidate.class_id])) {
      continue;
    }
    const automata::EventPattern& pattern =
        classes_[candidate.class_id].automaton.alphabet[candidate.symbol];
    BindingSet bindings;
    if (!bindings.Add(pattern.struct_var, object)) {
      continue;
    }
    bool matched = false;
    switch (pattern.assign_op) {
      case ast::AssignOp::kAssign:
        matched = MatchArg(pattern.assign_value, new_value, options_.memory_reader, bindings);
        break;
      case ast::AssignOp::kPlusEqual:
        matched = MatchArg(pattern.assign_value, new_value - old_value, options_.memory_reader,
                           bindings);
        break;
      case ast::AssignOp::kMinusEqual:
        matched = MatchArg(pattern.assign_value, old_value - new_value, options_.memory_reader,
                           bindings);
        break;
      case ast::AssignOp::kIncrement:
        matched = new_value == old_value + 1;
        break;
      case ast::AssignOp::kDecrement:
        matched = new_value == old_value - 1;
        break;
    }
    if (matched) {
      HandleEvent(ctx, candidate, bindings);
    }
  }
}

void Runtime::ProcessSiteEvent(ThreadContext& ctx, const Event& event) {
  const uint32_t automaton_id = event.target;
  if (automaton_id >= classes_.size()) {
    return;
  }
  const CompiledClass& fast_cls = classes_[automaton_id];
  if (event.count == 0 && fast_cls.site_fast && !fast_cls.is_global && handlers_.empty() &&
      ActiveScope() == nullptr) [[likely]] {
    // Flattened steady-state path: an unbound site event on a per-thread
    // class whose site event is just the site symbol, with no handlers and
    // no scoped dispatch, enters DispatchUnbound directly, skipping the
    // binding, scope, lock and activation checks HandleSiteEvent would make
    // — this is where the sub-30 ns/event dispatch budget is won. Anything
    // off the steady state (inactive class, lazy activation pending, empty
    // population) falls through to the generic path below, which handles it
    // identically.
    ClassState& state = ctx.classes_[automaton_id];
    bool active = state.active;
    if (options_.lazy_init) {
      const BoundEpoch& epoch = ctx.bound_epochs_[fast_cls.bound_slot];
      active = active && epoch.open && state.epoch == epoch.epoch;
    }
    if (active && !state.instances.empty()) {
      if (DispatchUnbound(ctx, fast_cls, state,
                          std::span<const uint16_t>(&fast_cls.automaton.site_symbol, 1)))
          [[likely]] {
        return;
      }
      // Paper §4.4.1 "Error": no instance could consume the site.
      automata::StateSet live = 0;
      for (uint32_t slot : state.instances) {
        live |= ctx.store_.states(slot);
      }
      ReportViolation(ctx, automaton_id, ViolationKind::kBadSite,
                      "no instance could accept the assertion site", live);
      return;
    }
  }
  BindingSet bindings;
  for (uint8_t i = 0; i < event.count; i++) {
    // Variable indices beyond kMaxVariables cannot name an automaton
    // variable and would corrupt instance bound masks; treat them like
    // inconsistent caller-provided bindings and surface a site violation.
    if (event.vars[i] >= kMaxVariables || !bindings.Add(event.vars[i], event.values[i])) {
      if (ScopeContext()) {
        ReportViolation(ctx, automaton_id, ViolationKind::kBadSite,
                        "inconsistent site bindings");
      }
      return;
    }
  }
  const CompiledClass& cls = classes_[automaton_id];
  if (!ClassInScope(cls)) {
    return;
  }
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  HandleSiteEvent(ctx, automaton_id, bindings);
}

// --- bound lifecycle ---

void Runtime::HandleBoundStart(ThreadContext& ctx, const KeyPlan& plan) {
  if (ScopeContext()) {
    Bump(ctx.stats_.bound_entries);
  }
  if (options_.lazy_init) {
    // O(1): bump the bound's epoch; instances materialise on first real
    // event. Classes sharing the bound share the epoch slot, so the cost is
    // per-storage-context, not per-automaton. Each scoped stage bumps only
    // the storage contexts it owns — the producer's context with the
    // context stage, each shard with its owner's pass.
    if ((plan.start_contexts & 1) != 0 && ScopeContext()) {
      BoundEpoch& epoch = ctx.bound_epochs_[plan.bound_slot];
      epoch.epoch++;
      epoch.open = true;
    }
    if ((plan.start_contexts & 2) != 0) {
      uint64_t mask = bound_slot_shards_[plan.bound_slot] & AllowedShardMask();
      for (uint32_t shard = 0; mask != 0; shard++, mask >>= 1) {
        if ((mask & 1) == 0) {
          continue;
        }
        ShardGuard guard(*this, shard, !ShardHeld(shard));
        BoundEpoch& epoch = shards_[shard]->context->bound_epochs_[plan.bound_slot];
        epoch.epoch++;
        epoch.open = true;
      }
    }
    return;
  }
  // Naive mode: touch every automaton sharing this bound (the per-syscall
  // cost fig. 13 measures).
  for (uint32_t i = 0; i < plan.start_count; i++) {
    const uint32_t class_id = class_pool_[plan.start_first + i];
    if (!ClassInScope(classes_[class_id])) {
      continue;
    }
    ActivateClassSharded(ctx, class_id);
  }
}

void Runtime::HandleBoundEnd(ThreadContext& ctx, const KeyPlan& plan) {
  const bool context_stage = ScopeContext();
  if (context_stage) {
    Bump(ctx.stats_.bound_exits);
  }
  if (!options_.lazy_init) {
    for (uint32_t i = 0; i < plan.end_count; i++) {
      const uint32_t class_id = class_pool_[plan.end_first + i];
      if (!ClassInScope(classes_[class_id])) {
        continue;
      }
      CleanupClassSharded(ctx, class_id);
    }
    return;
  }

  // Per-thread pass: this context's live classes and open bounds.
  if (context_stage) {
    auto& active = ctx.active_classes_[plan.cleanup_slot];
    for (uint32_t class_id : active) {
      CleanupClass(ctx, class_id);
    }
    active.clear();
  }
  uint64_t shard_mask = 0;
  for (uint32_t i = 0; i < plan.closes_count; i++) {
    const int32_t slot = closed_bounds_pool_[plan.closes_first + i];
    if (context_stage) {
      ctx.bound_epochs_[slot].open = false;
    }
    shard_mask |= bound_slot_shards_[slot];
  }
  if (!any_global_) {
    return;
  }

  // Global pass: only shards hosting classes that end or close a bound
  // here, restricted to the active scope's shards (the other stages of a
  // scoped record sweep their own).
  shard_mask |= cleanup_slot_shards_[plan.cleanup_slot];
  shard_mask &= AllowedShardMask();
  for (uint32_t shard = 0; shard_mask != 0; shard++, shard_mask >>= 1) {
    if ((shard_mask & 1) == 0) {
      continue;
    }
    ShardGuard guard(*this, shard, !ShardHeld(shard));
    ThreadContext& storage = *shards_[shard]->context;
    auto& active = storage.active_classes_[plan.cleanup_slot];
    // Classes outside the scope (possible only when pinned and unpinned
    // classes share a shard, i.e. the degraded all-pinned partition) stay
    // listed for their own stage's sweep.
    size_t kept = 0;
    for (size_t i = 0; i < active.size(); i++) {
      const uint32_t class_id = active[i];
      if (ClassInScope(classes_[class_id])) {
        CleanupClass(ctx, class_id);
      } else {
        active[kept++] = class_id;
      }
    }
    active.resize(kept);
    for (uint32_t i = 0; i < plan.closes_count; i++) {
      storage.bound_epochs_[closed_bounds_pool_[plan.closes_first + i]].open = false;
    }
  }
}

void Runtime::ActivateClassSharded(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  ActivateClass(ctx, class_id);
}

void Runtime::CleanupClassSharded(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  CleanupClass(ctx, class_id);
}

void Runtime::ActivateClass(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ThreadContext& storage = ContextFor(ctx, class_id);
  ClassState& state = storage.classes_[class_id];

  for (uint32_t slot : state.instances) {
    storage.store_.Free(slot);
  }
  state.instances.clear();
  state.DropIndex();

  uint32_t wildcard = storage.store_.Allocate();
  if (wildcard == kNoSlot) {
    Bump(storage.stats_.overflows);
    ReportViolation(storage, class_id, ViolationKind::kOverflow, "no space for (*) instance");
    state.active = false;
    return;
  }
  storage.store_.states(wildcard) = cls.initial_states;
  storage.store_.dfa_state(wildcard) = cls.initial_dfa_state;
  state.instances.push_back(wildcard);  // unfiled: the index is built at the gate
  state.active = true;
  Bump(storage.stats_.instances_created);
  Bump(storage.stats_.transitions);  // the «init» transition itself
  BumpClass(storage, class_id, metrics::ClassCounter::instances_created);
  BumpClass(storage, class_id, metrics::ClassCounter::transitions);
  if (collector_ != nullptr) {
    // The «init» transition leaves DFA state 0 (the pre-bound start state).
    StampTransition(collector_.get(), cls.cov_first, cls.cov_symbols, 0,
                    cls.automaton.init_symbol);
  }
  if (!handlers_.empty()) {
    ClassInfo info{class_id, &cls.automaton};
    const Instance view = storage.store_.Materialize(wildcard);
    for (EventHandler* handler : handlers_) {
      handler->OnInstanceNew(info, view);
      // The «init» transition (state 0 → body entry) is observable too, so
      // counting handlers can weight it (fig. 9).
      handler->OnTransition(info, view, automata::StateBit(cls.automaton.initial_state),
                            cls.automaton.init_symbol, cls.initial_states);
    }
  }
  if (cls.timed) [[unlikely]] {
    // A (re)opened bound starts its clauses fresh: cancel anything armed by
    // a previous activation, then arm for the new wildcard if the initial
    // states already sit inside a timed region (the deadline clock starts
    // at the event that completed the preceding context — this one).
    TimedTick(storage, current_event_ts_);
    ResetTimedCells(state);
    TimedObserve(storage, cls, state, {}, false);
  }
}

void Runtime::CleanupClass(ThreadContext& ctx, uint32_t class_id) {
  const CompiledClass& cls = classes_[class_id];
  ThreadContext& storage = ContextFor(ctx, class_id);
  ClassState& state = storage.classes_[class_id];
  if (!state.active) {
    return;
  }
  if (cls.timed) [[unlikely]] {
    // A deadline that fully elapsed before the bound closed is a violation
    // even when its expiry and the cleanup arrive in the same batch: fire
    // anything strictly past before the cleanup sweep settles the clauses.
    TimedTick(storage, current_event_ts_);
  }
  const uint16_t cleanup_symbol = cls.automaton.cleanup_symbol;
  const std::span<const uint16_t> symbols(&cleanup_symbol, 1);
  InstanceHot* hot = storage.store_.hot_data();
  bool batch = handlers_.empty();
  for (size_t i = 0; batch && i < state.instances.size(); i++) {
    batch = cls.step.CanStep(hot[state.instances[i]], cleanup_symbol);
  }
  if (batch) {
    // Every instance accepts and nobody observes the individual steps: one
    // batch kernel call, then the same frees in the same order as the walk.
    const uint32_t stepped = cls.step.RunBatch(collector_.get(), hot, state.instances.data(),
                                               state.instances.size(), symbols);
    Bump(storage.stats_.transitions, stepped);
    Bump(storage.stats_.accepts, stepped);
    BumpClass(storage, class_id, metrics::ClassCounter::transitions, stepped);
    BumpClass(storage, class_id, metrics::ClassCounter::accepts, stepped);
    for (uint32_t slot : state.instances) {
      storage.store_.Free(slot);
    }
  } else {
    ClassInfo info{class_id, &cls.automaton};
    for (uint32_t slot : state.instances) {
      if (StepSlot(cls, storage, slot, symbols)) {
        Bump(storage.stats_.accepts);
        BumpClass(storage, class_id, metrics::ClassCounter::accepts);
        if (!handlers_.empty()) {
          const Instance view = storage.store_.Materialize(slot);
          for (EventHandler* handler : handlers_) {
            handler->OnAccept(info, view);
          }
        }
      } else {
        ReportViolation(storage, class_id, ViolationKind::kBadCleanup,
                        "instance " + storage.store_.Materialize(slot).Name(cls.automaton) +
                            " had not completed when the bound closed",
                        storage.store_.states(slot));
      }
      storage.store_.Free(slot);
    }
  }
  state.instances.clear();
  state.DropIndex();
  state.active = false;
  if (cls.timed) [[unlikely]] {
    // The bound closed: every clause is settled. Armed deadlines cancel
    // lazily (serial bump), rate windows reset.
    ResetTimedCells(state);
  }
}

bool Runtime::EnsureActive(ThreadContext& ctx, const CompiledClass& cls,
                           ThreadContext& storage, ClassState& state) {
  if (!options_.lazy_init) {
    return state.active;
  }
  const BoundEpoch& epoch_entry = storage.bound_epochs_[cls.bound_slot];
  if (!epoch_entry.open) {
    return false;  // no bound currently open for this class
  }
  const uint64_t current = epoch_entry.epoch;
  if (state.active && state.epoch == current) {
    return true;
  }
  if (!state.active && state.epoch == current) {
    return false;  // already cleaned up within this bound
  }
  // First event for this class within a newly-opened bound: lazy «init».
  ActivateClass(ctx, cls.id);
  if (!state.active) {
    return false;  // pool overflow
  }
  state.epoch = current;
  storage.active_classes_[cls.cleanup_slot].push_back(cls.id);
  return true;
}

// --- timed clauses (within_ms / rate) ---

uint64_t Runtime::NowNs() const {
  if (options_.now_ns) [[unlikely]] {
    return options_.now_ns();
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void Runtime::TimedTick(ThreadContext& storage, uint64_t ts_ns) {
  // Monotonic clamp: a backwards timestamp (stepped clock, cross-producer
  // skew at a shard context) is evaluated at the context's high-water clock,
  // so windows never underflow and deadlines never arm into the past. The
  // regression *count* lives in DispatchEvent — once per event, in the
  // context stage, where it is deterministic; shard contexts see ordinary
  // cross-producer interleaving and clamp silently.
  if (ts_ns < storage.timed_now_) [[unlikely]] {
    ts_ns = storage.timed_now_;
  } else {
    storage.timed_now_ = ts_ns;
  }
  if (storage.wheel_ != nullptr && storage.wheel_->HasExpired(ts_ns)) [[unlikely]] {
    FireExpired(storage, ts_ns);
  }
}

void Runtime::FireExpired(ThreadContext& storage, uint64_t now_ns) {
  // Swap the scratch buffer out of the context: a violation handler may
  // re-enter dispatch (and hence FireExpired) on this same context.
  std::vector<DeadlineWheel::Entry> fired;
  fired.swap(storage.fired_);
  fired.clear();
  storage.wheel_->Advance(now_ns, fired);
  for (const DeadlineWheel::Entry& entry : fired) {
    if (entry.class_id >= storage.classes_.size()) {
      continue;
    }
    ClassState& state = storage.classes_[entry.class_id];
    if (entry.spec >= state.timed.size()) {
      continue;
    }
    TimedCell& cell = state.timed[entry.spec];
    if (!cell.armed || cell.serial != entry.serial ||
        cell.deadline_ns != entry.deadline_ns) {
      continue;  // lazily cancelled: the region completed or the bound closed
    }
    cell.armed = false;
    cell.serial++;
    const CompiledClass& cls = classes_[entry.class_id];
    const automata::TimedSpec& spec = cls.automaton.timed[entry.spec];
    Bump(storage.stats_.deadline_expiries);
    if (profile::Shard* pshard = ProfileShard(storage, entry.class_id)) {
      pshard->Add(entry.class_id, profile::Cell::deadline_expiries);
    }
    // Highlight the states still inside the timed region — where the
    // automaton was stuck when the clock ran out.
    automata::StateSet live = 0;
    for (uint32_t slot : state.instances) {
      live |= storage.store_.states(slot);
    }
    ReportViolation(storage, entry.class_id, ViolationKind::kDeadlineExpired,
                    "within_ms(" + std::to_string(spec.bound_ns / 1000000) +
                        ") deadline expired " + std::to_string(now_ns - entry.deadline_ns) +
                        " ns before the region completed",
                    live & spec.armed_mask);
  }
  fired.clear();
  storage.fired_ = std::move(fired);  // hand the capacity back
}

void Runtime::TimedObserve(ThreadContext& storage, const CompiledClass& cls,
                           ClassState& state, std::span<const uint16_t> symbols,
                           bool stepped) {
  const auto& specs = cls.automaton.timed;
  if (state.timed.size() < specs.size()) [[unlikely]] {
    state.timed.resize(specs.size());
  }
  const uint64_t now = storage.timed_now_;  // clamped by the preceding TimedTick
  // The class-level view: the union of every live instance's states. Timed
  // clauses are properties of the *class* within its bound — per-instance
  // deadlines would false-alarm on the lingering (∗) parent, which never
  // leaves the region it seeds. O(live), so computed at most once and only
  // when a within_ms() spec or a rate() violation's highlight needs it.
  automata::StateSet occupied = 0;
  bool occupied_known = false;
  auto occupancy = [&]() {
    if (!occupied_known) {
      for (uint32_t slot : state.instances) {
        occupied |= storage.store_.states(slot);
      }
      occupied_known = true;
    }
    return occupied;
  };
  for (size_t k = 0; k < specs.size(); k++) {
    const automata::TimedSpec& spec = specs[k];
    TimedCell& cell = state.timed[k];
    if (spec.kind == automata::TimedSpec::kWithin) {
      const bool live = (occupancy() & spec.armed_mask) != 0;
      if (live && !cell.armed) {
        cell.armed = true;
        cell.serial++;
        cell.deadline_ns = now + spec.bound_ns;
        Bump(storage.stats_.deadline_arms);
        if (profile::Shard* pshard = ProfileShard(storage, cls.id)) {
          pshard->Add(cls.id, profile::Cell::deadline_arms);
        }
        if (storage.wheel_ == nullptr) {
          storage.wheel_ = std::make_unique<DeadlineWheel>(now);
        }
        storage.wheel_->Arm(
            {cell.deadline_ns, cls.id, static_cast<uint32_t>(k), cell.serial});
      } else if (!live && cell.armed) {
        // The region completed (or was bypassed) in time: disarm. The wheel
        // entry cancels lazily — the serial bump makes it stale.
        cell.armed = false;
        cell.serial++;
      }
      // live && armed: a region entered again before fully emptying keeps
      // the original deadline (documented limitation for starred regions).
    } else {  // kRate
      if (!stepped) {
        continue;  // only events the class actually consumed count
      }
      bool counted = false;
      for (uint16_t symbol : symbols) {
        if (std::binary_search(spec.symbols.begin(), spec.symbols.end(), symbol)) {
          counted = true;
          break;
        }
      }
      if (!counted) {
        continue;
      }
      if (cell.window_count == 0) {
        cell.window_start = now;  // the first counted event opens the window
      } else if (now - cell.window_start >= spec.bound_ns) {
        // Tumbling: advance in whole multiples of the window length so a
        // quiet gap cannot stretch a window past its nominal span.
        cell.window_start += spec.bound_ns * ((now - cell.window_start) / spec.bound_ns);
        cell.window_count = 0;
        cell.window_tripped = false;
      }
      cell.window_count++;
      if (cell.window_count > spec.limit && !cell.window_tripped) {
        cell.window_tripped = true;  // one report per window
        Bump(storage.stats_.rate_violations);
        ReportViolation(storage, cls.id, ViolationKind::kRateExceeded,
                        "rate(" + std::to_string(spec.limit) + ", per_ms(" +
                            std::to_string(spec.bound_ns / 1000000) + ")) exceeded: event " +
                            std::to_string(cell.window_count) + " in the window",
                        occupancy() & spec.armed_mask);
      }
    }
  }
}

void Runtime::ResetTimedCells(ClassState& state) {
  for (TimedCell& cell : state.timed) {
    cell.armed = false;
    cell.serial++;  // lazily cancels any wheel entry still pending
    cell.deadline_ns = 0;
    cell.window_start = 0;
    cell.window_count = 0;
    cell.window_tripped = false;
  }
}

// --- event dispatch ---

void Runtime::HandleEvent(ThreadContext& ctx, const Candidate& candidate,
                          const BindingSet& bindings) {
  // Resolve the class's storage context and state once; activation,
  // dispatch, the timed hooks and the strictness report all reuse them.
  const CompiledClass& cls = classes_[candidate.class_id];
  ShardGuard guard(*this, cls.shard, cls.is_global && !ShardHeld(cls.shard));
  ThreadContext& storage = ContextFor(ctx, cls.id);
  ClassState& state = storage.classes_[cls.id];
  if (cls.timed) [[unlikely]] {
    // Expiries precede the arriving event: an event at ts == deadline can
    // still satisfy its region, anything strictly later fires first.
    TimedTick(storage, current_event_ts_);
  }
  if (!EnsureActive(ctx, cls, storage, state)) {
    return;
  }
  const std::span<const uint16_t> symbols(&candidate.symbol, 1);
  const bool stepped = DispatchToInstances(storage, cls, state, bindings, symbols);
  if (cls.timed) [[unlikely]] {
    TimedObserve(storage, cls, state, symbols, stepped);
  }
  if (stepped) {
    return;
  }
  if (!cls.automaton.strict) {
    Bump(storage.stats_.ignored_events);
    return;
  }
  automata::StateSet live = 0;
  for (uint32_t slot : state.instances) {
    live |= storage.store_.states(slot);
  }
  ReportViolation(storage, cls.id, ViolationKind::kStrictEvent,
                  "event '" + cls.automaton.alphabet[candidate.symbol].ToString() +
                      "' had no valid transition",
                  live);
}

void Runtime::HandleSiteEvent(ThreadContext& ctx, uint32_t class_id,
                              const BindingSet& bindings) {
  // Resolve the class's storage context and state once; everything below —
  // activation check, dispatch, the stuck-automaton report — reuses them.
  const CompiledClass& cls = classes_[class_id];
  ThreadContext& storage = ContextFor(ctx, class_id);
  ClassState& state = storage.classes_[class_id];
  if (cls.timed) [[unlikely]] {
    // Expiries strictly before this event's timestamp fire before the site
    // dispatches (see HandleEvent).
    TimedTick(storage, current_event_ts_);
  }
  if (!EnsureActive(ctx, cls, storage, state)) {
    Bump(storage.stats_.ignored_events);  // site reached outside its temporal bound
    return;
  }

  // The assertion-site event plus any satisfied incallstack() predicates.
  // Classes with no incallstack() variants (the common shape) dispatch the
  // site symbol straight from the automaton; otherwise the symbol list keeps
  // the common handful of variants inline and grows past that, so no
  // satisfied predicate is ever dropped — RuntimeStats::site_variant_truncations
  // can only be zero now, and is kept solely so ablations and old reports
  // keep their schema.
  SmallVector<uint16_t, 17> symbols;
  std::span<const uint16_t> symbol_span;
  if (cls.site_variants.empty()) [[likely]] {
    if (!cls.automaton.has_site) {
      // The assertion's expression references no site event (e.g. a pure
      // TSEQUENCE or optional() form); the site marker carries no automaton
      // meaning and is ignored.
      Bump(storage.stats_.ignored_events);
      return;
    }
    symbol_span = std::span<const uint16_t>(&cls.automaton.site_symbol, 1);
  } else {
    if (cls.automaton.has_site) {
      symbols.push_back(cls.automaton.site_symbol);
    }
    for (uint16_t variant : cls.site_variants) {
      if (ctx.InCallStack(cls.automaton.alphabet[variant].function)) {
        symbols.push_back(variant);
      }
    }
    if (symbols.empty()) {
      // incallstack()-only site, with no predicate satisfied: the site could
      // not be consumed.
      ReportViolation(storage, class_id, ViolationKind::kBadSite,
                      "assertion site with no satisfiable site event");
      return;
    }
    symbol_span = std::span<const uint16_t>(symbols.data(), symbols.size());
  }

  bool stepped = DispatchToInstances(storage, cls, state, bindings, symbol_span);
  if (cls.timed) [[unlikely]] {
    TimedObserve(storage, cls, state, symbol_span, stepped);
  }
  if (!stepped) {
    // Paper §4.4.1 "Error": reaching the site with no instance able to
    // consume it (e.g. the (vp3) case) is a violation. The union of live
    // instance states tells forensics where the automaton got stuck.
    automata::StateSet live = 0;
    for (uint32_t slot : state.instances) {
      live |= storage.store_.states(slot);
    }
    ReportViolation(storage, class_id, ViolationKind::kBadSite,
                    "no instance could accept the assertion site", live);
  }
}

namespace {

// The set of variables an event's bindings name, as a bit mask. Pattern
// variables are bounded by kMaxVariables at Register() time and site
// variables are range-checked in ProcessSiteEvent, so shifts are safe.
uint32_t BindingsVarMask(const Binding* entries, size_t count) {
  uint32_t mask = 0;
  for (size_t i = 0; i < count; i++) {
    mask |= 1u << entries[i].var;
  }
  return mask;
}

}  // namespace

template <typename Run>
auto Runtime::Profiled(ThreadContext& storage, const CompiledClass& cls, const ClassState& state,
                       const BindingSet& bindings, profile::Cell route, Run&& run) {
  profile::Shard* pshard = ProfileShard(storage, cls.id);
  if (pshard == nullptr) [[likely]] {
    return run();
  }
  ProfileDispatch(storage, cls, state, bindings, route);
  // 1-in-64 sampled dispatch latency: two clock reads amortised to well
  // under a nanosecond per event, keeping the profiler inside its ≤5
  // ns/event budget (BENCH_profile.json gates it).
  if ((pshard->NextTick() & 63) != 0) [[likely]] {
    return run();
  }
  const uint64_t start = NowNs();
  const auto result = run();
  const int64_t ns = static_cast<int64_t>(NowNs()) - static_cast<int64_t>(start);
  if (ns < 0) {
    // Same clock-skew accounting as the kFull dispatch bracket: the sample
    // still lands in bucket 0 (dropping it would skew sample counts), but
    // the stepped clock is counted instead of silently clamped — a
    // depressed sampled p50 must be traceable to the clock.
    Bump(storage.stats_.negative_latencies);
  }
  pshard->Add(cls.id, profile::Cell::latency_ns, ns > 0 ? static_cast<uint64_t>(ns) : 0);
  pshard->Add(cls.id, profile::Cell::latency_samples);
  return result;
}

// Clones are appended to `instances` and filed through IndexInstance while
// `parent_walk` runs, so every parent walk must be unaffected by appends:
// index chains grow at the head, and the flat lists are walked up to their
// length on entry.
template <typename ExactWalk, typename ParentWalk>
bool Runtime::DispatchTwoPass(ThreadContext& storage, const CompiledClass& cls,
                              ClassState& state, const BindingSet& bindings,
                              std::span<const uint16_t> symbols, ExactWalk&& exact_walk,
                              ParentWalk&& parent_walk) {
  InstanceStore& store = storage.store_;
  // Pass 1: instances already bound to exactly these values.
  bool any_exact = false;
  bool any_step = false;
  exact_walk([&](uint32_t slot) {
    any_exact = true;
    if (StepSlot(cls, storage, slot, symbols)) {
      any_step = true;
    }
  });
  if (any_exact) {
    return any_step;
  }

  // Pass 2: clone consistent instances, binding the event's new values
  // (paper §4.4.1 "Clone"). The parent — typically (∗) — is retained.
  ClassInfo info{cls.id, &cls.automaton};
  const size_t existing = state.instances.size();
  parent_walk([&](uint32_t parent) {
    if (!store.ConsistentWith(parent, bindings.entries, bindings.count)) {
      return;
    }
    Instance candidate = store.Materialize(parent);
    for (size_t b = 0; b < bindings.count; b++) {
      candidate.Bind(bindings.entries[b].var, bindings.entries[b].value);
    }
    for (size_t j = existing; j < state.instances.size(); j++) {
      const uint32_t other = state.instances[j];
      if (store.bound_mask(other) == candidate.bound_mask &&
          store.values(other) == candidate.values) {
        return;  // duplicate of a clone created earlier in this event
      }
    }
    if (!StepInstance(cls, storage, candidate, symbols)) {
      return;  // the clone could not consume the event; discard it
    }
    const uint32_t slot = store.Allocate();
    if (slot == kNoSlot) {
      Bump(storage.stats_.overflows);
      ReportViolation(storage, cls.id, ViolationKind::kOverflow, "no space to clone instance");
      return;
    }
    store.Assign(slot, candidate);
    state.instances.push_back(slot);
    IndexInstance(storage, cls, state, slot);
    any_step = true;
    Bump(storage.stats_.instances_cloned);
    BumpClass(storage, cls.id, metrics::ClassCounter::instances_cloned);
    if (!handlers_.empty()) {
      const Instance parent_view = store.Materialize(parent);
      for (EventHandler* handler : handlers_) {
        handler->OnClone(info, parent_view, candidate);
      }
    }
  });
  return any_step;
}

bool Runtime::DispatchToInstances(ThreadContext& storage, const CompiledClass& cls,
                                  ClassState& state, const BindingSet& bindings,
                                  std::span<const uint16_t> symbols) {
  if (bindings.count == 0 && handlers_.empty()) {
    return DispatchUnbound(storage, cls, state, symbols);
  }
  const uint32_t class_id = cls.id;
  // Route decision, made once: the profile cell naming the route doubles as
  // the profiler's attribution (Cell::dispatches = plain scan, nothing to
  // attribute). The RuntimeStats/metrics bumps stay exactly the seed's.
  profile::Cell route = profile::Cell::dispatches;
  if (options_.instance_index && cls.key_mask != 0) {
    if (state.instances.size() < cls.min_population) {
      // Below the crossover population, hashing the key tuple costs more
      // than walking the handful of live instances (BENCH_instances.json);
      // fall through to the scan. Nothing is filed yet: the first dispatch
      // at the threshold builds the index. Per-class since plan hints can
      // override the knob (min_population=0 builds at the first dispatch).
      Bump(storage.stats_.index_scans);
      BumpClass(storage, class_id, metrics::ClassCounter::index_scans);
      route = profile::Cell::small_population;
    } else {
      if (!state.indexed) [[unlikely]] {
        // The population just reached the gate: file it, in creation order.
        state.indexed = true;
        for (uint32_t slot : state.instances) {
          IndexInstance(storage, cls, state, slot);
        }
      }
      const uint32_t bound = BindingsVarMask(bindings.entries, bindings.count);
      if (bound == cls.key_mask) {
        Bump(storage.stats_.index_probes);
        BumpClass(storage, class_id, metrics::ClassCounter::index_probes);
        route = profile::Cell::index_probes;
      } else if (cls.prefix_pos != CompiledClass::kNoPrefix &&
                 ((bound >> cls.prefix_var) & 1) != 0) {
        // Partially bound, but the profile-hinted prefix variable is bound:
        // the secondary index narrows the walk to one prefix bucket plus
        // the short prefix-unbound tail.
        Bump(storage.stats_.index_probes);
        BumpClass(storage, class_id, metrics::ClassCounter::index_probes);
        route = profile::Cell::prefix_probes;
      } else {
        // An event binding a strict subset (or superset) of the key
        // variables cannot be answered by one bucket; fall back to the
        // scan. The index stays coherent because clone insertion goes
        // through IndexInstance.
        Bump(storage.stats_.index_scans);
        BumpClass(storage, class_id, metrics::ClassCounter::index_scans);
        route = profile::Cell::partial_bound;
      }
    }
  }
  return Profiled(storage, cls, state, bindings, route, [&]() {
    InstanceStore& store = storage.store_;
    if (route == profile::Cell::index_probes) {
      // The event binds exactly the key variables, so pass 1's exact matches
      // are precisely one index bucket, and when it is empty every possible
      // clone parent sits in the unkeyed tail (a fully-keyed instance
      // consistent with the bindings would carry the probed tuple and hence
      // be in the bucket). Clones bind every key variable, so the tail never
      // grows while pass 2 walks it. An event touching one socket therefore
      // steps O(1) instances no matter how many other sockets are live.
      int64_t key[kMaxVariables];
      for (uint8_t i = 0; i < cls.key_count; i++) {
        for (size_t b = 0; b < bindings.count; b++) {
          if (bindings.entries[b].var == cls.key_vars[i]) {
            key[i] = bindings.entries[b].value;
            break;
          }
        }
      }
      const uint32_t head =
          state.index.Find(HashKeyTuple(key, cls.key_count), [&](uint32_t slot) {
            for (uint8_t i = 0; i < cls.key_count; i++) {
              if (store.values(slot)[cls.key_vars[i]] != key[i]) {
                return false;
              }
            }
            return true;
          });
      return DispatchTwoPass(
          storage, cls, state, bindings, symbols,
          [&](auto&& visit) {
            for (uint32_t slot = head; slot != kNoSlot; slot = store.next(slot)) {
              visit(slot);
            }
          },
          [&](auto&& visit) {
            const size_t count = state.unkeyed.size();
            for (size_t i = 0; i < count; i++) {
              visit(state.unkeyed[i]);
            }
          });
    }
    if (route == profile::Cell::prefix_probes) {
      // The event binds the profile-hinted prefix variable but not the full
      // key tuple: pass 1's exact matches all carry the prefix binding, so
      // they sit in the probed prefix bucket; pass 2's clone parents have
      // the prefix bound to the probed value (the bucket) or unbound
      // (tail2). Clones bind the prefix, so they land at the bucket's head
      // (never disturbing the forward walk) and never in tail2.
      int64_t prefix_value = 0;
      for (size_t b = 0; b < bindings.count; b++) {
        if (bindings.entries[b].var == cls.prefix_var) {
          prefix_value = bindings.entries[b].value;
          break;
        }
      }
      const uint32_t head =
          state.index2.Find(HashKeyTuple(&prefix_value, 1), [&](uint32_t slot) {
            return store.values(slot)[cls.prefix_var] == prefix_value;
          });
      return DispatchTwoPass(
          storage, cls, state, bindings, symbols,
          [&](auto&& visit) {
            for (uint32_t slot = head; slot != kNoSlot; slot = store.next2(slot)) {
              if (store.ExactMatch(slot, bindings.entries, bindings.count)) {
                visit(slot);
              }
            }
          },
          [&](auto&& visit) {
            for (uint32_t slot = head; slot != kNoSlot; slot = store.next2(slot)) {
              visit(slot);
            }
            const size_t count = state.tail2.size();
            for (size_t i = 0; i < count; i++) {
              visit(state.tail2[i]);
            }
          });
    }
    // Naive scan (the seed's algorithm, over SoA slots): the index is
    // disabled or below the crossover, the class binds no variables, or the
    // event's bindings do not cover the key tuple.
    return DispatchTwoPass(
        storage, cls, state, bindings, symbols,
        [&](auto&& visit) {
          for (uint32_t slot : state.instances) {
            if (store.ExactMatch(slot, bindings.entries, bindings.count)) {
              visit(slot);
            }
          }
        },
        [&](auto&& visit) {
          const size_t count = state.instances.size();
          for (size_t i = 0; i < count; i++) {
            visit(state.instances[i]);
          }
        });
  });
}

bool Runtime::DispatchUnbound(ThreadContext& storage, const CompiledClass& cls,
                              ClassState& state, std::span<const uint16_t> symbols) {
  // The route DispatchToInstances would pick: an unbound event cannot cover
  // a key tuple, so a keyed class always counts a scan.
  profile::Cell route = profile::Cell::dispatches;
  if (options_.instance_index && cls.key_mask != 0) {
    Bump(storage.stats_.index_scans);
    BumpClass(storage, cls.id, metrics::ClassCounter::index_scans);
    route = state.instances.size() < cls.min_population ? profile::Cell::small_population
                                                        : profile::Cell::partial_bound;
  }
  const uint32_t stepped = Profiled(storage, cls, state, kNoBindings, route, [&]() {
    return state.instances.empty()
               ? 0u
               : cls.step.RunBatch(collector_.get(), storage.store_.hot_data(),
                                   state.instances.data(), state.instances.size(), symbols);
  });
  if (stepped != 0) [[likely]] {
    Bump(storage.stats_.transitions, stepped);
    BumpClass(storage, cls.id, metrics::ClassCounter::transitions, stepped);
  }
  return stepped != 0;
}

void Runtime::IndexInstance(ThreadContext& storage, const CompiledClass& cls,
                            ClassState& state, uint32_t slot) {
  if (!state.indexed) {
    return;  // below the gate, or a class without key variables: flat list only
  }
  if ((storage.store_.bound_mask(slot) & cls.key_mask) != cls.key_mask) {
    state.unkeyed.push_back(slot);  // wildcard / partially bound: linear tail
  } else {
    int64_t key[kMaxVariables];
    const auto& values = storage.store_.values(slot);
    for (uint8_t i = 0; i < cls.key_count; i++) {
      key[i] = values[cls.key_vars[i]];
    }
    auto key_equals = [&](uint32_t other) {
      const auto& other_values = storage.store_.values(other);
      for (uint8_t i = 0; i < cls.key_count; i++) {
        if (other_values[cls.key_vars[i]] != key[i]) {
          return false;
        }
      }
      return true;
    };
    storage.store_.next(slot) =
        state.index.InsertHead(HashKeyTuple(key, cls.key_count), key_equals, slot);
  }
  if (cls.prefix_pos == CompiledClass::kNoPrefix) {
    return;
  }
  if (!storage.store_.IsBound(slot, cls.prefix_var)) {
    state.tail2.push_back(slot);  // prefix unbound: the (∗)-side tail
    return;
  }
  const int64_t value = storage.store_.values(slot)[cls.prefix_var];
  auto prefix_equals = [&](uint32_t other) {
    return storage.store_.values(other)[cls.prefix_var] == value;
  };
  storage.store_.next2(slot) =
      state.index2.InsertHead(HashKeyTuple(&value, 1), prefix_equals, slot);
}

bool Runtime::StepSlot(const CompiledClass& cls, ThreadContext& storage, uint32_t slot,
                       std::span<const uint16_t> symbols) {
  automata::StateSet from = 0;
  uint16_t symbol = 0;
  if (!StepCore(cls, storage.store_.states(slot), storage.store_.dfa_state(slot), symbols,
                &from, &symbol)) {
    return false;
  }
  Bump(storage.stats_.transitions);
  BumpClass(storage, cls.id, metrics::ClassCounter::transitions);
  if (!handlers_.empty()) {
    ClassInfo info{cls.id, &cls.automaton};
    const Instance view = storage.store_.Materialize(slot);
    for (EventHandler* handler : handlers_) {
      handler->OnTransition(info, view, from, symbol, view.states);
    }
  }
  return true;
}

bool Runtime::StepInstance(const CompiledClass& cls, ThreadContext& storage,
                           Instance& instance, std::span<const uint16_t> symbols) {
  automata::StateSet from = 0;
  uint16_t symbol = 0;
  if (!StepCore(cls, instance.states, instance.dfa_state, symbols, &from, &symbol)) {
    return false;
  }
  Bump(storage.stats_.transitions);
  BumpClass(storage, cls.id, metrics::ClassCounter::transitions);
  if (!handlers_.empty()) {
    ClassInfo info{cls.id, &cls.automaton};
    for (EventHandler* handler : handlers_) {
      handler->OnTransition(info, instance, from, symbol, instance.states);
    }
  }
  return true;
}

void Runtime::ReportViolation(ThreadContext& owner, uint32_t class_id, ViolationKind kind,
                              const std::string& detail, automata::StateSet highlight) {
  // Counted before the handlers run: one reading stats() sees the violation
  // and everything that led up to it (its own thread's writes).
  Bump(owner.stats_.violations);
  if (collector_ != nullptr) {
    // No storage context is in scope here; the lock-guarded spill table is
    // fine for a path that already formats strings.
    collector_->BumpSpill(class_id, metrics::ClassCounter::violations);
  }
  Violation violation;
  violation.kind = kind;
  violation.automaton = classes_[class_id].automaton.name;
  violation.detail = detail;
  if (recorder_ != nullptr) {
    violation.backtrace = BuildForensics(class_id, highlight);
    LockGuard<Spinlock> guard(violation_log_lock_);
    violation_log_.emplace_back(kind, violation.automaton);
  }

  ClassInfo info{class_id, &classes_[class_id].automaton};
  for (EventHandler* handler : handlers_) {
    handler->OnViolation(info, violation);
  }
  TESLA_LOG(kError) << "TESLA violation in '" << violation.automaton
                    << "': " << ViolationKindName(kind) << " — " << detail;
  if (options_.fail_stop) {
    std::fprintf(stderr, "tesla: fail-stop on violation in '%s': %s (%s)\n",
                 violation.automaton.c_str(), ViolationKindName(kind), detail.c_str());
    if (!violation.backtrace.empty()) {
      std::fprintf(stderr, "%s", violation.backtrace.c_str());
    }
    std::abort();
  }
}

std::string Runtime::BuildForensics(uint32_t class_id, automata::StateSet highlight) const {
  const CompiledClass& cls = classes_[class_id];
  const trace::Snapshot snapshot = recorder_->Harvest();
  std::string report =
      trace::RenderBacktrace(snapshot, cls.automaton, class_id, cls.trace_symbols,
                             options_.trace_backtrace_events, trace::InternerResolver());
  report += "automaton state at the violation (DOT; live states highlighted):\n";
  report += automata::ToDot(cls.automaton, cls.dfa, nullptr, highlight);
  return report;
}

// --- StderrHandler ---

void StderrHandler::OnInstanceNew(const ClassInfo& cls, const Instance& instance) {
  std::fprintf(stderr, "tesla: [%s] new instance %s\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str());
}

void StderrHandler::OnClone(const ClassInfo& cls, const Instance& parent,
                            const Instance& clone) {
  std::fprintf(stderr, "tesla: [%s] clone %s -> %s\n", cls.automaton->name.c_str(),
               parent.Name(*cls.automaton).c_str(), clone.Name(*cls.automaton).c_str());
}

void StderrHandler::OnTransition(const ClassInfo& cls, const Instance& instance,
                                 automata::StateSet from, uint16_t symbol,
                                 automata::StateSet to) {
  std::fprintf(stderr, "tesla: [%s] %s: 0x%llx --%s--> 0x%llx\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str(), static_cast<unsigned long long>(from),
               cls.automaton->alphabet[symbol].ToString().c_str(),
               static_cast<unsigned long long>(to));
}

void StderrHandler::OnAccept(const ClassInfo& cls, const Instance& instance) {
  std::fprintf(stderr, "tesla: [%s] accept %s\n", cls.automaton->name.c_str(),
               instance.Name(*cls.automaton).c_str());
}

void StderrHandler::OnViolation(const ClassInfo& cls, const Violation& violation) {
  std::fprintf(stderr, "tesla: [%s] VIOLATION: %s — %s\n", violation.automaton.c_str(),
               ViolationKindName(violation.kind), violation.detail.c_str());
  if (!violation.backtrace.empty()) {
    std::fprintf(stderr, "%s", violation.backtrace.c_str());
  }
}

void StderrHandler::OnWarning(const ClassInfo& cls, const std::string& message) {
  std::fprintf(stderr, "tesla: [%s] warning: %s\n", cls.automaton->name.c_str(),
               message.c_str());
}

}  // namespace tesla::runtime
