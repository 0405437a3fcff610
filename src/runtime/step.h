// Compiled stepping tiers (paper §4.2: the automaton is frozen at
// plan-compile time, so the step function is a pure specialisation target).
//
// At Register() time each CompiledClass's step function — symbol test, DFA
// transition, successor-set update, coverage stamp — is lowered through
// automata::LowerStep() into a per-class StepProgram, selected by
// RuntimeOptions::step_tier:
//
//   kInterpreted  the reference walk: Automaton::Step's per-state edge
//                 vectors (NFA mode) / Dfa::Step (use_dfa ablation). Kept
//                 byte-for-byte equivalent to the seed algorithm; the
//                 specialised tier is differential-tested against it.
//
//   kSpecialised  per-shape kernels:
//                   * DFA-trackable classes (no incallstack() patterns →
//                     every step is single-symbol, so the DFA state alone
//                     determines the NFA set) step by one branchless row
//                     load; automata with ≤ 8 DFA states and ≤ 64 symbols
//                     pack each symbol's whole row into a single u64 — the
//                     table lives in a register, not a cache line.
//                   * incallstack() classes keep exact NFA semantics via
//                     mask-and-union tables, with the mirrored dfa_flat
//                     coverage stamp — bitmaps stay bit-identical across
//                     tiers.
//
// Coverage stamping is resolved at compile time too: when the runtime has a
// metrics collector every kernel stamps through runtime/coverage.h's
// StampTransition with the same (cov_first, dfa_state, symbol) bit the
// interpreted tier uses; without one the non-stamping variant is selected
// and the hot path carries no collector branch.
//
// Semantics note (deliberate, unobservable divergence): DFA-tracking kernels
// advance the instance's dfa_state even with metrics off — it *is* their
// stepping state — while the interpreted NFA walk leaves the mirror stale
// until a collector exists. Verdicts, stats and coverage are unaffected;
// the differential test compares exactly those.
#ifndef TESLA_RUNTIME_STEP_H_
#define TESLA_RUNTIME_STEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "automata/automaton.h"
#include "automata/determinize.h"
#include "automata/stepc.h"
#include "metrics/collector.h"
#include "runtime/options.h"

namespace tesla::runtime {

struct StepProgram;

// One compiled step: advances (states, dfa_state) on the first consumable
// symbol of `symbols` (NFA mode unions every consumable symbol), returns
// whether anything stepped, and reports the pre-step set and the stepped
// symbol through the out-params. The signature is shared by every tier so
// Runtime::StepCore is a single indirect call.
using StepFn = bool (*)(const StepProgram&, metrics::Collector*, automata::StateSet& states,
                        uint32_t& dfa_state, const uint16_t* symbols, size_t symbol_count,
                        automata::StateSet* from_out, uint16_t* symbol_out);

// The hot per-instance stepping state. This is the instance store's SoA hot
// array element: batch kernels walk the array directly, so the layout is
// defined here where the kernels can see it (sixteen bytes — four instances
// per cache line).
struct InstanceHot {
  automata::StateSet states = 0;  // NFA state set (fig. 9's "NFA:1,3")
  uint32_t dfa_state = 0;         // used in DFA-stepping mode
  uint32_t bound_mask = 0;
};
static_assert(sizeof(InstanceHot) == 16, "four instances per cache line");

// One compiled batch step: applies the class's step kernel to every slot in
// `slots`, returning how many stepped. Per kernel family the per-step
// function is inlined into this loop, so the whole pass-1 population walk of
// an unbound event is one indirect call with the kernel's tables held in
// registers — per-slot dispatch cost is what the specialised tier exists to
// remove. Slots that cannot consume any symbol are left untouched.
using StepBatchFn = uint32_t (*)(const StepProgram&, metrics::Collector*, InstanceHot* hot,
                                 const uint32_t* slots, size_t slot_count,
                                 const uint16_t* symbols, size_t symbol_count);

// In packed rows, 0xff marks "no transition" (valid states are ≤ 7).
inline constexpr uint32_t kStepPackedMiss = 0xff;

struct StepCompileOptions {
  StepTier tier = StepTier::kSpecialised;
  bool use_dfa = false;   // RuntimeOptions::use_dfa ablation semantics
  bool coverage = false;  // the runtime has a metrics collector
  uint32_t cov_first = 0;  // class's first coverage bit (coverage only)
};

// A compiled per-class step function plus the tables its kernel reads. Owns
// flat copies of the lowered tables (vector buffers survive CompiledClass
// moves); the interpreted tier instead walks the automaton/DFA in place via
// the pointers, which CompilePlan() refreshes after every Register().
struct StepProgram {
  StepFn fn = nullptr;
  StepBatchFn batch = nullptr;
  bool use_dfa = false;
  // DFA state fully determines the NFA set (single-symbol steps); the
  // specialised tier steps these classes by table lookup alone.
  bool dfa_track = false;

  // Interpreted tier: the frozen automaton and its determinisation.
  const automata::Automaton* automaton = nullptr;
  const automata::Dfa* dfa = nullptr;

  uint32_t dfa_state_count = 0;
  uint32_t symbol_count = 0;
  uint32_t nfa_state_count = 0;
  uint32_t cov_first = 0;

  // Flat DFA rows (dfa_state_count × symbol_count, Dfa::kNoTarget invalid)
  // and each DFA state's NFA set.
  std::vector<uint32_t> rows;
  std::vector<automata::StateSet> dfa_sets;
  // Packed rows (dfa_state_count ≤ 8, symbol_count ≤ 64): one u64 per
  // symbol, one byte per DFA state, kStepPackedMiss for no transition.
  std::vector<uint64_t> packed;
  // NFA step tables: per-symbol source mask and dense per-(symbol, state)
  // successor sets.
  std::vector<automata::StateSet> nfa_sources;
  std::vector<automata::StateSet> nfa_targets;

  bool Run(metrics::Collector* collector, automata::StateSet& states, uint32_t& dfa_state,
           std::span<const uint16_t> symbols, automata::StateSet* from_out,
           uint16_t* symbol_out) const {
    return fn(*this, collector, states, dfa_state, symbols.data(), symbols.size(), from_out,
              symbol_out);
  }

  // Whether Run() would step `hot` on `symbol`, without stepping it: the NFA
  // set meets the symbol's source mask. Exact for DFA-stepping programs too:
  // there `states` is always the NFA set of `dfa_state`, and the subset
  // construction has a transition exactly where that set can step.
  bool CanStep(const InstanceHot& hot, uint16_t symbol) const {
    return (hot.states & nfa_sources[symbol]) != 0;
  }

  // Steps every slot in `slots` (the pass-1 walk of an unbound event), and
  // returns how many stepped. Semantically identical to calling Run() per
  // slot and discarding the out-params.
  uint32_t RunBatch(metrics::Collector* collector, InstanceHot* hot, const uint32_t* slots,
                    size_t slot_count, std::span<const uint16_t> symbols) const {
    return batch(*this, collector, hot, slots, slot_count, symbols.data(), symbols.size());
  }
};

// Compiles the step program for one class. `automaton`/`dfa` must outlive
// the program (they are the interpreted tier's tables); `lowering` is
// consumed by value into the program's flat tables.
StepProgram CompileStepProgram(const automata::Automaton& automaton, const automata::Dfa& dfa,
                               automata::StepLowering lowering,
                               const StepCompileOptions& options);

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_STEP_H_
