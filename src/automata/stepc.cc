#include "automata/stepc.h"

namespace tesla::automata {

StepLowering LowerStep(const Automaton& automaton, const Dfa& dfa) {
  StepLowering low;
  low.nfa_state_count = automaton.state_count;
  low.dfa_state_count = static_cast<uint32_t>(dfa.states.size());
  low.symbol_count = dfa.symbol_count;

  low.single_symbol_steps = true;
  for (const EventPattern& pattern : automaton.alphabet) {
    if (pattern.kind == PatternKind::kInCallStack) {
      low.single_symbol_steps = false;
      break;
    }
  }

  low.rows.resize(static_cast<size_t>(low.dfa_state_count) * low.symbol_count,
                  Dfa::kNoTarget);
  low.dfa_sets.resize(low.dfa_state_count);
  for (uint32_t state = 0; state < low.dfa_state_count; state++) {
    low.dfa_sets[state] = dfa.states[state].nfa_states;
    for (uint32_t symbol = 0; symbol < low.symbol_count; symbol++) {
      low.rows[static_cast<size_t>(state) * low.symbol_count + symbol] =
          dfa.states[state].transitions[symbol];
    }
  }

  // NFA step tables. symbol_sources is Finalize()'s per-symbol source mask;
  // the dense target table folds each state's edge vector into one set per
  // (symbol, state) so stepping never chases the per-state vectors again.
  low.sources.resize(low.symbol_count, 0);
  for (uint32_t symbol = 0;
       symbol < low.symbol_count && symbol < automaton.symbol_sources.size(); symbol++) {
    low.sources[symbol] = automaton.symbol_sources[symbol];
  }
  low.targets.resize(static_cast<size_t>(low.symbol_count) * low.nfa_state_count, 0);
  for (const Transition& transition : automaton.transitions) {
    low.targets[static_cast<size_t>(transition.symbol) * low.nfa_state_count +
                transition.from] |= StateBit(transition.to);
  }
  return low;
}

}  // namespace tesla::automata
