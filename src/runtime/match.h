// Compiled candidate matchers: a function pattern's argument and return
// tests, lowered at plan-compile time into a flat op list in one
// runtime-wide pool, so matching an event touches no Automaton, alphabet
// or EventPattern. kAny positions are dropped; every other ArgMatchKind is
// one op naming its source (an argument index or the return value).
// Bindings are added arguments first, then the return value.
#ifndef TESLA_RUNTIME_MATCH_H_
#define TESLA_RUNTIME_MATCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "automata/pattern.h"
#include "runtime/instance.h"
#include "runtime/options.h"

namespace tesla::runtime {

// An event's variable bindings: a fixed-size buffer, one slot per variable.
// Only entries[0, count) are read, so the buffer is left uninitialised —
// one is built per candidate match, where zeroing it costs more than the
// match.
struct BindingSet {
  BindingSet() {}
  union {
    Binding entries[kMaxVariables];
  };
  size_t count = 0;

  // Returns false if `var` is already present with a different value.
  bool Add(uint16_t var, int64_t value) {
    for (size_t i = 0; i < count; i++) {
      if (entries[i].var == var) {
        return entries[i].value == value;
      }
    }
    entries[count++] = Binding{var, value};
    return true;
  }
};

// One lowered test of the argument at `source`, or of the return value.
struct MatchOp {
  static constexpr uint16_t kMatchReturn = 0xffff;
  automata::ArgMatchKind kind = automata::ArgMatchKind::kAny;
  uint16_t source = 0;
  uint16_t var = 0;     // kVariable / kIndirect
  int64_t literal = 0;  // kLiteral
  uint64_t mask = 0;    // kFlags / kBitmask
};

// A candidate's op range, the argument count its pattern needs (kAny
// positions included) and whether it tests the return value.
struct CompiledMatch {
  uint32_t op_first = 0;
  uint16_t op_count = 0;
  uint16_t min_args = 0;
  bool needs_return = false;
};

inline MatchOp LowerArgMatch(const automata::ArgMatch& match, uint16_t source) {
  return MatchOp{match.kind, source, match.var, match.literal, match.mask};
}

// Appends a function pattern's ops to `pool`; returns its matcher.
inline CompiledMatch LowerFunctionPattern(const automata::EventPattern& pattern,
                                          std::vector<MatchOp>& pool) {
  CompiledMatch match;
  match.op_first = static_cast<uint32_t>(pool.size());
  if (pattern.args_specified) {
    // Saturated: no event carries 0xffff arguments either.
    match.min_args = static_cast<uint16_t>(std::min<size_t>(pattern.args.size(), 0xffff));
    for (size_t i = 0; i < pattern.args.size() && i < MatchOp::kMatchReturn; i++) {
      if (pattern.args[i].kind != automata::ArgMatchKind::kAny) {
        pool.push_back(LowerArgMatch(pattern.args[i], static_cast<uint16_t>(i)));
      }
    }
  }
  if (pattern.match_return) {
    match.needs_return = true;
    if (pattern.return_match.kind != automata::ArgMatchKind::kAny) {
      pool.push_back(LowerArgMatch(pattern.return_match, MatchOp::kMatchReturn));
    }
  }
  match.op_count = static_cast<uint16_t>(pool.size() - match.op_first);
  return match;
}

// Tests one value, binding into `bindings`. kIndirect binds the pointee
// read through `reader`, and fails without one.
inline bool MatchValue(const MatchOp& op, int64_t value, const MemoryReader& reader,
                       BindingSet& bindings) {
  switch (op.kind) {
    case automata::ArgMatchKind::kAny:
      return true;
    case automata::ArgMatchKind::kLiteral:
      return value == op.literal;
    case automata::ArgMatchKind::kFlags:
      return (static_cast<uint64_t>(value) & op.mask) == op.mask;
    case automata::ArgMatchKind::kBitmask:
      return (static_cast<uint64_t>(value) & ~op.mask) == 0;
    case automata::ArgMatchKind::kVariable:
      return bindings.count < kMaxVariables && bindings.Add(op.var, value);
    case automata::ArgMatchKind::kIndirect: {
      int64_t pointee = 0;
      if (!reader || !reader(value, &pointee)) {
        return false;
      }
      return bindings.count < kMaxVariables && bindings.Add(op.var, pointee);
    }
  }
  return false;
}

// A field store's value test (the ArgMatch form of MatchValue).
inline bool MatchArg(const automata::ArgMatch& match, int64_t value, const MemoryReader& reader,
                     BindingSet& bindings) {
  return MatchValue(LowerArgMatch(match, 0), value, reader, bindings);
}

// Matches a function event (`return_value` only when `have_return`) against
// a compiled candidate whose pool starts at `ops`.
inline bool MatchFunction(const CompiledMatch& match, const MatchOp* ops,
                          std::span<const int64_t> args, bool have_return, int64_t return_value,
                          const MemoryReader& reader, BindingSet& bindings) {
  if (args.size() < match.min_args || (match.needs_return && !have_return)) {
    return false;
  }
  const MatchOp* op = ops + match.op_first;
  for (const MatchOp* end = op + match.op_count; op != end; ++op) {
    const int64_t value = op->source == MatchOp::kMatchReturn ? return_value : args[op->source];
    if (!MatchValue(*op, value, reader, bindings)) {
      return false;
    }
  }
  return true;
}

}  // namespace tesla::runtime

#endif  // TESLA_RUNTIME_MATCH_H_
