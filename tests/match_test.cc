// Compiled candidate matchers (runtime/match.h) against an independent
// reference. The reference below evaluates an EventPattern straight from
// its fields — the argument list, the return-value test and the ArgMatch
// kinds — and shares no code with the runtime. Directed cases pin down
// each ArgMatchKind, kIndirect with and without a memory reader, return
// matching on call and return events, short and truncated argument lists
// and a variable bound twice; a randomized sweep then compares the two on
// every function candidate of the shipped manifests (kernelsim with timed
// clauses, sslsim's fetch assertions, objsim's GUI manifest).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "automata/manifest.h"
#include "kernelsim/assertions.h"
#include "objsim/trace.h"
#include "runtime/event.h"
#include "runtime/match.h"
#include "sslsim/fetch.h"

namespace tesla {
namespace {

using automata::ArgMatch;
using automata::ArgMatchKind;
using automata::EventPattern;
using automata::PatternKind;
using runtime::BindingSet;
using runtime::CompiledMatch;
using runtime::Event;
using runtime::MatchOp;
using runtime::MemoryReader;

using Bindings = std::vector<std::pair<uint16_t, int64_t>>;

// --- the reference: EventPattern semantics, evaluated directly ---

struct Outcome {
  bool matched = false;
  Bindings bindings;  // in binding order; empty unless matched
};

bool operator==(const Outcome& a, const Outcome& b) {
  return a.matched == b.matched && a.bindings == b.bindings;
}

std::ostream& operator<<(std::ostream& out, const Outcome& o) {
  out << (o.matched ? "match" : "no match");
  for (const auto& [var, value] : o.bindings) {
    out << " v" << var << "=" << value;
  }
  return out;
}

// Binds `var` to `value`: a variable seen before must agree, and the event's
// binding buffer holds at most runtime::kMaxVariables entries.
bool RefBind(Bindings& bindings, uint16_t var, int64_t value) {
  if (bindings.size() >= static_cast<size_t>(runtime::kMaxVariables)) {
    return false;
  }
  for (const auto& [bound, bound_value] : bindings) {
    if (bound == var) {
      return bound_value == value;
    }
  }
  bindings.emplace_back(var, value);
  return true;
}

bool RefArg(const ArgMatch& match, int64_t value, const MemoryReader& reader,
            Bindings& bindings) {
  const uint64_t bits = static_cast<uint64_t>(value);
  if (match.kind == ArgMatchKind::kAny) {
    return true;
  }
  if (match.kind == ArgMatchKind::kLiteral) {
    return value == match.literal;
  }
  if (match.kind == ArgMatchKind::kFlags) {
    return (bits | ~match.mask) == ~uint64_t{0};  // every mask bit set
  }
  if (match.kind == ArgMatchKind::kBitmask) {
    return (bits | match.mask) == match.mask;  // no bit outside the mask
  }
  if (match.kind == ArgMatchKind::kVariable) {
    return RefBind(bindings, match.var, value);
  }
  // kIndirect: the variable binds to the pointee.
  int64_t pointee = 0;
  return reader != nullptr && reader(value, &pointee) && RefBind(bindings, match.var, pointee);
}

Outcome Reference(const EventPattern& pattern, const Event& event, const MemoryReader& reader) {
  Outcome out;
  const std::span<const int64_t> args = event.args();
  if (pattern.args_specified) {
    if (args.size() < pattern.args.size()) {
      return out;
    }
    for (size_t i = 0; i < pattern.args.size(); i++) {
      if (!RefArg(pattern.args[i], args[i], reader, out.bindings)) {
        return Outcome{};
      }
    }
  }
  if (pattern.match_return) {
    if (event.kind != runtime::EventKind::kFunctionReturn ||
        !RefArg(pattern.return_match, event.return_value, reader, out.bindings)) {
      return Outcome{};
    }
  }
  out.matched = true;
  return out;
}

// --- the compiled matcher, as the runtime drives it ---

Outcome Compiled(const EventPattern& pattern, const Event& event, const MemoryReader& reader) {
  std::vector<MatchOp> pool;
  pool.push_back(MatchOp{});  // a non-zero op_first, as in the runtime's shared pool
  const CompiledMatch match = runtime::LowerFunctionPattern(pattern, pool);
  BindingSet bindings;
  Outcome out;
  out.matched = runtime::MatchFunction(match, pool.data(), event.args(),
                                       event.kind == runtime::EventKind::kFunctionReturn,
                                       event.return_value, reader, bindings);
  if (out.matched) {
    for (size_t i = 0; i < bindings.count; i++) {
      out.bindings.emplace_back(bindings.entries[i].var, bindings.entries[i].value);
    }
  }
  return out;
}

// Even addresses are readable; the pointee is a fixed function of the
// address.
bool ReadEven(int64_t address, int64_t* value) {
  if (address % 2 != 0) {
    return false;
  }
  *value = address * 3 + 1;
  return true;
}

const MemoryReader kReader = ReadEven;
const MemoryReader kNoReader;

ArgMatch Arg(ArgMatchKind kind, int64_t literal = 0, uint16_t var = 0, uint64_t mask = 0) {
  ArgMatch match;
  match.kind = kind;
  match.literal = literal;
  match.var = var;
  match.mask = mask;
  return match;
}

EventPattern Pattern(PatternKind kind, std::vector<ArgMatch> args, bool args_specified = true) {
  EventPattern pattern;
  pattern.kind = kind;
  pattern.function = InternString("match_test_fn");
  pattern.args_specified = args_specified;
  pattern.args = std::move(args);
  return pattern;
}

Event Call(std::vector<int64_t> args) { return Event::Call(InternString("match_test_fn"), args); }
Event Return(std::vector<int64_t> args, int64_t value) {
  return Event::Return(InternString("match_test_fn"), args, value);
}

void ExpectAgree(const EventPattern& pattern, const Event& event, const Outcome& expected,
                 const MemoryReader& reader = kReader) {
  const Outcome ref = Reference(pattern, event, reader);
  EXPECT_EQ(ref, expected) << "reference: " << pattern.ToString();
  EXPECT_EQ(Compiled(pattern, event, reader), ref) << pattern.ToString();
}

// --- directed cases ---

TEST(CompiledMatch, EveryArgMatchKind) {
  const EventPattern any = Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kAny)});
  ExpectAgree(any, Call({-5}), {true, {}});

  const EventPattern literal =
      Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kLiteral, -3)});
  ExpectAgree(literal, Call({-3}), {true, {}});
  ExpectAgree(literal, Call({3}), {});

  const EventPattern flags =
      Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kFlags, 0, 0, 0x6)});
  ExpectAgree(flags, Call({0x7}), {true, {}});
  ExpectAgree(flags, Call({0x6}), {true, {}});
  ExpectAgree(flags, Call({0x4}), {});

  const EventPattern bitmask =
      Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kBitmask, 0, 0, 0x6)});
  ExpectAgree(bitmask, Call({0x2}), {true, {}});
  ExpectAgree(bitmask, Call({0}), {true, {}});
  ExpectAgree(bitmask, Call({0x9}), {});
  ExpectAgree(bitmask, Call({-1}), {});

  const EventPattern variable =
      Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kVariable, 0, 2)});
  ExpectAgree(variable, Call({42}), {true, {{2, 42}}});
}

TEST(CompiledMatch, IndirectNeedsAReadableAddress) {
  const EventPattern indirect =
      Pattern(PatternKind::kFunctionCall, {Arg(ArgMatchKind::kIndirect, 0, 1)});
  ExpectAgree(indirect, Call({10}), {true, {{1, 31}}});
  ExpectAgree(indirect, Call({11}), {});             // unreadable address
  ExpectAgree(indirect, Call({10}), {}, kNoReader);  // no reader at all
}

TEST(CompiledMatch, ReturnMatchingNeedsAReturnEvent) {
  EventPattern ret = Pattern(PatternKind::kFunctionReturn, {Arg(ArgMatchKind::kVariable, 0, 0)});
  ret.match_return = true;
  ret.return_match = Arg(ArgMatchKind::kVariable, 0, 1);
  // Arguments bind first, then the return value.
  ExpectAgree(ret, Return({5}, 9), {true, {{0, 5}, {1, 9}}});
  ExpectAgree(ret, Call({5}), {});

  // A wildcard return test still needs a return value to test.
  ret.return_match = Arg(ArgMatchKind::kAny);
  ExpectAgree(ret, Return({5}, 9), {true, {{0, 5}}});
  ExpectAgree(ret, Call({5}), {});

  ret.return_match = Arg(ArgMatchKind::kLiteral, 0);
  ExpectAgree(ret, Return({5}, 0), {true, {{0, 5}}});
  ExpectAgree(ret, Return({5}, 1), {});
}

TEST(CompiledMatch, ShortAndTruncatedArgumentLists) {
  // The wildcard in the middle still counts towards the required length.
  const EventPattern three = Pattern(
      PatternKind::kFunctionCall,
      {Arg(ArgMatchKind::kVariable, 0, 0), Arg(ArgMatchKind::kAny), Arg(ArgMatchKind::kAny)});
  ExpectAgree(three, Call({1, 2, 3}), {true, {{0, 1}}});
  ExpectAgree(three, Call({1, 2, 3, 4}), {true, {{0, 1}}});
  ExpectAgree(three, Call({1, 2}), {});
  ExpectAgree(three, Call({}), {});

  // Unspecified arguments match any list, even an empty one.
  const EventPattern unspecified = Pattern(PatternKind::kFunctionCall, {}, false);
  ExpectAgree(unspecified, Call({}), {true, {}});
  ExpectAgree(unspecified, Call({7, 8}), {true, {}});

  // A pattern one argument longer than an event can carry never matches:
  // the event keeps only kMaxEventArgs values.
  std::vector<ArgMatch> long_args(runtime::kMaxEventArgs + 1, Arg(ArgMatchKind::kAny));
  const EventPattern too_long = Pattern(PatternKind::kFunctionCall, long_args);
  const Event truncated = Call(std::vector<int64_t>(runtime::kMaxEventArgs + 1, 0));
  ASSERT_TRUE(truncated.truncated);
  ExpectAgree(too_long, truncated, {});
  // The truncated event still matches a pattern that fits in it.
  long_args.pop_back();
  long_args.back() = Arg(ArgMatchKind::kVariable, 0, 3);
  ExpectAgree(Pattern(PatternKind::kFunctionCall, long_args), truncated, {true, {{3, 0}}});
}

TEST(CompiledMatch, VariableBoundTwiceMustAgree) {
  const ArgMatch x4 = Arg(ArgMatchKind::kVariable, 0, 4);
  EventPattern twice = Pattern(PatternKind::kFunctionReturn, {x4, x4});
  ExpectAgree(twice, Call({6, 6}), {true, {{4, 6}}});
  ExpectAgree(twice, Call({6, 7}), {});
  // Through the return value too.
  twice.args.pop_back();
  twice.match_return = true;
  twice.return_match = x4;
  ExpectAgree(twice, Return({6}, 6), {true, {{4, 6}}});
  ExpectAgree(twice, Return({6}, 5), {});
  // And through a pointer: the pointee of 2 is 7.
  twice.return_match = Arg(ArgMatchKind::kIndirect, 0, 4);
  ExpectAgree(twice, Return({7}, 2), {true, {{4, 7}}});
  ExpectAgree(twice, Return({6}, 2), {});
}

// --- randomized sweep over the shipped manifests ---

uint64_t Next(uint64_t& rng) {
  rng = rng * 6364136223846793005ull + 1442695040888963407ull;
  return rng >> 17;
}

// A value likely to be interesting for `match`: its literal, values around
// its mask, a value reused from earlier in the event, or noise.
int64_t Draw(const ArgMatch& match, const std::vector<int64_t>& earlier, uint64_t& rng) {
  const uint64_t roll = Next(rng) % 8;
  const uint64_t noise = Next(rng);
  switch (roll) {
    case 0:
      return match.literal;
    case 1:
      return static_cast<int64_t>(match.mask | (noise & 0xff));
    case 2:
      return static_cast<int64_t>(match.mask & noise);
    case 3:
      return static_cast<int64_t>(match.mask);
    case 4:
      return earlier.empty() ? 0 : earlier[noise % earlier.size()];
    case 5:
      return static_cast<int64_t>(noise % 8);  // small: often even, often repeated
    default:
      return static_cast<int64_t>(noise) - static_cast<int64_t>(Next(rng));
  }
}

// Compares the two on random events for every function pattern of
// `manifest` (body symbols are the runtime's candidates; the bound's
// «init»/«cleanup» patterns are lowered the same way). Returns the number
// of patterns checked and counts matched events in `matches`.
size_t SweepManifest(const automata::Manifest& manifest, uint64_t seed, size_t* matches) {
  uint64_t rng = seed;
  size_t patterns = 0;
  for (const automata::Automaton& automaton : manifest.automata) {
    for (const EventPattern& pattern : automaton.alphabet) {
      if (pattern.kind != PatternKind::kFunctionCall &&
          pattern.kind != PatternKind::kFunctionReturn) {
        continue;
      }
      patterns++;
      for (int trial = 0; trial < 64; trial++) {
        const size_t wanted = pattern.args.size();
        // Mostly the pattern's length; sometimes shorter, longer or past
        // the event's capacity (truncated).
        size_t count = wanted;
        switch (Next(rng) % 8) {
          case 0:
            count = wanted == 0 ? 0 : Next(rng) % wanted;
            break;
          case 1:
            count = wanted + 1 + Next(rng) % 3;
            break;
          case 2:
            count = runtime::kMaxEventArgs + 1;
            break;
          default:
            break;
        }
        std::vector<int64_t> args;
        for (size_t i = 0; i < count; i++) {
          const ArgMatch& match = i < wanted ? pattern.args[i] : ArgMatch{};
          args.push_back(Draw(match, args, rng));
        }
        const bool is_return = Next(rng) % 4 != 0
                                   ? pattern.kind == PatternKind::kFunctionReturn
                                   : pattern.kind != PatternKind::kFunctionReturn;
        const int64_t ret = Draw(pattern.return_match, args, rng);
        const Event event = is_return ? Event::Return(pattern.function, args, ret)
                                      : Event::Call(pattern.function, args);
        for (const MemoryReader* reader : {&kReader, &kNoReader}) {
          const Outcome ref = Reference(pattern, event, *reader);
          const Outcome got = Compiled(pattern, event, *reader);
          if (ref.matched) {
            ++*matches;
          }
          EXPECT_EQ(got, ref) << automaton.name << ": " << pattern.ToString() << " trial "
                              << trial;
          if (::testing::Test::HasFailure()) {
            return patterns;
          }
        }
      }
    }
  }
  return patterns;
}

TEST(CompiledMatch, AgreesOnKernelAssertions) {
  auto manifest = kernelsim::KernelAssertions(kernelsim::kSetAll | kernelsim::kSetTimed);
  ASSERT_TRUE(manifest.ok());
  size_t matches = 0;
  EXPECT_GT(SweepManifest(manifest.value(), 1, &matches), 100u);
  EXPECT_GT(matches, 1000u);
}

TEST(CompiledMatch, AgreesOnFetchAssertions) {
  auto manifest = sslsim::FetchAssertions();
  ASSERT_TRUE(manifest.ok());
  size_t matches = 0;
  EXPECT_GT(SweepManifest(manifest.value(), 2, &matches), 0u);
  EXPECT_GT(matches, 0u);
}

TEST(CompiledMatch, AgreesOnGuiManifest) {
  objsim::ObjcRuntime objc;
  objsim::AppKit app(objc, objsim::AppKitConfig{});
  auto manifest = objsim::GuiManifest(app);
  ASSERT_TRUE(manifest.ok());
  size_t matches = 0;
  EXPECT_GT(SweepManifest(manifest.value(), 3, &matches), 0u);
  EXPECT_GT(matches, 0u);
}

}  // namespace
}  // namespace tesla
