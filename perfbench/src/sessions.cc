#include "sessions.h"

#include <string>
#include <utility>

#include "automata/lower.h"

namespace perfbench {

using tesla::runtime::Binding;
using tesla::runtime::Event;

namespace {

// The traffic's shape.
constexpr uint32_t kSessionsPerEpoch = 2048;
constexpr uint32_t kConcurrent = 512;     // sessions interleaved at any moment
constexpr uint32_t kMaxRequests = 6;      // requests per session: 1..kMaxRequests
constexpr uint32_t kUsers = 1000;         // distinct u values
constexpr uint32_t kBrokenPerMille = 10;  // broken sessions per 1000
constexpr uint64_t kMeanGapNs = 1000;     // virtual time between events

constexpr const char* kBound = "TESLA_GLOBAL(call(epoch), returnfrom(epoch), ";

const std::pair<const char*, const char*> kOrderingSources[] = {
    {kAuthClass, "previously(authenticate(s, u) == 0))"},
    {kOpenedClass, "previously(open_session(s) == 0))"},
};

const std::pair<const char*, const char*> kRateSources[] = {
    {"sessions.request_rate_1ms", "rate(400, per_ms(1), ATLEAST(1, called(request(ANY(int))))))"},
    {"sessions.request_rate_8ms", "rate(2900, per_ms(8), ATLEAST(1, called(request(ANY(int))))))"},
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint16_t VariableIndex(const tesla::runtime::Runtime& rt, uint32_t id, const char* name) {
  const auto& variables = rt.automaton(id).variables;
  for (size_t i = 0; i < variables.size(); i++) {
    if (variables[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  return 0;
}

uint32_t ClassId(const tesla::runtime::Runtime& rt, const char* name) {
  const int id = rt.FindAutomaton(name);
  return id < 0 ? 0 : static_cast<uint32_t>(id);
}

}  // namespace

tesla::Result<tesla::automata::Manifest> SessionsManifest(bool with_rate) {
  tesla::automata::Manifest manifest;
  auto add = [&](const char* name, const char* body) -> tesla::Status {
    auto automaton = tesla::automata::CompileAssertion(std::string(kBound) + body, {}, name);
    if (!automaton.ok()) {
      return tesla::Error{std::string(name) + ": " + automaton.error().ToString()};
    }
    manifest.Add(std::move(automaton.value()));
    return {};
  };
  for (const auto& [name, body] : kOrderingSources) {
    if (tesla::Status status = add(name, body); !status.ok()) {
      return status.error();
    }
  }
  if (with_rate) {
    for (const auto& [name, body] : kRateSources) {
      if (tesla::Status status = add(name, body); !status.ok()) {
        return status.error();
      }
    }
  }
  return manifest;
}

tesla::runtime::RuntimeOptions SessionsOptions() {
  tesla::runtime::RuntimeOptions options;
  options.fail_stop = false;
  const uint32_t capacity = 2 * kSessionsPerEpoch;
  options.instances_per_context = capacity;
  for (const char* name : {kAuthClass, kOpenedClass}) {
    tesla::profile::ClassHint hint;
    hint.name = name;
    hint.capacity = capacity;
    // s is the first key variable of both classes; only sessions.auth sees
    // partially-bound sites, but the hint is harmless on sessions.opened.
    hint.prefix_key_pos = 0;
    options.plan_hints.classes.push_back(hint);
  }
  return options;
}

SessionGenerator::SessionGenerator(const tesla::runtime::Runtime& rt, uint64_t seed)
    : rng_(seed),
      epoch_(tesla::InternString("epoch")),
      open_(tesla::InternString("open_session")),
      auth_(tesla::InternString("authenticate")),
      request_(tesla::InternString("request")),
      auth_site_(ClassId(rt, kAuthClass)),
      opened_site_(ClassId(rt, kOpenedClass)),
      auth_var_s_(VariableIndex(rt, auth_site_, "s")),
      opened_var_s_(VariableIndex(rt, opened_site_, "s")),
      next_id_(SplitMix(seed)) {
  live_.reserve(kConcurrent);
}

void SessionGenerator::Emit(Event event, std::vector<Event>& out) {
  clock_ns_ += kMeanGapNs / 2 + rng_() % (kMeanGapNs + 1);
  event.ts_ns = clock_ns_;
  out.push_back(event);
}

void SessionGenerator::StartSession() {
  Session session;
  // SplitMix is a bijection, so distinct counters give distinct ids.
  session.id = static_cast<int64_t>(SplitMix(next_id_++) >> 1);
  session.user = static_cast<int64_t>(rng_() % kUsers);
  session.requests = 1 + static_cast<uint32_t>(rng_() % kMaxRequests);
  session.broken = rng_() % 1000 < kBrokenPerMille;
  live_.push_back(session);
  started_in_epoch_++;
}

bool SessionGenerator::Advance(Session& session, std::vector<Event>& out) {
  const int64_t s[] = {session.id};
  const int64_t su[] = {session.id, session.user};
  const uint32_t step = session.step++;
  // Steps 1 and 2 swap for a broken session: its site precedes its
  // authentication.
  const uint32_t auth_step = session.broken ? 2 : 1;
  const uint32_t site_step = session.broken ? 1 : 2;
  if (step == 0) {
    Emit(Event::Return(open_, s, 0), out);
  } else if (step == auth_step) {
    Emit(Event::Return(auth_, su, 0), out);
  } else if (step == site_step) {
    const Binding binding[] = {{auth_var_s_, session.id}};
    Emit(Event::Site(auth_site_, binding), out);
    if (session.broken) {
      broken_sited_++;
    }
  } else if ((step - 3) % 2 == 0) {
    Emit(Event::Call(request_, s), out);
  } else {
    const Binding binding[] = {{opened_var_s_, session.id}};
    Emit(Event::Site(opened_site_, binding), out);
  }
  return session.step == 3 + 2 * session.requests;
}

void SessionGenerator::Next(size_t n, std::vector<Event>& out) {
  const size_t target = out.size() + n;
  while (out.size() < target) {
    if (!in_epoch_) {
      Emit(Event::Call(epoch_, {}), out);
      in_epoch_ = true;
      started_in_epoch_ = 0;
      continue;
    }
    if (started_in_epoch_ < kSessionsPerEpoch && live_.size() < kConcurrent) {
      StartSession();
      continue;
    }
    if (live_.empty()) {
      Emit(Event::Return(epoch_, {}, 0), out);
      in_epoch_ = false;
      epochs_closed_++;
      continue;
    }
    const size_t pick = rng_() % live_.size();
    if (Advance(live_[pick], out)) {
      live_[pick] = live_.back();
      live_.pop_back();
    }
  }
}

}  // namespace perfbench
