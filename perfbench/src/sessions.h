// The sessions_keyed workload's traffic: a seeded generator of server-session
// events, checked by global automata keyed by session id.
//
// Each epoch opens one temporal bound (call/return of `epoch`) that holds
// every session started in it, thousands of them live at once. A session
// emits, in order:
//   open_session(s) == 0             binds s        (sessions.opened)
//   authenticate(s, u) == 0          binds s and u  (sessions.auth)
//   site sessions.auth {s}           partially bound: u is not in the site
//   requests × (call request(s), site sessions.opened {s})
// A seeded fraction of sessions is *broken*: it authenticates only after its
// sessions.auth site, so the site finds no authenticated instance and the
// runtime reports exactly one kBadSite violation for that session. Two
// rate() classes count request calls per 1 ms and per 8 ms windows of the
// generator's virtual clock (every event is pre-stamped, so timed verdicts
// are a pure function of the seed).
//
// Per-session within_ms() is deliberately absent: a runtime TimedCell is per
// class and storage context, not per instance, so with thousands of live
// sessions one deadline would arm once and expire.
#ifndef PERFBENCH_SESSIONS_H_
#define PERFBENCH_SESSIONS_H_

#include <cstdint>
#include <random>
#include <vector>

#include "automata/manifest.h"
#include "runtime/event.h"
#include "runtime/runtime.h"
#include "support/result.h"

namespace perfbench {

inline constexpr const char* kAuthClass = "sessions.auth";
inline constexpr const char* kOpenedClass = "sessions.opened";

// The workload's assertions. `with_rate` adds the two rate() classes.
tesla::Result<tesla::automata::Manifest> SessionsManifest(bool with_rate);

// RuntimeOptions for a sessions run: fail_stop off, pools sized for an
// epoch's population, and a prefix-index plan hint on sessions.auth's s so
// partially-bound sites probe one bucket instead of scanning the epoch.
tesla::runtime::RuntimeOptions SessionsOptions();

class SessionGenerator {
 public:
  // `rt` must have the SessionsManifest registered (for the site ids).
  SessionGenerator(const tesla::runtime::Runtime& rt, uint64_t seed);

  // Appends exactly `n` events to `out`.
  void Next(size_t n, std::vector<tesla::runtime::Event>& out);

  // Broken sessions whose sessions.auth site has been emitted so far — the
  // kBadSite violations a correct runtime must have reported.
  uint64_t broken_sited() const { return broken_sited_; }
  uint64_t epochs_closed() const { return epochs_closed_; }

 private:
  struct Session {
    int64_t id = 0;
    int64_t user = 0;
    uint32_t step = 0;
    uint32_t requests = 0;
    bool broken = false;
  };

  void Emit(tesla::runtime::Event event, std::vector<tesla::runtime::Event>& out);
  void StartSession();
  // Emits the session's next event; true when the session is finished.
  bool Advance(Session& session, std::vector<tesla::runtime::Event>& out);

  std::mt19937_64 rng_;
  tesla::Symbol epoch_;
  tesla::Symbol open_;
  tesla::Symbol auth_;
  tesla::Symbol request_;
  uint32_t auth_site_;
  uint32_t opened_site_;
  uint16_t auth_var_s_;
  uint16_t opened_var_s_;

  std::vector<Session> live_;
  bool in_epoch_ = false;
  uint32_t started_in_epoch_ = 0;
  uint64_t next_id_ = 0;
  uint64_t clock_ns_ = 0;
  uint64_t broken_sited_ = 0;
  uint64_t epochs_closed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SESSIONS_H_
