// PlanHints: the feedback half of tesla::profile.
//
// A profile snapshot distils into per-class plan hints that Register()
// consumes at plan-compile time:
//
//   * capacity — expected per-class instance fan-out. The runtime sizes each
//     context's SlotPool from the sum of capacity hints (replacing the
//     single instances_per_context knob with data): any context can host any
//     class's instances, so the sum is the safe per-pool bound.
//   * min_population — per-class override of the index_min_population gate.
//     A class whose profile shows the gate forcing scans on a steady
//     population gets the probe turned back on.
//   * prefix_key_pos — position (in the class's ascending-variable key
//     order) of the key variable to build a secondary prefix index on, or -1.
//     Chosen for classes whose scans are dominated by partially-bound
//     dispatches that do bind this variable.
//
// Hints travel as a line-oriented text file (one class per line) emitted by
// `tesla-trace profile --hints-out` / `mac_audit --profile-out` and read
// back via `--plan-hints`; unknown classes and malformed lines are reported,
// never silently applied.
#ifndef TESLA_PROFILE_HINTS_H_
#define TESLA_PROFILE_HINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "profile/snapshot.h"
#include "support/result.h"

namespace tesla::profile {

struct ClassHint {
  std::string name;
  // Expected live-instance fan-out (0 = no hint; plan falls back to the
  // instances_per_context share).
  uint32_t capacity = 0;
  // Per-class index_min_population override (negative = keep the global
  // knob; 0 probes unconditionally).
  int32_t min_population = -1;
  // Secondary prefix-index key position, or -1 for none.
  int32_t prefix_key_pos = -1;
};

struct PlanHints {
  std::vector<ClassHint> classes;

  bool empty() const { return classes.empty(); }
  const ClassHint* Find(const std::string& name) const {
    for (const ClassHint& hint : classes) {
      if (hint.name == name) {
        return &hint;
      }
    }
    return nullptr;
  }
};

// Distils a merged profile into hints (deterministic: depends only on the
// snapshot's contents). Classes that never dispatched get no hint line.
PlanHints HintsFromSnapshot(const Snapshot& snapshot);

// Text round-trip. Format, one class per line (# comments, blank lines ok):
//   class <name-length>:<name> capacity=<n> min_population=<n> prefix_key_pos=<n>
// The length prefix keeps names with spaces unambiguous. A field outside
// its range (capacity beyond 2^20, min_population outside [-1, INT32_MAX],
// prefix_key_pos outside [-1, kMaxKeyVars)) fails the parse.
std::string HintsToText(const PlanHints& hints);
Result<PlanHints> ParseHints(const std::string& text);

// File convenience wrappers (used by the CLI tools and examples).
Status WriteHintsFile(const std::string& path, const PlanHints& hints);
Result<PlanHints> ReadHintsFile(const std::string& path);

}  // namespace tesla::profile

#endif  // TESLA_PROFILE_HINTS_H_
