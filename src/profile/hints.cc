#include "profile/hints.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace tesla::profile {
namespace {

// Smallest power of two ≥ n (for capacity hints; pools like round sizes).
uint32_t RoundUpPow2(uint64_t n) {
  uint32_t p = 1;
  while (p < n && p < (1u << 20)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

PlanHints HintsFromSnapshot(const Snapshot& snapshot) {
  PlanHints hints;
  for (const ClassProfile& cls : snapshot.classes) {
    const uint64_t dispatches = cls.cell(Cell::dispatches);
    const uint64_t peak = cls.cell(Cell::fanout_peak);
    if (dispatches == 0 && peak == 0) {
      continue;  // class never exercised: nothing to learn
    }
    ClassHint hint;
    hint.name = cls.name;
    // Capacity: headroom of 2× the observed peak, floor of 16 so a class
    // that bursts slightly past its profile window doesn't overflow.
    hint.capacity = std::max<uint32_t>(16, RoundUpPow2(peak * 2));

    const uint64_t gated = cls.cell(Cell::small_population);
    const uint64_t partial = cls.cell(Cell::partial_bound);
    // The population gate forced scans on a class that keeps a steady keyed
    // population: turn the probe back on for it. Guard against one-off
    // warm-up scans by requiring the gate to be the dominant fallback cause.
    if (gated > 0 && gated >= partial) {
      hint.min_population = 0;
    }
    // Prefix index: scans dominated by partially-bound dispatches, where one
    // tracked key variable was bound in most of them. Pick the most-bound
    // variable (lowest position wins ties — deterministic).
    if (partial > 0 && partial >= gated) {
      size_t best = kMaxKeyVars;
      uint64_t best_count = 0;
      const size_t tracked = std::min(cls.key_vars.size(), kMaxKeyVars);
      for (size_t p = 0; p < tracked; p++) {
        if (cls.var_partial[p] > best_count) {
          best = p;
          best_count = cls.var_partial[p];
        }
      }
      if (best < kMaxKeyVars) {
        hint.prefix_key_pos = static_cast<int32_t>(best);
      }
    }
    hints.classes.push_back(std::move(hint));
  }
  return hints;
}

std::string HintsToText(const PlanHints& hints) {
  std::string out;
  out.append("# tesla plan hints v1 — emitted from a workload profile.\n");
  out.append("# class <len>:<name> capacity=<n> min_population=<n> prefix_key_pos=<n>\n");
  for (const ClassHint& hint : hints.classes) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "class %zu:", hint.name.size());
    out.append(buf);
    out.append(hint.name);
    std::snprintf(buf, sizeof(buf), " capacity=%" PRIu32 " min_population=%" PRId32
                                    " prefix_key_pos=%" PRId32 "\n",
                  hint.capacity, hint.min_population, hint.prefix_key_pos);
    out.append(buf);
  }
  return out;
}

Result<PlanHints> ParseHints(const std::string& text) {
  PlanHints hints;
  size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    lineno++;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line.compare(0, 6, "class ") != 0) {
      return Error{"plan hints: expected 'class' directive", lineno, 1};
    }
    size_t colon = line.find(':', 6);
    if (colon == std::string::npos) {
      return Error{"plan hints: missing name length prefix", lineno, 1};
    }
    char* end = nullptr;
    const unsigned long name_len = std::strtoul(line.c_str() + 6, &end, 10);
    if (end != line.c_str() + colon || colon + 1 + name_len > line.size()) {
      return Error{"plan hints: bad name length", lineno, 1};
    }
    ClassHint hint;
    hint.name = line.substr(colon + 1, name_len);
    const char* rest = line.c_str() + colon + 1 + name_len;
    long capacity = 0, min_population = -1, prefix = -1;
    if (std::sscanf(rest, " capacity=%ld min_population=%ld prefix_key_pos=%ld",
                    &capacity, &min_population, &prefix) != 3) {
      return Error{"plan hints: malformed fields after class name", lineno, 1};
    }
    // -1 is each field's "no hint"; anything the int32_t fields cannot hold
    // is rejected rather than wrapped into a different (valid) hint.
    if (capacity < 0 || capacity > (1 << 20) || min_population < -1 ||
        min_population > INT32_MAX || prefix < -1 ||
        prefix >= static_cast<long>(kMaxKeyVars)) {
      return Error{"plan hints: field out of range", lineno, 1};
    }
    hint.capacity = static_cast<uint32_t>(capacity);
    hint.min_population = static_cast<int32_t>(min_population);
    hint.prefix_key_pos = static_cast<int32_t>(prefix);
    hints.classes.push_back(std::move(hint));
  }
  return hints;
}

Status WriteHintsFile(const std::string& path, const PlanHints& hints) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Error{"cannot open '" + path + "' for writing"};
  }
  const std::string text = HintsToText(hints);
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  if (written != text.size()) {
    return Error{"short write to '" + path + "'"};
  }
  return Status::Ok();
}

Result<PlanHints> ReadHintsFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Error{"cannot open plan-hints file '" + path + "'"};
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, n);
  }
  std::fclose(file);
  return ParseHints(text);
}

}  // namespace tesla::profile
