// Minimal JSON text helpers for the benchmark's output records.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

inline std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

// All significant digits; non-finite values (never produced by a correct
// run) print as 0 so the record stays valid JSON.
inline std::string JsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
