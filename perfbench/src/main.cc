// perfbench: runs one workload and prints its result record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--source-id <sha>]
//
// stdout ends with two lines: a detail record ({"perfbench": {...}}: seed,
// fingerprint, checks, error rate, latency sample count) and the result
// ({"correct", "attempted", "failed", "metrics"}). --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer table. A human-readable table
// goes to stderr. Exit status: 0 when the run completed (correct or not),
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fingerprint.h"
#include "json.h"
#include "support/log.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload oltp_inline|oltp_observed|sessions_keyed|"
               "replay_capture --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--source-id SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string source_id;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &config.workload);
      if (!have_workload) {
        return Usage();
      }
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || config.seconds <= 0) {
    return Usage();
  }
  // Violations are expected verdicts here (sessions_keyed breaks sessions on
  // purpose); the census check counts them through a handler instead.
  tesla::SetLogLevel(tesla::LogLevel::kSilent);

  const Fingerprint fingerprint = TakeFingerprint(source_id);
  if (!fingerprint.release()) {
    std::fprintf(stderr, "perfbench: WARNING: build type %s is not Release; figures are not "
                         "comparable with Release results\n",
                 fingerprint.build_type.c_str());
  }

  const RunResult result = RunWorkload(config);

  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %s, %llu attempted, %llu failed\n",
               WorkloadName(config.workload), static_cast<unsigned long long>(config.seed),
               config.trace ? 1 : 0, result.correct() ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  for (const Check& check : result.checks) {
    std::fprintf(stderr, "  check %-36s %s %s\n", check.name.c_str(), check.ok ? "ok" : "FAILED",
                 check.detail.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::fprintf(stderr, "  %-38s %16.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }

  std::string detail = "{\"perfbench\":{\"workload\":" + JsonString(WorkloadName(config.workload)) +
                       ",\"seed\":" + std::to_string(config.seed) +
                       ",\"seconds\":" + JsonNumber(config.seconds) +
                       ",\"trace\":" + (config.trace ? "1" : "0") +
                       ",\"fingerprint\":" + FingerprintJson(fingerprint);
  for (const auto& [key, value] : result.detail) {
    detail += "," + JsonString(key) + ":" + value;
  }
  std::printf("%s}}\n", detail.c_str());

  std::string metrics;
  for (const Metric& metric : result.metrics) {
    metrics += (metrics.empty() ? "" : ",") + JsonString(metric.name) +
               ":{\"value\":" + JsonNumber(metric.value) + ",\"unit\":" + JsonString(metric.unit) +
               "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
