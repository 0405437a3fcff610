#include "fingerprint.h"

#include <fstream>
#include <thread>

#include "json.h"

namespace perfbench {

namespace {

std::string Trim(std::string text) {
  const size_t begin = text.find_first_not_of(" \t\n");
  const size_t end = text.find_last_not_of(" \t\n");
  return begin == std::string::npos ? "" : text.substr(begin, end - begin + 1);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? "" : Trim(line.substr(colon + 1));
    }
  }
  return "unknown";
}

std::string Clocksource() {
  std::ifstream file("/sys/devices/system/clocksource/clocksource0/current_clocksource");
  std::string name;
  return std::getline(file, name) ? Trim(name) : "unknown";
}

}  // namespace

Fingerprint TakeFingerprint(const std::string& source_id) {
  Fingerprint fp;
  fp.cpu_model = CpuModel();
  fp.nproc = std::thread::hardware_concurrency();
  fp.clocksource = Clocksource();
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.source_id = source_id.empty() ? "unknown" : source_id;
  return fp;
}

std::string FingerprintJson(const Fingerprint& fp) {
  return "{\"cpu_model\":" + JsonString(fp.cpu_model) + ",\"nproc\":" +
         std::to_string(fp.nproc) + ",\"clocksource\":" + JsonString(fp.clocksource) +
         ",\"compiler\":" + JsonString(fp.compiler) + ",\"build_type\":" +
         JsonString(fp.build_type) + ",\"source_id\":" + JsonString(fp.source_id) +
         ",\"release\":" + (fp.release() ? "true" : "false") + "}";
}

}  // namespace perfbench
