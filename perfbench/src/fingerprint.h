// The machine and build a result was measured on. Every result records it:
// absolute times are only comparable between runs with equal fingerprints.
#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <string>

namespace perfbench {

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string clocksource;
  std::string compiler;
  std::string build_type;
  std::string source_id;  // git sha, or a digest of the sources outside git

  // The benchmark's figures are meant for Release builds; anything else
  // (the repository default is RelWithDebInfo) is flagged in the output.
  bool release() const { return build_type == "Release"; }
};

Fingerprint TakeFingerprint(const std::string& source_id);

// {"cpu_model": ..., ..., "release": true}
std::string FingerprintJson(const Fingerprint& fingerprint);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
