#include "spans.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, uint64_t> SpanLog::SelfTimes() const {
  std::vector<uint64_t> children(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, uint64_t> self;
  for (size_t i = 0; i < spans_.size(); i++) {
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].name] += duration - std::min(duration, children[i]);
  }
  return self;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "name,start_ns,end_ns,parent\n");
  for (const Span& span : spans_) {
    std::fprintf(file, "%s,%llu,%llu,%d\n", span.name,
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
