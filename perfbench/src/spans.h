// In-memory span log for the traced run.
//
// The benchmark wraps its own calls into each TESLA layer in a Scope; a span
// records its name, start, end and parent. Nothing inside src/ is touched:
// a layer's time is what the benchmark observes around its public entry
// points. Spans stay in memory until WriteCsv() at the end of the run. A
// disabled log (the untraced runs) records nothing and reads no clock.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class SpanLog {
 public:
  struct Span {
    const char* name;  // static string: "<layer>.<call>"
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root
  };

  explicit SpanLog(bool enabled, size_t reserve = 0) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(reserve);
    }
  }

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  int32_t Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, current_});
    current_ = id;
    return id;
  }

  void End(int32_t id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  // Self time per span name: each span's duration minus the part its
  // children cover.
  std::map<std::string, uint64_t> SelfTimes() const;

  // name,start_ns,end_ns,parent — one line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
  ~Scope() { log_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
