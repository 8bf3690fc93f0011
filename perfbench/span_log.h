// In-memory span log for the traced run. The benchmark wraps every call it makes into a
// layer's public functions in a span (name, start, end, parent) and writes the log out once,
// when the run ends. One thread records: every wrapped call is made by the benchmark's own
// driving thread. When disabled, Call() just calls.

#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";  // string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;    // index into spans(), -1 for a root
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) { spans_.reserve(enabled ? 1 << 16 : 0); }

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when disabled).
  int32_t Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int32_t idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(idx);
    return idx;
  }

  void End(int32_t idx) {
    if (idx < 0) {
      return;
    }
    spans_[static_cast<size_t>(idx)].end_ns = NowNs();
    open_.pop_back();
  }

  // Times one call as a span named `name`.
  template <typename F>
  decltype(auto) Call(const char* name, F&& f) {
    struct Closer {
      SpanLog* log;
      int32_t idx;
      ~Closer() { log->End(idx); }
    } closer{this, Begin(name)};
    return std::forward<F>(f)();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: {"id","parent","name","start_ns","end_ns"}. False on IO error.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   i, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
