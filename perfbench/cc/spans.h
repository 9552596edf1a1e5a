// spans.h — the traced run's span recorder.
//
// A span is one timed call into a library layer, made from the benchmark's
// own code: name, start, end, the span that was open around it (its parent)
// and the request it belongs to. `items` is what the call processed (packets,
// bytes, rounds), so a layer's cost per item is its self time over its items.
// Spans stay in memory and are written out once, when the run ends; all
// arithmetic on them (self time, per-item cost) happens in benchmath.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  // a string literal, so it never dangles
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder, -1 = root
  std::uint64_t request = 0;
  std::uint64_t items = 1;
};

/// Single-threaded recorder: open/close nest through an explicit stack, so a
/// span's parent is whatever span was open when it started. Spans measured
/// on other threads are added whole with add() after those threads joined.
class SpanRecorder {
 public:
  std::size_t open(const char* name, std::uint64_t request,
                   std::uint64_t items = 1) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.request = request;
    s.items = items;
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t request, std::uint64_t items) {
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.request = request;
    s.items = items;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line. Returns false when the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"request\":%llu,\"items\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.items));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t request,
             std::uint64_t items = 1)
      : rec_(rec), index_(rec.open(name, request, items)) {}
  ~ScopedSpan() { rec_.close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

}  // namespace perfbench
