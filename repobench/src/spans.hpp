// Span recorder for the traced mode. The benchmark opens a span around each
// call it makes into a module of the program (the program itself carries no
// benchmark instrumentation). Spans stay in memory and are written out when
// the run ends. A span's self time is its duration minus the part of it
// that its child spans cover; wall time inside a section that no span
// covers is that section's "other" time, so the layer costs add up to the
// section's total.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace repobench {

// Clocks shared by the benchmark.
std::int64_t now_ns();  ///< steady clock
double process_cpu_s();  ///< CPU time of every thread of the process
inline double seconds_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = -1;  ///< -1 while open.
    int parent = -1;        ///< index of the enclosing span, -1 at top level.
  };

  /// Opens a span nested in the innermost open one.
  int begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the union of its direct children's intervals (children
  /// of one parent never overlap in this single-threaded recorder, so the
  /// union is their sum clipped to the parent).
  std::int64_t self_ns(int id) const;
  /// Sum of self time over every span called `name`.
  std::int64_t self_ns(const std::string& name) const;
  /// Number of spans called `name`.
  std::size_t count(const std::string& name) const;
  /// Wall time in [from, to] that no top-level span covers.
  std::int64_t uncovered_ns(std::int64_t from, std::int64_t to) const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; does nothing when the recorder is null (untraced runs).
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec ? rec->begin(name) : -1) {}
  ~Scope() {
    if (rec_) rec_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace repobench
