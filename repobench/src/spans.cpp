#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace repobench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

int SpanRecorder::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  open_.pop_back();
}

std::int64_t SpanRecorder::self_ns(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  if (s.end < 0) return 0;
  std::int64_t covered = 0;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    const Span& c = spans_[i];
    if (c.start >= s.end) break;  // spans are stored in start order
    if (c.parent != id || c.end < 0) continue;
    covered += std::min(c.end, s.end) - std::max(c.start, s.start);
  }
  return s.end - s.start - covered;
}

std::int64_t SpanRecorder::self_ns(const std::string& name) const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name) sum += self_ns(static_cast<int>(i));
  return sum;
}

std::size_t SpanRecorder::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&name](const Span& s) { return s.name == name; }));
}

std::int64_t SpanRecorder::uncovered_ns(std::int64_t from,
                                        std::int64_t to) const {
  std::int64_t covered = 0;
  for (const Span& s : spans_) {
    if (s.parent != -1 || s.end < 0) continue;
    const std::int64_t lo = std::max(s.start, from);
    const std::int64_t hi = std::min(s.end, to);
    if (hi > lo) covered += hi - lo;
  }
  return (to - from) - covered;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"self_ns\": %lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent,
                 static_cast<long long>(self_ns(static_cast<int>(i))));
  }
  return std::fclose(f) == 0;
}

}  // namespace repobench
