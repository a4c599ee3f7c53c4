// The benchmark's own tests: the percentile helper, the quartile summary
// and the span recorder's self / uncovered time. Build and run with
// `python3 repobench/run.py --selftest`; exit code 0 when every check holds.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

std::vector<double> ramp(std::size_t n) {  // 1, 2, ..., n in reverse order
  std::vector<double> v;
  for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_all_completed() {
  using repobench::percentile;
  const auto p50 = percentile(ramp(1000), 0, 0.50);
  expect(p50.valid && !p50.failure && near(p50.value, 500.0),
         "p50 of 1..1000 is 500");
  const auto p99 = percentile(ramp(1000), 0, 0.99);
  expect(p99.valid && near(p99.value, 990.0) && near(p99.rank, 0.99) &&
             p99.beyond == 10 && p99.n == 1000,
         "p99 of 1..1000 is 990 with 10 beyond");
}

void test_percentile_caps_rank() {
  using repobench::percentile;
  // 200 samples: p99 would leave 2 beyond; the helper reports p95 instead.
  const auto p = percentile(ramp(200), 0, 0.99);
  expect(p.valid && near(p.rank, 0.95) && p.beyond == 10 &&
             near(p.value, 190.0),
         "p99 of 200 samples falls back to p95 (10 beyond)");
  const auto tiny = percentile(ramp(10), 0, 0.5);
  expect(!tiny.valid, "10 samples cannot carry any percentile");
  const auto eleven = percentile(ramp(11), 0, 0.99);
  expect(eleven.valid && eleven.beyond == 10 && near(eleven.value, 1.0),
         "11 samples: only the minimum has 10 beyond it");
}

void test_percentile_failures_rank_above() {
  using repobench::percentile;
  // 985 completions + 15 failures (1.5% > 1%): p99 lands on a failure,
  // p98 still on a completion, and the median ignores the failures'
  // position except through the count.
  const auto p99 = percentile(ramp(985), 15, 0.99);
  expect(p99.valid && p99.failure && p99.n == 1000 && p99.beyond == 10,
         "p99 with 1.5% failures lands on a failure");
  const auto p98 = percentile(ramp(985), 15, 0.98);
  expect(p98.valid && !p98.failure && near(p98.value, 980.0),
         "p98 with 1.5% failures is the 980th completion");
  const auto p50 = percentile(ramp(985), 15, 0.50);
  expect(!p50.failure && near(p50.value, 500.0),
         "failures shift the median by rank only");
  // Exactly 1% failures: the p99 rank is the last completion.
  const auto edge = percentile(ramp(990), 10, 0.99);
  expect(!edge.failure && near(edge.value, 990.0),
         "with exactly 1% failures p99 is the largest completion");
  const auto all_failed = percentile({}, 50, 0.5);
  expect(all_failed.valid && all_failed.failure,
         "no completions: every percentile is a failure");
}

void test_summary_matches_python_quantiles() {
  using repobench::summarize;
  // Reference values from statistics.quantiles(v, n=4) (exclusive method).
  const auto a = summarize({5, 1, 4, 2, 3});
  expect(near(a.q1, 1.5) && near(a.median, 3.0) && near(a.q3, 4.5),
         "quartiles of 1..5");
  const auto b = summarize({1, 2, 3, 4});
  expect(near(b.q1, 1.25) && near(b.median, 2.5) && near(b.q3, 3.75),
         "quartiles of 1..4");
  const auto c = summarize({100, 90, 80, 70, 60, 50, 40, 30, 20, 10});
  expect(near(c.q1, 27.5) && near(c.median, 55.0) && near(c.q3, 82.5) &&
             c.n == 10,
         "quartiles of ten values");
  const auto d = summarize({3, 1, 2});
  expect(near(d.q1, 1.0) && near(d.median, 2.0) && near(d.q3, 3.0),
         "quartiles of three values");
}

void test_spans_self_and_uncovered() {
  using namespace std::chrono_literals;
  repobench::SpanRecorder rec;
  const std::int64_t from = repobench::now_ns();
  {
    repobench::Scope outer(&rec, "outer");
    std::this_thread::sleep_for(5ms);
    {
      repobench::Scope inner(&rec, "inner");
      std::this_thread::sleep_for(10ms);
    }
  }
  std::this_thread::sleep_for(5ms);
  const std::int64_t to = repobench::now_ns();
  const auto& spans = rec.spans();
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1,
         "inner span's parent is outer");
  const std::int64_t outer_total = spans[0].end - spans[0].start;
  const std::int64_t inner_total = spans[1].end - spans[1].start;
  expect(rec.self_ns("outer") == outer_total - inner_total,
         "self time is duration minus child coverage");
  expect(rec.self_ns("inner") == inner_total, "a leaf's self time is its span");
  const std::int64_t other = rec.uncovered_ns(from, to);
  expect(other == (to - from) - outer_total,
         "uncovered time is the window minus top-level coverage");
  expect(other >= 4'000'000, "the trailing 5 ms sleep is uncovered");
  expect(rec.count("inner") == 1 && rec.count("missing") == 0, "span counts");
  bool threw = false;
  const int a = rec.begin("a");
  rec.begin("b");
  try {
    rec.end(a);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing a span that is not innermost throws");
}

}  // namespace

int main() {
  test_percentile_all_completed();
  test_percentile_caps_rank();
  test_percentile_failures_rank_above();
  test_summary_matches_python_quantiles();
  test_spans_self_and_uncovered();
  if (failures == 0) std::printf("repobench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
