// Shared pieces of the benchmark binary: the run options, the result the
// workloads fill (metrics plus output checks), and the workload entry
// points. Every end-to-end figure is a median over reps or a long-run
// total; the per-layer figures come from the traced layer tour.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace repobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< traced mode: where the span list goes.
};

struct Metric {
  double value = 0.0;
  std::string unit;
  Summary reps;         ///< per-rep spread (n = reps), when measured per rep.
  std::string detail;   ///< one-line note, e.g. the percentile rank used.
};

/// What one benchmark run produced. A failed check makes the run fail: its
/// numbers are never reported as a result.
struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;  ///< operations whose output was checked.
  std::uint64_t failed = 0;     ///< operations whose output was wrong.

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& detail = "") {
    Metric& m = metrics[name];
    m.value = value;
    m.unit = unit;
    m.detail = detail;
  }
  /// Median of per-rep values, with their quartiles kept for the report.
  void set_median(const std::string& name, const std::vector<double>& reps,
                  const std::string& unit) {
    Metric& m = metrics[name];
    m.reps = summarize(reps);
    m.value = m.reps.median;
    m.unit = unit;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

/// One rep's latency sample: completed subframes and failures.
struct RepLatency {
  std::vector<double> completed_us;
  std::size_t failures = 0;
};

/// A latency percentile as a metric. The median/quartiles are the same
/// percentile taken per rep; the value is their median when
/// `median_of_reps` (every rep must then carry the rank on its own), else
/// the percentile of all reps pooled. A percentile that lands on a failure
/// counts as `limit_us` (the deadline the failure missed), flagged in the
/// detail.
void set_latency(Result& r, const std::string& name,
                 const std::vector<RepLatency>& reps, double p,
                 double limit_us, bool median_of_reps = false);

// Workloads (end-to-end mode, tracing off).
void run_backlog(const Options& opt, Result& r);
void run_batched(const Options& opt, Result& r);
void run_realtime(const Options& opt, Result& r);
void run_postmortem(const Options& opt, Result& r);

// Traced mode: the layer tour (every per-layer metric, whatever workload).
void run_layer_tour(const Options& opt, Result& r);

}  // namespace repobench
