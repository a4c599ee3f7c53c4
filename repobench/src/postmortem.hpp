// The postmortem workload: virtual-time figure regeneration. Partitioned,
// global-8 and RT-OPEX over 4 basestations at mean loads across the Fig. 17
// knee, each with static and with adaptive estimation; every run traced and
// passed to obs::analysis::analyze. No PHY runs here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"

namespace repobench {

inline constexpr std::array<double, 3> kPostmortemLoads = {0.5, 0.6, 0.7};
inline constexpr std::array<rtopex::core::SchedulerKind, 3>
    kPostmortemScheds = {rtopex::core::SchedulerKind::kPartitioned,
                         rtopex::core::SchedulerKind::kGlobal,
                         rtopex::core::SchedulerKind::kRtOpex};

/// Subframes per basestation per run: one sweep (18 traced runs plus their
/// analysis) takes a few seconds, so a run holds several sweeps.
inline constexpr std::size_t kPostmortemSubframesPerBs = 10000;

/// One (load, scheduler, estimation) run of a sweep.
struct PostmortemRun {
  rtopex::core::SchedulerKind kind{};
  bool adaptive = false;
  double load = 0.0;
  rtopex::sim::SchedulerMetrics metrics;
  std::size_t events = 0;
  std::uint64_t trace_drops = 0;
  std::uint64_t analyzed_misses = 0;
  std::uint64_t unknown_causes = 0;
  double traced_s = 0.0;    ///< run_scheduler with the tracer installed.
  double take_s = 0.0;      ///< Tracer::take.
  double analyze_s = 0.0;   ///< obs::analysis::analyze.
  double untraced_s = 0.0;  ///< run_scheduler without a tracer (tour only).
};

struct PostmortemRep {
  double setup_s = 0.0;  ///< make_workload for every load of the sweep.
  double run_s = 0.0;    ///< the traced runs plus their analysis.
  double cpu_s = 0.0;    ///< process CPU over the same span.
  std::size_t subframes = 0;
  std::size_t ok = 0;    ///< met the deadline and decoded (no NACK).
  /// Virtual-time latency (end - radio) of the subframes RT-OPEX with
  /// adaptive estimation completed, and its misses. The other runs of the
  /// sweep miss more than 1% (the static WCET admission at the knee, the
  /// adaptive collapse of partitioned and global), so a p99 over them
  /// would always land on a failure.
  std::vector<double> latency_us;
  std::size_t latency_failures = 0;
  std::vector<PostmortemRun> runs;
};

rtopex::core::ExperimentConfig postmortem_config(std::uint64_t seed,
                                                 std::size_t subframes_per_bs);

/// One full sweep. With `untraced` each run is also timed without a tracer
/// (the layer tour prices tracing that way). Applies
/// the output checks: the analyzer's miss count equals each scheduler's
/// deadline_misses and no trace event was dropped.
PostmortemRep run_postmortem_rep(std::uint64_t seed,
                                 std::size_t subframes_per_bs,
                                 SpanRecorder* spans, bool untraced,
                                 Result& r);

}  // namespace repobench
