// The real-thread node workloads (backlog, batched, realtime): their
// configurations, one timed NodeRuntime rep, and the output checks. Shared
// by the end-to-end workloads and the traced layer tour.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "runtime/node_runtime.hpp"

namespace repobench {

enum class NodeKind { kBacklog, kBatched, kRealtime };

/// Saturating arrivals: a 200 us period against ~1 ms of PHY per subframe
/// on one worker keeps the queue non-empty for the whole rep.
inline constexpr long kBacklogPeriodUs = 200;
/// Subframes per basestation in a backlog/batched rep: ~0.3 s of decode,
/// so a run's median rests on dozens of reps and each rep's fixed run()
/// overhead stays a few percent.
inline constexpr std::size_t kBacklogSubframesPerBs = 150;
/// Realtime pacing: a 3 ms period, LTE's 2:1 budget and a quarter-period
/// fronthaul, two basestations on one core each (~40% PHY load).
inline constexpr long kRealtimePeriodUs = 3000;

/// `observed` turns on every observer (trace, health, profile, metrics
/// sink every period); it only applies to kRealtime.
rtopex::runtime::RuntimeConfig node_config(NodeKind kind, std::uint64_t seed,
                                           std::size_t subframes_per_bs,
                                           bool observed = true);

struct NodeRep {
  double setup_s = 0.0;  ///< NodeRuntime construction.
  double wall_s = 0.0;   ///< run().
  double cpu_s = 0.0;    ///< process CPU during run().
  std::size_t offered = 0;
  std::size_t metrics_renders = 0;  ///< metrics-sink calls (observed only).
  rtopex::runtime::RuntimeReport report;
};

/// Constructs the node and runs it once; spans (when non-null) cover the
/// construction and run() calls.
NodeRep run_node_rep(const rtopex::runtime::RuntimeConfig& cfg,
                     SpanRecorder* spans);

/// Per-subframe outcome classes. ok: decoded CRC-ok by the deadline.
struct NodeOutcome {
  std::size_t offered = 0;
  std::size_t ok = 0;
  std::size_t dropped = 0;    ///< slack-check rejections.
  std::size_t late = 0;       ///< arrived late, or decoded past the deadline.
  std::size_t lost = 0;
  std::size_t crc_failures = 0;  ///< among decoded: always a wrong output.
  std::vector<double> latency_us;  ///< ok subframes: completion - radio.
  std::vector<double> service_us;  ///< decoded: completion - start.
};

/// Classifies every record and applies the output checks: one record per
/// offered subframe, no CRC failure among decoded subframes, the classes
/// summing to the offered count, and — for the saturating workloads —
/// every subframe decoded CRC-ok.
NodeOutcome check_node_rep(NodeKind kind, const NodeRep& rep, Result& r);

}  // namespace repobench
