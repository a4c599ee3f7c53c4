// Trace-event vocabulary shared by the virtual-time simulator and the
// real-thread runtime. One TraceEvent is a fixed-size POD stamped with a
// nanosecond timestamp (virtual or wall-clock, depending on the substrate),
// the core (track) it happened on, and an event kind with two kind-specific
// payload words — small enough to push through a lock-free ring on the hot
// path without allocation.
#pragma once

#include <cstdint>

#include "common/time_types.hpp"

namespace rtopex::obs {

/// Processing stage an event refers to (kNone for whole-subframe events).
enum class Stage : std::uint8_t {
  kNone = 0,
  kFft = 1,
  kDemod = 2,
  kDecode = 3,
};

inline constexpr unsigned kNumStages = 4;

enum class EventKind : std::uint8_t {
  kSubframeBegin = 0,  ///< worker starts a subframe (span open).
  kSubframeEnd,        ///< span close; a = 1 when the deadline was missed.
  kStageBegin,         ///< stage span open (stage field set).
  kStageEnd,           ///< stage span close.
  kOffload,            ///< migrator placed a chunk; a = target core, b = count.
  kHostBegin,          ///< host starts a migrated chunk; a = source core.
  kHostEnd,            ///< host finished/preempted the chunk; b = completed.
  kRecovery,           ///< migrator re-executed subtasks locally; b = count.
  kWatchdogFire,       ///< watchdog declared a core dead; a = dead core.
  kDegrade,            ///< decode admitted below full quality; a = cap.
  kGapBegin,           ///< idle gap opens on a core (virtual time only).
  kGapEnd,             ///< idle gap closes.
  kDrop,               ///< slack check rejected the subframe.
  kTerminate,          ///< execution was cut at the deadline.
  kLost,               ///< fronthaul loss: subframe never arrived.
  kLate,               ///< arrived after its deadline had passed; a = ns late.
  kArrival,            ///< fronthaul delivery; a = deadline - arrival (ns,
                       ///< clamped at 0), b = arrival - radio_time (ns).
  kJobSpec,            ///< workload-capture record for the what-if replayer:
                       ///< ts = radio time, a = field id, b = field value
                       ///< (see obs/analysis/replay.hpp). Ignored by the
                       ///< postmortem analyzer.
  kShed,               ///< cluster admission control dropped the subframe at
                       ///< ingress; ts = arrival, a = deadline - arrival (ns,
                       ///< clamped at 0), b = arrival - radio_time (ns) —
                       ///< kArrival's payload shape, so the analyzer can
                       ///< place the subframe without a kArrival of its own.
  kRehome,             ///< cluster control plane dispatched the subframe to a
                       ///< node other than its basestation's original home
                       ///< (failure re-homing); ts = arrival, a = new node,
                       ///< b = original node.
  kAlert,              ///< health rule fired (obs/health): ts = evaluation
                       ///< boundary, index = rule id, bs = scope id,
                       ///< a = severity | (scope kind << 8), b = the windowed
                       ///< statistic that tripped the rule x1000 (burn rate
                       ///< in SLO multiples, or |z| for anomaly rules).
  kAlertClear,         ///< the same rule/scope dropped back below its clear
                       ///< threshold for the hold period; payload mirrors
                       ///< kAlert with b = the statistic at clear time.
};

// Payload conventions consumed by the postmortem analyzer (obs/analysis):
//  * kArrival stamps ts = arrival and carries the deadline (a) and the
//    transport delay (b) in-band, so the analyzer never guesses either.
//  * kStageBegin carries the stage-duration estimate the admission logic
//    used in `a` (ns, clamped to 32 bits — far above the 2 ms budget); for
//    the decode stage `b` is the turbo-iteration count that estimate
//    assumed (Lm under WCET admission, 1 under optimistic, the cap when
//    degraded).
//  * kDrop carries the decision a slack check (sched::admit) made: `a` = the
//    estimate that did not fit and `b` = the slack it had, both in ns from
//    the decision time and clamped like kStageBegin, so a > b. The runtime's
//    one check precedes the FFT, so its `a` includes the FFT and demod
//    estimates.
//  * kSubframeEnd carries `a` = 1 on a deadline miss and `b` = the turbo
//    iterations actually executed (0 when the decode never ran).
//  * kAlert / kAlertClear are emitted by the health engine (obs/health), not
//    the schedulers: the analyzer collects them into per-alert windows and
//    links each to the miss causes active inside it.
//  * kJobSpec is not consumed by the analyzer at all: it carries one field
//    of the offered workload (costs, iteration counts, deadlines) so the
//    what-if replayer can rebuild the exact per-subframe job the scheduler
//    saw. The field-id vocabulary lives in obs/analysis/replay.hpp.

/// Compact fixed-size trace record. `core` doubles as the ring/track index;
/// non-core producers (the transport ticker) use a dedicated extra track.
struct TraceEvent {
  TimePoint ts = 0;          ///< nanoseconds (virtual or since run start).
  std::uint32_t bs = 0;      ///< basestation id (0 when not applicable).
  std::uint32_t index = 0;   ///< subframe index within the basestation.
  std::uint32_t a = 0;       ///< kind-specific (target core, cap, ...).
  std::uint32_t b = 0;       ///< kind-specific (subtask count, ...).
  std::uint32_t core = 0;    ///< track the event belongs to.
  EventKind kind = EventKind::kSubframeBegin;
  Stage stage = Stage::kNone;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

const char* to_string(EventKind kind);
const char* to_string(Stage stage);

/// Saturates a nanosecond duration into a 32-bit payload word. Negative
/// values clamp to 0, values past 2^32-1 ns (~4.3 s, far above any
/// per-subframe quantity) to the maximum.
inline std::uint32_t clamp_payload_ns(std::int64_t ns) {
  if (ns <= 0) return 0;
  if (ns >= 0xffffffffLL) return 0xffffffffu;
  return static_cast<std::uint32_t>(ns);
}

}  // namespace rtopex::obs
