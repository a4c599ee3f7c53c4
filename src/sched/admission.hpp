// The paper's §4.1 slack check, once for both substrates: admit a subframe
// whose estimate fits before its deadline, else (degradation on) retry with
// the turbo-iteration cap shrunk below Lm, else drop. Pure and free of
// sim::SubframeWork, so the virtual-time schedulers and the real-thread
// runtime call the same function with their own estimates.
#pragma once

#include "common/resilience.hpp"
#include "common/time_types.hpp"

namespace rtopex::sched {

/// Graceful-degradation knobs, shared by every sim policy and the runtime.
struct DegradeConfig {
  bool enabled = false;
  unsigned min_iterations = 1;

  /// Throws std::invalid_argument when enabled with min_iterations outside
  /// [1, lm): a cap of 0 decodes nothing and a cap of Lm is no degradation.
  void validate(unsigned lm) const;
};

/// Eq. (1)'s iteration line: decode cost affine in the turbo iteration
/// count L, pinned by its L = 1 and L = Lm points.
struct DecodeLine {
  Duration at_one = 0;
  Duration at_max = 0;
  unsigned lm = 1;

  /// Estimate at `l` iterations; the slope is rounded down to whole ns.
  Duration at(unsigned l) const {
    if (lm <= 1) return at_max;
    const Duration slope = (at_max - at_one) / static_cast<Duration>(lm - 1);
    return at_one + static_cast<Duration>(l - 1) * slope;
  }

  /// The line through (1, full / Lm) and (Lm, full): cost proportional to L.
  static DecodeLine proportional(Duration full, unsigned lm) {
    return {full / static_cast<Duration>(lm > 0 ? lm : 1), full, lm};
  }
};

struct Admission {
  bool admit = false;
  unsigned cap = 0;  ///< turbo-iteration cap to decode with; 0 = uncapped.
  DegradeLevel level = DegradeLevel::kNone;
  /// The estimate last compared against the slack: the full-quality one,
  /// the one at `cap`, or after a failed degradation the one at the
  /// minimal cap.
  Duration estimate = 0;
};

/// Admits at full quality when `start + full_estimate <= deadline`. Else,
/// with degradation enabled and Lm > 1, tries caps Lm - 1 down to
/// min_iterations (clamped into [1, Lm - 1]) at `line.at(cap)` and admits
/// at the first that fits; else drops. A plain stage check passes only the
/// estimate.
Admission admit(TimePoint start, TimePoint deadline, Duration full_estimate,
                const DecodeLine& line = {}, const DegradeConfig& degrade = {});

}  // namespace rtopex::sched
