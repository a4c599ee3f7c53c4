#include "sched/admission.hpp"

#include <algorithm>
#include <stdexcept>

namespace rtopex::sched {

void DegradeConfig::validate(unsigned lm) const {
  if (enabled && (min_iterations == 0 || min_iterations >= lm))
    throw std::invalid_argument(
        "DegradeConfig: min_iterations must be in [1, Lm)");
}

Admission admit(TimePoint start, TimePoint deadline, Duration full_estimate,
                const DecodeLine& line, const DegradeConfig& degrade) {
  Admission out;
  out.estimate = full_estimate;
  if (start + full_estimate <= deadline) {
    out.admit = true;
    return out;
  }
  if (!degrade.enabled || line.lm <= 1) return out;
  const unsigned lmin = std::clamp(degrade.min_iterations, 1u, line.lm - 1);
  for (unsigned cap = line.lm - 1; cap >= lmin; --cap) {
    out.estimate = line.at(cap);
    if (start + out.estimate <= deadline) {
      out.admit = true;
      out.cap = cap;
      out.level = cap <= lmin ? DegradeLevel::kMinimalIterations
                              : DegradeLevel::kReducedIterations;
      return out;
    }
  }
  return out;
}

}  // namespace rtopex::sched
