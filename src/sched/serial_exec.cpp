#include "sched/serial_exec.hpp"

#include <algorithm>

#include "sched/scheduler.hpp"

namespace rtopex::sched {

Duration decode_admission_estimate(const sim::SubframeWork& w,
                                   AdmissionPolicy policy) {
  return policy == AdmissionPolicy::kWcet ? w.wcet.decode
                                          : w.decode_optimistic;
}

std::optional<model::OnlineEstimators> make_estimators(
    const AdaptiveConfig& cfg, unsigned num_basestations) {
  if (!cfg.enabled) return std::nullopt;
  return model::OnlineEstimators(cfg.num_antennas, cfg.num_prb,
                                 num_basestations, cfg.max_iterations,
                                 cfg.params);
}

DecodeLine decode_line(const sim::SubframeWork& w,
                       const model::OnlineEstimators* adaptive) {
  DecodeLine line{w.decode_optimistic, w.wcet.decode, w.lm};
  if (adaptive) {
    line.at_one = adaptive->predict_decode_at(w.mcs, 1, line.at_one);
    line.at_max = adaptive->predict_decode_at(w.mcs, w.lm, line.at_max);
  }
  return line;
}

std::optional<std::vector<sim::SubframeWork>> filter_faulted(
    std::span<const sim::SubframeWork> work, sim::SchedulerMetrics& metrics,
    obs::Tracer* tracer) {
  bool any = false;
  for (const auto& w : work)
    if (w.lost || w.arrival > w.deadline) {
      any = true;
      break;
    }
  if (!any) return std::nullopt;
  std::vector<sim::SubframeWork> rest;
  rest.reserve(work.size());
  for (const auto& w : work) {
    if (!w.lost && w.arrival <= w.deadline) {
      rest.push_back(w);
      continue;
    }
    ++metrics.total_subframes;
    if (w.bs < metrics.per_bs.size()) ++metrics.per_bs[w.bs].subframes;
    if (w.lost) {
      ++metrics.resilience.lost_subframes;
      RTOPEX_TRACE_EVENT(tracer, .ts = w.radio_time, .bs = w.bs,
                         .index = w.index, .kind = obs::EventKind::kLost);
      continue;  // never arrived: not a processing miss
    }
    ++metrics.resilience.late_arrivals;
    ++metrics.deadline_misses;
    if (w.bs < metrics.per_bs.size()) ++metrics.per_bs[w.bs].misses;
    RTOPEX_TRACE_EVENT(tracer, .ts = w.arrival, .bs = w.bs, .index = w.index,
                       .a = obs::clamp_payload_ns(w.arrival - w.deadline),
                       .b = obs::clamp_payload_ns(w.arrival - w.radio_time),
                       .kind = obs::EventKind::kLate);
  }
  if (tracer) tracer->collect();
  return rest;
}

Duration degraded_decode_time(const sim::SubframeWork& w, unsigned cap) {
  const unsigned executed = std::min(w.iterations, cap);
  // Scale the sampled (jittered) cost to the executed iteration count
  // along the model slope: jitter multiplies the whole decode, so the
  // ratio of model predictions carries it.
  const DecodeLine line = decode_line(w);
  const Duration predicted = line.at(w.iterations);
  if (predicted <= 0) return w.costs.decode;
  return static_cast<Duration>(
      static_cast<double>(w.costs.decode) *
      static_cast<double>(line.at(executed)) /
      static_cast<double>(predicted));
}

SerialOutcome execute_serial(const sim::SubframeWork& w, TimePoint start,
                             Duration entry_penalty,
                             AdmissionPolicy admission,
                             const DegradeConfig& degrade,
                             obs::Tracer* tracer, unsigned core,
                             model::OnlineEstimators* adaptive) {
  SerialOutcome out;
  TimePoint t = start;
  // A failed slack check ends the subframe where it stands; the kDrop
  // carries the estimate that did not fit (a) and the slack it had (b).
  auto drop = [&](obs::Stage stage, const Admission& verdict) {
    out.end = t;
    out.miss = out.dropped = true;
    out.missed_stage = stage;
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .a = obs::clamp_payload_ns(verdict.estimate),
                       .b = obs::clamp_payload_ns(w.deadline - t),
                       .core = core, .kind = obs::EventKind::kDrop,
                       .stage = stage);
    return out;
  };

  // One executed stage: kStageBegin (a = its estimate, b) now, kStageEnd
  // `d` later.
  auto run = [&](obs::Stage stage, Duration d, Duration est,
                 std::uint32_t b = 0) {
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .a = obs::clamp_payload_ns(est), .b = b, .core = core,
                       .kind = obs::EventKind::kStageBegin, .stage = stage);
    t += d;
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .core = core, .kind = obs::EventKind::kStageEnd,
                       .stage = stage);
    return d;
  };

  // FFT (deterministic duration -> exact slack check).
  const Duration fft = w.costs.fft + entry_penalty;
  if (const Admission v = admit(t, w.deadline, fft); !v.admit)
    return drop(obs::Stage::kFft, v);
  out.fft_ns = run(obs::Stage::kFft, fft, fft);
  if (adaptive) adaptive->observe_fft(w.costs.fft_subtask);

  // Demod (deterministic).
  if (const Admission v = admit(t, w.deadline, w.costs.demod); !v.admit)
    return drop(obs::Stage::kDemod, v);
  out.demod_ns = run(obs::Stage::kDemod, w.costs.demod, w.costs.demod);

  // Decode: admission per policy (WCET by default), then actual execution
  // with termination at the deadline. A failed full-quality check first
  // tries shrinking the iteration cap (graceful degradation) and only
  // drops when even the minimal-quality estimate cannot fit.
  Duration decode_time = w.costs.decode;
  Duration decode_est = decode_admission_estimate(w, admission);
  unsigned iter_est = admission == AdmissionPolicy::kWcet ? w.lm : 1;
  if (adaptive) {
    iter_est = adaptive->predict_iterations(w.bs);
    decode_est = adaptive->predict_decode(w.bs, w.mcs, decode_est);
  }
  const Admission verdict =
      admit(t, w.deadline, decode_est, decode_line(w, adaptive), degrade);
  if (!verdict.admit) return drop(obs::Stage::kDecode, verdict);
  decode_est = verdict.estimate;
  out.executed_iterations = w.iterations;
  if (verdict.cap > 0) {
    out.degrade = verdict.level;
    out.degraded_failure = w.decodable && w.iterations > verdict.cap;
    decode_time = degraded_decode_time(w, verdict.cap);
    iter_est = verdict.cap;
    out.executed_iterations = std::min(w.iterations, verdict.cap);
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .a = verdict.cap, .core = core,
                       .kind = obs::EventKind::kDegrade,
                       .stage = obs::Stage::kDecode);
  }
  out.decode_est_ns = decode_est;
  // A decode still running at the deadline is terminated there.
  out.terminated = t + decode_time > w.deadline;
  out.decode_ns = run(obs::Stage::kDecode,
                      out.terminated ? w.deadline - t : decode_time,
                      decode_est, iter_est);
  out.end = t;
  if (out.terminated) {
    out.miss = true;
    out.missed_stage = obs::Stage::kDecode;
    RTOPEX_TRACE_EVENT(tracer, .ts = t, .bs = w.bs, .index = w.index,
                       .core = core, .kind = obs::EventKind::kTerminate,
                       .stage = obs::Stage::kDecode);
    return out;
  }
  out.completed = true;
  // Close the loop: feed the executed decode back into the estimators (the
  // executed iteration count and the duration it produced are a consistent
  // Eq. (1) sample even on the degraded path).
  if (adaptive)
    adaptive->observe_decode(w.bs, w.mcs, out.executed_iterations,
                             out.decode_ns, w.costs.decode_subtask);
  return out;
}

}  // namespace rtopex::sched
