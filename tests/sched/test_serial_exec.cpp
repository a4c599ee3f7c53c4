// Direct unit tests of the shared stage-chain executor with hand-built
// subframes: admission drops at each stage, deadline termination,
// completion, and the two admission policies; and of sched::admit, the one
// slack check both substrates call.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "model/task_cost_model.hpp"
#include "sched/admission.hpp"
#include "sched/serial_exec.hpp"

namespace rtopex::sched {
namespace {

sim::SubframeWork make_work(unsigned mcs, unsigned iterations,
                            Duration platform_error = 0) {
  const model::TaskCostModel cost(model::paper_gpp_model(), 2, 50);
  sim::SubframeWork w;
  w.bs = 0;
  w.index = 0;
  w.radio_time = 0;
  w.arrival = microseconds(500);
  w.deadline = milliseconds(2);
  w.mcs = mcs;
  w.iterations = iterations;
  w.costs = cost.costs(mcs, iterations, platform_error);
  w.wcet = cost.costs(mcs, 4, 0);
  w.decode_optimistic = cost.costs(mcs, 1, 0).decode;
  return w;
}

TEST(SerialExecTest, CompletesWithAmpleTime) {
  const auto w = make_work(10, 1);
  const auto o = execute_serial(w, w.arrival);
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.miss);
  EXPECT_EQ(o.end, w.arrival + w.costs.total());
}

TEST(SerialExecTest, EntryPenaltyDelaysCompletion) {
  const auto w = make_work(10, 1);
  const auto base = execute_serial(w, w.arrival);
  const auto delayed = execute_serial(w, w.arrival, microseconds(80));
  EXPECT_EQ(delayed.end, base.end + microseconds(80));
}

TEST(SerialExecTest, DropsAtFftWhenHopeless) {
  auto w = make_work(10, 1);
  // Start beyond the deadline minus the FFT time.
  const TimePoint late = w.deadline - w.costs.fft / 2;
  const auto o = execute_serial(w, late);
  EXPECT_TRUE(o.miss);
  EXPECT_TRUE(o.dropped);
  EXPECT_FALSE(o.terminated);
  EXPECT_EQ(o.end, late);  // nothing executed
}

TEST(SerialExecTest, DropsAtDemodWhenOnlyFftFits) {
  auto w = make_work(27, 1);
  const TimePoint late =
      w.deadline - w.costs.fft - w.costs.demod / 2;
  const auto o = execute_serial(w, late);
  EXPECT_TRUE(o.dropped);
  EXPECT_EQ(o.end, late + w.costs.fft);  // FFT ran, then the check fired
}

TEST(SerialExecTest, WcetAdmissionDropsHighMcsEvenWhenActualFits) {
  // The defining behaviour of the paper's partitioned scheduler: a subframe
  // whose *worst case* cannot fit is dropped even if its actual iteration
  // count would have fit (Fig. 17's 100%-miss cliff).
  const auto w = make_work(27, 1);  // actual L = 1 would fit in 1.5 ms
  const TimePoint start = w.arrival;  // budget 1.5 ms
  ASSERT_LT(start + w.costs.total(), w.deadline);           // actual fits
  ASSERT_GT(start + w.costs.fft + w.costs.demod + w.wcet.decode,
            w.deadline);                                    // WCET does not
  const auto wcet = execute_serial(w, start, 0, AdmissionPolicy::kWcet);
  EXPECT_TRUE(wcet.dropped);
  const auto opt = execute_serial(w, start, 0, AdmissionPolicy::kOptimistic);
  EXPECT_TRUE(opt.completed);
}

TEST(SerialExecTest, OptimisticAdmissionTerminatesAtDeadline) {
  // Optimistic admission lets a long decode start, then kills it at the
  // deadline.
  const auto w = make_work(27, 4);  // ~2.04 ms total, budget 1.5 ms
  const auto o =
      execute_serial(w, w.arrival, 0, AdmissionPolicy::kOptimistic);
  EXPECT_TRUE(o.miss);
  EXPECT_TRUE(o.terminated);
  EXPECT_EQ(o.end, w.deadline);  // the core is freed exactly at the deadline
}

TEST(SerialExecTest, PlatformJitterCanTerminateAdmittedSubframe) {
  // A subframe admitted under WCET (no-jitter bound) can still overrun via
  // the platform-error term and be terminated.
  auto w = make_work(14, 4, /*platform_error=*/microseconds(900));
  ASSERT_LE(w.arrival + w.costs.fft + w.costs.demod + w.wcet.decode,
            w.deadline);
  ASSERT_GT(w.arrival + w.costs.total(), w.deadline);
  const auto o = execute_serial(w, w.arrival, 0, AdmissionPolicy::kWcet);
  EXPECT_TRUE(o.terminated);
}

// ---- sched::admit ---------------------------------------------------------

struct AdmitCase {
  const char* name;
  Duration slack;  ///< deadline - start.
  Duration full;   ///< full-quality estimate.
  DecodeLine line;
  DegradeConfig degrade;
  bool admit;
  unsigned cap;
  DegradeLevel level;
  Duration estimate;  ///< the estimate admit must report as compared.
};

TEST(AdmitTest, TableOfDecisions) {
  // Static sim line: 400 us at L = 1, 1000 us at L = 4 (slope 200 us).
  const DecodeLine line{microseconds(400), microseconds(1000), 4};
  const DegradeConfig on{true, 1};
  const DegradeConfig on_min2{true, 2};
  const DegradeConfig on_min0{true, 0};   // clamps up to 1
  const DegradeConfig on_min9{true, 9};   // clamps down to Lm - 1 = 3
  const auto us = [](double v) { return microseconds_f(v); };
  const std::vector<AdmitCase> cases = {
      {"full fits", us(1000), us(1000), line, on, true, 0,
       DegradeLevel::kNone, us(1000)},
      {"full misses, degrade off", us(999), us(1000), line, {}, false, 0,
       DegradeLevel::kNone, us(1000)},
      {"cap 3 fits", us(850), us(1000), line, on, true, 3,
       DegradeLevel::kReducedIterations, us(800)},
      {"cap 2 fits", us(600), us(1000), line, on, true, 2,
       DegradeLevel::kReducedIterations, us(600)},
      {"cap 1 fits at lmin", us(450), us(1000), line, on, true, 1,
       DegradeLevel::kMinimalIterations, us(400)},
      {"even lmin misses", us(399), us(1000), line, on, false, 0,
       DegradeLevel::kNone, us(400)},
      {"lmin 2 stops above cap 1", us(450), us(1000), line, on_min2, false,
       0, DegradeLevel::kNone, us(600)},
      {"lmin 2 is the minimal level", us(650), us(1000), line, on_min2, true,
       2, DegradeLevel::kMinimalIterations, us(600)},
      {"lmin 0 clamps to 1", us(450), us(1000), line, on_min0, true, 1,
       DegradeLevel::kMinimalIterations, us(400)},
      {"lmin past Lm clamps to Lm - 1", us(799), us(1000), line, on_min9,
       false, 0, DegradeLevel::kNone, us(800)},
      {"lmin past Lm: cap 3 is minimal", us(800), us(1000), line, on_min9,
       true, 3, DegradeLevel::kMinimalIterations, us(800)},
      {"Lm 1 cannot degrade", us(10), us(1000), {0, us(1000), 1}, on, false,
       0, DegradeLevel::kNone, us(1000)},
      // The degraded estimates come from the line, not from `full`: a
      // post-migration full estimate below the serial line (RT-OPEX) still
      // degrades along the unmigrated line.
      {"full below line, degraded on line", us(700), us(900), line, on, true,
       2, DegradeLevel::kReducedIterations, us(600)},
  };
  const TimePoint start = milliseconds(3);
  for (const AdmitCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Admission v =
        admit(start, start + c.slack, c.full, c.line, c.degrade);
    EXPECT_EQ(v.admit, c.admit);
    EXPECT_EQ(v.cap, c.cap);
    EXPECT_EQ(v.level, c.level);
    EXPECT_EQ(v.estimate, c.estimate);
    // The returned estimate is the one compared against the slack.
    EXPECT_EQ(v.admit, v.estimate <= c.slack);
  }
}

TEST(AdmitTest, ProportionalLineReproducesTheRuntimeScalingWithinRounding) {
  // The runtime used to estimate a cap of L as full * L / Lm; its line
  // through (1, full / Lm) and (Lm, full) agrees to within Lm ns (integer
  // rounding of full / Lm and of the slope), and admit picks the same cap
  // whenever the slack is not within that rounding of a boundary.
  const DegradeConfig on{true, 1};
  for (const Duration full : {Duration{999'999}, Duration{1'234'567},
                              Duration{3'000'001}, Duration{17}}) {
    for (const unsigned lm : {2u, 4u, 5u, 8u}) {
      const DecodeLine line = DecodeLine::proportional(full, lm);
      EXPECT_EQ(line.at(1), full / lm);
      EXPECT_LE(std::llabs(line.at(lm) - full), Duration{lm});
      for (unsigned cap = 1; cap < lm; ++cap) {
        const Duration old_est = full * cap / lm;
        EXPECT_LE(std::llabs(line.at(cap) - old_est), Duration{lm})
            << "full=" << full << " lm=" << lm << " cap=" << cap;
        if (full < 1000) continue;  // slack margins below need room
        // Halfway between this cap's estimate and the next one up.
        const Duration slack = old_est + full / (2 * lm);
        const Admission v = admit(0, slack, full, line, on);
        EXPECT_TRUE(v.admit);
        EXPECT_EQ(v.cap, cap) << "full=" << full << " lm=" << lm;
      }
    }
  }
}

TEST(AdmitTest, DegradeConfigValidation) {
  EXPECT_NO_THROW((DegradeConfig{false, 0}.validate(4)));  // off: unused
  EXPECT_NO_THROW((DegradeConfig{true, 1}.validate(4)));
  EXPECT_NO_THROW((DegradeConfig{true, 3}.validate(4)));
  EXPECT_THROW((DegradeConfig{true, 0}.validate(4)), std::invalid_argument);
  EXPECT_THROW((DegradeConfig{true, 4}.validate(4)), std::invalid_argument);
  EXPECT_THROW((DegradeConfig{true, 1}.validate(1)), std::invalid_argument);
}

TEST(AdmitTest, SerialDegradesTheAdaptiveEstimateWhenAdaptiveIsOn) {
  // Warm the decode fit on decodes at half the static model's cost: the
  // adaptive line then sits well below the static one, and a degraded
  // decode must run under the adaptive line's estimate.
  model::OnlineEstimators est(2, 50, 1, 4);
  const model::TaskCostModel cost(model::paper_gpp_model(), 2, 50);
  for (int i = 0; i < 64; ++i)
    for (const unsigned mcs : {10u, 20u, 27u})
      for (const unsigned l : {1u, 2u, 3u, 4u})
        est.observe_decode(0, mcs, l, cost.costs(mcs, l, 0).decode / 2,
                           microseconds(100));
  for (int i = 0; i < 8; ++i) est.observe_decode(0, 27, 4, 0, 0);  // L^ = 4
  ASSERT_TRUE(est.decode_fit().warmed_up());

  auto w = make_work(27, 4);
  const DecodeLine adaptive_line = decode_line(w, &est);
  const DecodeLine static_line = decode_line(w);
  ASSERT_LT(adaptive_line.at(2), static_line.at(2));
  // Slack for the adaptive estimate at cap 2, but not at cap 3 nor at full.
  const Duration decode_slack = adaptive_line.at(2) + microseconds(1);
  ASSERT_LT(decode_slack, adaptive_line.at(3));
  const TimePoint start =
      w.deadline - decode_slack - w.costs.fft - w.costs.demod;
  const auto o = execute_serial(w, start, 0, AdmissionPolicy::kWcet,
                                DegradeConfig{true, 1}, nullptr, 0, &est);
  EXPECT_FALSE(o.dropped);
  EXPECT_NE(o.degrade, DegradeLevel::kNone);
  EXPECT_EQ(o.decode_est_ns, adaptive_line.at(2));
  // Without the estimators the same subframe degrades along the static
  // line, which does not fit at cap 2 from here.
  const auto s = execute_serial(w, start, 0, AdmissionPolicy::kWcet,
                                DegradeConfig{true, 1});
  EXPECT_NE(s.decode_est_ns, o.decode_est_ns);
}

}  // namespace
}  // namespace rtopex::sched
