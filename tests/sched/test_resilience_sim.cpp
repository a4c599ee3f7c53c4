// Degraded-mode resilience layer, virtual-time side: fronthaul loss/late
// classification in the workload and schedulers, deterministic core-failure
// repartitioning in RT-OPEX, and graceful degradation strictly reducing
// deadline misses — the simulator mirror of the runtime mechanisms, fully
// deterministic (no threads, no wall clock).
#include <gtest/gtest.h>

#include <map>

#include "model/timing_model.hpp"
#include "obs/tracer.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sim/workload.hpp"
#include "transport/transport.hpp"

namespace rtopex {
namespace {

std::vector<sim::SubframeWork> make_work(
    const sim::WorkloadConfig& cfg, Duration rtt_half = microseconds(500)) {
  const transport::FixedTransport transport(rtt_half);
  const sim::WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  return gen.generate();
}

sim::WorkloadConfig base_workload() {
  sim::WorkloadConfig cfg;
  cfg.num_basestations = 4;
  cfg.subframes_per_bs = 2000;
  cfg.seed = 1;
  return cfg;
}

/// Conservation under faults: processed + dropped + terminated + late +
/// lost == offered, and lost subframes are not deadline misses.
void check_fault_accounting(const sim::SchedulerMetrics& m,
                            std::size_t offered) {
  EXPECT_EQ(m.total_subframes, offered);
  EXPECT_EQ(m.deadline_misses,
            m.dropped + m.terminated + m.resilience.late_arrivals);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses -
                m.resilience.lost_subframes);
}

TEST(ResilienceSimTest, WorkloadFaultsAreIndependentOfPayloadStreams) {
  // The fault process draws from its own RNG stream: a faulty run's clean
  // twin has bit-identical costs, iterations and MCS per subframe — only
  // `lost` flags and (late) arrivals differ.
  auto cfg = base_workload();
  cfg.subframes_per_bs = 500;
  const auto clean = make_work(cfg);
  cfg.fronthaul_faults.loss_prob = 0.2;
  cfg.fronthaul_faults.late_prob = 0.2;
  const auto faulty = make_work(cfg);
  ASSERT_EQ(clean.size(), faulty.size());

  std::map<std::pair<unsigned, std::uint32_t>, const sim::SubframeWork*> twin;
  for (const auto& w : clean) twin[{w.bs, w.index}] = &w;
  std::size_t lost = 0, delayed = 0;
  for (const auto& w : faulty) {
    const sim::SubframeWork& c = *twin.at({w.bs, w.index});
    EXPECT_EQ(w.mcs, c.mcs);
    EXPECT_EQ(w.iterations, c.iterations);
    EXPECT_EQ(w.costs.decode, c.costs.decode);
    EXPECT_EQ(w.deadline, c.deadline);
    EXPECT_GE(w.arrival, c.arrival);
    if (w.lost) ++lost;
    if (w.arrival > c.arrival) ++delayed;
    EXPECT_FALSE(c.lost);
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(delayed, 0u);
}

TEST(ResilienceSimTest, SchedulersClassifyLossAndLateArrivals) {
  auto cfg = base_workload();
  cfg.fronthaul_faults.loss_prob = 0.2;
  cfg.fronthaul_faults.late_prob = 0.2;
  cfg.fronthaul_faults.late_delay_mean = milliseconds(1);
  const auto work = make_work(cfg);

  sched::PartitionedScheduler part(cfg.num_basestations, {microseconds(500)});
  const auto m = part.run(work);
  check_fault_accounting(m, work.size());
  EXPECT_GT(m.resilience.lost_subframes, 0u);
  EXPECT_GT(m.resilience.late_arrivals, 0u);

  // RT-OPEX classifies identically: faults are a property of the workload,
  // not of the scheduling policy.
  sched::RtOpexConfig rc;
  const auto mo = sched::RtOpexScheduler(cfg.num_basestations, rc).run(work);
  check_fault_accounting(mo, work.size());
  EXPECT_EQ(mo.resilience.lost_subframes, m.resilience.lost_subframes);
  EXPECT_EQ(mo.resilience.late_arrivals, m.resilience.late_arrivals);
}

// Acceptance-criterion test: at a transport delay where the partitioned
// scheduler's WCET admission drops a measurable share of subframes, enabling
// graceful degradation must strictly reduce deadline misses and populate the
// degrade histogram — quality traded instead of subframes dropped.
TEST(ResilienceSimTest, DegradationStrictlyReducesMisses) {
  auto cfg = base_workload();
  const Duration rtt = microseconds(700);
  const auto work = make_work(cfg, rtt);

  sched::PartitionedConfig clean;
  clean.rtt_half = rtt;
  const auto m0 = sched::PartitionedScheduler(cfg.num_basestations, clean)
                      .run(work);
  ASSERT_GT(m0.dropped, 0u) << "baseline must drop for the test to bite";

  sched::PartitionedConfig degraded = clean;
  degraded.degrade.enabled = true;
  degraded.degrade.min_iterations = 1;
  const auto m1 = sched::PartitionedScheduler(cfg.num_basestations, degraded)
                      .run(work);

  EXPECT_LT(m1.deadline_misses, m0.deadline_misses);
  EXPECT_LT(m1.dropped, m0.dropped);
  EXPECT_GT(m1.resilience.degraded, 0u);
  EXPECT_EQ(m1.resilience.degrade_histogram[1] +
                m1.resilience.degrade_histogram[2],
            m1.resilience.degraded);
  // A capped decode can NACK where the full decode would have converged;
  // those are accounted as degraded failures, never as ordinary ones.
  EXPECT_LE(m1.resilience.degraded_decode_failures, m1.resilience.degraded);
  EXPECT_EQ(m0.resilience.degraded, 0u);

  // The same knob on RT-OPEX never increases misses.
  sched::RtOpexConfig rc;
  rc.rtt_half = rtt;
  const auto o0 = sched::RtOpexScheduler(cfg.num_basestations, rc).run(work);
  rc.degrade.enabled = true;
  const auto o1 = sched::RtOpexScheduler(cfg.num_basestations, rc).run(work);
  EXPECT_LE(o1.deadline_misses, o0.deadline_misses);
}

// Every slack-check drop shows its decision: a = the estimate that did not
// fit, b = the slack it had, so a > b on every kDrop — at every stage, with
// and without degradation, in both drop paths (serial and RT-OPEX).
TEST(ResilienceSimTest, DropPayloadCarriesEstimateAboveSlack) {
  auto cfg = base_workload();
  cfg.subframes_per_bs = 500;
  auto check = [&](sched::NodeScheduler&& scheduler, Duration rtt,
                   obs::Tracer& tracer, const char* label) {
    const auto work = make_work(cfg, rtt);
    const auto m = scheduler.run(work);
    const obs::TraceStore store = tracer.take();
    ASSERT_EQ(store.total_drops(), 0u) << label;
    std::size_t drops = 0;
    for (const obs::TraceEvent& e : store.events) {
      if (e.kind != obs::EventKind::kDrop) continue;
      ++drops;
      EXPECT_GT(e.a, e.b) << label << " bs=" << e.bs << " idx=" << e.index
                          << " stage=" << obs::to_string(e.stage);
    }
    EXPECT_EQ(drops, m.dropped) << label;
    EXPECT_GT(drops, 0u) << label << ": the budget must force drops";
  };
  for (const bool degrade : {false, true}) {
    obs::Tracer tracer(16, 1 << 14, 1 << 20);
    sched::PartitionedConfig pc;
    pc.rtt_half = microseconds(1300);
    pc.degrade.enabled = degrade;
    pc.tracer = &tracer;
    check(sched::PartitionedScheduler(cfg.num_basestations, pc), pc.rtt_half,
          tracer, degrade ? "partitioned+degrade" : "partitioned");
  }
  obs::Tracer tracer(16, 1 << 14, 1 << 20);
  sched::RtOpexConfig rc;
  rc.rtt_half = microseconds(1300);
  rc.degrade.enabled = true;
  rc.tracer = &tracer;
  check(sched::RtOpexScheduler(cfg.num_basestations, rc), rc.rtt_half,
        tracer, "rt-opex+degrade");
}

TEST(ResilienceSimTest, CoreFailureRepartitionsDeterministically) {
  auto cfg = base_workload();
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = 200;
  const auto work = make_work(cfg);

  sched::RtOpexConfig rc;
  // Fail core 0 (basestation 0, even subframe indices) mid-run, between a
  // subframe's radio reception and its arrival at the node: exactly one
  // in-flight job is requeued, all later even-index subframes of bs 0 are
  // repartitioned onto the survivors.
  rc.core_failures.push_back({0, milliseconds(100) + microseconds(200)});
  sched::RtOpexScheduler sched(cfg.num_basestations, rc);
  const auto m = sched.run(work);

  EXPECT_EQ(m.total_subframes, work.size());
  EXPECT_EQ(m.resilience.failovers, 1u);
  EXPECT_EQ(m.resilience.repartitions, 1u);
  EXPECT_EQ(m.resilience.requeued_jobs, 1u);
  EXPECT_EQ(m.deadline_misses, m.dropped + m.terminated);

  // The failure can only hurt: the clean twin has no more misses, and the
  // failed run still terminates every subframe exactly once.
  const auto clean =
      sched::RtOpexScheduler(cfg.num_basestations, {}).run(work);
  EXPECT_LE(clean.deadline_misses, m.deadline_misses);
  EXPECT_EQ(clean.resilience.failovers, 0u);
}

TEST(ResilienceSimTest, ValidationThrows) {
  sched::RtOpexConfig rc;
  rc.core_failures.push_back({99, 0});  // out of range for 2 BS x 2 cores
  EXPECT_THROW(sched::RtOpexScheduler(2, rc), std::invalid_argument);

  auto cfg = base_workload();
  cfg.fronthaul_faults.loss_prob = -0.5;
  EXPECT_THROW(make_work(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace rtopex
