#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace rtopex::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = 2000;
  cfg.workload.seed = 21;
  cfg.rtt_half = microseconds(500);
  return cfg;
}

TEST(ExperimentTest, RunsAllSchedulerKinds) {
  auto cfg = small_config();
  for (const auto kind : {SchedulerKind::kPartitioned, SchedulerKind::kGlobal,
                          SchedulerKind::kRtOpex}) {
    cfg.scheduler = kind;
    const auto result = run_experiment(cfg);
    EXPECT_EQ(result.metrics.total_subframes, 8000u);
    EXPECT_GT(result.num_cores, 0u);
    EXPECT_STREQ(result.scheduler_name.c_str(), to_string(kind));
  }
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto cfg = small_config();
  cfg.scheduler = SchedulerKind::kRtOpex;
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.metrics.deadline_misses, b.metrics.deadline_misses);
  EXPECT_EQ(a.metrics.fft_subtasks_migrated, b.metrics.fft_subtasks_migrated);
}

TEST(ExperimentTest, SharedWorkloadAllowsPairedComparison) {
  auto cfg = small_config();
  const auto work = make_workload(cfg);
  cfg.scheduler = SchedulerKind::kPartitioned;
  const auto p1 = run_scheduler(cfg, work);
  const auto p2 = run_scheduler(cfg, work);
  EXPECT_EQ(p1.metrics.deadline_misses, p2.metrics.deadline_misses);
}

TEST(ExperimentTest, StochasticTransportCentersOnRttHalf) {
  auto cfg = small_config();
  cfg.stochastic_transport = true;
  const auto work = make_workload(cfg);
  double mean_delay = 0.0;
  for (const auto& w : work)
    mean_delay += to_us(w.arrival - w.radio_time);
  mean_delay /= static_cast<double>(work.size());
  EXPECT_NEAR(mean_delay, 500.0, 30.0);
}

TEST(ExperimentTest, RtOpexConfigRttSyncedFromTopLevel) {
  auto cfg = small_config();
  cfg.scheduler = SchedulerKind::kRtOpex;
  cfg.rtt_half = microseconds(700);
  cfg.rtopex.rtt_half = microseconds(400);  // must be overridden
  const auto result = run_experiment(cfg);
  // cores_per_bs for 700us budget is 2 -> 8 cores.
  EXPECT_EQ(result.num_cores, 8u);
  EXPECT_GT(result.metrics.total_subframes, 0u);
}

TEST(ExperimentTest, RejectsOutOfRangeDegradeMinimum) {
  // The experiment entry validates the degradation config instead of the
  // schedulers silently clamping it: min_iterations must be in [1, Lm).
  auto cfg = small_config();
  cfg.workload.subframes_per_bs = 10;
  cfg.degrade.enabled = true;
  cfg.degrade.min_iterations = cfg.workload.max_iterations;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.degrade.min_iterations = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
  cfg.degrade.min_iterations = cfg.workload.max_iterations - 1;
  EXPECT_NO_THROW(run_experiment(cfg));
}

}  // namespace
}  // namespace rtopex::core
