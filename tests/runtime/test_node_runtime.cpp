// Functional tests of the real-thread runtime: every subframe decoded
// correctly under all three modes, migration bookkeeping consistent, no
// lost/duplicated subframes. Timing is intentionally not asserted — these
// tests run on arbitrary (possibly single-core) hosts, so the subframe
// period is stretched far beyond real time.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "runtime/fault_injection.hpp"
#include "runtime/node_runtime.hpp"
#include "support/sanitizer_pacing.hpp"

namespace rtopex::runtime {
namespace {

RuntimeConfig small_config(RuntimeMode mode) {
  RuntimeConfig cfg;
  cfg.mode = mode;
  cfg.num_basestations = 2;
  cfg.cores_per_bs = 2;
  cfg.global_cores = 4;
  cfg.subframes_per_bs = 8;
  // Generous pacing so even a loaded single-core CI host keeps up, scaled
  // further when sanitizer instrumentation slows the PHY.
  cfg.subframe_period = milliseconds(60) * test::pacing_scale();
  cfg.deadline_budget = milliseconds(120) * test::pacing_scale();
  cfg.rtt_half = microseconds(500);
  cfg.mcs_cycle = {4, 16};
  cfg.phy.num_antennas = 2;
  cfg.phy.bandwidth = phy::Bandwidth::kMHz5;  // keep tests fast
  cfg.seed = 7;
  return cfg;
}

void check_complete(const RuntimeReport& report, const RuntimeConfig& cfg) {
  EXPECT_EQ(report.records.size(),
            static_cast<std::size_t>(cfg.num_basestations) *
                cfg.subframes_per_bs);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second)
        << "duplicate subframe bs=" << r.bs << " idx=" << r.index;
    EXPECT_TRUE(r.crc_ok) << "decode failed bs=" << r.bs << " idx=" << r.index
                          << " mcs=" << r.mcs;
    EXPECT_GE(r.completion, r.start);
    EXPECT_GE(r.start, r.arrival);
  }
  EXPECT_EQ(report.crc_failures, 0u);
}

TEST(NodeRuntimeTest, PartitionedDecodesEverything) {
  const auto cfg = small_config(RuntimeMode::kPartitioned);
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  EXPECT_EQ(report.migrations, 0u);
}

TEST(NodeRuntimeTest, GlobalDecodesEverything) {
  const auto cfg = small_config(RuntimeMode::kGlobal);
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
}

TEST(NodeRuntimeTest, RtOpexDecodesEverythingWithMigration) {
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.mcs_cycle = {27, 2};  // multi-code-block subframes: migratable decode
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  // Migration counters are never negative and recoveries never exceed
  // migrations-planned + hosting progress; at this pacing idle windows are
  // plentiful, so some migration is expected on multi-core hosts but not
  // guaranteed on single-core ones — assert consistency only.
  std::size_t migrated_in_records = 0;
  for (const auto& r : report.records)
    migrated_in_records += r.timing.fft_migrated + r.timing.decode_migrated;
  EXPECT_EQ(report.migrations, migrated_in_records);
}

TEST(NodeRuntimeTest, SlackCheckDropsUnderImpossibleBudget) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  // A 1 ms end-to-end budget cannot fit this host's multi-millisecond
  // decode; the slack check must drop (not hang or crash), and dropped
  // subframes must not count as CRC failures.
  cfg.deadline_budget = milliseconds(1);
  cfg.trace.enabled = true;
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  EXPECT_EQ(report.records.size(),
            static_cast<std::size_t>(cfg.num_basestations) *
                cfg.subframes_per_bs);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.deadline_misses, report.records.size());
  EXPECT_EQ(report.crc_failures, 0u);
  for (const auto& r : report.records)
    if (r.dropped) EXPECT_TRUE(r.deadline_missed);
  // Each drop shows its decision: a = the admission estimate that did not
  // fit, b = the slack it had.
  ASSERT_EQ(report.trace.total_drops(), 0u);
  std::size_t drops = 0;
  for (const auto& e : report.trace.events) {
    if (e.kind != obs::EventKind::kDrop) continue;
    ++drops;
    EXPECT_GT(e.a, e.b) << "bs=" << e.bs << " idx=" << e.index;
  }
  EXPECT_EQ(drops, report.dropped);
}

TEST(NodeRuntimeTest, StageTimingEqualsItsTracedStageSpan) {
  // Each stage is instrumented once: the record's stage time is exactly the
  // span between its kStageBegin and kStageEnd, and every hosted chunk's
  // kHostBegin is closed by a kHostEnd. Forced idle windows plan migration
  // on every multi-block stage, so hosting is likely even on a single-core
  // host (whether a host takes a chunk before its revocation is timing).
  auto cfg = small_config(RuntimeMode::kRtOpex);
  cfg.mcs_cycle = {27, 2};
  cfg.subframes_per_bs = 4;
  cfg.trace.enabled = true;
  cfg.profile.enabled = true;
  fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  fault::ScopedInjection inject(std::move(hooks));
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  ASSERT_EQ(report.trace.total_drops(), 0u);

  using Key = std::tuple<unsigned, std::uint32_t, obs::Stage>;
  std::map<Key, TimePoint> begin, end;
  std::size_t host_begins = 0, host_ends = 0;
  for (const auto& e : report.trace.events) {
    const Key key{e.bs, e.index, e.stage};
    if (e.kind == obs::EventKind::kStageBegin)
      EXPECT_TRUE(begin.emplace(key, e.ts).second);
    else if (e.kind == obs::EventKind::kStageEnd)
      EXPECT_TRUE(end.emplace(key, e.ts).second);
    host_begins += e.kind == obs::EventKind::kHostBegin;
    host_ends += e.kind == obs::EventKind::kHostEnd;
  }
  EXPECT_EQ(host_begins, host_ends);
  EXPECT_EQ(begin.size(), 3 * report.records.size());
  for (const auto& r : report.records) {
    for (const auto& [stage, timing] :
         {std::pair{obs::Stage::kFft, r.timing.fft},
          std::pair{obs::Stage::kDemod, r.timing.demod},
          std::pair{obs::Stage::kDecode, r.timing.decode}}) {
      const Key key{r.bs, r.index, stage};
      ASSERT_TRUE(begin.count(key) && end.count(key))
          << "bs=" << r.bs << " idx=" << r.index;
      EXPECT_EQ(timing, end[key] - begin[key])
          << "bs=" << r.bs << " idx=" << r.index << " "
          << obs::to_string(stage);
    }
    // The decode stage closes the subframe.
    const Key decode{r.bs, r.index, obs::Stage::kDecode};
    EXPECT_EQ(r.completion, end[decode]);
  }
}

TEST(NodeRuntimeTest, EnforcementOffOnlyRecordsMisses) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.deadline_budget = milliseconds(1);
  cfg.enforce_deadlines = false;
  cfg.subframes_per_bs = 4;
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.deadline_misses, 0u);
  EXPECT_EQ(report.crc_failures, 0u);  // everything still decodes
}

TEST(NodeRuntimeTest, ThroughputBatchedDecodesEverything) {
  // Saturating arrival (period far below this host's decode time, even
  // with the AVX2 decode kernels) with enforcement off: jobs queue up, so
  // batched workers take several per queue pass. The conservation/CRC
  // contract must hold exactly as in latency mode, and each worker must
  // run every subframe it takes to completion before starting the next.
  for (const auto mode : {RuntimeMode::kGlobal, RuntimeMode::kPartitioned}) {
    auto cfg = small_config(mode);
    cfg.subframe_period = microseconds(50);
    cfg.deadline_budget = milliseconds(2);
    cfg.rtt_half = microseconds(50);
    cfg.enforce_deadlines = false;
    cfg.subframes_per_bs = 6;
    cfg.throughput.batch = 8;
    cfg.throughput.numa_pools = true;
    cfg.trace.enabled = true;  // kSubframeBegin names each record's worker
    NodeRuntime runtime(cfg);
    const auto report = runtime.run();
    check_complete(report, cfg);
    // With arrivals this far ahead of service, at least some passes must
    // take >= 2 subframes (the queues are necessarily non-empty after the
    // first decode completes).
    EXPECT_GT(report.batched_subframes, 0u)
        << "mode " << static_cast<int>(mode);
    EXPECT_LE(report.batched_subframes, report.records.size());

    ASSERT_EQ(report.trace.total_drops(), 0u);
    std::map<std::pair<unsigned, std::uint32_t>, std::uint32_t> worker_of;
    for (const auto& e : report.trace.events)
      if (e.kind == obs::EventKind::kSubframeBegin)
        worker_of[{e.bs, e.index}] = e.core;
    std::map<std::uint32_t, std::vector<SubframeRecord>> by_worker;
    for (const auto& r : report.records) {
      const auto it = worker_of.find({r.bs, r.index});
      ASSERT_NE(it, worker_of.end()) << "bs=" << r.bs << " idx=" << r.index;
      by_worker[it->second].push_back(r);
      EXPECT_LE(r.timing.fft + r.timing.demod + r.timing.decode,
                r.completion - r.start)
          << "bs=" << r.bs << " idx=" << r.index;
    }
    for (auto& [worker, recs] : by_worker) {
      std::sort(recs.begin(), recs.end(),
                [](const auto& x, const auto& y) { return x.start < y.start; });
      for (std::size_t i = 1; i < recs.size(); ++i)
        EXPECT_GE(recs[i].start, recs[i - 1].completion)
            << "mode " << static_cast<int>(mode) << " worker " << worker
            << ": bs=" << recs[i].bs << " idx=" << recs[i].index
            << " started before bs=" << recs[i - 1].bs
            << " idx=" << recs[i - 1].index << " completed";
    }
  }
}

TEST(NodeRuntimeTest, ThroughputBatchOfOneMatchesDefaultContract) {
  // batch=1 (the default) plus pools/pinning knobs must behave exactly like
  // the plain runtime: everything decodes, nothing reports as batched.
  auto cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 1;
  cfg.throughput.numa_pools = true;
  cfg.throughput.pin_workers = true;  // best-effort; may silently no-op
  NodeRuntime runtime(cfg);
  const auto report = runtime.run();
  check_complete(report, cfg);
  EXPECT_EQ(report.batched_subframes, 0u);
}

TEST(NodeRuntimeTest, RejectsBadThroughputConfig) {
  // batch = 0 would make workers drain nothing and spin forever.
  auto cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  // Above the per-pass hard cap.
  cfg = small_config(RuntimeMode::kGlobal);
  cfg.throughput.batch = 17;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  // The RT-OPEX worker takes one subframe per mailbox poll, so batching is
  // rejected there rather than silently ignored.
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.throughput.batch = 2;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.throughput.batch = 1;  // explicit batch-of-1 stays allowed
  EXPECT_NO_THROW(NodeRuntime{cfg});
  // An explicit pin set must cover every worker.
  cfg = small_config(RuntimeMode::kGlobal);  // global_cores = 4
  cfg.throughput.worker_cores = {0, 1};
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsEmptyConfig) {
  RuntimeConfig cfg = small_config(RuntimeMode::kPartitioned);
  cfg.mcs_cycle.clear();
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.mcs_cycle = {99};
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsZeroCores) {
  // Zero workers would leave pushed jobs queued forever; the constructor
  // must throw instead of letting run() hang on the drain loop.
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.cores_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kRtOpex);
  cfg.cores_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kGlobal);
  cfg.global_cores = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.num_basestations = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsZeroSubframesAndBadPacing) {
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.subframes_per_bs = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.subframe_period = 0;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.deadline_budget = -milliseconds(1);
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

TEST(NodeRuntimeTest, RejectsRttConsumingWholeBudget) {
  // Arrival at/after the deadline means every subframe is dead on arrival —
  // a configuration error that must throw rather than spin a worker.
  auto cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = cfg.deadline_budget;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = cfg.deadline_budget + microseconds(1);
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
  cfg = small_config(RuntimeMode::kPartitioned);
  cfg.rtt_half = -1;
  EXPECT_THROW(NodeRuntime{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace rtopex::runtime
