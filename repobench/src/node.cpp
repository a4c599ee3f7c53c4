#include "node.hpp"

#include <optional>
#include <set>
#include <string>
#include <utility>

namespace repobench {
namespace rt = rtopex::runtime;

namespace {

/// Health windows are defined per 1 ms subframe; keep them the same number
/// of subframes wide at the realtime period.
void stretch_health(rtopex::obs::health::HealthConfig& h, long period_us) {
  const auto stretch = [period_us](rtopex::Duration& d) {
    d = d * period_us / 1000;
  };
  stretch(h.eval_period);
  for (auto* rule : {&h.fast_burn, &h.slow_burn}) {
    stretch(rule->short_window);
    stretch(rule->long_window);
    stretch(rule->clear_hold);
  }
}

}  // namespace

rt::RuntimeConfig node_config(NodeKind kind, std::uint64_t seed,
                              std::size_t subframes_per_bs, bool observed) {
  rt::RuntimeConfig cfg;
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = subframes_per_bs;
  cfg.mcs_cycle = {4, 16, 27};
  cfg.phy.num_antennas = 2;
  cfg.seed = seed;
  if (kind == NodeKind::kRealtime) {
    cfg.mode = rt::RuntimeMode::kRtOpex;
    cfg.cores_per_bs = 1;
    cfg.subframe_period = rtopex::microseconds(kRealtimePeriodUs);
    cfg.deadline_budget = 2 * cfg.subframe_period;
    cfg.rtt_half = cfg.subframe_period / 4;
    cfg.enforce_deadlines = true;
    // Pinned workers (FlexRAN-style placement): unpinned, the kernel
    // migrating a yield-spinning worker mid-subframe stalls it for
    // milliseconds and the slack check drops the backlog that follows.
    cfg.pin_threads = true;
    if (observed) {
      cfg.trace.enabled = true;
      cfg.trace.max_stored_events = 4u << 20;
      cfg.health.enabled = true;
      stretch_health(cfg.health, kRealtimePeriodUs);
      cfg.profile.enabled = true;
      cfg.profile.max_samples_per_track = 1u << 17;
      cfg.metrics_period = cfg.subframe_period;
    }
    return cfg;
  }
  cfg.mode = rt::RuntimeMode::kGlobal;
  cfg.global_cores = 1;
  cfg.subframe_period = rtopex::microseconds(kBacklogPeriodUs);
  // Deadlines off and far away: a backlog rep measures work per subframe,
  // never a slack decision.
  cfg.deadline_budget = rtopex::milliseconds(60000);
  cfg.rtt_half = rtopex::microseconds(50);
  cfg.enforce_deadlines = false;
  if (kind == NodeKind::kBatched) {
    // bench/throughput_node's throughput configuration.
    cfg.throughput.batch = 16;
    cfg.throughput.numa_pools = true;
    cfg.throughput.pin_workers = true;
  }
  return cfg;
}

NodeRep run_node_rep(const rt::RuntimeConfig& config, SpanRecorder* spans) {
  NodeRep rep;
  rt::RuntimeConfig cfg = config;
  if (cfg.metrics_period > 0)
    cfg.metrics_sink = [&rep](const std::string& text) {
      rep.metrics_renders += text.empty() ? 0 : 1;
    };
  rep.offered = cfg.num_basestations * cfg.subframes_per_bs;
  const std::int64_t t0 = now_ns();
  std::optional<rt::NodeRuntime> node;
  {
    Scope s(spans, "runtime.setup");
    node.emplace(cfg);
  }
  rep.setup_s = seconds_since(t0);
  const double c0 = process_cpu_s();
  const std::int64_t t1 = now_ns();
  {
    Scope s(spans, "runtime.run");
    rep.report = node->run();
  }
  rep.wall_s = seconds_since(t1);
  rep.cpu_s = process_cpu_s() - c0;
  return rep;
}

NodeOutcome check_node_rep(NodeKind kind, const NodeRep& rep, Result& r) {
  NodeOutcome o;
  o.offered = rep.offered;
  const auto& records = rep.report.records;
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  for (const rt::SubframeRecord& rec : records) {
    seen.emplace(rec.bs, rec.index);
    if (rec.lost) {
      ++o.lost;
    } else if (rec.dropped) {
      ++o.dropped;
    } else if (rec.late_arrival) {
      ++o.late;
    } else {
      o.service_us.push_back(1e-3 *
                             static_cast<double>(rec.completion - rec.start));
      if (!rec.crc_ok) {
        ++o.crc_failures;
      } else if (rec.deadline_missed) {
        ++o.late;
      } else {
        ++o.ok;
        o.latency_us.push_back(
            1e-3 * static_cast<double>(rec.completion - rec.radio_time));
      }
    }
  }
  const std::string tag = kind == NodeKind::kBacklog   ? "backlog"
                          : kind == NodeKind::kBatched ? "batched"
                                                       : "realtime";
  r.attempted += o.offered;
  r.failed += o.crc_failures + (o.offered - std::min(o.offered, seen.size()));
  r.check(records.size() == o.offered && seen.size() == o.offered,
          tag + ": " + std::to_string(records.size()) + " records for " +
              std::to_string(o.offered) + " offered subframes");
  r.check(o.crc_failures == 0,
          tag + ": " + std::to_string(o.crc_failures) +
              " CRC failures among decoded subframes");
  r.check(o.ok + o.crc_failures + o.late + o.dropped + o.lost == o.offered,
          tag + ": outcome classes do not sum to the offered count");
  if (kind != NodeKind::kRealtime)
    r.check(o.ok == o.offered,
            tag + ": " + std::to_string(o.offered - o.ok) +
                " subframes not decoded CRC-ok in a saturating rep");
  return o;
}

namespace {

/// Reps of one node workload until `seconds` have passed (at least
/// `min_reps`), after one untimed warm-up rep.
template <typename OnRep>
void repeat_reps(const Options& opt, std::size_t min_reps,
                 const rt::RuntimeConfig& warmup,
                 const rt::RuntimeConfig& cfg, OnRep on_rep, Result& r,
                 NodeKind kind) {
  check_node_rep(kind, run_node_rep(warmup, nullptr), r);
  const std::int64_t t0 = now_ns();
  for (std::size_t n = 0; n < min_reps || seconds_since(t0) < opt.seconds;
       ++n)
    on_rep(run_node_rep(cfg, nullptr));
}

void run_saturating(NodeKind kind, const Options& opt, Result& r) {
  const rt::RuntimeConfig cfg =
      node_config(kind, opt.seed, kBacklogSubframesPerBs);
  std::vector<double> setup, cpu_us, rate, ok_rate;
  std::vector<RepLatency> service;
  repeat_reps(
      opt, 5, node_config(kind, opt.seed, 20), cfg,
      [&](const NodeRep& rep) {
        const NodeOutcome o = check_node_rep(kind, rep, r);
        setup.push_back(rep.setup_s);
        cpu_us.push_back(1e6 * rep.cpu_s / static_cast<double>(rep.offered));
        rate.push_back(static_cast<double>(rep.offered) / rep.wall_s);
        ok_rate.push_back(static_cast<double>(o.ok) /
                          static_cast<double>(o.offered));
        service.push_back({o.service_us, 0});
      },
      r, kind);
  r.set_median("setup_s", setup, "s");
  r.set_median("cpu_us_per_subframe", cpu_us, "us");
  r.set_median("subframes_per_s", rate, "1/s");
  r.set_median("ok_rate", ok_rate, "ratio");
  // In a backlog, completion - radio only measures queue depth; the
  // latency a subframe sees from the worker is its service time.
  const double limit_us = 1e-3 * static_cast<double>(cfg.deadline_budget);
  set_latency(r, "latency_p50_us", service, 0.50, limit_us);
  set_latency(r, "latency_p99_us", service, 0.99, limit_us);
}

}  // namespace

void run_backlog(const Options& opt, Result& r) {
  run_saturating(NodeKind::kBacklog, opt, r);
}

void run_batched(const Options& opt, Result& r) {
  run_saturating(NodeKind::kBatched, opt, r);
}

/// Ticks per realtime rep (~1.8 s): enough reps per run for a median,
/// enough subframes per rep (1200) for a p99 with 10+ samples beyond it.
constexpr std::size_t kRealtimeTicksPerRep = 600;

void run_realtime(const Options& opt, Result& r) {
  const rt::RuntimeConfig cfg =
      node_config(NodeKind::kRealtime, opt.seed, kRealtimeTicksPerRep);
  std::vector<double> setup, busy_us, goodput, ok_rate;
  std::vector<RepLatency> latency;
  std::size_t offered = 0, ok = 0, renders = 0;
  repeat_reps(
      opt, 3, node_config(NodeKind::kRealtime, opt.seed, 100), cfg,
      [&](const NodeRep& rep) {
        const NodeOutcome o = check_node_rep(NodeKind::kRealtime, rep, r);
        setup.push_back(rep.setup_s);
        double busy = 0.0;
        for (const double s : o.service_us) busy += s;
        if (!o.service_us.empty())
          busy_us.push_back(busy / static_cast<double>(o.service_us.size()));
        goodput.push_back(static_cast<double>(o.ok) / rep.wall_s);
        ok_rate.push_back(static_cast<double>(o.ok) /
                          static_cast<double>(o.offered));
        latency.push_back({o.latency_us, o.offered - o.ok});
        offered += o.offered;
        ok += o.ok;
        renders += rep.metrics_renders;
      },
      r, NodeKind::kRealtime);
  r.check(renders > 0, "realtime: the metrics sink never rendered");
  r.set_median("setup_s", setup, "s");
  // RT-OPEX workers yield-spin while idle, so process CPU here would
  // measure the spin: the figure is the worker's busy time per decoded
  // subframe (start -> completion) instead.
  r.set_median("cpu_us_per_subframe", busy_us, "us");
  // The offered rate is fixed by the pacing; what varies is how many of
  // those subframes come back CRC-ok in time.
  r.set_median("subframes_per_s", goodput, "1/s");
  r.set_median("ok_rate", ok_rate, "ratio");
  // The long-run share, not the median rep: drops come in bursts.
  r.metrics["ok_rate"].value =
      static_cast<double>(ok) / static_cast<double>(offered);
  const double limit_us = 1e-3 * static_cast<double>(cfg.deadline_budget);
  // Median over reps: a rep hit by a host stall (and the slack-check drops
  // that follow one) moves one sample of the median instead of the whole
  // pooled tail.
  set_latency(r, "latency_p50_us", latency, 0.50, limit_us, true);
  set_latency(r, "latency_p99_us", latency, 0.99, limit_us, true);
}

}  // namespace repobench
