#include "postmortem.hpp"

#include <optional>
#include <string>

#include "obs/analysis/analysis.hpp"
#include "obs/tracer.hpp"

namespace repobench {
namespace core = rtopex::core;
namespace analysis = rtopex::obs::analysis;

core::ExperimentConfig postmortem_config(std::uint64_t seed,
                                         std::size_t subframes_per_bs) {
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = subframes_per_bs;
  cfg.workload.seed = seed;
  cfg.rtt_half = rtopex::microseconds(500);
  cfg.global.num_cores = 8;
  return cfg;
}

PostmortemRep run_postmortem_rep(std::uint64_t seed,
                                 std::size_t subframes_per_bs,
                                 SpanRecorder* spans, bool untraced,
                                 Result& r) {
  PostmortemRep rep;
  core::ExperimentConfig cfg = postmortem_config(seed, subframes_per_bs);
  std::vector<std::vector<rtopex::sim::SubframeWork>> work;
  const std::int64_t t0 = now_ns();
  for (const double load : kPostmortemLoads) {
    Scope s(spans, "sim.make_workload");
    cfg.workload.mean_load_override = load;
    work.push_back(core::make_workload(cfg));
  }
  rep.setup_s = seconds_since(t0);

  analysis::AnalyzerOptions aopts;
  aopts.nominal_transport = cfg.rtt_half;
  double traced_total_s = 0.0;
  for (std::size_t li = 0; li < kPostmortemLoads.size(); ++li) {
    for (const core::SchedulerKind kind : kPostmortemScheds) {
      for (const bool adaptive : {false, true}) {
        PostmortemRun run;
        run.kind = kind;
        run.adaptive = adaptive;
        run.load = kPostmortemLoads[li];
        cfg.scheduler = kind;
        cfg.adaptive.enabled = adaptive;
        if (untraced) {
          cfg.tracer = nullptr;
          Scope s(spans, "sched.run_scheduler");
          const std::int64_t u0 = now_ns();
          core::run_scheduler(cfg, work[li]);
          run.untraced_s = seconds_since(u0);
        }
        const double c0 = process_cpu_s();
        const std::int64_t w0 = now_ns();
        std::optional<rtopex::obs::Tracer> tracer;
        {
          Scope s(spans, "obs.tracer_setup");
          tracer.emplace(24, 1u << 15, 16u << 20);
        }
        cfg.tracer = &*tracer;
        {
          Scope s(spans, "sched.run_scheduler_traced");
          const std::int64_t s0 = now_ns();
          run.metrics = core::run_scheduler(cfg, work[li]).metrics;
          run.traced_s = seconds_since(s0);
        }
        cfg.tracer = nullptr;
        rtopex::obs::TraceStore store;
        {
          Scope s(spans, "obs.take");
          const std::int64_t s0 = now_ns();
          store = tracer->take();
          run.take_s = seconds_since(s0);
        }
        run.events = store.events.size();
        run.trace_drops = store.total_drops();
        analysis::AnalysisReport report;
        {
          Scope s(spans, "obs.analysis.analyze");
          const std::int64_t s0 = now_ns();
          report = analysis::analyze(store, aopts);
          run.analyze_s = seconds_since(s0);
        }
        traced_total_s += seconds_since(w0);
        rep.cpu_s += process_cpu_s() - c0;
        run.analyzed_misses = report.misses;
        run.unknown_causes = report.unknown();

        Scope fold(spans, "bench.check");
        const std::string tag = std::string("postmortem ") +
                                core::to_string(kind) +
                                (adaptive ? " adaptive" : " static") +
                                " load " + std::to_string(run.load);
        const auto& m = run.metrics;
        r.attempted += m.total_subframes;
        r.check(report.misses == m.deadline_misses,
                tag + ": analyzer counts " + std::to_string(report.misses) +
                    " misses, scheduler " +
                    std::to_string(m.deadline_misses));
        r.check(run.trace_drops == 0,
                tag + ": trace dropped " + std::to_string(run.trace_drops) +
                    " events");
        r.check(report.subframes == m.total_subframes,
                tag + ": analyzer reconstructed " +
                    std::to_string(report.subframes) + " of " +
                    std::to_string(m.total_subframes) + " subframes");
        if (report.misses != m.deadline_misses ||
            report.subframes != m.total_subframes)
          ++r.failed;

        rep.subframes += m.total_subframes;
        rep.ok += m.total_subframes - m.deadline_misses - m.decode_failures;
        if (kind == core::SchedulerKind::kRtOpex && adaptive) {
          rep.latency_failures += m.deadline_misses;
          for (const analysis::SubframeAnalysis& sf : report.detail)
            if (!sf.missed)
              rep.latency_us.push_back(
                  1e-3 * static_cast<double>(sf.end - sf.radio_time));
        }
        rep.runs.push_back(std::move(run));
      }
    }
  }
  rep.run_s = traced_total_s;
  return rep;
}

void run_postmortem(const Options& opt, Result& r) {
  std::vector<double> setup, cpu_us, rate, ok_rate;
  std::vector<RepLatency> latency;
  std::size_t first_ok = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t n = 0; n < 3 || seconds_since(t0) < opt.seconds; ++n) {
    const PostmortemRep rep =
        run_postmortem_rep(opt.seed, kPostmortemSubframesPerBs, nullptr,
                           /*untraced=*/false, r);
    setup.push_back(rep.setup_s);
    const double sf = static_cast<double>(rep.subframes);
    cpu_us.push_back(1e6 * rep.cpu_s / sf);
    rate.push_back(sf / rep.run_s);
    ok_rate.push_back(static_cast<double>(rep.ok) / sf);
    // Every sweep of one seed simulates the same subframes: the virtual
    // latencies of the first stand for all, and the outcomes must repeat.
    if (n == 0) {
      latency.push_back({rep.latency_us, rep.latency_failures});
      first_ok = rep.ok;
    }
    r.check(rep.ok == first_ok,
            "postmortem: two sweeps of one seed disagree on their outcomes");
  }
  r.set_median("setup_s", setup, "s");
  r.set_median("cpu_us_per_subframe", cpu_us, "us");
  r.set_median("subframes_per_s", rate, "1/s");
  r.set_median("ok_rate", ok_rate, "ratio");
  const double limit_us = 1e-3 * static_cast<double>(rtopex::kEndToEndBudget);
  set_latency(r, "latency_p50_us", latency, 0.50, limit_us);
  set_latency(r, "latency_p99_us", latency, 0.99, limit_us);
}

}  // namespace repobench
