// The traced layer tour (--trace 1). It runs a short version of every
// workload plus the single-layer replays, with a span around each call
// into a module of the program, and derives every per-layer metric from
// those spans and from the program's own reports. It reports the same
// metrics whichever workload is named, so each traced run carries all of
// them. Sections, in order:
//
//   host        TurboDecoder::decode_reference on one K=6144 block
//   phy         the node workloads' MCS cycle through UplinkRxProcessor
//               stage calls, single-threaded, on a warm workspace
//   backlog     NodeRuntime reps, global mode, one worker, batch of 1
//   batched     NodeRuntime reps, batch 16, workspace pool, pinned
//   realtime    RT-OPEX reps alternating observers on / off, then the
//               health engine and the metrics rendering replayed offline
//   postmortem  one sweep, each run also timed without a tracer, plus the
//               adaptive estimator replayed over one load's workload
//
// Wall time of a section that no span covers is reported as
// <section>.other_s.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "model/online_fit.hpp"
#include "node.hpp"
#include "obs/health/health.hpp"
#include "obs/metrics_registry.hpp"
#include "phy/lte_params.hpp"
#include "phy/qpp_interleaver.hpp"
#include "phy/turbo.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"
#include "postmortem.hpp"

namespace repobench {
namespace phy = rtopex::phy;
namespace rt = rtopex::runtime;
namespace core = rtopex::core;

namespace {

double us(std::int64_t ns) { return 1e-3 * static_cast<double>(ns); }

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

/// The tour's span list plus the window of each section.
struct Tour {
  struct Window {
    std::string name;
    std::int64_t start = 0, end = 0;
  };
  SpanRecorder spans;
  std::vector<Window> sections;
};

/// Times one section; close() reports the wall time no span covers.
class Section {
 public:
  Section(Tour& tour, std::string name)
      : tour_(tour), name_(std::move(name)), start_(now_ns()) {}
  void close(Result& r) {
    const std::int64_t end = now_ns();
    r.set(name_ + ".other_s",
          1e-9 * static_cast<double>(tour_.spans.uncovered_ns(start_, end)),
          "s");
    tour_.sections.push_back({name_, start_, end});
  }

 private:
  Tour& tour_;
  std::string name_;
  std::int64_t start_;
};

// --- host ------------------------------------------------------------------

void host_section(const Options& opt, Tour& tour, Result& r) {
  Section sec(tour, "host");
  constexpr std::size_t kK = 6144;
  const phy::QppInterleaver qpp(kK);
  const phy::TurboEncoder enc(qpp);
  const phy::TurboDecoder dec(qpp, 4);
  rtopex::Rng rng(opt.seed);
  phy::BitVector bits(kK);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  const auto cw = enc.encode(bits);
  phy::LlrVector sys(kK + 4), p1(kK + 4), p2(kK + 4);
  for (std::size_t i = 0; i < kK + 4; ++i) {
    sys[i] = cw.systematic[i] ? -4.0f : 4.0f;
    p1[i] = cw.parity1[i] ? -4.0f : 4.0f;
    p2[i] = cw.parity2[i] ? -4.0f : 4.0f;
  }
  std::vector<double> times;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t t0 = now_ns();
    phy::TurboDecodeResult res;
    {
      Scope s(&tour.spans, "phy.turbo_decode_reference");
      res = dec.decode_reference(sys, p1, p2);
    }
    times.push_back(us(now_ns() - t0));
    r.attempted += 1;
    const bool ok = std::equal(bits.begin(), bits.end(), res.bits.begin());
    r.check(ok, "host: reference turbo decode of a clean block is wrong");
    r.failed += ok ? 0 : 1;
  }
  r.set("host.turbo_ref_us", median(times), "us",
        "decode_reference, K=6144, 4 iterations; diagnostic only");
  sec.close(r);
}

// --- phy -------------------------------------------------------------------

/// The node's receive-side variants, generated exactly as NodeRuntime
/// builds them (same seed stream), so the replay decodes the same samples
/// and runs the same turbo iterations as the node workloads.
struct Variant {
  unsigned mcs = 0;
  std::uint32_t tx_index = 0;
  std::vector<phy::IqVector> samples;
};

std::vector<Variant> node_variants(const rt::RuntimeConfig& cfg) {
  phy::UplinkTransmitter tx(cfg.phy);
  rtopex::Rng rng(cfg.seed);
  std::vector<unsigned> distinct = cfg.mcs_cycle;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<Variant> out;
  for (unsigned bs = 0; bs < cfg.num_basestations; ++bs) {
    for (const unsigned mcs : distinct) {
      const phy::TxSubframe sf = tx.transmit(mcs, bs, rng.next());
      rtopex::channel::ChannelConfig ch;
      ch.snr_db = cfg.snr_db;
      ch.num_rx_antennas = cfg.phy.num_antennas;
      out.push_back({mcs, bs, rtopex::channel::pass_through_channel(
                                  sf.samples, ch, rng.next())});
    }
  }
  return out;
}

struct PhyFigures {
  double subframe_us = 0.0;        ///< per-block decode chain.
  double subframe_batch16_us = 0.0;  ///< same chain, span-form decode.
};

PhyFigures phy_section(const Options& opt, double budget_s,
                       Tour& tour, Result& r) {
  Section sec(tour, "phy");
  const rt::RuntimeConfig cfg =
      node_config(NodeKind::kBacklog, opt.seed, 1);
  constexpr std::size_t kBatch = 16;
  std::vector<Variant> variants;
  std::optional<phy::UplinkRxProcessor> rx_holder;
  phy::UplinkRxJob job;
  std::vector<phy::UplinkRxJob> jobs;
  {
    Scope s(&tour.spans, "phy.setup");  // tx + channel, processor, job buffers
    variants = node_variants(cfg);
    rx_holder.emplace(cfg.phy);
    job = rx_holder->make_job();
    for (std::size_t i = 0; i < kBatch; ++i)
      jobs.push_back(rx_holder->make_job());
  }
  const phy::UplinkRxProcessor& rx = *rx_holder;
  phy::DecodeWorkspace ws;
  phy::UplinkRxResult result;

  const auto check = [&r](bool ok, const char* what) {
    r.attempted += 1;
    r.failed += ok ? 0 : 1;
    r.check(ok, what);
  };
  const auto front = [&rx, &ws](phy::UplinkRxJob& j, const Variant& v) {
    rx.begin(j, v.samples, v.mcs, v.tx_index);
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(j, s, ws);
    rx.demod_prepare(j);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(j, s);
    rx.decode_prepare(j, ws);
  };

  // Per pass: the mean over the MCS cycle of each stage; reported: the
  // median over passes. The first pass warms the workspace, untimed.
  std::vector<double> fft, demod, decode, batch1, batch16, fin, subframe;
  double iterations = 0.0, blocks = 0.0, subframes = 0.0;
  const std::int64_t t0 = now_ns();
  for (int pass = 0; pass < 4 || seconds_since(t0) < budget_s; ++pass) {
    double f = 0, d = 0, dec = 0, b1 = 0, fi = 0, sf = 0;
    for (const Variant& v : variants) {
      const std::int64_t a = now_ns();
      {
        Scope s(&tour.spans, "phy.subframe");
        {
          Scope b(&tour.spans, "phy.begin");
          rx.begin(job, v.samples, v.mcs, v.tx_index);
        }
        const std::int64_t t1 = now_ns();
        {
          Scope b(&tour.spans, "phy.fft");
          for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
            rx.run_fft_subtask(job, s, ws);
        }
        const std::int64_t t2 = now_ns();
        {
          Scope b(&tour.spans, "phy.demod");
          rx.demod_prepare(job);
          for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
            rx.run_demod_subtask(job, s);
        }
        const std::int64_t t3 = now_ns();
        {
          Scope b(&tour.spans, "phy.decode");
          rx.decode_prepare(job, ws);
          for (std::size_t s = 0; s < rx.decode_subtask_count(job); ++s)
            rx.run_decode_subtask(job, s, ws);
        }
        const std::int64_t t4 = now_ns();
        {
          Scope b(&tour.spans, "phy.finalize");
          rx.finalize_into(job, ws, result);
        }
        const std::int64_t t5 = now_ns();
        f += us(t2 - t1);
        d += us(t3 - t2);
        dec += us(t4 - t3);
        fi += us(t5 - t4);
      }
      sf += us(now_ns() - a);
      check(result.crc_ok, "phy: per-block decode of a variant failed CRC");
      if (pass == 0) {
        for (const auto& cb : job.cb_results) iterations += cb.iterations;
        blocks += static_cast<double>(job.cb_results.size());
        subframes += 1.0;
      }
      // Single-job batch decode of the same subframe (front untimed).
      {
        Scope s(&tour.spans, "phy.front");
        front(job, v);
      }
      const std::int64_t c = now_ns();
      {
        Scope s(&tour.spans, "phy.decode_batch");
        rx.run_decode_batch(job, ws);
      }
      b1 += us(now_ns() - c);
      {
        Scope s(&tour.spans, "phy.finalize");
        rx.finalize_into(job, ws, result);
      }
      check(result.crc_ok, "phy: batch decode of a node variant failed CRC");
    }
    // Span form: 16 subframes cycling through the variants, one call.
    for (std::size_t i = 0; i < kBatch; ++i) {
      Scope s(&tour.spans, "phy.front");
      front(jobs[i], variants[i % variants.size()]);
    }
    std::vector<phy::UplinkRxJob*> ptrs;
    for (auto& j : jobs) ptrs.push_back(&j);
    const std::int64_t c = now_ns();
    {
      Scope s(&tour.spans, "phy.decode_batch16");
      rx.run_decode_batch(ptrs, ws);
    }
    const double b16 = us(now_ns() - c) / static_cast<double>(kBatch);
    for (auto& j : jobs) {
      Scope s(&tour.spans, "phy.finalize");
      rx.finalize_into(j, ws, result);
      check(result.crc_ok, "phy: 16-subframe batch decode failed CRC");
    }
    if (pass == 0) continue;  // warm-up
    const double n = static_cast<double>(variants.size());
    fft.push_back(f / n);
    demod.push_back(d / n);
    decode.push_back(dec / n);
    fin.push_back(fi / n);
    subframe.push_back(sf / n);
    batch1.push_back(b1 / n);
    batch16.push_back(b16);
  }
  PhyFigures out;
  out.subframe_us = median(subframe);
  out.subframe_batch16_us =
      median(fft) + median(demod) + median(batch16) + median(fin);
  r.set("phy.fft_us", median(fft), "us");
  r.set("phy.demod_us", median(demod), "us");
  r.set("phy.decode_us", median(decode), "us", "per-code-block loop");
  r.set("phy.decode_batch_us", median(batch1), "us", "single-job SoA form");
  r.set("phy.decode_batch16_us", median(batch16), "us",
        "16-subframe span form, per subframe");
  r.set("phy.finalize_us", median(fin), "us");
  r.set("phy.subframe_us", out.subframe_us, "us",
        "begin..finalize, per-block decode");
  r.set("phy.turbo_iterations_per_block", iterations / blocks, "count");
  r.set("phy.code_blocks_per_subframe", blocks / subframes, "count");
  sec.close(r);
  return out;
}

// --- node workloads ----------------------------------------------------------

struct RuntimeFigures {
  std::vector<double> queue_wait, service, stage, unattributed;
  double cpu_us = 0.0;  ///< process CPU per offered subframe (all reps).
  double run_overhead_ms = 0.0;
  std::size_t offered = 0, batched = 0, migrations = 0, recoveries = 0;
  std::size_t dropped = 0, late = 0;

  void add(const NodeRep& rep, const NodeOutcome& o) {
    rtopex::TimePoint last = 0;
    for (const rt::SubframeRecord& rec : rep.report.records) {
      last = std::max(last, rec.completion);
      if (rec.lost || rec.dropped || rec.late_arrival) continue;
      const double svc = us(rec.completion - rec.start);
      const double stg =
          us(rec.timing.fft + rec.timing.demod + rec.timing.decode);
      queue_wait.push_back(us(rec.start - rec.arrival));
      service.push_back(svc);
      stage.push_back(stg);
      unattributed.push_back(svc - stg);
    }
    const double n = static_cast<double>(offered);
    cpu_us = (cpu_us * n + 1e6 * rep.cpu_s) /
             (n + static_cast<double>(rep.offered));
    run_overhead_ms = std::max(
        run_overhead_ms, 1e3 * rep.wall_s - 1e-6 * static_cast<double>(last));
    offered += rep.offered;
    batched += rep.report.batched_subframes;
    migrations += rep.report.migrations;
    recoveries += rep.report.recoveries;
    dropped += o.dropped;
    late += o.late;
  }

  void report(Result& r, const std::string& wl, bool with_queue) const {
    const std::string p = "runtime." + wl + ".";
    if (with_queue)
      r.set(p + "queue_wait_us", median(queue_wait), "us",
            "start - arrival, p50");
    r.set(p + "service_us", median(service), "us", "start -> completion, p50");
    r.set(p + "stage_us", median(stage), "us", "fft + demod + decode, p50");
    r.set(p + "unattributed_us", median(unattributed), "us",
          "service - stage sum, p50");
    r.set(p + "run_overhead_ms", run_overhead_ms, "ms",
          "run() wall - last completion, worst rep");
  }
};

void saturating_section(NodeKind kind, const std::string& name,
                        const Options& opt, double budget_s,
                        double phy_subframe_us, Tour& tour,
                        Result& r) {
  Section sec(tour, name);
  const rt::RuntimeConfig cfg =
      node_config(kind, opt.seed, kBacklogSubframesPerBs);
  check_node_rep(
      kind, run_node_rep(node_config(kind, opt.seed, 20), &tour.spans), r);
  RuntimeFigures fig;
  const std::int64_t t0 = now_ns();
  for (int n = 0; n < 2 || seconds_since(t0) < budget_s; ++n) {
    const NodeRep rep = run_node_rep(cfg, &tour.spans);
    Scope s(&tour.spans, "bench.check");
    fig.add(rep, check_node_rep(kind, rep, r));
  }
  fig.report(r, name, false);
  r.set("runtime." + name + ".overhead_cpu_us", fig.cpu_us - phy_subframe_us,
        "us", "cpu_us_per_subframe - single-threaded phy chain");
  if (kind == NodeKind::kBatched)
    r.set("runtime.batched.batch_fill",
          static_cast<double>(fig.batched) / static_cast<double>(fig.offered),
          "ratio", "share of subframes decoded in a batch of 2+");
  sec.close(r);
}

void realtime_section(const Options& opt, double budget_s,
                      Tour& tour, Result& r) {
  Section sec(tour, "realtime");
  constexpr std::size_t kTicks = 300;
  const rt::RuntimeConfig on =
      node_config(NodeKind::kRealtime, opt.seed, kTicks, true);
  const rt::RuntimeConfig off =
      node_config(NodeKind::kRealtime, opt.seed, kTicks, false);
  const double limit_us = 1e-3 * static_cast<double>(on.deadline_budget);
  check_node_rep(NodeKind::kRealtime,
                 run_node_rep(node_config(NodeKind::kRealtime, opt.seed, 50),
                              &tour.spans),
                 r);
  RuntimeFigures fig;
  std::vector<double> lat_on, lat_off;
  std::size_t fail_on = 0, fail_off = 0, spans_on = 0;
  rt::RuntimeReport last_on;
  // Alternate on / off so host drift hits both sides alike.
  const std::int64_t t0 = now_ns();
  for (int n = 0; n < 4 || seconds_since(t0) < budget_s; ++n) {
    const bool observed = n % 2 == 0;
    NodeRep rep = run_node_rep(observed ? on : off, &tour.spans);
    Scope s(&tour.spans, "bench.check");
    const NodeOutcome o = check_node_rep(NodeKind::kRealtime, rep, r);
    auto& lat = observed ? lat_on : lat_off;
    lat.insert(lat.end(), o.latency_us.begin(), o.latency_us.end());
    (observed ? fail_on : fail_off) += o.offered - o.ok;
    if (observed) {
      fig.add(rep, o);
      spans_on += rep.report.profile.samples.size();
      r.check(rep.report.trace.total_drops() == 0,
              "realtime: the runtime trace dropped events");
      last_on = std::move(rep.report);
    }
  }
  fig.report(r, "realtime", true);
  const double n = static_cast<double>(fig.offered);
  r.set("runtime.realtime.migrations_per_subframe",
        static_cast<double>(fig.migrations) / n, "count");
  r.set("runtime.realtime.recoveries_per_subframe",
        static_cast<double>(fig.recoveries) / n, "count");
  r.set("runtime.realtime.dropped", static_cast<double>(fig.dropped), "count",
        "slack-check drops, observed reps");
  r.set("runtime.realtime.late", static_cast<double>(fig.late), "count",
        "decoded past the deadline or arrived late, observed reps");
  r.set("obs.profile.spans_per_subframe", static_cast<double>(spans_on) / n,
        "count");
  const auto value = [limit_us](const Percentile& p) {
    return p.failure ? limit_us : p.value;
  };
  // A side whose percentile lands on a failure counts at the deadline; the
  // detail says so, since a zero delta then means "both failed".
  const auto delta = [&](const char* name, double q, const char* what) {
    const Percentile a = percentile(lat_on, fail_on, q);
    const Percentile b = percentile(lat_off, fail_off, q);
    std::string detail = std::string(what) + ", observers on - off";
    if (a.failure || b.failure)
      detail += a.failure && b.failure ? "; both on a failure"
                : a.failure           ? "; on-side on a failure"
                                      : "; off-side on a failure";
    r.set(name, value(a) - value(b), "us", detail);
    return a;
  };
  delta("obs.observer_p50_delta_us", 0.5, "realtime latency p50");
  const Percentile p99_on =
      delta("obs.observer_p99_delta_us", 0.99, "realtime latency p99");
  r.set("runtime.realtime.latency_p99_us", value(p99_on), "us",
        p99_on.failure ? "observed reps pooled; lands on a failure"
                       : "observed reps pooled");

  // The health engine over the last observed rep's trace, offline: the
  // same observe/advance sequence the ticker runs, one period at a time.
  {
    std::vector<rtopex::obs::TraceEvent> events = last_on.trace.events;
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) { return a.ts < b.ts; });
    rtopex::obs::health::Topology topo;
    topo.num_basestations = on.num_basestations;
    topo.node_cores = {on.num_basestations * on.cores_per_bs};
    const std::int64_t h0 = now_ns();
    std::size_t fed = 0;
    {
      Scope s(&tour.spans, "obs.health.offline");
      rtopex::obs::health::HealthMonitor monitor(on.health, topo);
      rtopex::TimePoint next = on.subframe_period;
      for (const auto& ev : events) {
        if (ev.kind == rtopex::obs::EventKind::kAlert ||
            ev.kind == rtopex::obs::EventKind::kAlertClear)
          continue;
        while (ev.ts >= next) {
          monitor.advance(next);
          next += on.subframe_period;
        }
        monitor.observe(ev);
        ++fed;
      }
      monitor.finish(next);
    }
    r.set("obs.health.ns_per_event",
          static_cast<double>(now_ns() - h0) /
              static_cast<double>(std::max<std::size_t>(fed, 1)),
          "ns");
  }
  {
    std::vector<double> render;
    std::size_t bytes = 0;
    for (int i = 0; i < 9; ++i) {
      Scope s(&tour.spans, "obs.metrics.render");
      const std::int64_t m0 = now_ns();
      rtopex::obs::MetricsRegistry reg;
      rt::fill_registry(last_on, reg);
      bytes = reg.render().size();
      render.push_back(us(now_ns() - m0));
    }
    r.check(bytes > 0, "realtime: empty metrics rendering");
    r.set("obs.metrics.render_us", median(render), "us",
          "fill_registry + render of one realtime rep report");
  }
  sec.close(r);
}

// --- postmortem --------------------------------------------------------------

const char* sched_key(core::SchedulerKind k) {
  switch (k) {
    case core::SchedulerKind::kPartitioned: return "partitioned";
    case core::SchedulerKind::kGlobal: return "global";
    case core::SchedulerKind::kRtOpex: return "rtopex";
  }
  return "unknown";
}

void postmortem_section(const Options& opt, Tour& tour, Result& r) {
  Section sec(tour, "postmortem");
  const PostmortemRep rep = run_postmortem_rep(
      opt.seed, kPostmortemSubframesPerBs, &tour.spans, /*untraced=*/true, r);
  r.set("sim.workload_gen_s", rep.setup_s, "s", "make_workload, all loads");

  double events = 0, subframes = 0, traced = 0, untraced = 0, take = 0,
         analyze = 0, drops = 0, unknown = 0, migrated = 0, err = 0,
         err_n = 0;
  for (const core::SchedulerKind kind : kPostmortemScheds) {
    double sched_s = 0, sched_sf = 0;
    for (const bool adaptive : {false, true}) {
      double misses = 0;
      for (const PostmortemRun& run : rep.runs) {
        if (run.kind != kind || run.adaptive != adaptive) continue;
        const auto& m = run.metrics;
        misses += static_cast<double>(m.deadline_misses);
        const double sf = static_cast<double>(m.total_subframes);
        if (!adaptive) {
          sched_s += run.untraced_s;
          sched_sf += sf;
        }
        if (kind == core::SchedulerKind::kRtOpex && !adaptive)
          migrated += static_cast<double>(m.fft_subtasks_migrated +
                                          m.decode_subtasks_migrated);
        if (adaptive) {
          err += m.decode_est_used_abs_err_us;
          err_n += static_cast<double>(m.decode_est_samples);
        }
        events += static_cast<double>(run.events);
        subframes += sf;
        traced += run.traced_s;
        untraced += run.untraced_s;
        take += run.take_s;
        analyze += run.analyze_s;
        drops += static_cast<double>(run.trace_drops);
        unknown += static_cast<double>(run.unknown_causes);
      }
      r.set(std::string("sched.misses.") + sched_key(kind) +
                (adaptive ? ".adaptive" : ".static"),
            misses, "count", "all loads");
    }
    r.set(std::string("sched.") + sched_key(kind) + "_ns_per_subframe",
          1e9 * sched_s / sched_sf, "ns", "untraced run_scheduler, static");
  }
  r.set("sched.migrated_subtasks", migrated, "count", "rt-opex static");
  r.set("sched.decode_est_abs_err_us", err_n > 0 ? err / err_n : 0.0, "us",
        "adaptive runs, |admitted estimate - executed|");
  r.set("obs.trace_ns_per_event", 1e9 * (traced - untraced) / events, "ns",
        "traced - untraced run_scheduler");
  r.set("obs.events_per_subframe", events / subframes, "count");
  r.set("obs.take_ns_per_event", 1e9 * take / events, "ns");
  r.set("obs.trace_drops", drops, "count");
  r.set("obs.analysis.ns_per_event", 1e9 * analyze / events, "ns");
  r.set("obs.analysis.unknown_causes", unknown, "count");

  // The adaptive estimator alone: predict before, observe after, every
  // subframe of the middle load, in arrival order.
  core::ExperimentConfig cfg =
      postmortem_config(opt.seed, kPostmortemSubframesPerBs);
  cfg.workload.mean_load_override = kPostmortemLoads[1];
  std::vector<rtopex::sim::SubframeWork> work;
  {
    Scope s(&tour.spans, "sim.make_workload");
    work = core::make_workload(cfg);
  }
  const auto prb = phy::bandwidth_config(cfg.workload.bandwidth).num_prb;
  std::vector<double> per_sf;
  rtopex::Duration sink = 0;
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    Scope s(&tour.spans, "model.online_estimators");
    const std::int64_t e0 = now_ns();
    rtopex::model::OnlineEstimators est(
        cfg.workload.num_antennas, prb, cfg.workload.num_basestations,
        cfg.workload.max_iterations);
    for (const auto& w : work) {
      sink += est.predict_decode(w.bs, w.mcs, w.wcet.decode);
      est.observe_decode(w.bs, w.mcs, w.iterations, w.costs.decode,
                         w.costs.decode_subtask);
    }
    per_sf.push_back(static_cast<double>(now_ns() - e0) /
                     static_cast<double>(work.size()));
  }
  r.check(sink > 0, "postmortem: the adaptive estimator predicted nothing");
  r.set("model.adaptive_ns_per_subframe", median(per_sf), "ns",
        "OnlineEstimators predict_decode + observe_decode");
  sec.close(r);
}

}  // namespace

void run_layer_tour(const Options& opt, Result& r) {
  Tour tour;
  // Shares of --seconds; the postmortem sweep has a fixed size.
  const double s = opt.seconds;
  host_section(opt, tour, r);
  const PhyFigures phy = phy_section(opt, 0.15 * s, tour, r);
  saturating_section(NodeKind::kBacklog, "backlog", opt, 0.15 * s,
                     phy.subframe_us, tour, r);
  saturating_section(NodeKind::kBatched, "batched", opt, 0.15 * s,
                     phy.subframe_batch16_us, tour, r);
  realtime_section(opt, 0.3 * s, tour, r);
  postmortem_section(opt, tour, r);

  // Self time per span name, for reading next to the per-layer metrics.
  std::vector<std::string> names;
  for (const SpanRecorder::Span& span : tour.spans.spans())
    if (std::find(names.begin(), names.end(), span.name) == names.end())
      names.push_back(span.name);
  for (const std::string& name : names)
    r.set("self_s." + name,
          1e-9 * static_cast<double>(tour.spans.self_ns(name)), "s",
          std::to_string(tour.spans.count(name)) + " spans");

  if (!opt.spans_path.empty()) {
    bool ok = tour.spans.write_jsonl(opt.spans_path);
    if (std::FILE* f = std::fopen(opt.spans_path.c_str(), "a")) {
      for (const Tour::Window& w : tour.sections)
        std::fprintf(f,
                     "{\"section\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld}\n",
                     w.name.c_str(), static_cast<long long>(w.start),
                     static_cast<long long>(w.end));
      ok = std::fclose(f) == 0 && ok;
    } else {
      ok = false;
    }
    r.check(ok, "could not write the span list to " + opt.spans_path);
  }
}

}  // namespace repobench
