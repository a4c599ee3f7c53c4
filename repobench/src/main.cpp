// The benchmark binary. run.py builds it and runs
//
//   repobench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// NAME is backlog, batched, realtime or postmortem. --trace 0 runs the
// workload with every benchmark-side probe off and reports the end-to-end
// metrics; --trace 1 runs the layer tour, which reports every per-layer
// metric (and writes its spans to PATH). The last stdout line is one JSON
// object: correct, attempted, failed, failed_checks and the metrics, each
// with value, unit and the per-rep median/quartiles/count behind it. Exit
// code 1 when any output check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace repobench {

void set_latency(Result& r, const std::string& name,
                 const std::vector<RepLatency>& reps, double p,
                 double limit_us, bool median_of_reps) {
  RepLatency pooled;
  std::vector<double> per_rep;
  std::size_t censored = 0;
  for (const RepLatency& rep : reps) {
    pooled.completed_us.insert(pooled.completed_us.end(),
                               rep.completed_us.begin(),
                               rep.completed_us.end());
    pooled.failures += rep.failures;
    const Percentile pr = percentile(rep.completed_us, rep.failures, p);
    r.check(pr.valid && (!median_of_reps || pr.rank == p),
            name + ": a rep is too small for this percentile");
    per_rep.push_back(pr.failure ? limit_us : pr.value);
    censored += pr.failure ? 1 : 0;
  }
  const Percentile pc = percentile(pooled.completed_us, pooled.failures, p);
  r.check(pc.valid, name + ": fewer than " + std::to_string(kMinBeyond + 1) +
                        " samples");
  char detail[200];
  if (median_of_reps)
    std::snprintf(detail, sizeof detail,
                  "median over %zu reps of p%.4g, %zu on a failure (pooled: "
                  "%zu samples)",
                  reps.size(), 100.0 * p, censored, pc.n);
  else
    std::snprintf(detail, sizeof detail,
                  "p%.4g of %zu samples over %zu reps (%zu beyond)%s",
                  100.0 * pc.rank, pc.n, reps.size(), pc.beyond,
                  pc.failure ? "; on a failure: reported at the deadline"
                             : "");
  Metric& m = r.metrics[name];
  m.reps = summarize(per_rep);
  m.value = median_of_reps ? m.reps.median
                           : (pc.failure ? limit_us : pc.value);
  m.unit = "us";
  m.detail = detail;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.failed_checks.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"failed_checks\": [";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(r.failed_checks[i]);
    out += '"';
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\": {\"value\": ";
    out += num(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += '"';
    if (m.reps.n > 0) {
      out += ", \"median\": " + num(m.reps.median);
      out += ", \"q1\": " + num(m.reps.q1);
      out += ", \"q3\": " + num(m.reps.q3);
      out += ", \"n\": " + std::to_string(m.reps.n);
    }
    if (!m.detail.empty()) {
      out += ", \"detail\": \"";
      out += json_escape(m.detail);
      out += '"';
    }
    out += '}';
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload backlog|batched|realtime|postmortem "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  using namespace repobench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (flag == "--spans") {
      opt.spans_path = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || opt.seconds <= 0.0) return usage(argv[0]);

  Result r;
  try {
    if (opt.trace) {
      if (opt.workload != "backlog" && opt.workload != "batched" &&
          opt.workload != "realtime" && opt.workload != "postmortem")
        return usage(argv[0]);
      run_layer_tour(opt, r);
    } else if (opt.workload == "backlog") {
      run_backlog(opt, r);
    } else if (opt.workload == "batched") {
      run_batched(opt, r);
    } else if (opt.workload == "realtime") {
      run_realtime(opt, r);
    } else if (opt.workload == "postmortem") {
      run_postmortem(opt, r);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    r.check(false, std::string("exception: ") + e.what());
  }
  print_result(r);
  return r.failed_checks.empty() ? 0 : 1;
}
