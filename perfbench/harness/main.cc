// End-to-end benchmark harness: runs one workload for a fixed time on one
// closed-loop client thread and prints its metrics as one JSON line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <file.jsonl>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// path (one span per call into a module) and prints the per-layer
// metrics instead, with a span summary above the JSON line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const int64_t kProcessStartNs = NowNs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) Usage("--seconds must be in (0, 600]");
  return a;
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double P50(const std::vector<double>& v) { return Quantile(v, 0.5); }

void PrintSpanSummary(const Tracer& tr) {
  std::map<std::string, std::vector<double>> dur, self;
  const std::vector<double> self_ms = tr.SelfMs();
  for (size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    dur[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    self[s.name].push_back(self_ms[i]);
  }
  std::printf("%-28s %8s %10s %10s %10s %10s  (ms; p90/p99 need 10 samples beyond them)\n",
              "span", "n", "p50", "p90", "p99", "self p50");
  for (const auto& [name, v] : dur) {
    const size_t n = v.size();
    auto tail = [&](double q) -> std::string {
      if (static_cast<double>(n) * (1 - q) < 10) return "-";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", Quantile(v, q));
      return buf;
    };
    std::printf("%-28s %8zu %10.4f %10s %10s %10.4f\n", name.c_str(), n, P50(v),
                tail(0.9).c_str(), tail(0.99).c_str(), P50(self[name]));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (!workload) Usage(("unknown workload " + args.workload).c_str());

  Harness h;
  if (args.trace) h.tracer.Enable();
  workload->Setup(args.seed, &h);
  const double setup_s = static_cast<double>(NowNs() - kProcessStartNs) / 1e9;

  // Warm-up round: lazy set-up finishes, every result is checked, and
  // the result sizes every later round must repeat are recorded.
  h.checking = true;
  h.BeginRound();
  workload->Round(&h);
  h.checking = false;
  h.layer_samples.clear();
  h.layer_counts.clear();
  h.tracer.SetRecording(true);

  // Timed phase: whole rounds until the budget (minus untimed check and
  // reset time) is spent.
  h.timing = true;
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t phase_start = NowNs();
  h.excluded_ns = 0;
  size_t rounds = 0;
  while (true) {
    const int64_t r0 = NowNs();
    const int64_t x0 = h.excluded_ns;
    h.BeginRound();
    workload->Round(&h);
    ++rounds;
    h.round_ms.push_back(static_cast<double>(NowNs() - r0 - (h.excluded_ns - x0)) / 1e6);
    if (NowNs() - phase_start - h.excluded_ns >= budget_ns) break;
    // A run whose untimed work dominates still ends in bounded time.
    if (NowNs() - phase_start >= 4 * budget_ns) break;
  }
  const double timed_s =
      static_cast<double>(NowNs() - phase_start - h.excluded_ns) / 1e9;
  const double rss_mb = ResidentMiB();
  h.timing = false;
  h.tracer.SetRecording(false);
  workload->Finish(&h);

  for (const std::string& f : h.checker.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "%s seed=%llu: setup %.3f s, %zu rounds, %llu ops in %.3f s, "
               "%llu comparisons, %zu check failures\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               setup_s, rounds, static_cast<unsigned long long>(h.attempted), timed_s,
               static_cast<unsigned long long>(h.checker.comparisons()),
               h.checker.failures().size());

  const double ops = static_cast<double>(h.attempted);
  JsonMetrics e2e;
  e2e.Add("setup_s", setup_s, "s");
  const double q = workload->TimingQuantile();
  e2e.Add("round_ms", Quantile(h.round_ms, q), "ms");
  e2e.Add("lead_ms", Quantile(h.lead.ms, q), "ms");
  e2e.Add("second_ms", Quantile(h.second.ms, q), "ms");
  e2e.Add("lead_alloc_kb", h.lead.AllocKiBPerOp(), "KiB/op");
  e2e.Add("second_alloc_kb", h.second.AllocKiBPerOp(), "KiB/op");

  JsonMetrics layers;
  if (args.trace) {
    const Tracer& tr = h.tracer;
    // Query-path layers within the lead operation, bind within the
    // second; the rest over every span of their name.
    constexpr SpanClass kLead = SpanClass::kLead;
    auto us = [&](const char* span, SpanClass cls = SpanClass::kOther) {
      return P50(tr.DurationsMs(span, cls)) * 1000;
    };
    auto ms = [&](const char* span, SpanClass cls = SpanClass::kOther) {
      return P50(tr.DurationsMs(span, cls));
    };
    auto per_round = [&](const char* counter) {
      auto it = h.layer_counts.find(counter);
      return it == h.layer_counts.end() ? 0.0 : it->second / static_cast<double>(rounds);
    };
    auto sample_p50 = [&](const char* name) { return P50(h.layer_samples[name]); };
    auto sample_mean = [&](const char* name) { return Mean(h.layer_samples[name]); };
    layers.Add("server.pin_us_p50", us("server.pin", kLead), "us");
    layers.Add("sql.parse_us_p50", us("sql.parse", kLead), "us");
    layers.Add("query.optimize_us_p50", us("query.optimize", kLead), "us");
    layers.Add("query.compile_us_p50", us("query.compile", kLead), "us");
    layers.Add("query.open_ms_p50", ms("query.open", kLead), "ms");
    layers.Add("query.open_alloc_kb", tr.MeanAllocKiB("query.open", kLead), "KiB/op");
    layers.Add("query.drain_ms_p50", ms("query.drain", kLead), "ms");
    layers.Add("query.rows_out", sample_mean("query.rows_out"), "rows/op");
    layers.Add("relation.write_us_p50", us("relation.write"), "us");
    layers.Add("view.refresh_delta_ms_p50", sample_p50("view.refresh_delta_ms"), "ms");
    layers.Add("view.refresh_recompute_ms_p50", sample_p50("view.refresh_recompute_ms"), "ms");
    layers.Add("view.delta_refreshes", per_round("view.delta_refreshes"), "count/round");
    layers.Add("view.recompute_refreshes", per_round("view.recompute_refreshes"), "count/round");
    layers.Add("view.full_refresh_ms_p50", ms("view.full_refresh"), "ms");
    layers.Add("core.instantiate_ms_p50", ms("core.instantiate", SpanClass::kSecond), "ms");
    layers.Add("baselines.clifford_ms_p50", ms("baselines.clifford", kLead), "ms");
    layers.Add("process.rss_mb", rss_mb, "MiB");
    layers.Add("client.cpu_ms_per_op", h.op_cpu_ms / ops, "ms");
    layers.Add("client.wait_ms_per_op", (h.op_wall_ms - h.op_cpu_ms) / ops, "ms");
    if (args.workload == "paper_joins") {
      // Only the ungated paper_joins runs the parallel executor.
      layers.Add("query.serial_ms_p50", ms("query.serial", kLead), "ms");
      layers.Add("query.parallel_ms_p50", ms("query.parallel", kLead), "ms");
      layers.Add("process.cpu_ms_per_query", sample_mean("process.cpu_ms_per_query"), "ms");
    }
    if (args.workload == "serve_write") {
      // Only the ungated serve_write runs the commit layer.
      layers.Add("server.commit_ms_p50", ms("server.commit", kLead), "ms");
      layers.Add("server.commit_alloc_kb", tr.MeanAllocKiB("server.commit", kLead), "KiB/op");
      layers.Add("server.master_versions", h.layer_counts["server.master_versions"], "count");
    }

    PrintSpanSummary(tr);
    std::printf("traced end-to-end (compare with an untraced run for the "
                "tracing overhead): %s\n", e2e.str().c_str());
    if (!args.trace_out.empty()) {
      if (tr.WriteJsonl(args.trace_out)) {
        std::printf("spans written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
      }
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              h.checker.ok() ? "true" : "false",
              static_cast<unsigned long long>(h.attempted),
              static_cast<unsigned long long>(h.failed),
              (args.trace ? layers : e2e).str().c_str());
  std::fflush(stdout);
  return h.checker.ok() ? 0 : 1;
}
