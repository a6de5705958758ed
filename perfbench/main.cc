// hetm_perfbench: the repository benchmark runner.
//
//   hetm_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Builds the named workload's worlds from the seed and runs them again and again
// for S host seconds. Simulated results must repeat bit-identically from pass
// to pass; host times are each timed world's fastest pass, reported at a
// reference host speed (see HostClock).
//
// --trace 0 prints the end-to-end metrics, measured with the program's tracer
// off. --trace 1 prints the per-layer metrics: counters the program exports,
// host probes of single modules, and the move-phase timings of a separate
// traced run (whose Chrome-trace JSON, runner spans included, goes to
// DIR/<workload>-seed<N>.trace.json).
//
// Every metric is printed as "name value unit", then one JSON line
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
// every correctness gate held: closed-form program output, World::Run
// quiescing, World::CheckInvariants() empty, the operation ledger summing, and
// same-seed passes agreeing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Traffic workloads merge many worlds for their simulated metrics, but a run
// has time for only a few passes over all of them. Host time is measured on
// this many worlds, re-run until the budget is spent, so that each timed world
// gets a few dozen repeats.
constexpr size_t kTimedWorlds = 4;

// One pass: worlds [0, count) of the workload built, run and checked once.
struct Pass {
  std::vector<InstanceResult> results;
  hetm::MetricsRegistry merged;  // counters summed, histograms merged
  double run_s = 0.0;
  double ops = 0.0;
  Ledger ledger;
  std::vector<std::string> violations;
  std::vector<std::string> failures;
};

Pass RunPass(const Workload& w, size_t count, bool traced, SpanRecorder* spans,
             std::string* chrome_json, std::unique_ptr<hetm::EmeraldSystem>* keep) {
  Pass p;
  for (size_t i = 0; i < count; ++i) {
    const InstanceSpec& spec = w.instances[i];
    bool first = i == 0;
    InstanceResult r = RunInstance(spec, traced, first ? spans : nullptr,
                                   first ? chrome_json : nullptr, first ? keep : nullptr);
    p.merged.Merge(r.metrics);
    r.metrics = hetm::MetricsRegistry();  // per-node detail: merged, not kept
    p.run_s += r.run_s;
    p.ops += static_cast<double>(spec.ops);
    p.ledger.attempted += r.ledger.attempted;
    p.ledger.landed += r.ledger.landed;
    p.ledger.committed += r.ledger.committed;
    p.ledger.noop += r.ledger.noop;
    p.ledger.done += r.ledger.done;
    p.ledger.failed += r.ledger.failed;
    // Traffic worlds are named by their sub-seed too, so a failing world can
    // be replayed on its own (`hetm_run --seed` takes seeds below 2^63).
    std::string world = "world " + std::to_string(i);
    if (spec.traffic) {
      world += " (traffic seed " + std::to_string(spec.traffic_config.seed) + ")";
    }
    for (const std::string& v : r.violations) {
      p.violations.push_back(world + ": " + v);
    }
    if (!r.failure_detail.empty()) {
      p.failures.push_back(world + ": " + r.failure_detail);
    }
    p.results.push_back(std::move(r));
  }
  return p;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The shared host this benchmark was tuned on changes speed by up to a third
// for minutes at a time, with the load of other tenants: every host time of a
// run moves together, fastest passes and set-up included, and per-pass CPU
// time equals wall time, so neither the fastest pass nor a CPU clock filters
// it. A fixed chain of dependent table loads, multiplies and unpredictable
// branches, all in L1, slows down in step with a slower clock: over one
// stretch of 75 six-second runs of hetero-tour5 and sched-sync3 the runs'
// fastest passes moved by ±15% and their product with the chain's fastest
// step by ±3%. (Contention for memory, which hit lease-churn64 hardest in a
// busier stretch, the chain sees only in part.) So the chain is timed after
// every pass, and every host time is reported at a reference speed:
// multiplied by kReferenceStepNs over the run's fastest step, as if measured
// on a host where one step takes kReferenceStepNs (about the fastest step that
// host showed).
class HostClock {
 public:
  static constexpr double kReferenceStepNs = 5.7;

  // Times the chain once (about 1.3 ms).
  void Sample() {
    static const std::vector<uint32_t> table = [] {
      std::vector<uint32_t> t(kTableSize);
      uint64_t x = 88172645463325252ull;
      for (uint32_t i = 0; i < kTableSize; ++i) t[i] = i;
      for (uint32_t i = kTableSize - 1; i > 0; --i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(t[i], t[x % (i + 1)]);
      }
      return t;
    }();
    auto t0 = Clock::now();
    uint32_t p = 0;
    uint64_t h = 0;
    for (int k = 0; k < kSteps; ++k) {
      p = table[p];
      h = (h ^ p) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
      if (h & 1) p = (p + 1) & (kTableSize - 1);
    }
    static volatile uint64_t sink;
    sink = h;
    double step_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kSteps;
    fastest_step_ns_ = std::min(fastest_step_ns_, step_ns);
  }

  double fastest_step_ns() const { return fastest_step_ns_; }
  // Host seconds measured in this run times this are reference seconds.
  double scale() const { return kReferenceStepNs / fastest_step_ns_; }

 private:
  static constexpr uint32_t kTableSize = 1024;  // 4 KiB: stays in L1
  static constexpr int kSteps = 200000;
  double fastest_step_ns_ = 1e9;
};

double Pct(const hetm::MetricsRegistry& m, const char* hist, double p) {
  const hetm::LogHistogram* h = m.FindHistogram(hist);
  return h != nullptr ? h->Percentile(p) : 0.0;
}

uint64_t Count(const hetm::MetricsRegistry& m, const char* hist) {
  const hetm::LogHistogram* h = m.FindHistogram(hist);
  return h != nullptr ? h->count() : 0;
}

// The histogram holding a workload's per-operation simulated latency: an
// arrival's route latency, or a remote monitor call's round trip.
const char* OpLatencyHistogram(const Workload& w) {
  return w.kind == WorkloadKind::kTraffic ? "traffic.route_latency_us"
                                          : "invoke.remote_latency_us";
}

// Simulated end-to-end metrics of one pass (identical on every pass).
struct SimSummary {
  double makespan_s = 0.0;
  double op_p50_ms = 0.0;
  double op_p99_ms = 0.0;
  uint64_t op_samples = 0;
};

SimSummary Summarize(const Workload& w, const Pass& p) {
  SimSummary s;
  if (w.kind == WorkloadKind::kTour) {
    // Marginal simulated time per tour: the difference quotient of the two
    // worlds cancels boot, code loading and the final prints. Every
    // steady-state tour costs the same, so the median and tail are this value.
    double lo = p.results[0].makespan_us;
    double hi = p.results[1].makespan_us;
    double rtt_ms = (hi - lo) / (w.tours_hi - w.tours_lo) / 1000.0;
    s.makespan_s = hi / 1e6;
    s.op_p50_ms = rtt_ms;
    s.op_p99_ms = rtt_ms;
    s.op_samples = static_cast<uint64_t>(w.tours_hi - w.tours_lo);
    return s;
  }
  std::vector<double> makespans;
  for (const InstanceResult& r : p.results) {
    makespans.push_back(r.makespan_us / 1e6);
  }
  double sum = 0.0;
  for (double m : makespans) sum += m;
  s.makespan_s = sum / static_cast<double>(makespans.size());
  s.op_p50_ms = Pct(p.merged, OpLatencyHistogram(w), 50.0) / 1000.0;
  s.op_p99_ms = Pct(p.merged, OpLatencyHistogram(w), 99.0) / 1000.0;
  s.op_samples = Count(p.merged, OpLatencyHistogram(w));
  return s;
}

// Peak resident memory of this process image. Not getrusage's ru_maxrss: that
// keeps the high-water mark of the process before exec, so under run.py it
// reported the forked Python interpreter's ~14 MB for every small workload.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

void PrintResult(bool correct, const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  char buf[512];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: hetm_perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--trace-dir DIR]\nworkloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string trace_dir = ".";
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      return Usage();
    }
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') seconds = -1.0;
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (arg == "--trace-dir") {
      trace_dir = v;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!have_seed || seconds <= 0.0 || trace < 0 || !MakeWorkload(workload_name, seed, &w)) {
    return Usage();
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // A violated gate fails the run but does not end it early: the host
  // metrics of a failing run are measured like any other.
  std::vector<std::string> violations;
  auto violate = [&](const std::string& v) {
    if (std::find(violations.begin(), violations.end(), v) == violations.end()) {
      violations.push_back(v);
    }
  };
  // `p` ran a prefix of the worlds `reference` ran.
  auto check_pass = [&](const Pass& p, const Pass& reference) {
    for (const std::string& v : p.violations) {
      violate(v);
    }
    for (size_t i = 0; i < p.results.size(); ++i) {
      if (p.results[i].fingerprint != reference.results[i].fingerprint) {
        violate("determinism: world " + std::to_string(i) +
                " differs from the first pass of the same seed");
      }
    }
  };
  // Repeats while another pass as long as the last one fits in the budget (at
  // least `min_passes` passes).
  auto more = [&](int passes, int min_passes, Clock::duration last) {
    return passes < min_passes || Clock::now() + last <= deadline;
  };

  std::vector<Metric> metrics;
  Pass first;
  if (trace == 0) {
    const size_t all = w.instances.size();
    const size_t timed = std::min(all, kTimedWorlds);
    // Host times of the timed worlds, one sample per pass.
    std::vector<std::vector<double>> setup_s(timed);
    std::vector<std::vector<double>> run_s(timed);
    HostClock clock;
    int passes = 0;
    auto account = [&](const Pass& p) {
      ++passes;
      clock.Sample();
      for (size_t i = 0; i < timed; ++i) {
        setup_s[i].push_back(p.results[i].setup_s);
        run_s[i].push_back(p.results[i].run_s);
      }
    };
    // Two passes over every world: all simulated results must repeat
    // bit-identically. Then the timed worlds again and again.
    first = RunPass(w, all, false, nullptr, nullptr, nullptr);
    check_pass(first, first);
    account(first);
    Pass second = RunPass(w, all, false, nullptr, nullptr, nullptr);
    check_pass(second, first);
    account(second);
    Clock::duration last{};
    while (more(passes, 0, last)) {
      auto t0 = Clock::now();
      Pass p = RunPass(w, timed, false, nullptr, nullptr, nullptr);
      last = Clock::now() - t0;
      check_pass(p, first);
      account(p);
    }
    // On a shared host contention only ever slows a pass down, and most of the
    // time some is present: across runs of hetero-tour5 the median pass moved
    // by ±20% and even the fast decile by ±20%, the fastest pass by ±4%. So
    // each world's host time is its fastest pass.
    std::vector<double> setups;
    double timed_ops = 0.0;
    double fastest_run_s = 0.0;
    for (size_t i = 0; i < timed; ++i) {
      setups.push_back(Fastest(setup_s[i]));
      timed_ops += static_cast<double>(w.instances[i].ops);
      fastest_run_s += Fastest(run_s[i]);
    }
    SimSummary s = Summarize(w, first);
    const double scale = clock.scale();
    metrics = {
        {"setup_s", Median(setups) * scale, "s"},
        {"host_ops_per_s", Ratio(timed_ops, fastest_run_s * scale), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"makespan_s", s.makespan_s, "s"},
        {"completed_frac", Ratio(static_cast<double>(first.ledger.completed()),
                                 static_cast<double>(first.ledger.attempted)),
         "ratio"},
        {"op_p50_ms", s.op_p50_ms, "ms"},
        {"op_p99_ms", s.op_p99_ms, "ms"},
    };
    std::fprintf(stderr,
                 "%s seed %llu: %d passes over %zu worlds; ledger: %llu attempted, %llu "
                 "landed, %llu committed, %llu no-op, %llu done, %llu failed; %llu "
                 "latency samples\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed), passes,
                 w.instances.size(), static_cast<unsigned long long>(first.ledger.attempted),
                 static_cast<unsigned long long>(first.ledger.landed),
                 static_cast<unsigned long long>(first.ledger.committed),
                 static_cast<unsigned long long>(first.ledger.noop),
                 static_cast<unsigned long long>(first.ledger.done),
                 static_cast<unsigned long long>(first.ledger.failed),
                 static_cast<unsigned long long>(s.op_samples));
    std::fprintf(stderr,
                 "host clock: fastest chain step %.3f ns (reference %.1f ns), host times "
                 "scaled by %.4f; unscaled setup_s %.6g, host_ops_per_s %.6g\n",
                 clock.fastest_step_ns(), HostClock::kReferenceStepNs, scale, Median(setups),
                 Ratio(timed_ops, fastest_run_s));
  } else {
    // Alternate untraced and traced passes: every traced pass must reproduce
    // the untraced schedule exactly (tracing is passive), and the host-time
    // ratio of each pair gives the tracing overhead.
    SpanRecorder spans;
    std::string chrome_json;
    std::unique_ptr<hetm::EmeraldSystem> kept;
    HostClock clock;
    auto t0 = Clock::now();
    const size_t all = w.instances.size();
    first = RunPass(w, all, false, nullptr, nullptr, &kept);
    check_pass(first, first);
    clock.Sample();
    Pass traced = RunPass(w, all, true, &spans, &chrome_json, nullptr);
    check_pass(traced, first);
    clock.Sample();
    ProbeResults probes;
    {
      SpanRecorder::Scope span(&spans, "probes");
      if (kept != nullptr) {
        probes = RunProbes(w.instances.front(), *kept, &spans);
      }
    }
    clock.Sample();
    kept.reset();
    std::vector<double> overhead = {Ratio(traced.run_s, first.run_s) - 1.0};
    uint64_t trace_events = 0;
    for (const InstanceResult& r : traced.results) trace_events += r.trace_events;
    int pairs = 1;
    Clock::duration last = Clock::now() - t0;  // the first pair and the probes
    while (more(pairs, 1, last)) {
      t0 = Clock::now();
      Pass u = RunPass(w, all, false, nullptr, nullptr, nullptr);
      check_pass(u, first);
      Pass t = RunPass(w, all, true, nullptr, nullptr, nullptr);
      check_pass(t, first);
      clock.Sample();
      overhead.push_back(Ratio(t.run_s, u.run_s) - 1.0);
      last = Clock::now() - t0;
      ++pairs;
    }
    std::string path = trace_dir + "/" + w.name + "-seed" + std::to_string(seed) +
                       ".trace.json";
    std::ofstream out(path, std::ios::trunc);
    out << spans.ToChromeJson(chrome_json, 1 << 20);
    if (!out) {
      std::fprintf(stderr, "hetm_perfbench: cannot write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "hetm_perfbench: wrote %s\n", path.c_str());
    }

    const hetm::MetricsRegistry& m = first.merged;
    auto total = [&](const char* name) {
      return static_cast<double>(m.counter(std::string("total.") + name));
    };
    auto phase_p95 = [&](const char* hist) { return Pct(traced.merged, hist, 95.0); };
    double ops = first.ops;
    double moves = total("moves");
    double frames = total("packets_sent") + total("heartbeats_sent") + total("acks_sent");
    double populate_s = 0.0;
    for (const InstanceResult& r : first.results) populate_s += r.populate_s;
    populate_s /= static_cast<double>(first.results.size());
    SimSummary s = Summarize(w, first);
    const double scale = clock.scale();  // host times to reference seconds
    metrics = {
        {"compiler.compile_ms", probes.compile_ms * scale, "ms"},
        {"isa.decode_ns_per_op", probes.decode_ns_per_op * scale, "ns"},
        {"runtime.vm_instructions", total("vm_instructions"), "count"},
        {"runtime.remote_invokes", total("remote_invokes"), "count"},
        {"conv.plan_hit_ratio",
         Ratio(total("plan_hits"), total("plan_hits") + total("plan_misses")), "ratio"},
        {"conv.plan_execs", total("plan_execs"), "count"},
        {"conv.plan_bypasses", total("plan_bypasses"), "count"},
        {"conv.plan_compile_us", probes.plan_compile_us * scale, "us"},
        {"conv.plan_exec_ns_per_kb", probes.plan_exec_ns_per_kb * scale, "ns/KB"},
        {"mobility.conv_calls_per_move", Ratio(total("conv_calls"), moves), "count"},
        {"mobility.bytes_per_move", Ratio(total("bytes_sent"), moves), "B"},
        {"mobility.pack_us_p95", phase_p95("phase.pack_us"), "us"},
        {"mobility.unpack_us_p95", phase_p95("phase.unpack_us"), "us"},
        {"mobility.reserve_us_p95", phase_p95("phase.reserve_us"), "us"},
        {"mobility.negotiate_us_p95", phase_p95("phase.negotiate_us"), "us"},
        {"mobility.resume_us_p95", phase_p95("phase.resume_us"), "us"},
        {"mobility.commit_p50_ms", Pct(m, "move.commit_latency_us", 50.0) / 1000.0, "ms"},
        {"mobility.commit_p95_ms", Pct(m, "move.commit_latency_us", 95.0) / 1000.0, "ms"},
        {"mobility.marshal_ns_per_object", probes.marshal_ns_per_object * scale, "ns"},
        {"mobility.xlate_ns", probes.xlate_ns * scale, "ns"},
        {"bridge.ops", total("bridge_ops"), "count"},
        {"bridge.build_us", probes.bridge_build_us * scale, "us"},
        {"net.frames_per_op", Ratio(total("packets_sent"), ops), "count"},
        {"net.heartbeats_per_op", Ratio(total("heartbeats_sent"), ops), "count"},
        {"net.acks_per_frame", Ratio(total("acks_sent"), total("packets_sent")), "ratio"},
        {"net.retx_ratio", Ratio(total("retransmits"), total("packets_sent")), "ratio"},
        {"net.transfer_us_p95", phase_p95("phase.transfer_us"), "us"},
        {"dir.route_hops_p50", Pct(m, "traffic.route_hops", 50.0), "count"},
        {"dir.route_hops_p99", Pct(m, "traffic.route_hops", 99.0), "count"},
        {"dir.lookups_per_op", Ratio(total("dir_lookups"), ops), "count"},
        {"dir.stale_hit_ratio", Ratio(total("dir_stale_hits"), total("dir_lookups")),
         "ratio"},
        {"dir.locate_broadcasts", total("locate_broadcasts"), "count"},
        {"dir.leased_installs", total("leased_installs"), "count"},
        {"dir.move_claims", total("move_claims"), "count"},
        {"dir.home_of_ns", probes.home_of_ns * scale, "ns"},
        {"sched.proposed", total("sched_proposed"), "count"},
        {"sched.commit_ratio", Ratio(total("sched_committed"), total("sched_proposed")),
         "ratio"},
        {"sched.ticks", total("sched_ticks"), "count"},
        {"sched.digests_sent", total("sched_digests_sent"), "count"},
        {"sync.waits", total("sync.waits"), "count"},
        {"sync.contended", total("sync.contended"), "count"},
        {"sync.waiters_moved", total("sync.waiters_moved"), "count"},
        {"sim.host_ns_per_frame", Ratio(first.run_s * 1e9 * scale, frames), "ns"},
        {"sim.populate_s", populate_s * scale, "s"},
        {"sim.op_samples", static_cast<double>(s.op_samples), "count"},
        {"obs.trace_events", static_cast<double>(trace_events), "count"},
        {"obs.trace_overhead_frac", Median(overhead), "ratio"},
    };
  }
  for (const std::string& f : first.failures) {
    std::fprintf(stderr, "failed operations: %s\n", f.c_str());
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  bool correct = violations.empty();
  PrintResult(correct, first.ledger, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
