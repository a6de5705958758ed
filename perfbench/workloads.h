// The benchmark's four workloads, built from a seed through the public library
// API (EmeraldSystem / World and the Net, Dir, Sched and Traffic configs), and
// the per-world runner with its correctness gate and operation ledger.
//
// Why each workload exists, and which layer metric should move which end-to-end
// metric on it, is recorded in perfbench/NOTES.md.
#ifndef HETM_PERFBENCH_WORKLOADS_H_
#define HETM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/emerald/system.h"

namespace perfbench {

enum class WorkloadKind { kTraffic, kTour, kSync };

struct NodeSpec {
  hetm::MachineModel machine;
  hetm::OptLevel opt = hetm::OptLevel::kO0;
};

// One world, fully determined by the workload and the seed.
struct InstanceSpec {
  std::string source;  // program text, compiled during setup
  std::vector<NodeSpec> nodes;
  hetm::ConversionStrategy strategy = hetm::ConversionStrategy::kNaive;
  bool rep_bypass = true;
  bool net = false;
  hetm::NetConfig net_config;
  bool dir = false;
  bool sched = false;
  bool traffic = false;
  hetm::TrafficConfig traffic_config;
  uint64_t max_events = 0;
  std::string expected_output;  // computed in closed form, not by running
  uint64_t ops = 0;             // operations this world attempts
  // Traffic only: the generator's arrivals, replayed from its seed and split by
  // kind, independently of the run.
  uint64_t expected_invokes = 0;
  uint64_t expected_moves = 0;
};

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kTraffic;
  std::vector<InstanceSpec> instances;
  // kTour: instances[0] runs tours_lo tours and instances[1] tours_hi, so the
  // marginal simulated time per tour is their difference quotient.
  int tours_lo = 0;
  int tours_hi = 0;
};

const std::vector<std::string>& WorkloadNames();
// Returns false for an unknown workload name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// Every operation ends in exactly one of these. For traffic, an arrival is an
// invoke that landed, a move that committed, a move request that found the
// object already at its destination (no-op), or a failure; for the program
// workloads an operation (a tour, a handoff, a convoy turn) is done or failed.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t landed = 0;
  uint64_t committed = 0;
  uint64_t noop = 0;
  uint64_t done = 0;
  uint64_t failed = 0;
  uint64_t completed() const { return landed + committed + noop + done; }
};

struct InstanceResult {
  double setup_s = 0.0;     // host: program text -> world ready to run
  double populate_s = 0.0;  // host: World::EnableTraffic inside setup
  double run_s = 0.0;       // host: World::Run
  bool run_ok = false;
  double makespan_us = 0.0;  // simulated
  hetm::MetricsRegistry metrics;  // after ExportMetrics
  uint64_t trace_events = 0;
  Ledger ledger;
  // Correctness-gate violations (empty = the world passed).
  std::vector<std::string> violations;
  // Why operations failed, when some did (failures are counted, not fatal).
  std::string failure_detail;
  // Hash of everything the simulated schedule determined (output, makespan,
  // every counter, every histogram's moments), for the same-seed bit-identity
  // check. Excludes the tracer's own phase histograms, so a traced and an
  // untraced run of one world must agree on it too.
  std::string fingerprint;
};

// Builds, runs and checks one world. With `traced` the program's tracer stays
// on (move-phase spans); otherwise it is off for the whole run. `spans`, when
// not null, receives runner spans around each layer call. When `keep` is not
// null the world is handed back for the layer probes.
InstanceResult RunInstance(const InstanceSpec& spec, bool traced, SpanRecorder* spans,
                           std::string* chrome_json,
                           std::unique_ptr<hetm::EmeraldSystem>* keep);

}  // namespace perfbench

#endif  // HETM_PERFBENCH_WORKLOADS_H_
