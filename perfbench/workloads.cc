#include "perfbench/workloads.h"

#include <chrono>
#include <cstdio>

#include "src/mobility/object_codec.h"
#include "src/net/fault_plan.h"
#include "src/runtime/node.h"

namespace perfbench {

using hetm::ConversionStrategy;
using hetm::MachineModel;
using hetm::OptLevel;

namespace {

// --- workload sizes -------------------------------------------------------
// Both traffic workloads overload their cluster (arrivals outpace the slow
// machines), so one world's tail latency and makespan hinge on where its hot
// objects happen to move. A run therefore merges many small worlds, each on its
// own sub-seed: with 96 and 384 worlds the p99 and makespan move by several
// percent from seed to seed instead of by a quarter.
constexpr int kZipfWorlds = 96;
constexpr uint64_t kZipfArrivals = 750;
constexpr int kChurnWorlds = 384;
constexpr uint64_t kChurnArrivals = 350;
constexpr int kToursLo = 400;
constexpr int kToursHi = 800;
constexpr int kSyncItemsBase = 3000;
constexpr int kConvoyRounds = 50;
// The convoy's critical-section length is fixed: across 20..30 the scheduler
// flips between settling the monitors near their callers (makespan ~2 s) and
// bouncing them (~48 s), which would swamp every other seed effect.
constexpr int kConvoyGrind = 25;

// The traffic service: every arrival invokes Svc.poke on a fleet object; main
// only prints 0, so the program's whole output is fixed.
const char* kServiceSource = R"(monitor class Svc
  var n: Int
  op poke(): Int
    n := n + 1
    return n
  end
end
main
  var x: Int := 0
  print x
end
)";

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Independent seed of world `i` of a workload run with `seed`.
uint64_t SubSeed(uint64_t seed, int i) {
  return SplitMix(SplitMix(seed) + static_cast<uint64_t>(i));
}

// `count` nodes cycling the six machine models, as `hetm_run --nodes N` does.
std::vector<NodeSpec> CycledNodes(int count) {
  const MachineModel models[] = {hetm::SparcStationSlc(), hetm::Sun3_100(),
                                 hetm::Hp9000_433s(),     hetm::Hp9000_385(),
                                 hetm::VaxStation4000(),  hetm::VaxStation2000()};
  std::vector<NodeSpec> nodes;
  for (int i = 0; i < count; ++i) {
    nodes.push_back({models[i % 6], OptLevel::kO0});
  }
  return nodes;
}

// Replays the generator's draw stream (five variates per arrival, the kind
// decided by the third) to split the arrivals into invokes and moves without
// running anything.
void CountArrivalKinds(const hetm::TrafficConfig& cfg, uint64_t* invokes,
                       uint64_t* moves) {
  hetm::NetRng rng(cfg.seed);
  *invokes = 0;
  *moves = 0;
  for (uint64_t a = 0; a < cfg.max_arrivals; ++a) {
    rng.NextDouble();                     // client
    rng.NextDouble();                     // object
    double u_kind = rng.NextDouble();     // kind
    rng.NextDouble();                     // destination
    rng.NextDouble();                     // gap
    if (u_kind < cfg.move_fraction) {
      ++*moves;
    } else {
      ++*invokes;
    }
  }
}

InstanceSpec TrafficInstance(std::vector<NodeSpec> nodes, uint64_t seed,
                             uint64_t arrivals, double rate, int objects,
                             double move_fraction) {
  InstanceSpec s;
  s.source = kServiceSource;
  s.nodes = std::move(nodes);
  s.net = true;
  s.net_config.trace = false;  // frame-level instants: far too many to keep
  s.net_config.fault.seed = seed;
  s.dir = true;
  s.traffic = true;
  s.traffic_config.seed = seed;
  s.traffic_config.arrival_per_s = rate;
  s.traffic_config.max_arrivals = arrivals;
  s.traffic_config.zipf_s = 1.0;
  s.traffic_config.objects = objects;
  s.traffic_config.move_fraction = move_fraction;
  // Each arrival fans out into invoke, move and directory chains plus transport
  // frames; the same allowance hetm_run gives a traffic run.
  s.max_events = 1'000'000 + arrivals * 1000;
  s.expected_output = "0\n";
  s.ops = arrivals;
  CountArrivalKinds(s.traffic_config, &s.expected_invokes, &s.expected_moves);
  return s;
}

// The Table 1 thread state (nine Ints, a Real, a String, a Bool and the loop
// counter: 13 live variables) carried by one thread around five machines. The
// thread sits three activation records deep in the moving object (tour -> leg
// -> go) at every move. The seed picks the Int values and the payload string,
// so move sizes (and simulated times) differ slightly from seed to seed.
InstanceSpec TourInstance(uint64_t seed, int tours) {
  hetm::NetRng rng(SplitMix(seed) ^ 0x70757273ull);
  int64_t vsum = 0;
  std::string vars;
  for (int v = 1; v <= 9; ++v) {
    int value = 100 + static_cast<int>(rng.Next() % 900);
    vsum += value;
    vars += "    var v" + std::to_string(v) + ": Int := " + std::to_string(value) + "\n";
  }
  std::string payload = "thread-payload-";
  int extra = static_cast<int>(rng.Next() % 24);
  for (int c = 0; c < extra; ++c) {
    payload += static_cast<char>('a' + rng.Next() % 26);
  }
  InstanceSpec s;
  s.source = R"(class Tourist
  var pad: Int
  op go(d: Int): Int
    move self to nodeat(d)
    return d
  end
  op leg(d: Int): Int
    var r: Int := self.go(d)
    return r + 1
  end
  op tour(rounds: Int): Int
)" + vars + R"(    var r1: Real := 2.5
    var s1: String := ")" + payload + R"("
    var b1: Bool := true
    var acc: Int := 0
    var i: Int := 0
    while i < rounds do
      acc := acc + self.leg(1)
      acc := acc + self.leg(2)
      acc := acc + self.leg(3)
      acc := acc + self.leg(4)
      acc := acc + self.leg(0)
      i := i + 1
    end
    print r1
    print b1
    return v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + len(s1) + acc + i
  end
end
main
  var t: Ref := new Tourist
  print t.tour()" + std::to_string(tours) + R"()
end
)";
  // sparc O0 -> sun3 O0 -> hp1 O0 -> hp2 O1 -> vax O0 -> sparc. sun3 -> hp1
  // is a same-representation pair (bypass); hp1 -> hp2 changes schedule (bridge).
  s.nodes = {{hetm::SparcStationSlc(), OptLevel::kO0},
             {hetm::Sun3_100(), OptLevel::kO0},
             {hetm::Hp9000_433s(), OptLevel::kO0},
             {hetm::Hp9000_385(), OptLevel::kO1},
             {hetm::VaxStation4000(), OptLevel::kO0}};
  s.strategy = ConversionStrategy::kPlan;
  s.rep_bypass = true;
  s.max_events = 20'000'000;
  // Each leg returns its destination + 1: (2 + 3 + 4 + 5 + 1) per tour.
  int64_t result = vsum + static_cast<int64_t>(payload.size()) + 15LL * tours + tours;
  s.expected_output = "2.5\ntrue\n" + std::to_string(result) + "\n";
  s.ops = static_cast<uint64_t>(tours);
  return s;
}

// Producer/consumer through a one-slot monitor buffer (condition waits) plus a
// four-worker lock convoy on a second monitor (entry-queue waits). Every
// caller lives on node 0 and both monitors start elsewhere, so the scheduler
// proposes group moves that carry parked waiters.
InstanceSpec SyncInstance(uint64_t seed) {
  uint64_t h = SplitMix(seed) ^ 0x73796e63ull;
  int items = kSyncItemsBase + static_cast<int>(h % 64);
  int grind = kConvoyGrind;
  int rounds = kConvoyRounds;
  std::string n = std::to_string(items);
  std::string r = std::to_string(rounds);
  std::string k = std::to_string(grind);
  InstanceSpec s;
  s.source = R"(monitor class Buffer
  var slot: Int
  var full: Int
  cond notfull
  cond notempty
  op put(v: Int)
    while full == 1 do
      wait notfull
    end
    slot := v
    full := 1
    signal notempty
  end
  op get(): Int
    while full == 0 do
      wait notempty
    end
    full := 0
    signal notfull
    return slot
  end
end
monitor class Sink
  var sum: Int
  var count: Int
  cond donec
  op add(v: Int)
    sum := sum + v
    count := count + 1
    signal donec
  end
  op waitdone(n: Int)
    while count < n do
      wait donec
    end
  end
  op total(): Int
    return sum
  end
end
monitor class Lock
  var n: Int
  var done: Int
  cond alldone
  op grind(k: Int)
    var i: Int := 0
    while i < k do
      n := n + 1
      i := i + 1
    end
    done := done + 1
    signal alldone
  end
  op waitall(t: Int)
    while done < t do
      wait alldone
    end
  end
  op value(): Int
    return n
  end
end
class Producer
  var junk: Int
  op produce(b: Ref, n: Int)
    var i: Int := 1
    while i <= n do
      b.put(i)
      i := i + 1
    end
  end
end
class Consumer
  var junk: Int
  op consume(b: Ref, s: Ref, n: Int)
    var i: Int := 0
    while i < n do
      var v: Int := b.get()
      s.add(v)
      i := i + 1
    end
  end
end
class Worker
  var junk: Int
  op grindloop(l: Ref, rounds: Int, k: Int)
    var i: Int := 0
    while i < rounds do
      l.grind(k)
      i := i + 1
    end
  end
end
main
  var b: Ref := new Buffer
  move b to nodeat(1)
  var l: Ref := new Lock
  move l to nodeat(2)
  var s: Ref := new Sink
  var p: Ref := new Producer
  var c: Ref := new Consumer
  var w1: Ref := new Worker
  var w2: Ref := new Worker
  var w3: Ref := new Worker
  var w4: Ref := new Worker
  spawn p.produce(b, )" + n + R"()
  spawn c.consume(b, s, )" + n + R"()
  spawn w1.grindloop(l, )" + r + ", " + k + R"()
  spawn w2.grindloop(l, )" + r + ", " + k + R"()
  spawn w3.grindloop(l, )" + r + ", " + k + R"()
  spawn w4.grindloop(l, )" + r + ", " + k + R"()
  s.waitdone()" + n + R"()
  l.waitall()" + std::to_string(4 * rounds) + R"()
  print s.total()
  print l.value()
end
)";
  s.nodes = {{hetm::SparcStationSlc(), OptLevel::kO0},
             {hetm::VaxStation4000(), OptLevel::kO0},
             {hetm::Hp9000_385(), OptLevel::kO0}};
  s.net = true;
  s.net_config.trace = false;
  s.net_config.fault.seed = SplitMix(seed);
  s.sched = true;
  s.max_events = 20'000'000;
  int64_t sum = static_cast<int64_t>(items) * (items + 1) / 2;
  s.expected_output = std::to_string(sum) + "\n" +
                      std::to_string(4LL * rounds * grind) + "\n";
  // One operation per producer/consumer handoff and per convoy critical section.
  s.ops = static_cast<uint64_t>(items + 4 * rounds);
  return s;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void AppendHistogramFingerprint(const hetm::LogHistogram& h, std::string* out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu %.17g %.17g %.17g|",
                static_cast<unsigned long long>(h.count()), h.sum(), h.min(), h.max());
  *out += buf;
}

// Sum of field 0 (the poke counter) over the traffic fleet, wherever each
// object lives now.
uint64_t ServicePokes(hetm::EmeraldSystem& sys, const std::string& service_class) {
  hetm::World& world = sys.world();
  const hetm::CompiledClass* svc = nullptr;
  for (const auto& cls : sys.program()->classes) {
    if (cls->name == service_class) svc = cls.get();
  }
  uint64_t total = 0;
  for (hetm::Oid oid : world.traffic()->objects()) {
    for (int n = 0; n < world.num_nodes(); ++n) {
      const hetm::EmObject* obj = world.node(n).FindLocal(oid);
      if (obj != nullptr) {
        total += static_cast<uint64_t>(
            hetm::ReadFieldValue(world.node(n).arch(), *svc, *obj, 0).i);
        break;
      }
    }
  }
  return total;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"zipf256", "lease-churn64",
                                                 "hetero-tour5", "sched-sync3"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "zipf256") {
    // Home directory, reliable transport without loss, naive conversion.
    w.kind = WorkloadKind::kTraffic;
    for (int i = 0; i < kZipfWorlds; ++i) {
      w.instances.push_back(TrafficInstance(CycledNodes(256), SubSeed(seed, i),
                                            kZipfArrivals, 20000.0, 4096, 0.05));
    }
  } else if (name == "lease-churn64") {
    // Commit leases and heal reconciliation on, no frame loss: with loss the
    // program can execute an invoke twice (NOTES.md, known defect 3).
    w.kind = WorkloadKind::kTraffic;
    for (int i = 0; i < kChurnWorlds; ++i) {
      InstanceSpec s = TrafficInstance(CycledNodes(64), SubSeed(seed, i),
                                       kChurnArrivals, 500.0, 1024, 0.20);
      s.net_config.commit_lease = true;
      s.net_config.heal_reconcile = true;
      w.instances.push_back(std::move(s));
    }
  } else if (name == "hetero-tour5") {
    w.kind = WorkloadKind::kTour;
    w.tours_lo = kToursLo;
    w.tours_hi = kToursHi;
    w.instances.push_back(TourInstance(seed, kToursLo));
    w.instances.push_back(TourInstance(seed, kToursHi));
  } else if (name == "sched-sync3") {
    w.kind = WorkloadKind::kSync;
    w.instances.push_back(SyncInstance(seed));
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

InstanceResult RunInstance(const InstanceSpec& spec, bool traced, SpanRecorder* spans,
                           std::string* chrome_json,
                           std::unique_ptr<hetm::EmeraldSystem>* keep) {
  InstanceResult r;
  std::unique_ptr<hetm::EmeraldSystem> sys;
  {
    SpanRecorder::Scope span(spans, "setup");
    auto t0 = std::chrono::steady_clock::now();
    sys = std::make_unique<hetm::EmeraldSystem>(spec.strategy);
    hetm::World& world = sys->world();
    world.tracer().set_enabled(traced);
    world.set_rep_bypass(spec.rep_bypass);
    for (const NodeSpec& n : spec.nodes) {
      sys->AddNode(n.machine, n.opt);
    }
    {
      SpanRecorder::Scope compile_span(spans, "setup.compile");
      if (!sys->Load(spec.source, "perfbench")) {
        r.violations.push_back("program failed to compile: " +
                               (sys->errors().empty() ? std::string("?")
                                                      : sys->errors().front()));
        r.ledger.attempted = spec.ops;
        r.ledger.failed = spec.ops;
        return r;
      }
    }
    if (spec.net) {
      world.EnableNet(spec.net_config);
    }
    if (spec.sched) {
      world.EnableSched(hetm::SchedConfig{});
    }
    if (spec.dir) {
      world.EnableDir(hetm::DirConfig{});
    }
    if (spec.traffic) {
      SpanRecorder::Scope populate_span(spans, "setup.populate");
      auto tp = std::chrono::steady_clock::now();
      world.EnableTraffic(spec.traffic_config);
      r.populate_s = SecondsSince(tp);
    }
    world.Boot(0);
    r.setup_s = SecondsSince(t0);
  }
  hetm::World& world = sys->world();
  {
    SpanRecorder::Scope span(spans, "run");
    auto t0 = std::chrono::steady_clock::now();
    r.run_ok = world.Run(spec.max_events);
    r.run_s = SecondsSince(t0);
  }
  r.makespan_us = world.NowMaxUs();
  const std::string& output = world.output();
  r.trace_events = world.tracer().emitted();
  {
    SpanRecorder::Scope span(spans, "export_metrics");
    world.ExportMetrics();
    r.metrics.Merge(world.metrics());
  }
  std::string invariants;
  {
    SpanRecorder::Scope span(spans, "check_invariants");
    invariants = world.CheckInvariants();
  }

  // --- correctness gate ---
  if (!r.run_ok) {
    r.violations.push_back("World::Run did not quiesce: " +
                           (world.error().empty() ? std::string("event cap")
                                                  : world.error()));
  }
  if (output != spec.expected_output) {
    r.violations.push_back("output mismatch: expected \"" + spec.expected_output +
                           "\" got \"" + output + "\"");
  }
  if (!invariants.empty()) {
    r.violations.push_back("CheckInvariants: " + invariants);
  }

  // --- operation ledger ---
  Ledger& l = r.ledger;
  l.attempted = spec.ops;
  if (spec.traffic) {
    auto total = [&](const char* name) {
      return r.metrics.counter(std::string("total.") + name);
    };
    const hetm::LogHistogram* route =
        r.metrics.FindHistogram("traffic.route_latency_us");
    uint64_t injected = world.traffic()->injected();
    uint64_t landed = route != nullptr ? route->count() : 0;
    uint64_t initiated = total("moves");
    uint64_t committed = total("moves_committed") + total("moves_presumed_committed");
    uint64_t aborted = total("moves_aborted");
    if (injected != spec.ops || injected != spec.expected_invokes + spec.expected_moves) {
      r.violations.push_back("generator injected " + std::to_string(injected) +
                             " arrivals, expected " + std::to_string(spec.ops));
    }
    if (landed > spec.expected_invokes || initiated > spec.expected_moves ||
        committed + aborted > initiated) {
      r.violations.push_back("ledger overflow: " + std::to_string(landed) +
                             " landed of " + std::to_string(spec.expected_invokes) +
                             " invokes (" + std::to_string(total("remote_invokes")) +
                             " injected), " + std::to_string(initiated) +
                             " moves started of " + std::to_string(spec.expected_moves) +
                             ", " + std::to_string(committed + aborted) + " resolved");
    } else {
      l.landed = landed;
      l.committed = committed;
      if (r.run_ok) {
        l.noop = spec.expected_moves - initiated;
        l.failed = (spec.expected_invokes - landed) + (initiated - committed);
      } else {
        l.failed = l.attempted - landed - committed;
      }
      if (l.failed != 0) {
        r.failure_detail = std::to_string(spec.expected_invokes - landed) +
                           " invokes never landed, " + std::to_string(aborted) +
                           " moves aborted, " +
                           std::to_string(initiated - committed - aborted) +
                           " moves unresolved; " + std::to_string(total("leases_expired")) +
                           " peer leases expired";
      }
    }
    if (l.completed() + l.failed != injected) {
      r.violations.push_back("ledger does not sum to the injected arrivals");
    }
    // The fleet's own state: every Svc counts its pokes, so the fleet total is
    // the number of invokes that executed, each exactly once.
    uint64_t pokes = ServicePokes(*sys, spec.traffic_config.service_class);
    if (pokes != landed || pokes > spec.expected_invokes) {
      r.violations.push_back("at-most-once: the fleet executed " + std::to_string(pokes) +
                             " pokes for " + std::to_string(landed) + " landed of " +
                             std::to_string(spec.expected_invokes) + " injected invokes");
    }
  } else if (r.violations.empty()) {
    l.done = l.attempted;
  } else {
    l.failed = l.attempted;
  }

  // --- schedule fingerprint (determinism) ---
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g|%d|", r.makespan_us, r.run_ok ? 1 : 0);
  std::string text = output + "|" + buf;
  for (const auto& [name, v] : r.metrics.counters()) {
    text += name + "=" + std::to_string(v) + "|";
  }
  for (const auto& [name, h] : r.metrics.histograms()) {
    if (name.rfind("phase.", 0) == 0) {
      continue;  // recorded only while tracing
    }
    text += name + ":";
    AppendHistogramFingerprint(h, &text);
  }
  uint64_t fnv = 1469598103934665603ull;
  for (unsigned char ch : text) {
    fnv = (fnv ^ ch) * 1099511628211ull;
  }
  r.fingerprint = std::to_string(fnv);

  if (chrome_json != nullptr) {
    *chrome_json = world.tracer().ToChromeJson();
  }
  if (keep != nullptr) {
    *keep = std::move(sys);
  }
  return r;
}

}  // namespace perfbench
