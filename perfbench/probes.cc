#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>
#include <vector>

#include "src/bridge/bridge.h"
#include "src/compiler/compiler.h"
#include "src/conv/plan.h"
#include "src/dir/directory.h"
#include "src/isa/isa.h"
#include "src/mobility/busstop_xlate.h"
#include "src/mobility/object_codec.h"
#include "src/runtime/node.h"

namespace perfbench {

using namespace hetm;

namespace {

constexpr double kProbeSeconds = 0.2;
constexpr int kMinBatches = 7;

// Keeps a probe's results observable so the timed calls are not elided.
volatile uint64_t g_sink = 0;

// Times `batch` — which does one pass over the probe's inputs and returns how
// many units (calls, micro-ops, bytes, ...) it processed — after one untimed
// warm-up pass. Returns the median over batches of host ns per unit.
template <typename Batch>
double MedianNsPerUnit(Batch&& batch) {
  batch();  // warm-up: caches, lazily built tables, page faults
  std::vector<double> per_unit;
  auto start = std::chrono::steady_clock::now();
  while (static_cast<int>(per_unit.size()) < kMinBatches ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             kProbeSeconds) {
    auto t0 = std::chrono::steady_clock::now();
    double units = batch();
    double ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                         t0)
                    .count();
    if (units > 0) {
      per_unit.push_back(ns / units);
    } else {
      return 0.0;  // nothing for this module to do on this workload
    }
  }
  std::sort(per_unit.begin(), per_unit.end());
  return per_unit[per_unit.size() / 2];
}

// The (architecture, optimization level) pairs the workload's nodes run, in
// node order.
std::vector<std::pair<Arch, OptLevel>> CodeMix(const InstanceSpec& spec) {
  std::vector<std::pair<Arch, OptLevel>> mix;
  for (const NodeSpec& n : spec.nodes) {
    std::pair<Arch, OptLevel> p{n.machine.arch, n.opt};
    if (std::find(mix.begin(), mix.end(), p) == mix.end()) {
      mix.push_back(p);
    }
  }
  return mix;
}

std::vector<Arch> ArchMix(const InstanceSpec& spec) {
  std::vector<Arch> archs;
  for (const NodeSpec& n : spec.nodes) {
    if (std::find(archs.begin(), archs.end(), n.machine.arch) == archs.end()) {
      archs.push_back(n.machine.arch);
    }
  }
  return archs;
}

// The workload's fleet: the traffic generator's objects, or else every data
// object with fields resident anywhere after the run. Each entry names its
// host node.
std::vector<std::pair<int, Oid>> Fleet(EmeraldSystem& sys) {
  World& world = sys.world();
  std::vector<std::pair<int, Oid>> fleet;
  std::vector<Oid> oids;
  if (world.traffic() != nullptr) {
    oids = world.traffic()->objects();
  } else {
    for (int n = 0; n < world.num_nodes(); ++n) {
      for (Oid oid : world.node(n).ResidentUserObjects()) {
        oids.push_back(oid);
      }
    }
  }
  for (Oid oid : oids) {
    for (int n = 0; n < world.num_nodes(); ++n) {
      const EmObject* obj = world.node(n).FindLocal(oid);
      // Objects without fields ($Main) have no data to marshal.
      if (obj != nullptr && !obj->is_string && IsDataOid(oid) && !obj->fields.empty()) {
        fleet.emplace_back(n, oid);
        break;
      }
    }
  }
  return fleet;
}

// Stops carried by an instruction in both schedules (the ones a suspended
// thread can sit at, and so the ones a bridge can start from).
std::vector<int> BridgeableStops(const OpInfo& op) {
  std::set<int> o0, both;
  for (const IrInstr& in : op.ir[0].instrs) {
    if (in.stop > 0) o0.insert(in.stop);
  }
  for (const IrInstr& in : op.ir[1].instrs) {
    if (in.stop > 0 && o0.count(in.stop) != 0) both.insert(in.stop);
  }
  return std::vector<int>(both.begin(), both.end());
}

}  // namespace

ProbeResults RunProbes(const InstanceSpec& spec, EmeraldSystem& sys, SpanRecorder* spans) {
  ProbeResults out;
  const CompiledProgram& program = *sys.program();
  World& world = sys.world();
  const auto mix = CodeMix(spec);
  const auto archs = ArchMix(spec);
  const auto fleet = Fleet(sys);
  CostMeter meter(spec.nodes.front().machine);

  {
    SpanRecorder::Scope span(spans, "probe.compiler");
    out.compile_ms = MedianNsPerUnit([&]() {
                       CompileResult r = CompileSource(spec.source);
                       g_sink = g_sink + r.program->classes.size();
                       return 1.0;
                     }) /
                     1e6;
  }
  {
    SpanRecorder::Scope span(spans, "probe.isa");
    out.decode_ns_per_op = MedianNsPerUnit([&]() {
      double ops = 0;
      for (const auto& cls : program.classes) {
        for (const OpInfo& op : cls->ops) {
          for (auto [arch, opt] : mix) {
            ops += static_cast<double>(DecodeAll(arch, op.Code(arch, opt).code).size());
          }
        }
      }
      return ops;
    });
  }

  // Conversion plans for every class and every activation-record stop of the
  // program, on every architecture (and schedule) the workload runs.
  std::vector<ConversionPlan> plans;
  {
    SpanRecorder::Scope span(spans, "probe.conv.compile");
    auto compile_all = [&]() {
      plans.clear();
      for (const auto& cls : program.classes) {
        for (Arch arch : archs) {
          plans.push_back(CompileObjectPlan(*cls, arch));
        }
        for (const OpInfo& op : cls->ops) {
          for (auto [arch, opt] : mix) {
            for (int stop = 0; stop < op.Ir(opt).num_stops; ++stop) {
              plans.push_back(CompileArPlan(op, opt, stop, arch));
            }
          }
        }
      }
      return static_cast<double>(plans.size());
    };
    out.plan_compile_us = MedianNsPerUnit(compile_all) / 1e3;
  }
  {
    SpanRecorder::Scope span(spans, "probe.conv.exec");
    std::vector<std::vector<uint8_t>> images;
    std::vector<std::vector<uint32_t>> regs;
    for (const ConversionPlan& p : plans) {
      images.emplace_back(p.machine_bytes, 0x5a);
      regs.emplace_back(std::max<uint32_t>(p.num_regs, 1), 0x01020304u);
    }
    std::vector<uint8_t> decoded;
    out.plan_exec_ns_per_kb = MedianNsPerUnit([&]() {
      double bytes = 0;
      for (size_t i = 0; i < plans.size(); ++i) {
        const ConversionPlan& p = plans[i];
        if (p.canonical_bytes == 0) {
          continue;
        }
        WireWriter w(ConversionStrategy::kPlan, p.arch, &meter);
        ExecutePlanEncode(p,
                          ConstMachineImage{images[i].data(), images[i].size(),
                                            regs[i].data(), regs[i].size()},
                          w, &meter);
        std::vector<uint8_t> wire = w.Take();
        WireReader r(ConversionStrategy::kPlan, p.arch, &meter, wire);
        decoded.assign(p.machine_bytes, 0);
        bool ok = ExecutePlanDecode(
            p, r, MachineImage{decoded.data(), decoded.size(), regs[i].data(), regs[i].size()},
            &meter);
        g_sink = g_sink + (ok ? 1 : 0);
        bytes += p.canonical_bytes;
      }
      return bytes / 1024.0;
    });
  }
  {
    // Each fleet object marshalled on its host's architecture and unmarshalled
    // for the next node's, through the workload's own conversion strategy.
    SpanRecorder::Scope span(spans, "probe.mobility.marshal");
    size_t limit = std::min<size_t>(fleet.size(), 256);
    PlanCache src_plans, dst_plans;
    out.marshal_ns_per_object = MedianNsPerUnit([&]() {
      for (size_t i = 0; i < limit; ++i) {
        auto [host, oid] = fleet[i];
        const EmObject& obj = *world.node(host).FindLocal(oid);
        const CompiledClass& cls = *program.FindByOid(obj.code_oid);
        Arch src = world.node(host).arch();
        Arch dst = world.node((host + 1) % world.num_nodes()).arch();
        EmObject copy;
        copy.oid = oid;
        copy.code_oid = obj.code_oid;
        copy.fields = MakeFieldImage(dst, cls);
        WireWriter w(spec.strategy, src, &meter);
        if (spec.strategy == ConversionStrategy::kPlan) {
          MarshalObjectFieldsPlan(src, cls, obj, src_plans, &meter, w);
        } else {
          MarshalObjectFields(src, cls, obj, w);
        }
        std::vector<uint8_t> wire = w.Take();
        WireReader r(spec.strategy, src, &meter, wire);
        if (spec.strategy == ConversionStrategy::kPlan) {
          UnmarshalObjectFieldsPlan(dst, cls, copy, dst_plans, &meter, r);
        } else {
          UnmarshalObjectFields(dst, cls, copy, r);
        }
        g_sink = g_sink + copy.fields.size();
      }
      return static_cast<double>(limit);
    });
  }
  {
    // Every observable stop of every operation: pc -> stop on one node's code,
    // stop -> pc on the next node's.
    SpanRecorder::Scope span(spans, "probe.mobility.xlate");
    out.xlate_ns = MedianNsPerUnit([&]() {
      double calls = 0;
      for (const auto& cls : program.classes) {
        for (const OpInfo& op : cls->ops) {
          for (size_t m = 0; m < mix.size(); ++m) {
            const ArchOpCode& src = op.Code(mix[m].first, mix[m].second);
            const ArchOpCode& dst =
                op.Code(mix[(m + 1) % mix.size()].first, mix[m].second);
            for (size_t s = 0; s < src.stops.size(); ++s) {
              bool first_at_pc = s == 0 || src.stops[s - 1].pc != src.stops[s].pc;
              if (src.stops[s].exit_only || !first_at_pc) {
                continue;
              }
              int stop = PcToStop(src, src.stops[s].pc, false, &meter, spec.strategy);
              g_sink = g_sink + StopToPc(dst, stop, &meter, spec.strategy);
              calls += 2;
            }
          }
        }
      }
      return calls;
    });
  }
  {
    // Bridges between the two schedules, both directions, at every stop a
    // thread can be suspended at, for every architecture in the mix.
    SpanRecorder::Scope span(spans, "probe.bridge");
    out.bridge_build_us = MedianNsPerUnit([&]() {
                            double built = 0;
                            for (const auto& cls : program.classes) {
                              for (const OpInfo& op : cls->ops) {
                                std::vector<int> stops = BridgeableStops(op);
                                for (Arch arch : archs) {
                                  for (int stop : stops) {
                                    BridgePlan a = BuildBridge(op, arch, OptLevel::kO0,
                                                               OptLevel::kO1, stop, &meter);
                                    BridgePlan b = BuildBridge(op, arch, OptLevel::kO1,
                                                               OptLevel::kO0, stop, &meter);
                                    g_sink = g_sink + a.ops.size() + b.ops.size();
                                    built += 2;
                                  }
                                }
                              }
                            }
                            return built;
                          }) /
                          1e3;
  }
  {
    SpanRecorder::Scope span(spans, "probe.dir");
    DirRing ring(world.num_nodes(), DirConfig{});
    out.home_of_ns = MedianNsPerUnit([&]() {
      for (const auto& [host, oid] : fleet) {
        g_sink = g_sink + static_cast<uint64_t>(ring.HomeOf(oid));
      }
      return static_cast<double>(fleet.size());
    });
  }
  return out;
}

}  // namespace perfbench
