// Layer probes: host time of one module's public functions, called on inputs
// taken from a workload's own world — its compiled program, its nodes'
// architectures and optimization levels, and its fleet's objects — after a
// warm-up pass. Each probe times only that module's functions.
#ifndef HETM_PERFBENCH_PROBES_H_
#define HETM_PERFBENCH_PROBES_H_

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

struct ProbeResults {
  double compile_ms = 0.0;           // compiler: CompileSource
  double decode_ns_per_op = 0.0;     // isa: DecodeAll, per decoded micro-op
  double plan_compile_us = 0.0;      // conv: CompileObjectPlan / CompileArPlan
  double plan_exec_ns_per_kb = 0.0;  // conv: ExecutePlanEncode + Decode
  double marshal_ns_per_object = 0.0;  // mobility: marshal + unmarshal fields
  double xlate_ns = 0.0;             // mobility: PcToStop / StopToPc, per call
  double bridge_build_us = 0.0;      // bridge: BuildBridge
  double home_of_ns = 0.0;           // dir: DirRing::HomeOf
};

// `sys` is a world of `spec` that has already run.
ProbeResults RunProbes(const InstanceSpec& spec, hetm::EmeraldSystem& sys,
                       SpanRecorder* spans);

}  // namespace perfbench

#endif  // HETM_PERFBENCH_PROBES_H_
