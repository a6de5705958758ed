// Runner-side span recorder for the traced run.
//
// The benchmark records one span around every call it makes into a layer —
// world setup, World::Run, ExportMetrics, CheckInvariants and each layer probe —
// on the host clock. Spans live in memory and are written out once, when the
// run ends, as Chrome trace-event JSON next to the program's own move-phase
// spans (which run on the simulated clock; see ToChromeJson).
#ifndef HETM_PERFBENCH_SPANS_H_
#define HETM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  // host microseconds since the recorder was created
    double end_us = -1.0;
    int parent = -1;  // index of the enclosing span, -1 at the root
  };

  // Scoped span: opened on construction, closed on destruction. A null recorder
  // records nothing, so untraced runs pay one branch per layer call.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  // Chrome trace JSON holding the runner spans (pid `host_pid`, host clock)
  // spliced into `program_json`, a document produced by Tracer::ToChromeJson
  // (one pid per node, simulated clock).
  std::string ToChromeJson(const std::string& program_json, int host_pid) const;

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

}  // namespace perfbench

#endif  // HETM_PERFBENCH_SPANS_H_
