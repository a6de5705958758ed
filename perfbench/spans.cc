#include "perfbench/spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
  if (rec_ == nullptr) {
    return;
  }
  Span s;
  s.name = std::move(name);
  s.start_us = rec_->NowUs();
  s.parent = rec_->open_;
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(std::move(s));
  rec_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) {
    return;
  }
  Span& s = rec_->spans_[index_];
  s.end_us = rec_->NowUs();
  rec_->open_ = s.parent;
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin_)
      .count();
}

std::string SpanRecorder::ToChromeJson(const std::string& program_json,
                                       int host_pid) const {
  std::string events;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                "\"args\":{\"name\":\"perfbench runner (host clock)\"}}",
                host_pid);
  events += buf;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) {
      continue;
    }
    // Complete events ("X") nest by containment on one tid; the parent index is
    // kept in args so the causal link survives tools that re-sort events.
    std::snprintf(buf, sizeof(buf),
                  ",{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%d,"
                  "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d}}",
                  s.name.c_str(), host_pid, s.start_us, s.end_us - s.start_us, i,
                  s.parent);
    events += buf;
  }
  // program_json is {"traceEvents":[...]...}: splice ours in front of its events.
  const std::string head = "{\"traceEvents\":[";
  if (program_json.compare(0, head.size(), head) != 0) {
    return head + events + "]}";
  }
  std::string rest = program_json.substr(head.size());
  bool program_empty = !rest.empty() && rest[0] == ']';
  return head + events + (program_empty ? "" : ",") + rest;
}

}  // namespace perfbench
