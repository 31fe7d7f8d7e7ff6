// Tracing for the benchmark's traced repetitions: spans recorded by the
// benchmark around its own calls into the simulator (Simulator::Step) and the
// switch data plane (DataPlane::Process), kept in memory and written as
// Chrome trace-event JSON at exit.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workload.h"
#include "src/common/histogram.h"
#include "src/net/network.h"
#include "src/pswitch/data_plane.h"
#include "src/sim/simulator.h"

namespace perfbench {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind { kPhase, kOp, kStep, kProcess };

struct Span {
  SpanKind kind;
  const char* name;
  int tid;
  int64_t start_ns;  // wall time since the benchmark started
  int64_t dur_ns;
  int64_t a;   // op: virtual start ns; step: step index; process: parent step
  int64_t b;   // op: virtual end ns; step: self ns (minus Process children)
  int status;  // op: StatusCode
};

inline constexpr int kPhaseTid = 0;
inline constexpr int kSimTid = 1;
inline constexpr int kUnloadedTid = 2;
inline constexpr int kClientTidBase = 1000;
inline constexpr uint64_t kStepSpanEvery = 64;
inline constexpr uint64_t kDirtySampleEvery = 16384;

// Spans and timings of one traced repetition. Every step is timed into a
// histogram; every kStepSpanEvery-th step, and the Process calls inside it,
// also becomes a span.
class Tracer {
 public:
  Tracer(int64_t origin_ns, switchfs::psw::DataPlane* dp, int pipes)
      : origin_(origin_ns), dp_(dp), pipes_(pipes) {}

  // One timed Simulator::Step; false when the queue is empty.
  bool Step(switchfs::sim::Simulator& s) {
    sampled_ = steps_ % kStepSpanEvery == 0;
    step_process_ns_ = 0;
    in_step_ = true;
    const int64_t t0 = WallNs();
    const bool ran = s.Step();
    const int64_t t1 = WallNs();
    in_step_ = false;
    if (!ran) {
      return false;
    }
    const int64_t dur = t1 - t0;
    step_ns.Record(dur);
    step_self_ns_total += dur - step_process_ns_;
    if (sampled_) {
      spans.push_back(Span{SpanKind::kStep, "step", kSimTid, t0 - origin_, dur,
                           static_cast<int64_t>(steps_), dur - step_process_ns_, 0});
    }
    if (++steps_ % kDirtySampleEvery == 0) {
      uint64_t population = 0;
      for (int p = 0; p < pipes_; ++p) {
        population += dp_->dirty_set(p).Population();
      }
      dirty_peak = std::max(dirty_peak, population);
    }
    return true;
  }

  // A DataPlane::Process call, counted only inside a timed step (its parent).
  void OnProcess(int64_t t0, int64_t t1) {
    if (!in_step_) {
      return;
    }
    const int64_t dur = t1 - t0;
    step_process_ns_ += dur;
    process_ns_total += dur;
    ++process_calls;
    if (sampled_) {
      spans.push_back(Span{SpanKind::kProcess, "process", kSimTid, t0 - origin_,
                           dur, static_cast<int64_t>(steps_), 0, 0});
    }
  }

  // Root span of one MetadataService call.
  void AddOp(OpClass cls, int tid, int64_t w0, int64_t w1, int64_t v0, int64_t v1,
             const Status& s) {
    spans.push_back(Span{SpanKind::kOp, kClassNames[cls], tid, w0 - origin_,
                         w1 - w0, v0, v1, static_cast<int>(s.code())});
  }

  void AddPhase(const char* name, int64_t w0, int64_t w1) {
    spans.push_back(Span{SpanKind::kPhase, name, kPhaseTid, w0 - origin_,
                         w1 - w0, 0, 0, 0});
  }

  uint64_t steps() const { return steps_; }

  switchfs::Histogram step_ns;
  int64_t step_self_ns_total = 0;
  int64_t process_ns_total = 0;
  uint64_t process_calls = 0;
  uint64_t dirty_peak = 0;  // sampled sum of DirtySet::Population()
  std::vector<Span> spans;

 private:
  int64_t origin_;
  switchfs::psw::DataPlane* dp_;
  int pipes_;
  uint64_t steps_ = 0;
  bool in_step_ = false;
  bool sampled_ = false;
  int64_t step_process_ns_ = 0;
};

// Forwarding switch behaviour that times each DataPlane::Process call. The
// Network asks for PipelineDelay right after Process, so forwarding both
// keeps the data plane's per-packet delay state intact.
class TimedSwitch : public switchfs::net::SwitchBehavior {
 public:
  TimedSwitch(switchfs::net::SwitchBehavior* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<switchfs::net::Packet> Process(switchfs::net::Packet p) override {
    const int64_t t0 = WallNs();
    std::vector<switchfs::net::Packet> out = inner_->Process(std::move(p));
    tracer_->OnProcess(t0, WallNs());
    return out;
  }
  switchfs::sim::SimTime PipelineDelay() const override {
    return inner_->PipelineDelay();
  }

 private:
  switchfs::net::SwitchBehavior* inner_;
  Tracer* tracer_;
};

// Chrome trace-event JSON (chrome://tracing, Perfetto). Spans on one tid
// nest by time, so Process spans sit inside their step.
inline void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const char* sep = "";
  for (const Span& s : spans) {
    const char* cat = "phase";
    switch (s.kind) {
      case SpanKind::kOp:
        cat = "op";
        break;
      case SpanKind::kStep:
        cat = "sim";
        break;
      case SpanKind::kProcess:
        cat = "pswitch";
        break;
      case SpanKind::kPhase:
        break;
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 sep, s.name, cat, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3);
    switch (s.kind) {
      case SpanKind::kOp:
        std::fprintf(f, "\"status\":%d,\"vstart_ns\":%lld,\"vend_ns\":%lld", s.status,
                     static_cast<long long>(s.a), static_cast<long long>(s.b));
        break;
      case SpanKind::kStep:
        std::fprintf(f, "\"step\":%lld,\"self_ns\":%lld", static_cast<long long>(s.a),
                     static_cast<long long>(s.b));
        break;
      case SpanKind::kProcess:
        std::fprintf(f, "\"parent_step\":%lld", static_cast<long long>(s.a));
        break;
      case SpanKind::kPhase:
        break;
    }
    std::fprintf(f, "}}");
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
