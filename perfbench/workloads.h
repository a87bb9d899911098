// The benchmark's four workloads, built only through the public APIs of
// src/core, src/eden and src/filters.
//
// Every workload is closed loop: each PullSink pumps with work_ahead 4
// outstanding, so a slower kernel simply receives less load. Inputs are
// BenchLines-style lines derived from the seed alone; the kernel receives
// only the generated lines.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "src/core/pipeline.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/shard_audit.h"

namespace perfbench {

enum class Shape {
  kFigure,      // grep = | upper | nl, one pipeline on node0, 1 shard
  kCopyChains,  // independent copy chains, every Eject on its own node
};

struct WorkloadSpec {
  std::string_view name;
  eden::Discipline discipline;
  Shape shape;
  int pipelines;
  int lines;  // input lines per pipeline
  int depth;  // filters per pipeline
  bool observed;
};

// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// CPUs this process may run on (what `nproc` prints).
int HostCpus();
// 1 for the figure workloads; min(4, nproc) for the wide ones, so shard
// threads never outnumber the CPUs.
int ShardsFor(const WorkloadSpec& spec);

// One list of lines per pipeline. Same seed, same lines.
std::vector<eden::ValueList> MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// ---- Transform timing (traced run only).

// Time spent inside one Transform instance. Each instance is driven by
// exactly one shard worker, so its slot is written without a lock.
struct TransformSlot {
  explicit TransformSlot(std::string slot_name) : name(std::move(slot_name)) {}

  std::string name;
  uint64_t calls = 0;
  uint64_t ns = 0;
  std::vector<std::pair<uint64_t, uint64_t>> samples;  // (start, end) of sampled calls
};

// Hands out timed transforms and keeps their slots at stable addresses.
// Slots are created while pipelines are built, on the calling thread.
class TransformTimers {
 public:
  eden::TransformFactory Wrap(std::string name, eden::TransformFactory inner);

  // Mean time of one OnItem over every transform named `name`.
  double NsPerCall(std::string_view name) const;
  // Time inside every timed OnItem.
  uint64_t TotalNs() const;
  // One span per sampled call, parented to `parent`.
  void AddSpans(SpanLog& log, int parent) const;

 private:
  std::deque<TransformSlot> slots_;
};

// The workload's filter chain; when `timers` is set every stage is timed.
std::vector<eden::TransformFactory> Chain(const WorkloadSpec& spec,
                                          TransformTimers* timers = nullptr);

// ---- Instruments.

struct InstrumentSet {
  bool metrics = false;
  bool trace = false;
  bool monitor = false;
  bool telemetry = false;
  bool profiler = false;
  bool auditor = false;

  static InstrumentSet All() { return {true, true, true, true, true, true}; }
};

// Owns the observers a kernel borrows; outlives that kernel.
class Instruments {
 public:
  explicit Instruments(InstrumentSet set);

  void Install(eden::Kernel& kernel);
  void Label(const eden::PipelineHandle& handle);

  eden::InvariantMonitor* monitor() { return monitor_.get(); }
  eden::ShardProfiler* profiler() { return profiler_.get(); }
  eden::verify::ShardRaceAnalyzer* auditor() { return auditor_.get(); }

 private:
  std::unique_ptr<eden::MetricsRegistry> metrics_;
  std::unique_ptr<eden::TraceRecorder> trace_;
  std::unique_ptr<eden::InvariantMonitor> monitor_;
  std::unique_ptr<eden::TelemetrySampler> telemetry_;
  std::unique_ptr<eden::ShardProfiler> profiler_;
  std::unique_ptr<eden::verify::ShardRaceAnalyzer> auditor_;
};

// ---- Build and run.

struct Built {
  // Declared first so it is destroyed last: the kernel borrows it.
  std::unique_ptr<Instruments> instruments;
  std::unique_ptr<eden::Kernel> kernel;
  std::vector<eden::PipelineHandle> handles;
  double setup_s = 0;  // instruments + kernel construction + every BuildPipeline
};

// Set-up: everything up to the first Run. `inputs` is consumed.
Built Build(const WorkloadSpec& spec, std::vector<eden::ValueList> inputs,
            int shards, InstrumentSet set, TransformTimers* timers = nullptr);

struct Outcome {
  double run_s = 0;       // wall time of Kernel::Run (or of the Step loop)
  uint64_t data = 0;      // items delivered to all sinks
  eden::Stats delta;      // kernel counters moved by the run, events included
  eden::Tick virtual_time = 0;

  double data_per_s() const { return static_cast<double>(data) / run_s; }
};

// Kernel::Run to quiescence.
Outcome Run(Built& built);

// Sequential replay: Kernel::Step to quiescence, timing every Step into
// `step_ns`. Every 1024th Step is recorded as a span under `parent`.
Outcome Replay(Built& built, std::vector<uint32_t>& step_ns, SpanLog& log, int parent);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
