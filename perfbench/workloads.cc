#include "perfbench/workloads.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#include "src/eden/random.h"
#include "src/filters/transforms.h"

namespace perfbench {

using eden::Discipline;
using eden::Transform;
using eden::TransformFactory;
using eden::ValueList;

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists, and its size, is in README.md. The figure
  // workloads run 20,000 lines per rep so that a run holds many short reps.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fig2_readonly", Discipline::kReadOnly, Shape::kFigure, 1, 20'000, 3, false},
      {"fig1_conventional", Discipline::kConventional, Shape::kFigure, 1, 20'000, 3, false},
      {"wide_sharded", Discipline::kReadOnly, Shape::kCopyChains, 4096, 16, 4, false},
      {"wide_observed", Discipline::kReadOnly, Shape::kCopyChains, 1024, 16, 4, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

int HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

int ShardsFor(const WorkloadSpec& spec) {
  return spec.shape == Shape::kFigure ? 1 : std::min(4, HostCpus());
}

namespace {

// SplitMix64: decorrelates the per-pipeline streams of neighbouring seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::vector<ValueList> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<ValueList> inputs(static_cast<size_t>(spec.pipelines));
  for (int p = 0; p < spec.pipelines; ++p) {
    eden::Rng rng(Mix(seed * 0x100000001B3ULL + static_cast<uint64_t>(p)));
    ValueList& lines = inputs[static_cast<size_t>(p)];
    lines.reserve(static_cast<size_t>(spec.lines));
    for (int i = 0; i < spec.lines; ++i) {
      // The shape of BenchLines: a Fortran-ish assignment, a quarter of
      // them marked as comments.
      std::string line = rng.Chance(0.25) ? "C " : "      ";
      line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
      lines.push_back(eden::Value(std::move(line)));
    }
  }
  return inputs;
}

namespace {

class TimedTransform : public Transform {
 public:
  TimedTransform(std::unique_ptr<Transform> inner, TransformSlot* slot)
      : inner_(std::move(inner)), slot_(slot) {}

  void OnItem(const eden::Value& item, const EmitFn& emit) override {
    uint64_t start = NowNs();
    inner_->OnItem(item, emit);
    uint64_t end = NowNs();
    if (slot_->calls % 64 == 0) {
      slot_->samples.emplace_back(start, end);
    }
    slot_->calls++;
    slot_->ns += end - start;
  }
  void OnEnd(const EmitFn& emit) override { inner_->OnEnd(emit); }
  bool Done() const override { return inner_->Done(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Transform> inner_;
  TransformSlot* slot_;
};

}  // namespace

TransformFactory TransformTimers::Wrap(std::string name, TransformFactory inner) {
  return [this, name = std::move(name), inner = std::move(inner)] {
    slots_.emplace_back(name);
    return std::make_unique<TimedTransform>(inner(), &slots_.back());
  };
}

double TransformTimers::NsPerCall(std::string_view name) const {
  uint64_t calls = 0;
  uint64_t ns = 0;
  for (const TransformSlot& slot : slots_) {
    if (slot.name == name) {
      calls += slot.calls;
      ns += slot.ns;
    }
  }
  return calls == 0 ? 0 : static_cast<double>(ns) / static_cast<double>(calls);
}

uint64_t TransformTimers::TotalNs() const {
  uint64_t ns = 0;
  for (const TransformSlot& slot : slots_) {
    ns += slot.ns;
  }
  return ns;
}

void TransformTimers::AddSpans(SpanLog& log, int parent) const {
  for (const TransformSlot& slot : slots_) {
    for (const auto& [start, end] : slot.samples) {
      log.Add("transform." + slot.name, parent, start, end);
    }
  }
}

std::vector<TransformFactory> Chain(const WorkloadSpec& spec, TransformTimers* timers) {
  std::vector<std::pair<std::string, TransformFactory>> named;
  if (spec.shape == Shape::kFigure) {
    named.emplace_back("grep", eden::MakeTransformFactory<eden::GrepTransform>(
                                   std::string("=")));
    named.emplace_back("upper", eden::MakeTransformFactory<eden::TranslateTransform>(
                                    eden::TranslateTransform::Mode::kUpper));
    named.emplace_back("nl", eden::MakeTransformFactory<eden::LineNumberTransform>());
  } else {
    for (int i = 0; i < spec.depth; ++i) {
      named.emplace_back("copy", eden::MakeTransformFactory<eden::CopyTransform>());
    }
  }
  std::vector<TransformFactory> chain;
  for (auto& [name, factory] : named) {
    chain.push_back(timers != nullptr ? timers->Wrap(name, std::move(factory))
                                      : std::move(factory));
  }
  return chain;
}

Instruments::Instruments(InstrumentSet set) {
  if (set.metrics) {
    metrics_ = std::make_unique<eden::MetricsRegistry>();
  }
  if (set.trace) {
    trace_ = std::make_unique<eden::TraceRecorder>(65536);
  }
  if (set.monitor) {
    monitor_ = std::make_unique<eden::InvariantMonitor>();
  }
  if (set.telemetry) {
    telemetry_ = std::make_unique<eden::TelemetrySampler>();
  }
  if (set.profiler) {
    profiler_ = std::make_unique<eden::ShardProfiler>();
  }
  if (set.auditor) {
    auditor_ = std::make_unique<eden::verify::ShardRaceAnalyzer>();
  }
}

void Instruments::Install(eden::Kernel& kernel) {
  if (metrics_ != nullptr) {
    kernel.set_metrics(metrics_.get());
  }
  if (trace_ != nullptr) {
    kernel.set_tracer(trace_->Hook());
  }
  if (monitor_ != nullptr) {
    if (trace_ != nullptr) {
      monitor_->set_trace_sink(trace_->Hook());
    }
    kernel.set_monitor(monitor_.get());
  }
  if (telemetry_ != nullptr) {
    kernel.set_telemetry(telemetry_.get());
  }
  if (profiler_ != nullptr) {
    kernel.set_profiler(profiler_.get());
  }
  if (auditor_ != nullptr) {
    if (monitor_ != nullptr) {
      auditor_->set_monitor(monitor_.get());
    }
    kernel.set_auditor(auditor_.get());
  }
}

void Instruments::Label(const eden::PipelineHandle& handle) {
  if (metrics_ != nullptr) {
    handle.LabelAll(*metrics_);
  }
  if (trace_ != nullptr) {
    handle.LabelAll(*trace_);
  }
  if (monitor_ != nullptr) {
    handle.LabelAll(*monitor_);
  }
  if (telemetry_ != nullptr) {
    handle.LabelAll(*telemetry_);
  }
}

Built Build(const WorkloadSpec& spec, std::vector<ValueList> inputs, int shards,
            InstrumentSet set, TransformTimers* timers) {
  Built built;
  uint64_t start = NowNs();
  built.instruments = std::make_unique<Instruments>(set);
  eden::KernelOptions kernel_options;
  kernel_options.shards = shards;
  built.kernel = std::make_unique<eden::Kernel>(kernel_options);
  built.instruments->Install(*built.kernel);

  eden::PipelineOptions options;
  options.discipline = spec.discipline;
  options.work_ahead = 4;
  options.pipe_capacity = 16;
  options.distinct_nodes = spec.shape == Shape::kCopyChains;
  std::vector<TransformFactory> chain = Chain(spec, timers);
  built.handles.reserve(inputs.size());
  for (ValueList& input : inputs) {
    built.handles.push_back(
        eden::BuildPipeline(*built.kernel, std::move(input), chain, options));
    built.instruments->Label(built.handles.back());
  }
  built.setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return built;
}

namespace {

Outcome Finish(Built& built, const eden::Stats& before, uint64_t start_ns,
               uint64_t end_ns) {
  Outcome outcome;
  outcome.run_s = static_cast<double>(end_ns - start_ns) * 1e-9;
  outcome.delta = built.kernel->stats() - before;
  outcome.virtual_time = built.kernel->now();
  for (const eden::PipelineHandle& handle : built.handles) {
    outcome.data += handle.output().size();
  }
  return outcome;
}

}  // namespace

Outcome Run(Built& built) {
  eden::Stats before = built.kernel->stats();
  uint64_t start = NowNs();
  built.kernel->Run();
  uint64_t end = NowNs();
  return Finish(built, before, start, end);
}

Outcome Replay(Built& built, std::vector<uint32_t>& step_ns, SpanLog& log, int parent) {
  eden::Stats before = built.kernel->stats();
  eden::Kernel& kernel = *built.kernel;
  uint64_t start = NowNs();
  uint64_t step_start = start;
  for (uint64_t n = 0;; ++n) {
    bool more = kernel.Step();
    uint64_t step_end = NowNs();
    if (!more) {
      break;
    }
    step_ns.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(step_end - step_start, UINT32_MAX)));
    if (n % 1024 == 0) {
      log.Add("kernel.step", parent, step_start, step_end);
    }
    step_start = step_end;
  }
  return Finish(built, before, start, step_start);
}

}  // namespace perfbench
