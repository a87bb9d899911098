#include "src/core/pipeline.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/core/pipeline_verify.h"

namespace eden {

std::string_view DisciplineName(Discipline discipline) {
  switch (discipline) {
    case Discipline::kReadOnly:
      return "read-only";
    case Discipline::kWriteOnly:
      return "write-only";
    case Discipline::kConventional:
      return "conventional";
  }
  return "unknown";
}

namespace {

// ---- Recovery scaffolding.

// A watchdog that periodically invokes every filter. The probe itself is the
// recovery mechanism: an invocation addressed to a crashed-but-checkpointed
// Eject makes the kernel reactivate it (paper §1). Neighbours' retries cover
// most crashes, but a conventional filter is invoked by nobody — both of its
// correspondents are passive — and a write-only filter whose upstream already
// finished would likewise never hear another Push.
class PipelineMonitor : public Eject {
 public:
  static constexpr const char* kType = "PipelineMonitor";

  PipelineMonitor(Kernel& kernel, std::vector<Uid> targets, Tick interval,
                  Tick deadline)
      : Eject(kernel, kType),
        targets_(std::move(targets)),
        interval_(interval),
        deadline_(deadline) {}

  void set_done(std::function<bool()> done) { done_ = std::move(done); }

  void OnStart() override { Spawn(Watch()); }

 private:
  Task<void> Watch() {
    for (;;) {
      co_await Sleep(interval_);
      if (done_ && done_()) {
        co_return;
      }
      for (const Uid& target : targets_) {
        // The result is irrelevant; a dropped probe is re-sent next round.
        co_await Invoke(target, "Ping", Value(), deadline_);
        if (done_ && done_()) {
          co_return;
        }
      }
    }
  }

  std::vector<Uid> targets_;
  Tick interval_;
  Tick deadline_;
  std::function<bool()> done_;
};

// A reactivation type name unique within this kernel. Deterministic given
// the same build sequence (no global counters: two same-seed kernels in one
// process must produce byte-identical checkpoints, and the type name is
// part of the passive representation).
std::string UniqueTypeName(Kernel& kernel, const std::string& base) {
  if (!kernel.types().Contains(base)) {
    return base;
  }
  int n = 2;
  std::string name = base + "#" + std::to_string(n);
  while (kernel.types().Contains(name)) {
    name = base + "#" + std::to_string(++n);
  }
  return name;
}

void MaybeAddMonitor(Kernel& kernel, const verify::RecoveryKnobs& recovery,
                     PipelineHandle& handle, std::vector<Uid> filters) {
  if (!recovery.enabled || filters.empty()) {
    return;
  }
  PipelineMonitor& monitor = kernel.Create<PipelineMonitor>(
      NodeId{0}, std::move(filters), recovery.probe_interval, recovery.deadline);
  PullSink* pull = handle.pull_sink;
  PushSink* push = handle.push_sink;
  monitor.set_done([pull, push] {
    return pull != nullptr ? pull->done() : (push != nullptr && push->done());
  });
  handle.monitor = monitor.uid();
}

// The pipeline-wide knobs every stage is made with: the plan's gated
// recovery knobs, and the batch, lookahead and per-item cost of the options.
struct StageKnobs {
  FilterRecoveryOptions recovery;  // a filter under recovery adds its type
  int64_t batch = 1;
  size_t lookahead = 0;
  Tick processing_cost = 0;
};

// The Eject for one plan stage, its class read off the stage's stream ends
// (§4's taxonomy). An active input pulls channel "out" of `upstream`;
// `transform` makes a filter's Transform; `input` feeds a source.
// BuildPipeline creates every stage with this, and a filter's reactivation
// factory rebuilds it with this.
std::unique_ptr<Eject> MakeStage(Kernel& kernel, const verify::StageSpec& stage,
                                 const StageKnobs& knobs, const TransformFactory& transform,
                                 Uid upstream, ValueList& input) {
  if (stage.is_source && stage.passive_output) {
    VectorSource::Options options;
    options.work_ahead = stage.hiwat;
    options.work_ahead_lowat = stage.lowat;
    options.start_on_demand = stage.lazy;
    options.sequenced = knobs.recovery.enabled;
    return std::make_unique<VectorSource>(kernel, std::move(input), options);
  }
  if (stage.is_source) {
    PushSource::Options options;
    options.batch = knobs.batch;
    options.deadline = knobs.recovery.deadline;
    options.retry_attempts = knobs.recovery.retry_attempts;
    options.retry_backoff = knobs.recovery.retry_backoff;
    options.sequenced = knobs.recovery.enabled;
    return std::make_unique<PushSource>(kernel, std::move(input), options);
  }
  Value upstream_channel = stage.active_input ? Value(std::string(kChanOut)) : Value();
  if (stage.is_sink && stage.active_input) {
    PullSink::Options options;
    options.batch = knobs.batch;
    options.lookahead = knobs.lookahead;
    options.deadline = knobs.recovery.deadline;
    options.retry_attempts = knobs.recovery.retry_attempts;
    options.retry_backoff = knobs.recovery.retry_backoff;
    options.sequenced = knobs.recovery.enabled;
    return std::make_unique<PullSink>(kernel, upstream, std::move(upstream_channel), options);
  }
  if (stage.is_sink) {
    PushSink::Options options;
    options.hiwat = stage.hiwat;
    options.lowat = stage.lowat;
    options.sequenced = knobs.recovery.enabled;
    return std::make_unique<PushSink>(kernel, options);
  }
  if (stage.passive_input && stage.passive_output) {
    PassiveBuffer::Options options;
    options.hiwat = stage.hiwat;
    options.lowat = stage.lowat;
    options.sequenced = knobs.recovery.enabled;
    return std::make_unique<PassiveBuffer>(kernel, options);
  }
  if (stage.passive_output) {
    ReadOnlyFilter::Options options;
    options.source = upstream;
    options.source_channel = std::move(upstream_channel);
    options.batch = knobs.batch;
    options.lookahead = knobs.lookahead;
    options.work_ahead = stage.hiwat;
    options.work_ahead_lowat = stage.lowat;
    options.start_on_demand = stage.lazy;
    options.processing_cost = knobs.processing_cost;
    options.recovery = knobs.recovery;
    return std::make_unique<ReadOnlyFilter>(kernel, transform(), options);
  }
  if (stage.passive_input) {
    WriteOnlyFilter::Options options;
    options.input_hiwat = stage.hiwat;
    options.input_lowat = stage.lowat;
    options.batch = knobs.batch;
    options.processing_cost = knobs.processing_cost;
    options.recovery = knobs.recovery;
    return std::make_unique<WriteOnlyFilter>(kernel, transform(), options);
  }
  ConventionalFilter::Options options;
  options.source = upstream;
  options.source_channel = std::move(upstream_channel);
  options.batch = knobs.batch;
  options.lookahead = knobs.lookahead;
  options.processing_cost = knobs.processing_cost;
  options.recovery = knobs.recovery;
  return std::make_unique<ConventionalFilter>(kernel, transform(), options);
}

// Points an active output at channel "in" of its plan successor. The binding
// is part of the type, not the checkpoint, so a reactivation factory binds
// too.
void BindStage(Eject& eject, const verify::StageSpec& stage, Uid downstream) {
  if (stage.is_source) {
    static_cast<PushSource&>(eject).BindOutput(downstream, Value(std::string(kChanIn)));
  } else {
    static_cast<FilterEject&>(eject).BindOutput(std::string(kChanOut), downstream,
                                                Value(std::string(kChanIn)));
  }
}

// A filter under recovery, as its reactivation factory rebuilds it.
struct StageBuild {
  size_t position = 0;
  verify::StageSpec stage;
  StageKnobs knobs;
  TransformFactory transform;
  Uid upstream;
};

}  // namespace

PipelineHandle BuildPipeline(Kernel& kernel, ValueList input,
                             const std::vector<TransformFactory>& stages,
                             const PipelineOptions& options) {
  const verify::TopologySpec plan = PlanTopology(stages.size(), options, kernel);
  PipelineHandle handle;
  handle.discipline = options.discipline;
  if (options.lint_before_activate) {
    handle.lint = verify::PipelineLinter().Lint(plan);
    if (!handle.lint.ok()) {
      // Refuse activation: no Eject was created, the kernel is untouched.
      handle.lint_rejected = true;
      return handle;
    }
  }
  // The plan is a chain: it connects stage i-1 to stage i (an active input
  // pulls its predecessor's "out", an active output pushes its successor's
  // "in"), so every stage is wired by position.
  assert(plan.edges.size() + 1 == plan.stages.size());
  StageKnobs knobs;
  knobs.recovery.enabled = plan.recovery.enabled;
  knobs.recovery.checkpoint_every = plan.recovery.checkpoint_every;
  knobs.recovery.deadline = plan.recovery.deadline;
  knobs.recovery.retry_attempts = plan.recovery.retry_attempts;
  knobs.recovery.retry_backoff = plan.recovery.retry_backoff;
  knobs.batch = options.batch;
  knobs.lookahead = options.lookahead;
  knobs.processing_cost = options.processing_cost;
  const size_t count = plan.stages.size();
  handle.ejects.reserve(count);
  handle.stage_names.reserve(count);
  std::vector<Eject*> created;
  created.reserve(count);
  std::vector<Uid> filter_uids;
  std::vector<StageBuild> recoverable;
  static const TransformFactory kNoTransform;
  for (size_t i = 0; i < count; ++i) {
    const verify::StageSpec& stage = plan.stages[i];
    if (options.distinct_nodes) {
      [[maybe_unused]] NodeId added =
          kernel.AddNode("pipe-node-" + std::to_string(i), stage.shard_hint);
      assert(added == stage.node && "the plan stamps the node ids minted here");
    }
    const Uid upstream = stage.active_input ? handle.ejects.back() : Uid();
    const bool filter = !stage.is_source && !stage.is_sink &&
                        !(stage.passive_input && stage.passive_output);
    const TransformFactory& transform = filter ? stages[filter_uids.size()] : kNoTransform;
    Eject* eject = nullptr;
    if (filter && knobs.recovery.enabled) {
      StageBuild& build = recoverable.emplace_back(StageBuild{i, stage, knobs, transform, upstream});
      build.knobs.recovery.eject_type =
          UniqueTypeName(kernel, stage.type + "/" + std::to_string(filter_uids.size()));
      eject = &kernel.CreateWith(stage.node, [&](Kernel& k) {
        return MakeStage(k, stage, build.knobs, transform, upstream, input);
      });
    } else {
      eject = &kernel.CreateWith(stage.node, [&](Kernel& k) {
        return MakeStage(k, stage, knobs, transform, upstream, input);
      });
    }
    created.push_back(eject);
    handle.ejects.push_back(eject->uid());
    handle.stage_names.push_back(stage.name);
    if (filter) {
      filter_uids.push_back(eject->uid());
    } else if (stage.passive_input && stage.passive_output) {
      handle.passive_buffer_count++;
    }
  }
  // The plan runs from the source to the sink.
  handle.source = handle.ejects.front();
  handle.sink = handle.ejects.back();
  if (plan.stages.back().active_input) {
    handle.pull_sink = static_cast<PullSink*>(created.back());
  } else {
    handle.push_sink = static_cast<PushSink*>(created.back());
  }
  // Push bindings need both ends, so they wait until every stage exists.
  // Nothing has run yet: creation only scheduled each stage's start.
  for (size_t i = 0; i + 1 < count; ++i) {
    if (plan.stages[i].active_output) {
      BindStage(*created[i], plan.stages[i], handle.ejects[i + 1]);
    }
  }
  for (const StageBuild& build : recoverable) {
    Uid downstream =
        build.stage.active_output ? handle.ejects[build.position + 1] : Uid();
    kernel.types().Register(build.knobs.recovery.eject_type,
                            [build, downstream](Kernel& k) {
                              ValueList no_input;
                              std::unique_ptr<Eject> fresh =
                                  MakeStage(k, build.stage, build.knobs, build.transform,
                                            build.upstream, no_input);
                              if (!downstream.IsNil()) {
                                BindStage(*fresh, build.stage, downstream);
                              }
                              return fresh;
                            });
  }
  MaybeAddMonitor(kernel, plan.recovery, handle, std::move(filter_uids));
  return handle;
}

ValueList RunPipeline(Kernel& kernel, ValueList input,
                      const std::vector<TransformFactory>& stages,
                      const PipelineOptions& options) {
  PipelineHandle handle = BuildPipeline(kernel, std::move(input), stages, options);
  if (handle.lint_rejected) {
    return ValueList();
  }
  kernel.RunUntil([&handle] { return handle.done(); });
  return handle.output();
}

size_t PredictedInvocationsPerDatum(Discipline discipline, size_t stage_count) {
  switch (discipline) {
    case Discipline::kReadOnly:
    case Discipline::kWriteOnly:
      return stage_count + 1;  // §4: "only n+1 invocations are needed"
    case Discipline::kConventional:
      return 2 * stage_count + 2;  // §4: "2n+2 invocations would be needed"
  }
  return 0;
}

size_t PredictedEjectCount(Discipline discipline, size_t stage_count) {
  switch (discipline) {
    case Discipline::kReadOnly:
    case Discipline::kWriteOnly:
      return stage_count + 2;  // §4: "implemented by n+2 Ejects"
    case Discipline::kConventional:
      return 2 * stage_count + 3;  // n+2 plus "n+1 passive buffer Ejects"
  }
  return 0;
}

}  // namespace eden
