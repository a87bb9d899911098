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

// One plan stage with its wiring resolved to real UIDs: everything MakeStage
// needs, kept by value in a filter's reactivation factory.
struct StageBuild {
  verify::StageSpec stage;  // ends, watermarks, laziness
  // The plan's gated recovery knobs; a filter under recovery also gets its
  // reactivation type here.
  FilterRecoveryOptions recovery;
  int64_t batch = 1;
  size_t lookahead = 0;
  Tick processing_cost = 0;
  TransformFactory transform;  // filters
  Uid upstream;                // active input: the stage it pulls from
  Value upstream_channel;
  Uid downstream;              // active output: the stage it pushes to
  Value downstream_channel;
};

// The Eject for one plan stage, its class read off the stage's stream ends
// (§4's taxonomy). BuildPipeline creates every stage with this, and a
// filter's reactivation factory rebuilds it with this; `input` feeds a
// source.
std::unique_ptr<Eject> MakeStage(Kernel& kernel, const StageBuild& build,
                                 ValueList& input) {
  const verify::StageSpec& stage = build.stage;
  if (stage.is_source && stage.passive_output) {
    VectorSource::Options options;
    options.work_ahead = stage.hiwat;
    options.work_ahead_lowat = stage.lowat;
    options.start_on_demand = stage.lazy;
    options.sequenced = build.recovery.enabled;
    return std::make_unique<VectorSource>(kernel, std::move(input), options);
  }
  if (stage.is_source) {
    PushSource::Options options;
    options.batch = build.batch;
    options.deadline = build.recovery.deadline;
    options.retry_attempts = build.recovery.retry_attempts;
    options.retry_backoff = build.recovery.retry_backoff;
    options.sequenced = build.recovery.enabled;
    return std::make_unique<PushSource>(kernel, std::move(input), options);
  }
  if (stage.is_sink && stage.active_input) {
    PullSink::Options options;
    options.batch = build.batch;
    options.lookahead = build.lookahead;
    options.deadline = build.recovery.deadline;
    options.retry_attempts = build.recovery.retry_attempts;
    options.retry_backoff = build.recovery.retry_backoff;
    options.sequenced = build.recovery.enabled;
    return std::make_unique<PullSink>(kernel, build.upstream, build.upstream_channel, options);
  }
  if (stage.is_sink) {
    PushSink::Options options;
    options.hiwat = stage.hiwat;
    options.lowat = stage.lowat;
    options.sequenced = build.recovery.enabled;
    return std::make_unique<PushSink>(kernel, options);
  }
  if (stage.passive_input && stage.passive_output) {
    PassiveBuffer::Options options;
    options.hiwat = stage.hiwat;
    options.lowat = stage.lowat;
    options.sequenced = build.recovery.enabled;
    return std::make_unique<PassiveBuffer>(kernel, options);
  }
  if (stage.passive_output) {
    ReadOnlyFilter::Options options;
    options.source = build.upstream;
    options.source_channel = build.upstream_channel;
    options.batch = build.batch;
    options.lookahead = build.lookahead;
    options.work_ahead = stage.hiwat;
    options.work_ahead_lowat = stage.lowat;
    options.start_on_demand = stage.lazy;
    options.processing_cost = build.processing_cost;
    options.recovery = build.recovery;
    return std::make_unique<ReadOnlyFilter>(kernel, build.transform(), options);
  }
  if (stage.passive_input) {
    WriteOnlyFilter::Options options;
    options.input_hiwat = stage.hiwat;
    options.input_lowat = stage.lowat;
    options.batch = build.batch;
    options.processing_cost = build.processing_cost;
    options.recovery = build.recovery;
    return std::make_unique<WriteOnlyFilter>(kernel, build.transform(), options);
  }
  ConventionalFilter::Options options;
  options.source = build.upstream;
  options.source_channel = build.upstream_channel;
  options.batch = build.batch;
  options.lookahead = build.lookahead;
  options.processing_cost = build.processing_cost;
  options.recovery = build.recovery;
  return std::make_unique<ConventionalFilter>(kernel, build.transform(), options);
}

// Points an active output at its plan successor. The binding is part of the
// type, not the checkpoint, so a reactivation factory binds too.
void BindStage(Eject& eject, const StageBuild& build) {
  if (build.downstream.IsNil()) {
    return;
  }
  if (build.stage.is_source) {
    static_cast<PushSource&>(eject).BindOutput(build.downstream,
                                               build.downstream_channel);
  } else {
    static_cast<FilterEject&>(eject).BindOutput(
        std::string(kChanOut), build.downstream, build.downstream_channel);
  }
}

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
  // Edges name the plan's placeholder UIDs; a stage's real UID sits at the
  // same position in handle.ejects.
  auto real = [&plan, &handle](const Uid& planned) {
    return handle.ejects[static_cast<size_t>(plan.Find(planned) - plan.stages.data())];
  };
  FilterRecoveryOptions recovery;
  recovery.enabled = plan.recovery.enabled;
  recovery.checkpoint_every = plan.recovery.checkpoint_every;
  recovery.deadline = plan.recovery.deadline;
  recovery.retry_attempts = plan.recovery.retry_attempts;
  recovery.retry_backoff = plan.recovery.retry_backoff;
  std::vector<StageBuild> builds;
  builds.reserve(plan.stages.size());
  handle.stage_names.reserve(plan.stages.size());
  std::vector<Eject*> created;
  std::vector<Uid> filter_uids;
  for (const verify::StageSpec& stage : plan.stages) {
    NodeId node = stage.node;
    if (options.distinct_nodes) {
      [[maybe_unused]] NodeId added = kernel.AddNode(
          "pipe-node-" + std::to_string(handle.ejects.size()), stage.shard_hint);
      assert(added == node && "the plan stamps the node ids minted here");
    }
    StageBuild& build = builds.emplace_back();
    build.stage = stage;
    build.recovery = recovery;
    build.batch = options.batch;
    build.lookahead = options.lookahead;
    build.processing_cost = options.processing_cost;
    for (const verify::EdgeSpec& edge : plan.edges) {
      if (edge.mode == verify::EdgeSpec::Mode::kPull && edge.to == stage.uid) {
        build.upstream = real(edge.from);  // producers precede consumers
        build.upstream_channel = Value(edge.channel);
      }
    }
    const bool filter = !stage.is_source && !stage.is_sink &&
                        !(stage.passive_input && stage.passive_output);
    if (filter) {
      build.transform = stages[filter_uids.size()];
      if (recovery.enabled) {
        build.recovery.eject_type = UniqueTypeName(
            kernel, stage.type + "/" + std::to_string(filter_uids.size()));
      }
    }
    Eject& eject = kernel.CreateWith(node, [&](Kernel& k) { return MakeStage(k, build, input); });
    created.push_back(&eject);
    handle.ejects.push_back(eject.uid());
    handle.stage_names.push_back(stage.name);
    if (filter) {
      filter_uids.push_back(eject.uid());
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
  for (size_t i = 0; i < builds.size(); ++i) {
    StageBuild& build = builds[i];
    for (const verify::EdgeSpec& edge : plan.edges) {
      if (edge.mode == verify::EdgeSpec::Mode::kPush && edge.from == build.stage.uid) {
        build.downstream = real(edge.to);
        build.downstream_channel = Value(edge.channel);
      }
    }
    BindStage(*created[i], build);
    if (!build.recovery.eject_type.empty()) {
      kernel.types().Register(build.recovery.eject_type, [build](Kernel& k) {
        ValueList no_input;
        std::unique_ptr<Eject> fresh = MakeStage(k, build, no_input);
        BindStage(*fresh, build);
        return fresh;
      });
    }
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
