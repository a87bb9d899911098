#include "src/core/pipeline_verify.h"

#include <string>
#include <vector>

#include "src/core/endpoints.h"
#include "src/core/filter_eject.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"

namespace eden {

namespace {

verify::Flavor FlavorOf(Discipline discipline) {
  switch (discipline) {
    case Discipline::kReadOnly:
      return verify::Flavor::kReadOnly;
    case Discipline::kWriteOnly:
      return verify::Flavor::kWriteOnly;
    case Discipline::kConventional:
      return verify::Flavor::kConventional;
  }
  return verify::Flavor::kMixed;
}

verify::RecoveryKnobs KnobsOf(const PipelineOptions& options) {
  verify::RecoveryKnobs knobs;
  knobs.enabled = options.recovery.enabled;
  if (options.recovery.enabled) {
    // effective_* gating: disabled recovery zeroes every other knob, and
    // BuildPipeline hands these gated knobs to filters and endpoints.
    knobs.deadline = options.recovery.deadline;
    knobs.retry_attempts = options.recovery.retry_attempts;
    knobs.retry_backoff = options.recovery.retry_backoff;
    knobs.checkpoint_every = options.recovery.checkpoint_every;
    knobs.probe_interval = options.recovery.probe_interval;
  }
  return knobs;
}

// The Eject class that implements a stage with these ends (§4's taxonomy;
// BuildPipeline's MakeStage makes the same choice).
const char* TypeOf(const verify::StageSpec& stage) {
  if (stage.is_source) {
    return stage.passive_output ? VectorSource::kType : PushSource::kType;
  }
  if (stage.is_sink) {
    return stage.active_input ? PullSink::kType : PushSink::kType;
  }
  if (stage.passive_input && stage.passive_output) {
    return PassiveBuffer::kType;
  }
  if (stage.passive_output) {
    return ReadOnlyFilter::kType;
  }
  return stage.passive_input ? WriteOnlyFilter::kType : ConventionalFilter::kType;
}

// The one description of every discipline's shape: stages, names, ends,
// watermarks and edges, with the synthetic UID Uid(0, i+1) at position i in
// source..sink order.
//
// A discipline is one choice per side: every stage but the source has the
// discipline's input end, every stage but the sink its output end (read-only:
// active input, passive output; write-only: the reverse; conventional: active
// both), and the conventional discipline puts a PassiveBuffer, passive both
// ways, at every junction (§3-§5).
verify::TopologySpec BuildSpec(size_t stage_count, const PipelineOptions& options) {
  const bool read_only = options.discipline == Discipline::kReadOnly;
  const bool write_only = options.discipline == Discipline::kWriteOnly;
  const bool pipes = options.discipline == Discipline::kConventional;
  const size_t count = PredictedEjectCount(options.discipline, stage_count);
  verify::TopologySpec spec;
  spec.stages.reserve(count);
  spec.edges.reserve(count);
  spec.flavor = FlavorOf(options.discipline);
  spec.recovery = KnobsOf(options);
  auto watermark = [](verify::StageSpec& stage, size_t hiwat, size_t lowat) {
    stage.bounded = true;
    stage.hiwat = hiwat;
    stage.lowat = lowat;
  };
  for (size_t i = 0; i < count; ++i) {
    verify::StageSpec stage;
    stage.uid = Uid(0, i + 1);
    stage.is_source = i == 0;
    stage.is_sink = i + 1 == count;
    if (pipes && i % 2 == 1) {
      stage.passive_input = stage.passive_output = true;
      stage.name = "pipe" + std::to_string(i / 2);
    } else {
      stage.active_input = !stage.is_source && !write_only;
      stage.passive_input = !stage.is_source && write_only;
      stage.active_output = !stage.is_sink && !read_only;
      stage.passive_output = !stage.is_sink && read_only;
      stage.name = stage.is_source ? "source"
                   : stage.is_sink ? "sink"
                                   : "filter" + std::to_string(pipes ? i / 2 : i);
    }
    stage.type = TypeOf(stage);
    // §4 laziness applies to the read-only discipline's passive outputs.
    stage.lazy = stage.passive_output && read_only && options.start_on_demand;
    // The bounded queue sits at the passive ends: a pipe's store, a passive
    // input's withheld Push replies, a passive output's work-ahead.
    if (stage.passive_input && stage.passive_output) {
      watermark(stage, options.pipe_capacity, options.pipe_lowat);
    } else if (stage.passive_input) {
      watermark(stage, options.acceptor_capacity, options.acceptor_lowat);
    } else if (stage.passive_output) {
      watermark(stage, options.work_ahead, options.work_ahead_lowat);
    }
    if (i > 0) {
      // The active end invokes: a pull when this stage reads, else a push.
      spec.Connect(spec.stages.back().uid, stage.uid,
                   stage.active_input ? verify::EdgeSpec::Mode::kPull
                                      : verify::EdgeSpec::Mode::kPush,
                   std::string(stage.active_input ? kChanOut : kChanIn));
    }
    spec.AddStage(std::move(stage));
  }
  return spec;
}

}  // namespace

verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options) {
  return BuildSpec(stage_count, options);
}

verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options,
                                  const Kernel& kernel) {
  verify::TopologySpec spec = PlanTopology(stage_count, options);
  spec.has_concurrency = true;
  spec.shards = kernel.shard_count();
  spec.lookahead = kernel.options().lookahead;
  spec.costs = kernel.costs();
  if (options.distinct_nodes) {
    // BuildPipeline adds one fresh node per stage, in plan order, starting
    // at the kernel's next node id — the ids PlaceNode will scatter at run
    // time.
    NodeId node = static_cast<NodeId>(kernel.node_count());
    for (verify::StageSpec& stage : spec.stages) {
      stage.node = node++;
      stage.shard_hint = options.partition_shard;
    }
  }
  return spec;
}

verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options) {
  return verify::PipelineLinter().Lint(PlanTopology(stage_count, options));
}

}  // namespace eden
