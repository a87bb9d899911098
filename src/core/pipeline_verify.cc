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
    // effective_* gating: disabled recovery zeroes every other knob, exactly
    // as the builders do when they hand options to filters and endpoints.
    knobs.deadline = options.recovery.deadline;
    knobs.retry_attempts = options.recovery.retry_attempts;
    knobs.retry_backoff = options.recovery.retry_backoff;
    knobs.checkpoint_every = options.recovery.checkpoint_every;
    knobs.probe_interval = options.recovery.probe_interval;
  }
  return knobs;
}

// Shared shape builder: `uid_of(i)` supplies the stage UID for position i in
// source..sink order, so the plan (synthetic UIDs) and the as-built
// description (handle.ejects) produce structurally identical specs.
template <typename UidOf>
verify::TopologySpec BuildSpec(size_t stage_count,
                               const PipelineOptions& options, UidOf uid_of) {
  verify::TopologySpec spec;
  spec.flavor = FlavorOf(options.discipline);
  spec.recovery = KnobsOf(options);
  const bool lazy = options.discipline == Discipline::kReadOnly &&
                    options.start_on_demand;

  size_t position = 0;
  auto add = [&](std::string name, std::string type,
                 verify::StageSpec ends) -> verify::StageSpec& {
    ends.uid = uid_of(position++);
    ends.name = std::move(name);
    ends.type = std::move(type);
    return spec.AddStage(std::move(ends));
  };
  auto watermark = [](verify::StageSpec& ends, size_t hiwat, size_t lowat) {
    ends.bounded = true;
    ends.hiwat = hiwat;
    ends.lowat = lowat;
  };

  switch (options.discipline) {
    case Discipline::kReadOnly: {
      verify::StageSpec source;
      source.is_source = true;
      source.passive_output = true;
      source.lazy = lazy;
      watermark(source, options.work_ahead, options.work_ahead_lowat);
      Uid upstream = add("source", VectorSource::kType, source).uid;
      for (size_t i = 0; i < stage_count; ++i) {
        verify::StageSpec filter;
        filter.active_input = true;
        filter.passive_output = true;
        filter.lazy = lazy;
        watermark(filter, options.work_ahead, options.work_ahead_lowat);
        Uid uid = add("filter" + std::to_string(i + 1),
                      ReadOnlyFilter::kType, filter)
                      .uid;
        spec.Connect(upstream, uid, verify::EdgeSpec::Mode::kPull, std::string(kChanOut));
        upstream = uid;
      }
      verify::StageSpec sink;
      sink.is_sink = true;
      sink.active_input = true;
      Uid uid = add("sink", PullSink::kType, sink).uid;
      spec.Connect(upstream, uid, verify::EdgeSpec::Mode::kPull, std::string(kChanOut));
      break;
    }
    case Discipline::kWriteOnly: {
      verify::StageSpec source;
      source.is_source = true;
      source.active_output = true;
      Uid upstream = add("source", PushSource::kType, source).uid;
      for (size_t i = 0; i < stage_count; ++i) {
        verify::StageSpec filter;
        filter.passive_input = true;
        filter.active_output = true;
        watermark(filter, options.acceptor_capacity, options.acceptor_lowat);
        Uid uid = add("filter" + std::to_string(i + 1),
                      WriteOnlyFilter::kType, filter)
                      .uid;
        spec.Connect(upstream, uid, verify::EdgeSpec::Mode::kPush, std::string(kChanIn));
        upstream = uid;
      }
      verify::StageSpec sink;
      sink.is_sink = true;
      sink.passive_input = true;
      watermark(sink, options.acceptor_capacity, options.acceptor_lowat);
      Uid uid = add("sink", PushSink::kType, sink).uid;
      spec.Connect(upstream, uid, verify::EdgeSpec::Mode::kPush, std::string(kChanIn));
      break;
    }
    case Discipline::kConventional: {
      verify::StageSpec source;
      source.is_source = true;
      source.active_output = true;
      Uid upstream = add("source", PushSource::kType, source).uid;
      for (size_t i = 0; i < stage_count; ++i) {
        verify::StageSpec pipe;
        pipe.passive_input = true;
        pipe.passive_output = true;
        watermark(pipe, options.pipe_capacity, options.pipe_lowat);
        Uid pipe_uid =
            add("pipe" + std::to_string(i), PassiveBuffer::kType, pipe).uid;
        spec.Connect(upstream, pipe_uid, verify::EdgeSpec::Mode::kPush,
                     std::string(kChanIn));
        verify::StageSpec filter;
        filter.active_input = true;
        filter.active_output = true;
        Uid filter_uid = add("filter" + std::to_string(i + 1),
                             ConventionalFilter::kType, filter)
                             .uid;
        spec.Connect(pipe_uid, filter_uid, verify::EdgeSpec::Mode::kPull,
                     std::string(kChanOut));
        upstream = filter_uid;
      }
      verify::StageSpec last_pipe;
      last_pipe.passive_input = true;
      last_pipe.passive_output = true;
      watermark(last_pipe, options.pipe_capacity, options.pipe_lowat);
      Uid pipe_uid = add("pipe" + std::to_string(stage_count),
                         PassiveBuffer::kType, last_pipe)
                         .uid;
      spec.Connect(upstream, pipe_uid, verify::EdgeSpec::Mode::kPush, std::string(kChanIn));
      verify::StageSpec sink;
      sink.is_sink = true;
      sink.active_input = true;
      Uid sink_uid = add("sink", PullSink::kType, sink).uid;
      spec.Connect(pipe_uid, sink_uid, verify::EdgeSpec::Mode::kPull, std::string(kChanOut));
      break;
    }
  }
  return spec;
}

}  // namespace

verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options) {
  return BuildSpec(stage_count, options,
                   [](size_t i) { return Uid(0, i + 1); });
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
    // PlaceNext mints one fresh node per Eject in creation order, which for
    // every discipline is BuildSpec's position order, starting at the
    // kernel's next node id — the ids PlaceNode will scatter at run time.
    NodeId node = static_cast<NodeId>(kernel.node_count());
    for (verify::StageSpec& stage : spec.stages) {
      stage.node = node++;
      stage.shard_hint = options.partition_shard;
    }
  }
  return spec;
}

verify::TopologySpec DescribePipeline(const PipelineHandle& handle,
                                      const PipelineOptions& options) {
  size_t stage_count = 0;
  switch (handle.discipline) {
    case Discipline::kReadOnly:
    case Discipline::kWriteOnly:
      stage_count = handle.ejects.size() >= 2 ? handle.ejects.size() - 2 : 0;
      break;
    case Discipline::kConventional:
      stage_count =
          handle.ejects.size() >= 3 ? (handle.ejects.size() - 3) / 2 : 0;
      break;
  }
  PipelineOptions adjusted = options;
  adjusted.discipline = handle.discipline;
  return BuildSpec(stage_count, adjusted, [&handle](size_t i) {
    return i < handle.ejects.size() ? handle.ejects[i] : Uid();
  });
}

verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options) {
  return verify::PipelineLinter().Lint(PlanTopology(stage_count, options));
}

verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options,
                                    const Kernel& kernel) {
  return verify::PipelineLinter().Lint(
      PlanTopology(stage_count, options, kernel));
}

}  // namespace eden
