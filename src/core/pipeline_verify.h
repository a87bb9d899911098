// Bridge between the pipeline builder and the static verification layer:
// renders a (stages, options) plan as the TopologySpec the PipelineLinter
// analyses. The plan is also what BuildPipeline builds: it creates one Eject
// per plan stage, in plan order, its class, watermarks, laziness, name and
// wiring all read off the plan.
// This file is the one place the PipelineOptions watermark and laziness
// knobs are read. Lives in core so the verify library stays free of runtime
// pipeline types.
#ifndef SRC_CORE_PIPELINE_VERIFY_H_
#define SRC_CORE_PIPELINE_VERIFY_H_

#include <cstddef>

#include "src/core/pipeline.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/topology.h"

namespace eden {

// The topology BuildPipeline constructs for `stage_count` transform stages
// under `options`, before any Eject exists. Stage UIDs are synthetic
// placeholders (Uid(0, i+1) in source..sink order); BuildPipeline's
// stage_names are the plan's names.
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options);

// Same plan, with the concurrency context (shard count, configured
// lookahead, cost model) read off `kernel` and the node of every stage
// (distinct_nodes: position i -> node kernel.node_count() + i, shard_hint =
// options.partition_shard; BuildPipeline adds exactly these nodes). Arms
// the ASC010-ASC012 shard-safety rules; without a kernel they stay silent.
// BuildPipeline builds this plan, and lints it when lint_before_activate is
// set, so a lookahead undercut is an activation error instead of a runtime
// abort.
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options,
                                  const Kernel& kernel);

// Lints the plan without constructing anything (the structural rules only:
// ASC010-ASC012 need the kernel-aware plan).
verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options);

}  // namespace eden

#endif  // SRC_CORE_PIPELINE_VERIFY_H_
