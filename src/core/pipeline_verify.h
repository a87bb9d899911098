// Bridge between the pipeline builder and the static verification layer:
// renders a (stages, options) plan — or a finished PipelineHandle — as the
// TopologySpec the PipelineLinter analyses. Lives in core so the verify
// library stays free of runtime pipeline types.
#ifndef SRC_CORE_PIPELINE_VERIFY_H_
#define SRC_CORE_PIPELINE_VERIFY_H_

#include <cstddef>

#include "src/core/pipeline.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/topology.h"

namespace eden {

// The topology BuildPipeline *would* construct for `stage_count` transform
// stages under `options`, before any Eject exists. Stage UIDs are synthetic
// placeholders (Uid(0, i+1) in source..sink order); names match the
// stage_names BuildPipeline will assign, so a diagnostic against the plan
// reads the same as one against the built pipeline.
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options);

// Same plan, with the concurrency context (shard count, configured
// lookahead, cost model) read off `kernel` and node placement stamped the
// way BuildPipeline will mint it (distinct_nodes: position i -> node
// kernel.node_count() + i, shard_hint = options.partition_shard). Arms the
// ASC010-ASC012 shard-safety rules; without a kernel they stay silent.
verify::TopologySpec PlanTopology(size_t stage_count,
                                  const PipelineOptions& options,
                                  const Kernel& kernel);

// The as-built topology of a finished pipeline: real UIDs, same shape.
verify::TopologySpec DescribePipeline(const PipelineHandle& handle,
                                      const PipelineOptions& options);

// Lints the plan without constructing anything. This is what the
// lint_before_activate gate in BuildPipeline runs.
verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options);

// Kernel-aware lint: the structural rules plus ASC010-ASC012 against the
// kernel's actual shard count, lookahead and cost model. This is what the
// lint_before_activate gate runs, so a lookahead undercut is an activation
// error instead of a runtime abort.
verify::LintReport LintPipelinePlan(size_t stage_count,
                                    const PipelineOptions& options,
                                    const Kernel& kernel);

}  // namespace eden

#endif  // SRC_CORE_PIPELINE_VERIFY_H_
