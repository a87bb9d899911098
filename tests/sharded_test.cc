// Sharded-kernel tests: per-seed determinism across shard counts, real
// cross-shard traffic, repartitioning rules, and a multi-node stress run
// sized to be TSan-friendly.
//
// The contract under test (DESIGN.md "Sharded kernel"): for a fixed seed
// and topology, a run at any shard count produces byte-identical output,
// an identical trace-event stream, identical invariant-monitor, metrics and
// telemetry state and identical kernel stats. Parallelism may reorder
// *execution*, never *observation*.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/devices/devices.h"
#include "src/eden/analysis.h"
#include "src/eden/fault.h"
#include "src/eden/json.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/random.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/shard_audit.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

// Deterministic line workload (mirrors bench_util.h's BenchLines, without
// dragging google-benchmark into the test link).
ValueList MakeLines(int n, uint64_t seed = 83) {
  Rng rng(seed);
  ValueList items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line = rng.Chance(0.25) ? "C " : "      ";
    line += rng.Word(3, 10) + " = " + rng.Word(1, 6);
    items.push_back(Value(std::move(line)));
  }
  return items;
}

std::vector<TransformFactory> CopyChain(size_t n) {
  std::vector<TransformFactory> chain;
  for (size_t i = 0; i < n; ++i) {
    chain.push_back([] {
      return std::make_unique<LambdaTransform>(
          "copy",
          [](const Value& v, const Transform::EmitFn& emit) { emit(kChanOut, v); });
    });
  }
  return chain;
}

// Canonical dump of a trace: every field of every event, in recorded order.
// Two runs are "the same run" iff these strings match byte for byte.
std::string SerializeTrace(const TraceRecorder& trace) {
  std::ostringstream out;
  for (const TraceEvent& e : trace.events()) {
    out << static_cast<int>(e.kind) << ' ' << e.at << ' ' << e.from.ToString()
        << ' ' << e.to.ToString() << ' ' << e.op << ' ' << e.id << ' '
        << e.parent << ' ' << e.ok << '\n';
  }
  return out.str();
}

// The metrics snapshot minus its "shards" section: per-shard run counters
// differ by construction; everything else must not.
std::string MetricsJson(const MetricsRegistry& metrics) {
  Value snapshot = metrics.Snapshot();
  if (ValueMap* fields = snapshot.AsMap()) {
    fields->erase("shards");
  }
  return ValueToJson(snapshot);
}

struct FigRun {
  ValueList output;
  std::string trace;
  std::string monitor;
  std::string metrics;
  std::string telemetry;
  std::string stats;
  Tick virtual_time = 0;
  uint64_t cross_shard_sends = 0;
  uint64_t events = 0;
};

// Runs `chains` copies of a figure pipeline at the given shard count with
// every Eject on its own node (so shard counts > 1 really split the
// topology) and every observer installed, and captures everything an
// observer could see. Several chains keep several shard workers recording
// into the per-shard observer slots at once.
FigRun RunFig(Discipline discipline, int shards, int items, size_t stages,
              int chains = 1) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  InvariantMonitor monitor;
  MetricsRegistry metrics;
  TelemetrySampler telemetry;
  kernel.set_tracer(trace.Hook());
  monitor.set_trace_sink(trace.Hook());
  kernel.set_monitor(&monitor);
  kernel.set_metrics(&metrics);
  kernel.set_telemetry(&telemetry);

  PipelineOptions options;
  options.discipline = discipline;
  options.distinct_nodes = true;
  std::vector<PipelineHandle> handles;
  for (int c = 0; c < chains; ++c) {
    handles.push_back(BuildPipeline(kernel, MakeLines(items, 83 + static_cast<uint64_t>(c)),
                                    CopyChain(stages), options));
    const PipelineHandle& handle = handles.back();
    if (chains == 1) {
      handle.LabelAll(trace);
      handle.LabelAll(monitor);
      handle.LabelAll(metrics);
      handle.LabelAll(telemetry);
    }
  }
  kernel.RunUntil([&handles] {
    for (const PipelineHandle& handle : handles) {
      if (!handle.done()) {
        return false;
      }
    }
    return true;
  });
  // Drain trailing replies so the monitor sees the whole run.
  EXPECT_TRUE(kernel.Run());
  EXPECT_TRUE(kernel.quiescent());

  FigRun run;
  for (const PipelineHandle& handle : handles) {
    run.output.insert(run.output.end(), handle.output().begin(), handle.output().end());
  }
  run.trace = SerializeTrace(trace);
  run.monitor = monitor.ToString();
  run.metrics = MetricsJson(metrics);
  run.telemetry = telemetry.ToJson();
  run.stats = kernel.stats().ToValue().ToString();
  run.virtual_time = kernel.now();
  for (const ShardCounters& c : kernel.shard_counters()) {
    run.cross_shard_sends += c.cross_shard_sends;
    run.events += c.events_processed;
  }
  return run;
}

void ExpectSameRun(const FigRun& run, const FigRun& base) {
  EXPECT_EQ(run.output, base.output);
  EXPECT_EQ(run.trace, base.trace);
  EXPECT_EQ(run.monitor, base.monitor);
  EXPECT_EQ(run.metrics, base.metrics);
  EXPECT_EQ(run.telemetry, base.telemetry);
  EXPECT_EQ(run.stats, base.stats);
  EXPECT_EQ(run.virtual_time, base.virtual_time);
  EXPECT_EQ(run.events, base.events);
}

class ShardMatrix : public ::testing::TestWithParam<Discipline> {};

TEST_P(ShardMatrix, FigurePipelinesAreShardCountInvariant) {
  const Discipline discipline = GetParam();
  const int items = 120;
  const size_t stages = 4;
  FigRun base = RunFig(discipline, 1, items, stages);
  ASSERT_EQ(base.output.size(), static_cast<size_t>(items));
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(std::string(DisciplineName(discipline)) +
                 " shards=" + std::to_string(shards));
    ExpectSameRun(RunFig(discipline, shards, items, stages), base);
  }
}

// 64 chains, depth 4: every shard worker records metrics, monitor flows and
// telemetry samples concurrently (the TSan build checks the per-shard slots
// are race-free), and the merged reads must still match the 1-shard run.
TEST_P(ShardMatrix, ManyChainsObserversAreShardCountInvariant) {
  const Discipline discipline = GetParam();
  const int chains = 64;
  const int items = 12;
  FigRun base = RunFig(discipline, 1, items, /*stages=*/4, chains);
  ASSERT_EQ(base.output.size(), static_cast<size_t>(chains * items));
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE(std::string(DisciplineName(discipline)) +
                 " shards=" + std::to_string(shards));
    ExpectSameRun(RunFig(discipline, shards, items, /*stages=*/4, chains), base);
  }
}

INSTANTIATE_TEST_SUITE_P(Figures, ShardMatrix,
                         ::testing::Values(Discipline::kConventional,
                                           Discipline::kReadOnly,
                                           Discipline::kWriteOnly),
                         [](const ::testing::TestParamInfo<Discipline>& info) {
                           switch (info.param) {
                             case Discipline::kConventional: return "Conventional";
                             case Discipline::kReadOnly: return "ReadOnly";
                             case Discipline::kWriteOnly: return "WriteOnly";
                           }
                           return "Unknown";
                         });

// Figure 4 (read-only with report channels): a multi-source topology that
// isn't expressible through BuildPipeline. Every Eject gets its own node.
struct Fig4Run {
  ValueList output;
  ValueList reports;
  std::string trace;
  Tick virtual_time = 0;
};

Fig4Run RunFigure4(int shards, int items, int report_every) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  kernel.set_tracer(trace.Hook());

  NodeId n1 = kernel.AddNode("fig4-source");
  NodeId n2 = kernel.AddNode("fig4-f1");
  NodeId n3 = kernel.AddNode("fig4-f2");
  NodeId n4 = kernel.AddNode("fig4-sink");
  NodeId n5 = kernel.AddNode("fig4-window");

  VectorSource::Options source_options;
  source_options.report_every = report_every;
  VectorSource& source =
      kernel.Create<VectorSource>(n1, MakeLines(items), source_options);

  ReadOnlyFilter::Options f1_options;
  f1_options.source = source.uid();
  ReadOnlyFilter& f1 = kernel.Create<ReadOnlyFilter>(
      n2,
      std::make_unique<ReportingTransform>(std::make_unique<CopyTransform>(),
                                           report_every),
      f1_options);

  ReadOnlyFilter::Options f2_options;
  f2_options.source = f1.uid();
  ReadOnlyFilter& f2 = kernel.Create<ReadOnlyFilter>(
      n3, std::make_unique<CopyTransform>(), f2_options);

  PullSink& sink =
      kernel.Create<PullSink>(n4, f2.uid(), Value(std::string(kChanOut)));
  ReportWindow& window = kernel.Create<ReportWindow>(n5);
  window.Attach(source.uid(), Value(std::string(kChanReport)), "source");
  window.Attach(f1.uid(), Value(std::string(kChanReport)), "F1");

  kernel.RunUntil([&] { return sink.done() && window.idle(); });
  EXPECT_TRUE(kernel.Run());

  Fig4Run run;
  run.output = sink.items();
  for (const std::string& line : window.lines()) {
    run.reports.push_back(Value(line));
  }
  run.trace = SerializeTrace(trace);
  run.virtual_time = kernel.now();
  return run;
}

TEST(ShardMatrix, Figure4ChannelsAreShardCountInvariant) {
  Fig4Run base = RunFigure4(/*shards=*/1, /*items=*/200, /*report_every=*/25);
  ASSERT_EQ(base.output.size(), 200u);
  ASSERT_FALSE(base.reports.empty());
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Fig4Run run = RunFigure4(shards, 200, 25);
    EXPECT_EQ(run.output, base.output);
    EXPECT_EQ(run.reports, base.reports);
    EXPECT_EQ(run.trace, base.trace);
    EXPECT_EQ(run.virtual_time, base.virtual_time);
  }
}

TEST(ShardedKernel, DistinctNodePipelinesGenerateCrossShardTraffic) {
  // Guards the matrix against vacuity: with every stage on its own node and
  // shards > 1, some neighbouring stages land on different shards, so every
  // shard count the figure matrix runs must move real messages through the
  // mailboxes.
  for (int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FigRun run = RunFig(Discipline::kReadOnly, shards, /*items=*/60,
                        /*stages=*/4);
    EXPECT_GT(run.cross_shard_sends, 0u);
    EXPECT_GT(run.events, 0u);
  }
}

TEST(ShardedKernel, DefaultPlacementLoadsEveryShardAtEveryStagePosition) {
  // Back-to-back distinct_nodes pipelines of L nodes mint node ids with
  // stride L, so `node % shards` would put stage position s of every chain
  // on only shards / gcd(L, shards) of the shards and leave the others idle
  // whenever that position is the busy one. The default scatter must
  // spread every position over every shard. 2048 chains keep a uniform
  // scatter within +-25% at 8 shards with a margin of about 4 standard
  // deviations, so the bound catches resonance, not sampling noise.
  constexpr int kPipelines = 2048;
  for (size_t length = 2; length <= 8; ++length) {
    Kernel kernel;
    PipelineOptions options;
    options.discipline = Discipline::kReadOnly;
    options.distinct_nodes = true;
    std::vector<PipelineHandle> handles;
    for (int p = 0; p < kPipelines; ++p) {
      handles.push_back(BuildPipeline(kernel, {}, CopyChain(length - 2), options));
      ASSERT_EQ(handles.back().ejects.size(), length);
    }
    // Placement depends only on the node ids, not on when the kernel was
    // partitioned: run the empty pipelines dry, then re-partition.
    ASSERT_TRUE(kernel.Run());
    for (int shards : {2, 4, 8}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " nodes per pipeline=" + std::to_string(length));
      ASSERT_TRUE(kernel.set_shards(shards));
      std::vector<std::vector<int>> load(length, std::vector<int>(shards, 0));
      for (const PipelineHandle& handle : handles) {
        for (size_t position = 0; position < length; ++position) {
          load[position][kernel.ShardOf(kernel.NodeOf(handle.ejects[position]))]++;
        }
      }
      const double uniform = static_cast<double>(kPipelines) / shards;
      for (size_t position = 0; position < length; ++position) {
        for (int shard = 0; shard < shards; ++shard) {
          EXPECT_NEAR(load[position][static_cast<size_t>(shard)], uniform,
                      0.25 * uniform)
              << "stage position " << position << " on shard " << shard;
        }
      }
    }
  }
}

TEST(ShardedKernel, SetShardsRequiresQuiescence) {
  Kernel kernel;
  ASSERT_EQ(kernel.shard_count(), 1);
  // Park an event so the kernel is non-quiescent.
  kernel.ScheduleAction(1'000, [] {});
  EXPECT_FALSE(kernel.set_shards(4));
  EXPECT_EQ(kernel.shard_count(), 1);
  EXPECT_TRUE(kernel.Run());
  // Per-shard observer tables are fixed-size: no more than kMaxShards.
  EXPECT_FALSE(kernel.set_shards(kMaxShards + 1));
  EXPECT_EQ(kernel.shard_count(), 1);
  EXPECT_TRUE(kernel.set_shards(4));
  EXPECT_EQ(kernel.shard_count(), 4);
  // The repartitioned kernel still runs pipelines correctly.
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  ValueList output =
      RunPipeline(kernel, MakeLines(40), CopyChain(3), options);
  EXPECT_EQ(output.size(), 40u);
  EXPECT_TRUE(kernel.set_shards(1));
}

TEST(ShardedKernel, ShardCountersAreExposedPerShard) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  PipelineOptions options;
  options.discipline = Discipline::kWriteOnly;
  options.distinct_nodes = true;
  ValueList output = RunPipeline(kernel, MakeLines(50), CopyChain(4), options);
  EXPECT_EQ(output.size(), 50u);
  std::vector<ShardCounters> counters = kernel.shard_counters();
  ASSERT_EQ(counters.size(), 4u);
  uint64_t total_events = 0;
  for (const ShardCounters& c : counters) {
    total_events += c.events_processed;
  }
  EXPECT_GT(total_events, 0u);
  // The parallel run proceeded in windows.
  EXPECT_GT(counters[0].windows, 0u);
}

TEST(ShardedKernel, DoctorSurfacesShardCounters) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  MetricsRegistry metrics;
  kernel.set_tracer(trace.Hook());
  kernel.set_metrics(&metrics);
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(60), CopyChain(3), options);
  handle.LabelAll(trace);
  handle.LabelAll(metrics);
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());

  Diagnosis diagnosis = PipelineDoctor(trace, &metrics).Diagnose();
  ASSERT_EQ(diagnosis.shards.size(), 4u);
  EXPECT_NE(diagnosis.verdict.find("4 shards"), std::string::npos)
      << diagnosis.verdict;
  EXPECT_NE(diagnosis.verdict.find("cross-shard sends"), std::string::npos);
  std::string table = diagnosis.ToString();
  EXPECT_NE(table.find("shards:"), std::string::npos) << table;
  EXPECT_NE(table.find("mbox-hiwat"), std::string::npos);
  Value diagnosis_value = diagnosis.ToValue();
  const ValueList* shard_rows = diagnosis_value.Field("shards").AsList();
  ASSERT_NE(shard_rows, nullptr);
  EXPECT_EQ(shard_rows->size(), 4u);
}

// A stage that claims to have served items it never produced: each claim is
// an inline flow-conservation violation, raised on whichever shard worker
// owns the stage's node.
class MisreportingStage : public Eject {
 public:
  MisreportingStage(Kernel& kernel, Tick first, Tick every)
      : Eject(kernel, "MisreportingStage"), first_(first), every_(every) {}
  void OnStart() override { Spawn(Misreport()); }

 private:
  Task<void> Misreport() {
    co_await Sleep(first_);
    for (int i = 0; i < 3; ++i) {
      if (InvariantMonitor* monitor = kernel().monitor()) {
        monitor->OnServed(uid(), kernel().now(), 1);
      }
      co_await Sleep(every_);
    }
  }

  Tick first_;
  Tick every_;
};

struct ViolationRun {
  std::string trace;
  std::string monitor;
  size_t violations = 0;
};

ViolationRun RunWithMisreports(int shards) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  InvariantMonitor monitor;
  kernel.set_tracer(trace.Hook());
  monitor.set_trace_sink(trace.Hook());
  kernel.set_monitor(&monitor);

  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle = BuildPipeline(kernel, MakeLines(80), CopyChain(4), options);
  handle.LabelAll(trace);
  handle.LabelAll(monitor);
  for (int i = 0; i < 3; ++i) {
    NodeId node = kernel.AddNode("liar" + std::to_string(i));
    MisreportingStage& liar =
        kernel.Create<MisreportingStage>(node, Tick{40 + 25 * i}, Tick{60});
    trace.Label(liar.uid(), "liar" + std::to_string(i));
    monitor.Label(liar.uid(), "liar" + std::to_string(i));
  }
  EXPECT_TRUE(kernel.Run());

  ViolationRun run;
  run.trace = SerializeTrace(trace);
  run.monitor = monitor.ToString();
  run.violations = monitor.violations().size();
  return run;
}

TEST(ShardedKernel, InlineViolationsAreTracedInShardCountInvariantOrder) {
  ViolationRun base = RunWithMisreports(/*shards=*/1);
  ASSERT_EQ(base.violations, 9u) << base.monitor;
  ViolationRun sharded = RunWithMisreports(/*shards=*/4);
  EXPECT_EQ(sharded.violations, base.violations);
  EXPECT_EQ(sharded.trace, base.trace);
  EXPECT_EQ(sharded.monitor, base.monitor);
}

// A checkpointing counter, reactivated from its passive representation.
class TallyEject : public Eject {
 public:
  static constexpr const char* kType = "Tally";
  explicit TallyEject(Kernel& kernel) : Eject(kernel, kType) {
    Register("Increment", [this](InvocationContext ctx) { ctx.Reply(Value(++count_)); });
  }
  Value SaveState() override { return Value().Set("count", Value(count_)); }
  void RestoreState(const Value& state) override {
    count_ = state.Field("count").IntOr(0);
  }

 private:
  int64_t count_ = 0;
};

// After `delay` ticks, increments every target `rounds` times, one
// invocation at a time, and replies with the sum of the counts it was
// answered.
class Incrementer : public Eject {
 public:
  Incrementer(Kernel& kernel, std::vector<Uid> targets, int rounds, Tick delay)
      : Eject(kernel, "Incrementer"),
        targets_(std::move(targets)),
        rounds_(rounds),
        delay_(delay) {
    RegisterTask("Go", [this](InvocationContext ctx) { return Go(std::move(ctx)); });
  }

 private:
  Task<void> Go(InvocationContext ctx) {
    co_await Sleep(delay_);
    int64_t sum = 0;
    for (int round = 0; round < rounds_; ++round) {
      for (const Uid& target : targets_) {
        InvokeResult r = co_await Invoke(target, "Increment");
        sum += r.value.IntOr(0);
      }
    }
    ctx.Reply(Value(sum));
  }

  std::vector<Uid> targets_;
  int rounds_;
  Tick delay_;
};

struct ReactivationRun {
  uint64_t activations = 0;
  uint64_t events = 0;
  Tick virtual_time = 0;
  int64_t replies = 0;
};

// Every counter lives on its own node and is passive when the run starts, so
// inside the parallel windows the counters' shards mint UIDs (each
// reactivation's base constructor draws one) while the incrementers' shards
// look the counters up. Each incrementer starts at its own counter and its
// own tick: in lockstep they would all wait out the same activation, and no
// window would hold both a mint and a lookup.
ReactivationRun RunReactivations(int shards) {
  constexpr int kCounters = 256;
  constexpr int kIncrementers = 8;
  constexpr int kRounds = 4;
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  kernel.types().Register(TallyEject::kType,
                          [](Kernel& k) { return std::make_unique<TallyEject>(k); });
  std::vector<Uid> counters;
  for (int i = 0; i < kCounters; ++i) {
    TallyEject& counter = kernel.Create<TallyEject>(kernel.AddNode("c" + std::to_string(i)));
    counter.Checkpoint();
    counters.push_back(counter.uid());
  }
  for (const Uid& uid : counters) {
    kernel.Crash(uid);
  }
  ReactivationRun run;
  for (int i = 0; i < kIncrementers; ++i) {
    std::vector<Uid> order = counters;
    std::rotate(order.begin(), order.begin() + i * (kCounters / kIncrementers), order.end());
    Incrementer& incrementer = kernel.Create<Incrementer>(
        kernel.AddNode("inc" + std::to_string(i)), std::move(order), kRounds,
        /*delay=*/Tick{397} * i);  // spread over one activation round trip
    kernel.ExternalInvoke(incrementer.uid(), "Go", Value(),
                          [&run](InvokeResult r) { run.replies += r.value.IntOr(0); });
  }
  EXPECT_TRUE(kernel.Run());
  run.activations = kernel.stats().activations;
  run.events = kernel.stats().events_processed;
  run.virtual_time = kernel.now();
  return run;
}

TEST(ShardedKernel, ReactivationInsideParallelWindowsIsShardCountInvariant) {
  ReactivationRun base = RunReactivations(/*shards=*/1);
  // Each counter is reactivated once and answers 1..32 to the 32 increments.
  EXPECT_EQ(base.activations, 256u);
  EXPECT_EQ(base.replies, 256 * (32 * 33 / 2));
  ReactivationRun sharded = RunReactivations(/*shards=*/4);
  EXPECT_EQ(sharded.activations, base.activations);
  EXPECT_EQ(sharded.events, base.events);
  EXPECT_EQ(sharded.virtual_time, base.virtual_time);
  EXPECT_EQ(sharded.replies, base.replies);
}

// Deep multi-node soak: the shape bench_scale measures, shrunk so the whole
// suite (and its TSan build) stays fast. Checks conservation and that the
// parallel run matches the sequential one item for item.
TEST(ShardedStress, DeepDistinctNodePipelineMatchesSequential) {
  const int items = 300;
  const size_t depth = 12;
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  options.work_ahead = 6;

  Kernel sequential;
  ValueList expected =
      RunPipeline(sequential, MakeLines(items), CopyChain(depth), options);
  ASSERT_EQ(expected.size(), static_cast<size_t>(items));

  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel sharded(kernel_options);
  ValueList actual =
      RunPipeline(sharded, MakeLines(items), CopyChain(depth), options);
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(sharded.quiescent());
  EXPECT_EQ(sequential.now(), sharded.now());
}

// ---- Pinned determinism certificates.
//
// audit_figures compares certificates across shard counts within one build,
// so a change that reorders events at every shard count alike passes it.
// These runs compare against constants instead: Figures 1-3 at
// audit_figures' parameters (120 lines, four copy stages, every Eject on its
// own node) at 1 and 4 shards, plus one recovery run per discipline under a
// seeded FaultInjector. A change that moves events on purpose re-records the
// constants and says so in CHANGES.md.
struct PinnedRun {
  Discipline discipline;
  bool faults;  // recovery enabled, seeded message loss
  uint64_t events;
  const char* digest;
};

verify::RunDigest RunAudited(const PinnedRun& pinned, int shards) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  verify::ShardRaceAnalyzer auditor;
  kernel.set_auditor(&auditor);
  FaultPlan plan;
  plan.seed = 1983;
  plan.drop_invocation = 0.02;
  plan.drop_reply = 0.02;
  FaultInjector injector(plan);
  PipelineOptions options;
  options.discipline = pinned.discipline;
  options.distinct_nodes = true;
  if (pinned.faults) {
    options.recovery.enabled = true;
    kernel.set_fault_injector(&injector);
  }
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(120), CopyChain(4), options);
  EXPECT_TRUE(kernel.RunUntil([&handle] { return handle.done(); }));
  kernel.Run();
  EXPECT_EQ(handle.output(), MakeLines(120));
  if (pinned.faults) {
    EXPECT_GT(kernel.stats().messages_dropped, 0u);
  }
  return auditor.Digest();
}

TEST(PinnedCertificate, FigureDisciplinesReproduceRecordedDigests) {
  const PinnedRun runs[] = {
      {Discipline::kConventional, false, 4181, "0x62144ff97e586ba5"},
      {Discipline::kReadOnly, false, 1284, "0x4da15daf1c2dc4e6"},
      {Discipline::kWriteOnly, false, 1466, "0x6c3bfa206bb9cded"},
  };
  for (const PinnedRun& run : runs) {
    for (int shards : {1, 4}) {
      verify::RunDigest digest = RunAudited(run, shards);
      EXPECT_EQ(digest.events, run.events)
          << DisciplineName(run.discipline) << " at " << shards << " shard(s)";
      EXPECT_EQ(verify::RunDigest::ExpectDigest(digest, run.digest), "")
          << DisciplineName(run.discipline) << " at " << shards << " shard(s)";
    }
  }
}

TEST(PinnedCertificate, RecoveryUnderFaultsReproducesRecordedDigests) {
  const PinnedRun runs[] = {
      {Discipline::kConventional, true, 6380, "0x960e24025dd4acf9"},
      {Discipline::kReadOnly, true, 2697, "0xc831f0893d733374"},
      {Discipline::kWriteOnly, true, 2682, "0x1a59699bb4af4865"},
  };
  for (const PinnedRun& run : runs) {
    verify::RunDigest digest = RunAudited(run, 1);
    EXPECT_EQ(digest.events, run.events) << DisciplineName(run.discipline);
    EXPECT_EQ(verify::RunDigest::ExpectDigest(digest, run.digest), "")
        << DisciplineName(run.discipline);
  }
}

}  // namespace
}  // namespace eden
