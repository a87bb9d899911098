// ShardProfiler, ShardProfileExporter, DiagnoseParallel and FlightRecorder.
//
// The profiling layer's contract (profile.h): host-clock observation only —
// installing a profiler must never change what the simulation produces; the
// per-shard sample rings are bounded while the aggregates keep counting; a
// sequential run folds into one execute-only sample on shard 0; and the
// doctor's parallel verdict is derived from parallel windows and wall time
// alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/eden/analysis.h"
#include "src/eden/json.h"
#include "src/eden/profile.h"
#include "src/eden/random.h"
#include "src/eden/trace.h"
#include "src/eden/trace_export.h"
#include "src/filters/transforms.h"

namespace eden {
namespace {

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

// Builds the sharded_test workload (every Eject on its own node, so shard
// counts > 1 really split the topology) and runs it to quiescence under the
// given profiler (which may be null).
ValueList RunProfiled(int shards, ShardProfiler* profiler,
                      uint64_t* events_out = nullptr) {
  KernelOptions kernel_options;
  kernel_options.shards = shards;
  Kernel kernel(kernel_options);
  if (profiler != nullptr) {
    kernel.set_profiler(profiler);
  }
  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(80), CopyChain(4), options);
  kernel.RunUntil([&handle] { return handle.done(); });
  EXPECT_TRUE(kernel.Run());
  if (events_out != nullptr) {
    *events_out = kernel.stats().events_processed;
  }
  return handle.output();
}

// ---------------------------------------------------------------- the ring

TEST(ShardProfilerTest, RingBoundsSamplesButAggregatesKeepCounting) {
  ShardProfiler profiler(/*ring_capacity=*/4);
  profiler.OnRunStart(1);
  for (uint64_t w = 1; w <= 10; ++w) {
    ShardProfiler::WindowSample sample;
    sample.window = w;
    sample.events = 2;
    sample.execute_ns = 100;
    sample.drain_ns = 10;
    sample.top_barrier_ns = 5;
    sample.bottom_barrier_ns = 5;
    profiler.OnWindow(0, sample);
  }
  profiler.OnRunEnd(/*events=*/20, /*parallel=*/true);

  std::vector<ShardProfiler::ShardProfile> shards = profiler.Snapshot();
  ASSERT_EQ(shards.size(), 1u);
  const ShardProfiler::ShardProfile& shard = shards[0];
  // The ring holds the most recent 4 windows, oldest first; the 6 evicted
  // ones are counted, and the aggregates never stopped.
  ASSERT_EQ(shard.samples.size(), 4u);
  EXPECT_EQ(shard.samples_dropped, 6u);
  EXPECT_EQ(shard.samples.front().window, 7u);
  EXPECT_EQ(shard.samples.back().window, 10u);
  EXPECT_EQ(shard.windows, 10u);
  EXPECT_EQ(shard.events, 20u);
  EXPECT_EQ(shard.execute_ns, 1000u);
  EXPECT_EQ(shard.drain_ns, 100u);
  EXPECT_EQ(shard.barrier_ns, 100u);
  EXPECT_EQ(shard.bottom_barrier_ns, 50u);
  EXPECT_EQ(shard.stall_ns, 0u);
  EXPECT_EQ(profiler.runs(), 1u);
  EXPECT_EQ(profiler.parallel_runs(), 1u);
  EXPECT_EQ(profiler.events(), 20u);
}

TEST(ShardProfilerTest, StalledWindowsLandInStallTime) {
  ShardProfiler profiler;
  profiler.OnRunStart(2);
  ShardProfiler::WindowSample stalled;
  stalled.window = 1;
  stalled.events = 0;  // woke, found nothing below window_end
  stalled.execute_ns = 70;
  profiler.OnWindow(1, stalled);
  profiler.OnRunEnd(0, /*parallel=*/true);

  std::vector<ShardProfiler::ShardProfile> shards = profiler.Snapshot();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[1].stall_ns, 70u);
  EXPECT_EQ(shards[1].execute_ns, 0u);
  EXPECT_TRUE(shards[1].samples.front().stalled());
}

// ------------------------------------------------------- kernel integration

TEST(ShardProfilerTest, ProfilesAFourShardRun) {
  ShardProfiler profiler;
  uint64_t kernel_events = 0;
  ValueList output = RunProfiled(4, &profiler, &kernel_events);
  ASSERT_EQ(output.size(), 80u);

  EXPECT_EQ(profiler.shard_count(), 4);
  EXPECT_GE(profiler.runs(), 2u);  // RunUntil + the trailing Run
  EXPECT_GE(profiler.parallel_runs(), 1u);
  EXPECT_GT(profiler.parallel_wall_ns(), 0u);
  EXPECT_EQ(profiler.events(), kernel_events);

  std::vector<ShardProfiler::ShardProfile> shards = profiler.Snapshot();
  ASSERT_EQ(shards.size(), 4u);
  uint64_t windows = 0, events = 0;
  for (const ShardProfiler::ShardProfile& shard : shards) {
    windows += shard.windows;
    events += shard.events;
    for (const ShardProfiler::WindowSample& s : shard.samples) {
      EXPECT_FALSE(s.sequential);
    }
  }
  EXPECT_GT(windows, 0u);
  // Every event the kernel executed was executed inside some shard's window.
  EXPECT_EQ(events, kernel_events);

  std::string error;
  EXPECT_TRUE(JsonValidate(ValueToJson(profiler.ToValue()), &error)) << error;
  EXPECT_NE(profiler.ToString().find("profiler:"), std::string::npos);
}

TEST(ShardProfilerTest, SequentialRunFoldsIntoOneSample) {
  ShardProfiler profiler;
  ValueList output = RunProfiled(1, &profiler);
  ASSERT_EQ(output.size(), 80u);

  EXPECT_GE(profiler.runs(), 1u);
  EXPECT_EQ(profiler.parallel_runs(), 0u);
  EXPECT_EQ(profiler.parallel_wall_ns(), 0u);
  std::vector<ShardProfiler::ShardProfile> shards = profiler.Snapshot();
  ASSERT_EQ(shards.size(), 1u);
  // The whole run is one execute-only sample on shard 0, outside the
  // parallel aggregates.
  EXPECT_EQ(shards[0].windows, 0u);
  ASSERT_FALSE(shards[0].samples.empty());
  EXPECT_TRUE(shards[0].samples.front().sequential);
  EXPECT_GT(shards[0].samples.front().events, 0u);

  // No parallel windows: the verdict declines to judge.
  EXPECT_FALSE(DiagnoseParallel(profiler).valid);
}

TEST(ShardProfilerTest, ProfilingPreservesDeterminism) {
  ShardProfiler profiler;
  uint64_t profiled_events = 0, plain_events = 0;
  ValueList profiled = RunProfiled(4, &profiler, &profiled_events);
  ValueList plain = RunProfiled(4, nullptr, &plain_events);
  EXPECT_EQ(profiled, plain);
  EXPECT_EQ(profiled_events, plain_events);
}

// ------------------------------------------------------------ the exporter

TEST(ShardProfileExporterTest, EmitsValidPerfettoJson) {
  ShardProfiler profiler;
  RunProfiled(4, &profiler);

  std::string json = ShardProfileExporter(profiler).Export();
  std::string error;
  ASSERT_TRUE(JsonValidate(json, &error)) << error;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  // One named track per shard worker, wall-clock slices on each.
  EXPECT_NE(json.find("shard 0"), std::string::npos);
  EXPECT_NE(json.find("shard 3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  std::string path = ::testing::TempDir() + "/eden_profile_test.json";
  ASSERT_TRUE(ShardProfileExporter(profiler).WriteFile(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
  std::remove(path.c_str());
}

// ------------------------------------------------------- the parallel verdict

TEST(DiagnoseParallelTest, JudgesAFourShardRun) {
  ShardProfiler profiler;
  RunProfiled(4, &profiler);

  ParallelVerdict verdict = DiagnoseParallel(profiler);
  ASSERT_TRUE(verdict.valid);
  EXPECT_EQ(verdict.shards, 4);
  EXPECT_GT(verdict.windows, 0u);
  EXPECT_GT(verdict.speedup, 0.0);
  EXPECT_GE(verdict.serial_fraction, 0.0);
  EXPECT_LE(verdict.serial_fraction, 1.0);
  EXPECT_GE(verdict.imbalance_pct, 0.0);
  EXPECT_GE(verdict.window_skew, 1.0);
  EXPECT_FALSE(verdict.top_stall.empty());
  ASSERT_EQ(verdict.per_shard.size(), 4u);
  EXPECT_NE(verdict.ToLine().find("parallel: speedup"), std::string::npos);

  std::string error;
  EXPECT_TRUE(JsonValidate(ValueToJson(verdict.ToValue()), &error)) << error;
}

// Two shards over ten windows. In every window one shard executes
// 1000 ns and the other `idle_ns`; the idle one then waits at the bottom
// barrier for the busy one. With `take_turns` the busy shard alternates,
// otherwise shard 0 is always the busy one.
ParallelVerdict SyntheticTwoShardVerdict(bool take_turns, uint64_t idle_ns) {
  ShardProfiler profiler;
  profiler.OnRunStart(2);
  for (uint64_t w = 1; w <= 10; ++w) {
    const int busy = take_turns ? static_cast<int>(w % 2) : 0;
    for (int shard = 0; shard < 2; ++shard) {
      ShardProfiler::WindowSample sample;
      sample.window = w;
      sample.events = shard == busy ? 8 : 1;
      sample.execute_ns = shard == busy ? 1000 : idle_ns;
      sample.bottom_barrier_ns = shard == busy ? 0 : 1000 - idle_ns;
      profiler.OnWindow(shard, sample);
    }
  }
  profiler.OnRunEnd(/*events=*/90, /*parallel=*/true);
  return DiagnoseParallel(profiler);
}

TEST(DiagnoseParallelTest, TurnTakingShardsShowSkewNotImbalance) {
  // Each shard is busy in every other window: the whole-run totals are
  // equal, so imbalance reads ~0, yet every window waits on one shard.
  ParallelVerdict turns = SyntheticTwoShardVerdict(/*take_turns=*/true, 10);
  ASSERT_TRUE(turns.valid);
  EXPECT_NEAR(turns.imbalance_pct, 0.0, 1e-9);
  EXPECT_NEAR(turns.window_skew, 2.0, 0.05);
  EXPECT_TRUE(turns.skew_dominates());
  EXPECT_NE(turns.ToLine().find("placement"), std::string::npos)
      << turns.ToLine();

  // The same windows with shard 0 always busy: the skew is the same, but
  // now the whole-run imbalance explains it and placement is not named.
  ParallelVerdict fixed = SyntheticTwoShardVerdict(/*take_turns=*/false, 10);
  ASSERT_TRUE(fixed.valid);
  EXPECT_NEAR(fixed.window_skew, 2.0, 0.05);
  EXPECT_GT(fixed.imbalance_pct, 90.0);
  EXPECT_FALSE(fixed.skew_dominates());
  EXPECT_EQ(fixed.ToLine().find("placement"), std::string::npos);

  // Both shards equally busy in every window: no skew.
  ParallelVerdict even = SyntheticTwoShardVerdict(/*take_turns=*/true, 1000);
  ASSERT_TRUE(even.valid);
  EXPECT_NEAR(even.window_skew, 1.0, 1e-9);
  EXPECT_FALSE(even.skew_dominates());
}

TEST(DiagnoseParallelTest, DoctorAppendsTheVerdict) {
  KernelOptions kernel_options;
  kernel_options.shards = 4;
  Kernel kernel(kernel_options);
  TraceRecorder trace;
  ShardProfiler profiler;
  kernel.set_tracer(trace.Hook());
  kernel.set_profiler(&profiler);

  PipelineOptions options;
  options.discipline = Discipline::kReadOnly;
  options.distinct_nodes = true;
  PipelineHandle handle =
      BuildPipeline(kernel, MakeLines(80), CopyChain(4), options);
  handle.LabelAll(trace);
  kernel.RunUntil([&handle] { return handle.done(); });

  Diagnosis d = PipelineDoctor(trace, nullptr, &profiler).Diagnose();
  ASSERT_TRUE(d.parallel.valid);
  EXPECT_NE(d.verdict.find("parallel: speedup"), std::string::npos);
  EXPECT_NE(d.ToString().find("wall clock (per shard):"), std::string::npos);

  // Without a profiler the verdict line is unchanged.
  Diagnosis plain = PipelineDoctor(trace).Diagnose();
  EXPECT_FALSE(plain.parallel.valid);
  EXPECT_EQ(plain.verdict.find("parallel:"), std::string::npos);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RecordsRecentWindowsAndDumps) {
  FlightRecorder& recorder = FlightRecorder::Instance();
  recorder.Clear();
  RunProfiled(4, nullptr);  // always on: no profiler required

  std::vector<FlightRecorder::Entry> entries = recorder.Snapshot();
  ASSERT_FALSE(entries.empty());
  EXPECT_LE(entries.size(), FlightRecorder::kCapacity);
  for (const FlightRecorder::Entry& entry : entries) {
    EXPECT_GE(entry.window_end, entry.t_min);
    EXPECT_EQ(entry.shards, 4);
  }
  // Entries are newest-last with a monotone sequence.
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i].seq, entries[i - 1].seq);
  }

  std::string path = ::testing::TempDir() + "/eden_flight_test.txt";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  recorder.Dump(out);
  std::fclose(out);
  std::FILE* in = std::fopen(path.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(in);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("flight recorder"), std::string::npos);

  std::string error;
  EXPECT_TRUE(JsonValidate(ValueToJson(recorder.ToValue()), &error)) << error;
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

}  // namespace
}  // namespace eden
