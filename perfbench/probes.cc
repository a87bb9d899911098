#include "perfbench/probes.h"

#include <algorithm>

#include "src/core/endpoints.h"
#include "src/core/passive_buffer.h"
#include "src/core/stream.h"
#include "src/eden/eject.h"

namespace perfbench {

using eden::Eject;
using eden::Kernel;
using eden::NodeId;
using eden::Value;
using eden::ValueList;

namespace {

class Yielder : public Eject {
 public:
  Yielder(Kernel& kernel, int count) : Eject(kernel, "perfbench.Yielder"), count_(count) {}
  void OnStart() override { Spawn(Loop()); }
  bool done() const { return done_; }

 private:
  eden::Task<void> Loop() {
    for (int i = 0; i < count_; ++i) {
      co_await Yield();
    }
    done_ = true;
  }

  int count_;
  bool done_ = false;
};

class Echo : public Eject {
 public:
  explicit Echo(Kernel& kernel) : Eject(kernel, "perfbench.Echo") {
    Register("Echo", [](eden::InvocationContext ctx) {
      Value args = ctx.args();
      ctx.Reply(std::move(args));
    });
  }
};

class Pinger : public Eject {
 public:
  Pinger(Kernel& kernel, eden::Uid target, int count)
      : Eject(kernel, "perfbench.Pinger"), target_(target), count_(count) {}
  void OnStart() override { Spawn(Loop()); }
  bool done() const { return done_; }
  uint64_t wrong() const { return wrong_; }

 private:
  eden::Task<void> Loop() {
    for (int64_t i = 0; i < count_; ++i) {
      eden::InvokeResult r = co_await Invoke(target_, "Echo", Value(i));
      if (!r.ok() || r.value.IntOr(-1) != i) {
        wrong_++;
      }
    }
    done_ = true;
  }

  eden::Uid target_;
  int64_t count_;
  bool done_ = false;
  uint64_t wrong_ = 0;
};

double Finish(const ProbeContext& ctx, const char* name, uint64_t start,
              uint64_t end, uint64_t measured_ns, uint64_t ops) {
  ctx.log->Add(name, ctx.parent, start, end);
  return static_cast<double>(measured_ns) / static_cast<double>(std::max<uint64_t>(ops, 1));
}

const ValueList* ReplyItems(const eden::InvokeResult& r) {
  return r.ok() ? r.value.Field(eden::kFieldItems).AsList() : nullptr;
}

}  // namespace

bool MakeSequentialAndBare(Kernel& kernel) {
  kernel.set_metrics(nullptr);
  kernel.set_tracer(nullptr);
  kernel.set_monitor(nullptr);
  kernel.set_telemetry(nullptr);
  kernel.set_profiler(nullptr);
  kernel.set_auditor(nullptr);
  return kernel.set_shards(1);
}

double ResumeNs(Kernel& kernel, int count, const ProbeContext& ctx) {
  Yielder& yielder = kernel.Create<Yielder>(NodeId{0}, count);
  uint64_t start = NowNs();
  kernel.RunUntil([&yielder] { return yielder.done(); });
  uint64_t end = NowNs();
  if (!yielder.done()) {
    (*ctx.failures)++;
  }
  return Finish(ctx, "probe.resume", start, end, end - start,
                static_cast<uint64_t>(count));
}

double InvokeRttNs(Kernel& kernel, bool cross_node, int count, const ProbeContext& ctx) {
  NodeId echo_node = cross_node ? kernel.AddNode("perfbench-echo") : NodeId{0};
  Echo& echo = kernel.Create<Echo>(echo_node);
  Pinger& pinger = kernel.Create<Pinger>(NodeId{0}, echo.uid(), count);
  uint64_t start = NowNs();
  kernel.RunUntil([&pinger] { return pinger.done(); });
  uint64_t end = NowNs();
  *ctx.failures += pinger.wrong() + (pinger.done() ? 0 : 1);
  return Finish(ctx, cross_node ? "probe.invoke_rtt.cross_node" : "probe.invoke_rtt.same_node",
                start, end, end - start, static_cast<uint64_t>(count));
}

double TransferNs(Kernel& kernel, const ValueList& lines, const ProbeContext& ctx) {
  eden::VectorSource& source = kernel.Create<eden::VectorSource>(NodeId{0}, lines);
  const Value channel(std::string(eden::kChanOut));
  uint64_t start = NowNs();
  uint64_t measured = 0;
  for (const Value& line : lines) {
    uint64_t t0 = NowNs();
    eden::InvokeResult r = kernel.InvokeAndRun(
        source.uid(), std::string(eden::kOpTransfer), eden::MakeTransferArgs(channel, 1));
    measured += NowNs() - t0;
    const ValueList* items = ReplyItems(r);
    if (items == nullptr || items->size() != 1 || (*items)[0] != line) {
      (*ctx.failures)++;
    }
  }
  return Finish(ctx, "probe.stream.transfer", start, NowNs(), measured, lines.size());
}

double PushNs(Kernel& kernel, const ValueList& lines, const ProbeContext& ctx) {
  eden::PassiveBuffer& buffer = kernel.Create<eden::PassiveBuffer>(NodeId{0});
  const Value in(std::string(eden::kChanIn));
  const Value out(std::string(eden::kChanOut));
  uint64_t start = NowNs();
  uint64_t measured = 0;
  for (const Value& line : lines) {
    uint64_t t0 = NowNs();
    eden::InvokeResult pushed = kernel.InvokeAndRun(
        buffer.uid(), std::string(eden::kOpPush), eden::MakePushArgs(in, {line}, false));
    measured += NowNs() - t0;
    eden::InvokeResult drained = kernel.InvokeAndRun(
        buffer.uid(), std::string(eden::kOpTransfer), eden::MakeTransferArgs(out, 1));
    const ValueList* items = ReplyItems(drained);
    if (!pushed.ok() || items == nullptr || items->size() != 1 || (*items)[0] != line) {
      (*ctx.failures)++;
    }
  }
  return Finish(ctx, "probe.stream.push", start, NowNs(), measured, lines.size());
}

double ArgsNs(int count, const ProbeContext& ctx) {
  const Value channel(std::string(eden::kChanOut));
  uint64_t sum = 0;
  uint64_t start = NowNs();
  for (int i = 0; i < count; ++i) {
    Value args = eden::MakeTransferArgs(channel, i & 7);
    sum += static_cast<uint64_t>(args.Field(eden::kFieldMax).IntOr(0)) +
           args.Field(eden::kFieldChannel).Size();
  }
  uint64_t end = NowNs();
  uint64_t want = 0;
  for (int i = 0; i < count; ++i) {
    want += static_cast<uint64_t>(i & 7) + eden::kChanOut.size();
  }
  if (sum != want) {
    (*ctx.failures)++;
  }
  return Finish(ctx, "probe.value.args", start, end, end - start,
                static_cast<uint64_t>(count));
}

FilterNs DirectFilterNs(const ValueList& lines, const ProbeContext& ctx) {
  const WorkloadSpec& figure = *FindWorkload("fig2_readonly");
  uint64_t start = NowNs();
  FilterNs ns;
  // The first pass warms caches and the allocator; only the second counts.
  for (int pass = 0; pass < 2; ++pass) {
    TransformTimers timers;
    ValueList stage = lines;
    for (const eden::TransformFactory& factory : Chain(figure, &timers)) {
      std::unique_ptr<eden::Transform> transform = factory();
      ValueList next;
      next.reserve(stage.size());
      for (const Value& item : stage) {
        transform->OnItem(item, [&next](std::string_view, Value v) {
          next.push_back(std::move(v));
        });
      }
      stage = std::move(next);
    }
    if (stage.size() != lines.size()) {  // every BenchLines-style line has '='
      (*ctx.failures)++;
    }
    ns = {timers.NsPerCall("grep"), timers.NsPerCall("upper"), timers.NsPerCall("nl")};
  }
  Finish(ctx, "probe.filters.direct", start, NowNs(), 0, 1);
  return ns;
}

ObserverCosts ObserverProbe(uint64_t seed, int repeats, const ProbeContext& ctx) {
  const WorkloadSpec& spec = *FindWorkload("wide_observed");
  const int shards = ShardsFor(spec);
  struct Config {
    std::string name;
    InstrumentSet set;
    std::vector<double> run_s;
  };
  std::vector<Config> configs = {
      {"bare", {}, {}},
      {"metrics", {.metrics = true}, {}},
      {"trace", {.trace = true}, {}},
      {"monitor", {.monitor = true}, {}},
      {"telemetry", {.telemetry = true}, {}},
      {"profiler", {.profiler = true}, {}},
      {"auditor", {.auditor = true}, {}},
      {"all", InstrumentSet::All(), {}},
  };
  std::vector<ValueList> inputs = MakeInputs(spec, seed);
  Reference ref = MakeReference(spec, seed, inputs);
  ObserverCosts costs;
  uint64_t events = 0;
  uint64_t start = NowNs();
  for (int r = 0; r < repeats; ++r) {
    // Rotate the order so slow drift of the host does not favour one config.
    for (size_t k = 0; k < configs.size(); ++k) {
      Config& config = configs[(k + static_cast<size_t>(r)) % configs.size()];
      Built built = Build(spec, inputs, shards, config.set);
      Outcome outcome = Run(built);
      costs.verdict.Merge(Check(spec, ref, built, outcome));
      config.run_s.push_back(outcome.run_s);
      events = outcome.delta.events_processed;
    }
  }
  Finish(ctx, "probe.observers", start, NowNs(), 0, 1);
  // Fastest of the repeats, as for the end-to-end data/s: interference on
  // a shared host only ever slows a run down.
  auto fastest = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  double bare = fastest(configs.front().run_s);
  for (const Config& config : configs) {
    if (config.name == "bare") {
      continue;
    }
    double run_s = fastest(config.run_s);
    if (config.name == "all") {
      costs.overhead_ratio = run_s / bare;  // same data, so a data/s ratio
    } else {
      costs.ns_per_event.emplace_back(
          config.name, (run_s - bare) * 1e9 / static_cast<double>(events));
    }
  }
  return costs;
}

}  // namespace perfbench
