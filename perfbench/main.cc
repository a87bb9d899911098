// perfbench: one benchmark for the Eden transput system.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans PATH] [--inject none|output|count]
//
// --trace 0 measures the end-to-end metrics: it repeats set-up and run of
// the workload for --seconds and reports the fastest rep's data/s and the
// median set-up time. --trace 1 measures the per-layer metrics by timing,
// from outside, the calls the benchmark makes into each layer. Every run
// goes through the oracle (oracle.h). The last line of standard output is
// one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it records the host. See README.md for the metric map.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/eden/analysis.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  int trace = 0;
  std::string spans;
  Inject inject = Inject::kNone;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--inject") {
      if (value == "output") {
        args.inject = Inject::kOutput;
      } else if (value == "count") {
        args.inject = Inject::kCount;
      } else if (value != "none") {
        std::fprintf(stderr, "perfbench: unknown --inject %s\n", value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "perfbench: %s wants a number, got '%s'\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadSpec& spec : Workloads()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()), spec.name.data());
    }
    std::fputc('\n', stderr);
    return false;
  }
  if (args.seconds < 1 || (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1\n");
    return false;
  }
  return true;
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
  return false;
#endif
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The host record, one JSON line before the result.
void PrintHost(const Args& args, const WorkloadSpec& spec, size_t reps) {
  std::printf(
      "{\"host\": {\"nproc\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"optimized\": %s, \"shards\": %d, \"seed\": %" PRIu64
      ", \"workload\": \"%.*s\", \"trace\": %d, \"seconds\": %d, \"reps\": %zu}}\n",
      HostCpus(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, Optimized() ? "true" : "false",
      ShardsFor(spec), args.seed, static_cast<int>(spec.name.size()), spec.name.data(),
      args.trace, args.seconds, reps);
  if (!Optimized()) {
    std::fprintf(stderr,
                 "perfbench: UNOPTIMISED build (%s): no performance claim may rest "
                 "on these figures\n",
                 PERFBENCH_BUILD_TYPE);
  }
}

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  for (const std::string& finding : verdict.findings) {
    std::fprintf(stderr, "perfbench: oracle: %s\n", finding.c_str());
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              verdict.failed == 0 ? "true" : "false", verdict.attempted, verdict.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Rotates the calling thread over the CPUs the process may run on, and
// restores the full set when it goes. A 1-shard workload runs entirely on
// this thread; rotating its reps over the CPUs keeps one CPU whose core is
// busy with other work from holding down a whole run.
class CpuRotation {
 public:
  CpuRotation() { valid_ = sched_getaffinity(0, sizeof(all_), &all_) == 0; }
  ~CpuRotation() {
    if (valid_) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins the thread to the n-th allowed CPU, modulo their count.
  void PinTo(size_t n) {
    if (!valid_) {
      return;
    }
    int target = static_cast<int>(n % static_cast<size_t>(CPU_COUNT(&all_)));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_) && target-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
      }
    }
  }

 private:
  cpu_set_t all_;
  bool valid_ = false;
};

InstrumentSet WorkloadInstruments(const WorkloadSpec& spec) {
  return spec.observed ? InstrumentSet::All() : InstrumentSet{};
}

// wide_observed's reference certificate: the same workload on one shard.
void CertifyOneShard(const WorkloadSpec& spec, const std::vector<eden::ValueList>& inputs,
                     Reference& ref, Verdict& verdict, Inject inject) {
  Built built = Build(spec, inputs, 1, WorkloadInstruments(spec));
  Outcome outcome = Run(built);
  verdict.Merge(Check(spec, ref, built, outcome, inject));
  ref.digest = built.instruments->auditor()->Digest();
}

// ---- --trace 0: end-to-end metrics.
int EndToEnd(const Args& args, const WorkloadSpec& spec) {
  const int shards = ShardsFor(spec);
  std::vector<eden::ValueList> inputs = MakeInputs(spec, args.seed);
  Reference ref = MakeReference(spec, args.seed, inputs);
  Verdict verdict;
  if (spec.observed) {
    CertifyOneShard(spec, inputs, ref, verdict, args.inject);
  }
  // Warm-up reps fill the heap and caches; they are checked, not timed.
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(args.seconds) * 1'000'000'000ULL;
  do {
    Built built = Build(spec, inputs, shards, WorkloadInstruments(spec));
    verdict.Merge(Check(spec, ref, built, Run(built), args.inject));
  } while (NowNs() - start < budget / 10);
  constexpr size_t kMinReps = 5;
  constexpr size_t kMinSetups = 15;
  std::vector<double> rates;
  std::vector<double> setups;
  {
    CpuRotation rotation;
    while (rates.size() < kMinReps || NowNs() - start < budget) {
      if (shards == 1) {
        rotation.PinTo(rates.size());
      }
      Built built = Build(spec, inputs, shards, WorkloadInstruments(spec));
      Outcome outcome = Run(built);
      verdict.Merge(Check(spec, ref, built, outcome, args.inject));
      rates.push_back(outcome.data_per_s());
      setups.push_back(built.setup_s);
      std::fprintf(stderr, "perfbench: rep %zu: %.6g data/s, set-up %.6g s\n", rates.size(),
                   rates.back(), setups.back());
    }
  }
  // Set-up alone is cheap next to a run; top the samples up so its median
  // rests on enough of them.
  while (setups.size() < kMinSetups) {
    setups.push_back(Build(spec, inputs, shards, WorkloadInstruments(spec)).setup_s);
  }
  std::fprintf(stderr, "perfbench: %.*s seed %" PRIu64 ": invocations %" PRIu64
               ", virtual time %" PRId64 "\n",
               static_cast<int>(spec.name.size()), spec.name.data(), args.seed,
               ref.invocations.value_or(0), ref.virtual_time.value_or(0));
  PrintHost(args, spec, rates.size());
  // The fastest rep: interference from other work on the host only ever
  // slows a rep down, so it is the steadiest estimate of the program's speed.
  PrintResult(verdict, {
                           {"data_per_s", *std::max_element(rates.begin(), rates.end()),
                            "data/s"},
                           {"setup_s", Median(setups), "s"},
                           {"peak_rss_mb", PeakRssMiB(), "MiB"},
                       });
  return 0;
}

// ---- --trace 1: per-layer metrics.

struct StepStats {
  double p50 = 0;
  double p99 = 0;
  double mean = 0;
};

// Step times are whole nanoseconds, so a plain order statistic repeats
// from run to run; each percentile is the mean of the 1% band around it.
double BandMean(const std::vector<uint32_t>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  size_t lo = static_cast<size_t>(std::max(0.0, (q - 0.005) * n));
  size_t hi = std::min(sorted.size(), static_cast<size_t>((q + 0.005) * n) + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(hi - lo);
}

StepStats Summarize(std::vector<uint32_t> step_ns, const Outcome& outcome) {
  StepStats stats;
  if (step_ns.empty()) {
    return stats;
  }
  std::sort(step_ns.begin(), step_ns.end());
  stats.p50 = BandMean(step_ns, 0.50);
  stats.p99 = BandMean(step_ns, 0.99);
  stats.mean = outcome.run_s * 1e9 / static_cast<double>(step_ns.size());
  return stats;
}

// Builds `spec` on one shard with `set` installed and replays it Step by Step.
StepStats ReplayWorkload(const WorkloadSpec& spec, uint64_t seed, InstrumentSet set,
                         SpanLog& log, int parent, Verdict& verdict, Inject inject) {
  std::vector<eden::ValueList> inputs = MakeInputs(spec, seed);
  Reference ref = MakeReference(spec, seed, inputs);
  Built built = Build(spec, std::move(inputs), 1, set);
  std::vector<uint32_t> step_ns;
  step_ns.reserve(2'000'000);
  int span = log.Begin("replay." + std::string(spec.name), parent);
  Outcome outcome = Replay(built, step_ns, log, span);
  log.End(span);
  verdict.Merge(Check(spec, ref, built, outcome, inject));
  return Summarize(std::move(step_ns), outcome);
}

int Traced(const Args& args, const WorkloadSpec& spec) {
  const int shards = ShardsFor(spec);
  const InstrumentSet set = WorkloadInstruments(spec);
  SpanLog log;
  const int root = log.Begin("traced." + std::string(spec.name));
  std::vector<eden::ValueList> inputs = MakeInputs(spec, args.seed);
  Reference ref = MakeReference(spec, args.seed, inputs);
  Verdict verdict;
  std::vector<Metric> m;

  // Probes count as one attempt each; a wrong result fails the attempt.
  auto probe = [&](const std::function<double(const ProbeContext&)>& fn) {
    uint64_t wrong = 0;
    double ns = fn(ProbeContext{&log, root, &wrong});
    verdict.attempted++;
    if (wrong != 0) {
      verdict.failed++;
      verdict.findings.push_back("a probe returned " + std::to_string(wrong) +
                                 " wrong result(s)");
    }
    return ns;
  };

  if (spec.observed) {
    int span = log.Begin("certify.one_shard", root);
    CertifyOneShard(spec, inputs, ref, verdict, args.inject);
    log.End(span);
  }

  // Untraced passes: the baseline for the tracing overhead and the speedup.
  // The faster of two counts; the first also warms the heap for the rest.
  double untraced_rate = 0;
  double untraced_events_per_s = 0;
  for (int pass = 0; pass < 2; ++pass) {
    Built built = Build(spec, inputs, shards, set);
    Outcome outcome = Run(built);
    verdict.Merge(Check(spec, ref, built, outcome, args.inject));
    if (outcome.data_per_s() > untraced_rate) {
      untraced_rate = outcome.data_per_s();
      untraced_events_per_s =
          static_cast<double>(outcome.delta.events_processed) / outcome.run_s;
    }
  }

  // Traced pass: transforms timed, shard profiler installed.
  TransformTimers timers;
  InstrumentSet traced_set = set;
  traced_set.profiler = true;
  int setup_span = log.Begin("setup", root);
  Built built = Build(spec, inputs, shards, traced_set, &timers);
  log.End(setup_span);
  int run_span = log.Begin("run", root);
  Outcome outcome = Run(built);
  log.End(run_span);
  timers.AddSpans(log, run_span);
  verdict.Merge(Check(spec, ref, built, outcome, args.inject));
  const double data = static_cast<double>(outcome.data);

  uint64_t cross = 0, windows = 0, stalls = 0, high_water = 0;
  for (const eden::ShardCounters& c : built.kernel->shard_counters()) {
    cross += c.cross_shard_sends;
    windows = std::max(windows, c.windows);
    stalls += c.lookahead_stalls;
    high_water = std::max(high_water, c.mailbox_high_water);
  }
  uint64_t drain = 0, execute = 0, stall = 0, barrier = 0;
  for (const eden::ShardProfiler::ShardProfile& p : built.instruments->profiler()->Snapshot()) {
    drain += p.drain_ns;
    execute += p.execute_ns;
    stall += p.stall_ns;
    barrier += p.barrier_ns;
  }
  const double phases = static_cast<double>(drain + execute + stall + barrier);
  eden::ParallelVerdict parallel = eden::DiagnoseParallel(*built.instruments->profiler());
  size_t ejects = 0;
  for (const eden::PipelineHandle& handle : built.handles) {
    ejects += handle.eject_count();
  }
  const eden::Stats& d = outcome.delta;

  // Kernel and stream probes, against this workload's registry.
  const int probe_lines = 5000;
  eden::ValueList lines;
  for (const eden::ValueList& input : inputs) {
    for (const eden::Value& line : input) {
      if (static_cast<int>(lines.size()) < probe_lines) {
        lines.push_back(line);
      }
    }
  }
  if (!MakeSequentialAndBare(*built.kernel)) {
    verdict.Fail("kernel refused to re-partition to one shard for the probes");
  }
  double resume = probe([&](const ProbeContext& c) { return ResumeNs(*built.kernel, 20000, c); });
  double rtt_same = probe([&](const ProbeContext& c) {
    return InvokeRttNs(*built.kernel, false, 10000, c);
  });
  double rtt_cross = probe([&](const ProbeContext& c) {
    return InvokeRttNs(*built.kernel, true, 10000, c);
  });
  double transfer = probe([&](const ProbeContext& c) {
    return TransferNs(*built.kernel, lines, c);
  });
  double push = probe([&](const ProbeContext& c) { return PushNs(*built.kernel, lines, c); });
  double args_ns = probe([&](const ProbeContext& c) { return ArgsNs(200000, c); });

  // Sequential replays: this workload, and the two topologies the ratio
  // compares when this workload is not one of them.
  StepStats own = ReplayWorkload(spec, args.seed, set, log, root, verdict, args.inject);
  auto mean_for = [&](std::string_view name) {
    if (name == spec.name) {
      return own.mean;
    }
    return ReplayWorkload(*FindWorkload(name), args.seed, {}, log, root, verdict,
                          args.inject)
        .mean;
  };
  double topology_ratio = Ratio(mean_for("wide_sharded"), mean_for("fig2_readonly"));

  double speedup = 1;
  if (shards > 1) {
    Built one = Build(spec, inputs, 1, set);
    int span = log.Begin("run.one_shard", root);
    Outcome one_outcome = Run(one);
    log.End(span);
    verdict.Merge(Check(spec, ref, one, one_outcome, args.inject));
    speedup = untraced_rate / one_outcome.data_per_s();
  }

  FilterNs filters;
  if (spec.shape == Shape::kFigure) {
    filters = {timers.NsPerCall("grep"), timers.NsPerCall("upper"), timers.NsPerCall("nl")};
  } else {
    probe([&](const ProbeContext& c) {
      filters = DirectFilterNs(lines, c);
      return 0.0;
    });
  }

  ObserverCosts observers;
  probe([&](const ProbeContext& c) {
    observers = ObserverProbe(args.seed, 2, c);
    return 0.0;
  });
  verdict.Merge(observers.verdict);
  log.End(root);

  m.push_back({"kernel.events", static_cast<double>(d.events_processed), "count"});
  m.push_back({"kernel.events_per_s", untraced_events_per_s, "1/s"});
  m.push_back({"kernel.event_ns.p50", own.p50, "ns"});
  m.push_back({"kernel.event_ns.p99", own.p99, "ns"});
  m.push_back({"kernel.event_ns.topology_ratio", topology_ratio, "ratio"});
  m.push_back({"kernel.resume_ns", resume, "ns"});
  m.push_back({"kernel.invoke_rtt_ns.same_node", rtt_same, "ns"});
  m.push_back({"kernel.invoke_rtt_ns.cross_node", rtt_cross, "ns"});
  m.push_back({"kernel.invocations_per_datum",
               Ratio(static_cast<double>(d.invocations_sent), data), "count"});
  m.push_back({"kernel.switches_per_datum",
               Ratio(static_cast<double>(d.context_switches), data), "count"});
  m.push_back({"kernel.services_coalesced_ratio",
               Ratio(static_cast<double>(d.services_coalesced),
                     static_cast<double>(d.services_run + d.services_coalesced)),
               "ratio"});
  m.push_back({"shards.cross_shard_sends", static_cast<double>(cross), "count"});
  m.push_back({"shards.windows", static_cast<double>(windows), "count"});
  m.push_back({"shards.stalls", static_cast<double>(stalls), "count"});
  m.push_back({"shards.mailbox_high_water", static_cast<double>(high_water), "count"});
  m.push_back({"shards.speedup", speedup, "ratio"});
  m.push_back({"shards.barrier_wait_share", Ratio(static_cast<double>(barrier), phases),
               "ratio"});
  m.push_back({"shards.execute_share",
               phases > 0 ? static_cast<double>(execute) / phases : 1.0, "ratio"});
  m.push_back({"shards.imbalance_pct", parallel.valid ? parallel.imbalance_pct : 0.0, "%"});
  m.push_back({"stream.transfer_ns", transfer, "ns"});
  m.push_back({"stream.push_ns", push, "ns"});
  m.push_back({"pipeline.build_us_per_eject",
               Ratio(built.setup_s * 1e6, static_cast<double>(ejects)), "us"});
  m.push_back({"filters.grep.on_item_ns", filters.grep, "ns"});
  m.push_back({"filters.upper.on_item_ns", filters.upper, "ns"});
  m.push_back({"filters.nl.on_item_ns", filters.nl, "ns"});
  m.push_back({"filters.share",
               Ratio(static_cast<double>(timers.TotalNs()), outcome.run_s * 1e9 * shards),
               "ratio"});
  m.push_back({"value.args_ns", args_ns, "ns"});
  for (const auto& [name, ns] : observers.ns_per_event) {
    m.push_back({"observe." + name + ".ns_per_event", ns, "ns"});
  }
  m.push_back({"observe.overhead_ratio", observers.overhead_ratio, "ratio"});
  m.push_back({"trace.overhead_ratio", Ratio(untraced_rate, outcome.data_per_s()), "ratio"});

  if (!args.spans.empty() && !log.WriteJson(args.spans)) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args.spans.c_str());
  }
  PrintHost(args, spec, 1);
  PrintResult(verdict, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    return 2;
  }
  const perfbench::WorkloadSpec& spec = *perfbench::FindWorkload(args.workload);
  return args.trace == 1 ? perfbench::Traced(args, spec) : perfbench::EndToEnd(args, spec);
}
