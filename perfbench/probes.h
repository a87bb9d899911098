// Per-layer probes for the traced run. Each one times calls the benchmark
// makes into one layer's public functions, from outside that layer.
//
// The kernel and stream probes build their own Ejects inside a workload's
// kernel after the workload has run, so every lookup they pay is against
// that workload's Eject registry. They run bare and sequentially (observers
// detached, kernel re-partitioned to one shard): a ping-pong across shard
// workers would time the window barrier, which the shards.* metrics cover.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/oracle.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

// Where a probe records its span and counts operations whose result was
// wrong. The probes that return a double return nanoseconds per operation.
struct ProbeContext {
  SpanLog* log = nullptr;
  int parent = -1;
  uint64_t* failures = nullptr;
};

// Detaches every observer and re-partitions the (quiescent) kernel to one
// shard; false if the kernel refused.
bool MakeSequentialAndBare(eden::Kernel& kernel);

// One resumption of a coroutine looping on Yield().
double ResumeNs(eden::Kernel& kernel, int count, const ProbeContext& ctx);
// One Invoke/Reply between a pinger and an echo Eject.
double InvokeRttNs(eden::Kernel& kernel, bool cross_node, int count,
                   const ProbeContext& ctx);
// One external Transfer of one item from a VectorSource holding `lines`.
double TransferNs(eden::Kernel& kernel, const eden::ValueList& lines,
                  const ProbeContext& ctx);
// One external Push of one item into a PassiveBuffer, drained in between.
double PushNs(eden::Kernel& kernel, const eden::ValueList& lines,
              const ProbeContext& ctx);
// Building Transfer arguments and reading them back through Value::Field.
double ArgsNs(int count, const ProbeContext& ctx);

// grep =, upper and nl called directly over `lines`, each through the same
// timing wrapper the traced pipelines use.
struct FilterNs {
  double grep = 0;
  double upper = 0;
  double nl = 0;
};
FilterNs DirectFilterNs(const eden::ValueList& lines, const ProbeContext& ctx);

// Each instrument installed alone on the wide_observed topology, against a
// bare run of the same topology; each configuration's time is the fastest
// of `repeats` runs. Every run goes through the oracle.
struct ObserverCosts {
  std::vector<std::pair<std::string, double>> ns_per_event;  // per instrument
  double overhead_ratio = 0;  // bare data/s ÷ all-instruments data/s
  Verdict verdict;
};
ObserverCosts ObserverProbe(uint64_t seed, int repeats, const ProbeContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
