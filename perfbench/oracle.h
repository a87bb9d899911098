// Correctness oracle: every run of a workload is checked before its
// timings count.
//
// A pipeline fails when
//  * its sink output differs, byte for byte, from the filters applied to
//    the seeded input outside the kernel (an independent reimplementation,
//    not the src/filters code);
//  * the kernel's invocation count leaves the paper's bounds (every hop
//    moves m items in m or m+1 invocations, the last one carrying the end
//    of the stream when it could not ride on the final items: n+1 hops
//    read-only, 2n+2 conventional);
//  * the invocation count or the run's virtual time differs from the
//    reference: the recorded exact values for the default and held-out
//    seeds, a 1-shard run where the benchmark made one, and otherwise the
//    first run of the process;
//  * an installed InvariantMonitor reports a violation, or an installed
//    ShardRaceAnalyzer's RunDigest is not certified or differs from the
//    1-shard digest.
// A count, virtual-time, monitor or digest failure belongs to the whole
// kernel, so it fails every pipeline of that run.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {

// The default seed, and the seed held out for checking later claims.
inline constexpr uint64_t kDefaultSeed = 83;
inline constexpr uint64_t kHeldOutSeed = 1983;

struct Reference {
  std::vector<std::vector<std::string>> outputs;  // per pipeline
  uint64_t min_invocations = 0;                   // whole kernel, bounds
  uint64_t max_invocations = 0;
  std::optional<uint64_t> invocations;            // whole kernel, exact
  std::optional<eden::Tick> virtual_time;
  std::optional<eden::verify::RunDigest> digest;  // 1-shard certificate
};

Reference MakeReference(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<eden::ValueList>& inputs);

// Deliberate corruption of what the oracle sees, for its self-test.
enum class Inject { kNone, kOutput, kCount };

struct Verdict {
  uint64_t attempted = 0;  // pipelines checked
  uint64_t failed = 0;     // pipelines that failed any check
  std::vector<std::string> findings;

  void Merge(const Verdict& other);
  void Fail(std::string finding) {
    attempted++;
    failed++;
    findings.push_back(std::move(finding));
  }
};

// Checks one finished run. A reference without exact values adopts this
// run's, so later runs of the process must repeat them.
Verdict Check(const WorkloadSpec& spec, Reference& ref, Built& built,
              const Outcome& outcome, Inject inject = Inject::kNone);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
