#include "perfbench/oracle.h"

#include <utility>

namespace perfbench {

namespace {

// Exact invocation count and virtual time of a whole run, recorded from a
// 1-shard run. The determinism contract makes both independent of the shard
// count; a change to either is a change to the protocol, not to its speed.
struct Recorded {
  std::string_view workload;
  uint64_t seed;
  uint64_t invocations;
  eden::Tick virtual_time;
};

constexpr Recorded kRecorded[] = {
    {"fig2_readonly", kDefaultSeed, 80000, 4532532},
    {"fig2_readonly", kHeldOutSeed, 80000, 4532517},
    {"fig1_conventional", kDefaultSeed, 160006, 9028379},
    {"fig1_conventional", kHeldOutSeed, 160006, 9028181},
    {"wide_sharded", kDefaultSeed, 328004, 19463},
    {"wide_sharded", kHeldOutSeed, 328012, 19463},
    {"wide_observed", kDefaultSeed, 81960, 19463},
    {"wide_observed", kHeldOutSeed, 82008, 19463},
};

// grep = | upper | nl, written without the src/filters code.
std::vector<std::string> FigureReference(const eden::ValueList& input) {
  std::vector<std::string> out;
  int64_t number = 0;
  for (const eden::Value& item : input) {
    std::string line = item.StrOr("");
    if (line.find('=') == std::string::npos) {
      continue;
    }
    for (char& c : line) {
      if (c >= 'a' && c <= 'z') {
        c = static_cast<char>(c - 'a' + 'A');
      }
    }
    out.push_back(std::to_string(++number) + "\t" + line);
  }
  return out;
}

}  // namespace

void Verdict::Merge(const Verdict& other) {
  attempted += other.attempted;
  failed += other.failed;
  findings.insert(findings.end(), other.findings.begin(), other.findings.end());
}

Reference MakeReference(const WorkloadSpec& spec, uint64_t seed,
                        const std::vector<eden::ValueList>& inputs) {
  Reference ref;
  const uint64_t hops = static_cast<uint64_t>(spec.depth) + 1;
  const uint64_t per_hop = spec.discipline == eden::Discipline::kConventional ? 2 : 1;
  for (const eden::ValueList& input : inputs) {
    if (spec.shape == Shape::kFigure) {
      ref.outputs.push_back(FigureReference(input));
    } else {
      std::vector<std::string> copy;
      for (const eden::Value& item : input) {
        copy.push_back(item.StrOr(""));
      }
      ref.outputs.push_back(std::move(copy));
    }
    // grep = keeps every BenchLines-style line, so m is the same on every hop.
    const uint64_t m = input.size();
    ref.min_invocations += per_hop * hops * m;
    ref.max_invocations += per_hop * hops * (m + 1);
  }
  for (const Recorded& r : kRecorded) {
    if (r.workload == spec.name && r.seed == seed && r.invocations != 0) {
      ref.invocations = r.invocations;
      ref.virtual_time = r.virtual_time;
    }
  }
  return ref;
}

Verdict Check(const WorkloadSpec& spec, Reference& ref, Built& built,
              const Outcome& outcome, Inject inject) {
  std::string kernel_finding;
  uint64_t invocations = outcome.delta.invocations_sent + (inject == Inject::kCount ? 1 : 0);
  if (invocations < ref.min_invocations || invocations > ref.max_invocations) {
    kernel_finding = "invocations " + std::to_string(invocations) + " outside [" +
                     std::to_string(ref.min_invocations) + ", " +
                     std::to_string(ref.max_invocations) + "]";
  } else if (ref.invocations.has_value() && invocations != *ref.invocations) {
    kernel_finding = "invocations " + std::to_string(invocations) + " != " +
                     std::to_string(*ref.invocations);
  } else if (ref.virtual_time.has_value() && outcome.virtual_time != *ref.virtual_time) {
    kernel_finding = "virtual time " + std::to_string(outcome.virtual_time) +
                     " != " + std::to_string(*ref.virtual_time);
  } else if (eden::InvariantMonitor* monitor = built.instruments->monitor();
             monitor != nullptr && !monitor->Check().empty()) {
    kernel_finding = std::to_string(monitor->Check().size()) + " monitor violation(s)";
  } else if (eden::verify::ShardRaceAnalyzer* auditor = built.instruments->auditor();
             auditor != nullptr) {
    eden::verify::RunDigest digest = auditor->Digest();
    if (!digest.certified()) {
      kernel_finding = "run digest not certified: " + digest.ToString();
    } else if (ref.digest.has_value()) {
      kernel_finding = eden::verify::RunDigest::Compare(*ref.digest, digest);
    }
  }
  if (!ref.invocations.has_value()) {
    ref.invocations = invocations;
    ref.virtual_time = outcome.virtual_time;
  }

  Verdict verdict;
  for (size_t p = 0; p < built.handles.size(); ++p) {
    verdict.attempted++;
    std::string finding = kernel_finding;
    const eden::ValueList& got = built.handles[p].output();
    const std::vector<std::string>& want = ref.outputs[p];
    if (finding.empty() && got.size() != want.size()) {
      finding = "pipeline " + std::to_string(p) + ": " + std::to_string(got.size()) +
                " items, want " + std::to_string(want.size());
    }
    for (size_t i = 0; finding.empty() && i < got.size(); ++i) {
      const std::string* line = got[i].AsStr();
      bool corrupt = inject == Inject::kOutput && p == 0 && i == 0;
      if (line == nullptr || corrupt || *line != want[i]) {
        finding = "pipeline " + std::to_string(p) + " item " + std::to_string(i) +
                  " differs from the reference";
      }
    }
    if (!finding.empty()) {
      verdict.failed++;
      if (verdict.findings.size() < 4) {
        verdict.findings.push_back(std::string(spec.name) + ": " + finding);
      }
    }
  }
  return verdict;
}

}  // namespace perfbench
