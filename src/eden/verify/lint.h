// PipelineLinter: static verification of a transput topology before it runs.
//
// The InvariantMonitor (src/eden/monitor.h) catches a broken topology only
// after data has flowed — and some misconfigurations never produce data to
// check (a lazy source nobody pulls simply hangs). The linter is the static
// half of that contract: given a TopologySpec it applies the paper's
// structural rules as a graph pass and reports each breach as a
// LintDiagnostic with a stable rule ID, so activation can be refused with an
// explanation instead of flaking at runtime.
//
// Rules (full rationale per rule in STATIC_ANALYSIS.md):
//   ASC001  read-only fan-out: two readers pull one server channel (§5)
//   ASC002  write-only fan-in: two writers push one acceptor channel (§5)
//   ASC003  cycle in the stream graph (demand/data can never quiesce)
//   ASC004  orphan or unreachable stage (data never arrives or is never
//           observed)
//   ASC005  duplicate capability UID claim (a §5 capability names one
//           stream; two wires sharing it alias each other)
//   ASC006  recovery knob inconsistency (the effective_* gating from the
//           fault-tolerance layer: enabled without a deadline cannot retry;
//           knobs without enabled are silently ignored)
//   ASC007  lazy stage unreachable by demand (§4 start-on-demand needs an
//           active sink pulling through every hop)
//   ASC008  port discipline mismatch at a junction (§3: two active or two
//           passive correspondents cannot move data between them)
//   ASC009  flow-control watermark misconfiguration: lowat above hiwat
//           (producers blocked at hiwat are never released), or a zero-hiwat
//           passive input (every Push is withheld, deadlocking the first
//           datum; a *lazy* zero-hiwat output is legitimate §4 laziness)
//   ASC010  configured lookahead exceeds the cost model's minimum
//           cross-shard message latency on some edge — the sharded kernel
//           would abort the run on the first undercut; caught here before
//           any Eject exists
//   ASC011  shard placement cuts pipeline edges that could be co-located
//           (the default scatter cuts about (k-1)/k of distinct_nodes edges;
//           k shards need only k-1 cuts of a connected chain)
//   ASC012  a larger safe lookahead is derivable from the cost model for a
//           node-to-node topology: the derived default is the conservative
//           invocation-send floor, but every cross-shard edge also pays the
//           inter-node latency (warning carries the computed bound)
//
// ASC010-ASC012 run only when the spec carries concurrency context
// (TopologySpec::has_concurrency, filled by the Kernel-taking plan bridge).
#ifndef SRC_EDEN_VERIFY_LINT_H_
#define SRC_EDEN_VERIFY_LINT_H_

#include <string>
#include <vector>

#include "src/eden/value.h"
#include "src/eden/verify/topology.h"

namespace eden::verify {

enum class Severity { kWarning, kError };

std::string_view SeverityName(Severity severity);

struct LintDiagnostic {
  std::string rule;  // stable ID, "ASC001"...
  Severity severity = Severity::kError;
  Uid stage;               // primary locus (nil = whole-topology finding)
  std::string stage_name;  // resolved for readability
  std::string message;
  std::string fix_hint;

  std::string ToString() const;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;

  size_t error_count() const;
  size_t warning_count() const;
  bool ok() const { return error_count() == 0; }
  bool HasRule(std::string_view rule) const;
  // "ASC001 read-only fan-out at filter2; ASC006 ..." — first few errors,
  // for verdict lines.
  std::string Summary(size_t max_items = 2) const;

  std::string ToString() const;
  Value ToValue() const;
};

class PipelineLinter {
 public:
  // Static description of one rule, for docs and the shell's `lint rules`.
  struct RuleInfo {
    std::string_view id;
    Severity worst;  // severest level the rule can report at
    std::string_view summary;
  };

  PipelineLinter() = default;

  LintReport Lint(const TopologySpec& topology) const;

  static const std::vector<RuleInfo>& Rules();
};

}  // namespace eden::verify

#endif  // SRC_EDEN_VERIFY_LINT_H_
