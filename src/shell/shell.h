// EdenShell: a command language for wiring read-only transput pipelines.
//
// A command is a pipeline:    SOURCE | FILTER ... | SINK
//
// Sources:
//   echo 'line' ...          literal lines
//   cat NAME                 read the bound Eject NAME (file, source, ...)
//   unixfs PATH              bootstrap NewStream from the host file system (§7)
//   random SEED N            N deterministic pseudo-random lines
//   clock                    infinite virtual-time ticks (pair with head)
//   cmp A B                  compare two bound streams (§5 fan-in)
//   merge A B [C...]         round-robin merge of bound streams (fan-in)
//   sed CMDS TEXT            stream editor: command input + text input (§5)
//
// Filters: any name from src/filters/registry.h, e.g.
//   strip C | grep foo | paginate 60 'title' | nl | report 10 copy
//
// Sinks:
//   collect                  gather the stream; returned in Result.output
//   terminal [NAME]          pump onto a (named) terminal screen
//   printer [NAME]           print onto a (named) printer
//   tofile NAME              a bound FileEject *absorbs* the stream (§4's
//                            "file opened for output" performing the reads)
//   usestream PATH           bootstrap UseStream into the host fs (§7)
//   null [N]                 discard (at most N) items
//
// Redirection: a filter stage may carry  report>WIN  which attaches the
// named ReportWindow to that stage's "report" channel — the read-only
// channel-identifier discipline of Figure 4.
//
// The shell resolves names through its binding table; Bind() enters any
// Eject. "From the point of view of an Eject trying to perform a Lookup
// operation, any Eject which responds in the appropriate way is a
// satisfactory directory" (§2) — the binding table is just a local
// directory.
#ifndef SRC_SHELL_SHELL_H_
#define SRC_SHELL_SHELL_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/devices/devices.h"
#include "src/eden/kernel.h"
#include "src/eden/metrics.h"
#include "src/eden/monitor.h"
#include "src/eden/profile.h"
#include "src/eden/slo.h"
#include "src/eden/telemetry.h"
#include "src/eden/trace.h"
#include "src/eden/verify/lint.h"
#include "src/eden/verify/lockdep.h"
#include "src/eden/verify/shard_audit.h"
#include "src/eden/verify/topology.h"
#include "src/fs/unix_fs.h"

namespace eden {

struct ShellResult {
  bool ok = true;
  std::string error;
  // collect: the stream items; terminal/printer: the screen/pages flattened.
  std::vector<std::string> output;
  // Ejects created while running this command (for census assertions).
  size_t ejects_created = 0;
};

class EdenShell {
 public:
  // host may be null if unixfs/usestream are not used.
  EdenShell(Kernel& kernel, HostFs* host = nullptr);

  // Binds NAME to an Eject for cat/tofile.
  void Bind(const std::string& name, Uid uid) { bindings_[name] = uid; }
  std::optional<Uid> Resolve(const std::string& name) const;

  // Parses and runs one pipeline to completion (bounded by max_events).
  //
  // Besides pipelines, the shell understands observability commands: `stats`,
  // `shards`, `doctor`, `slo`, `lint`, and one instrument table (trace,
  // metrics, monitor, profile, telemetry, lockdep, audit) whose entries all
  // take `on|off|show|json|clear|save FILE`, bare NAME meaning `show`. `help`
  // prints every usage line; OBSERVABILITY.md "Shell commands" documents
  // them. Every pipeline stage is labeled with its command name in the trace
  // recorder, metrics, monitor and telemetry, so charts read "grep" rather
  // than a raw UID.
  ShellResult Run(const std::string& command, uint64_t max_events = 2'000'000);

  // The shell-owned instruments (live across commands; inspectable in tests).
  TraceRecorder& recorder() { return recorder_; }
  MetricsRegistry& metrics() { return metrics_; }
  InvariantMonitor& monitor() { return monitor_; }
  ShardProfiler& profiler() { return profiler_; }
  TelemetrySampler& telemetry() { return telemetry_; }
  SloEngine& slo() { return slo_; }
  verify::LockOrderAnalyzer& lockdep() { return lockdep_; }
  verify::ShardRaceAnalyzer& audit() { return audit_; }
  // The lint report for the last pipeline this shell wired (empty before the
  // first pipeline). Every pipeline is linted as it is built.
  const verify::LintReport& last_lint() const { return last_lint_; }
  const verify::TopologySpec& last_topology() const { return last_topology_; }

  // Named windows/terminals/printers created by previous commands.
  TerminalSink* terminal(const std::string& name);
  PrinterSink* printer(const std::string& name);
  ReportWindow* window(const std::string& name);

 private:
  struct Stage {
    std::string command;
    std::vector<std::string> args;
    std::vector<std::pair<std::string, std::string>> redirects;  // chan -> window
  };

  bool Parse(const std::string& input, std::vector<Stage>& stages,
             std::string& error);
  ReportWindow& WindowOrCreate(const std::string& name);
  // One entry of the instrument table (shell.cc).
  struct Instrument;
  static const std::vector<Instrument>& Instruments();

  // Handles the observability commands; nullopt if `command` is a pipeline.
  std::optional<ShellResult> RunControl(const std::string& command);
  // The generic verbs every instrument shares, plus its extra verb.
  ShellResult RunInstrument(const Instrument& instrument,
                            const std::vector<std::string>& words);
  // Labels `uid` in the trace recorder, metrics, monitor and telemetry.
  void LabelStage(const Uid& uid, const std::string& name);

  // Records the built pipeline as a TopologySpec, lints it, and feeds any
  // errors into the monitor's violation stream (when the monitor is on).
  void LintTopology(verify::TopologySpec topology);

  Kernel& kernel_;
  HostFs* host_;
  UnixFileSystemEject* unixfs_ = nullptr;  // created on first use
  TraceRecorder recorder_;
  MetricsRegistry metrics_;
  InvariantMonitor monitor_;
  ShardProfiler profiler_;
  TelemetrySampler telemetry_;
  SloEngine slo_;
  verify::LockOrderAnalyzer lockdep_;
  verify::ShardRaceAnalyzer audit_;
  verify::TopologySpec last_topology_;
  verify::LintReport last_lint_;
  bool have_topology_ = false;
  std::map<std::string, Uid> bindings_;
  std::map<std::string, TerminalSink*> terminals_;
  std::map<std::string, PrinterSink*> printers_;
  std::map<std::string, ReportWindow*> windows_;
};

}  // namespace eden

#endif  // SRC_SHELL_SHELL_H_
