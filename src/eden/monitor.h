// InvariantMonitor: an online checker for the paper's arithmetic identities.
//
// The paper's claims are conservation laws: every datum a stage consumes
// arrived on some wire, every datum it delivers was produced by it, the
// read-only discipline moves m items in exactly (n+1)(m+1) Transfers (§4),
// and sequenced channels never move their seq/ack marks backwards. The
// monitor is installed like the tracer and metrics registry — an optional
// kernel hook with a one-pointer-test fast path when unset — and verifies
// these identities while the pipeline runs, so a violated invariant names
// the guilty stage at the tick it went wrong instead of surfacing as a
// mysterious hang later.
//
// Two feeds converge here:
//   - the kernel forwards every TraceEvent (invoke/reply/drop/timeout/crash),
//     from which the monitor checks span-tree well-formedness (no cycles, no
//     forward parent references — the monitor sees *all* events, so unlike
//     the ring-buffered TraceRecorder a missing parent is a real defect) and
//     counts invocations per op for the (n+1)(m+1) identity;
//   - the stream primitives report item movements (produced, served, pushed,
//     pulled, accepted, consumed) and sequence-counter advances, from which
//     the monitor checks per-stage flow conservation and, at quiescence, the
//     wire conservation `items sent over edge == items received over edge`.
//
// Counting is *fresh-only*: replayed/redelivered items (sequenced recovery)
// are excluded by every reporting site, so retries account exactly once and
// a run with retries still balances. Crash/restore runs replace writer or
// reader instances mid-stream and are outside the exact-balance guarantee —
// don't assert `ok()` on runs that crash stages (the trace records those
// crashes; the monitor keeps counting but conservation may legitimately
// fail, which is precisely what makes a *silent* loss detectable in runs
// that are supposed to be loss-free).
//
// Inline violations (span-tree, sequence regressions, impossible flows) are
// appended to `violations()` as they happen and optionally emitted into a
// trace sink as kViolation events; `Check()` re-derives the end-of-run
// conservation and expectation checks on top, without mutating state, so
// the shell can call it repeatedly.
//
// Threading: the two feeds follow the kernel's two observation paths.
//   - The stream-primitive feed is commutative per-stage accounting. Each
//     stage is an Eject on one shard, so its flows, band flows, edges and
//     sequence marks are written by that shard alone: they live in the
//     calling shard's PerShard slot (per_shard.h) and take no lock. Reads
//     (flows(), Check(), ToString(), ToValue()) merge the slots; they are
//     for quiescent moments.
//   - The trace feed (span-tree check, per-op invocation counts) and every
//     reported violation are order-sensitive. They run single-threaded, on
//     the kernel's ordered observation merge: an inline violation raised on
//     a shard worker is queued through Kernel::EmitInOrder, so
//     `violations()` and the kViolation trace lines come out in EventKey
//     order, byte-identical at any shard count.
#ifndef SRC_EDEN_MONITOR_H_
#define SRC_EDEN_MONITOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/per_shard.h"
#include "src/eden/trace.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class InvariantMonitor {
 public:
  struct Violation {
    enum class Kind {
      kFlowConservation,   // items lost or duplicated on a wire/stage
      kInvocationCount,    // an ExpectInvocations identity failed
      kSpanTree,           // orphan parent / cycle in the causal tree
      kSequence,           // a seq/ack counter moved backwards
      kStatic,             // a lint finding from the verification layer
      kSlo,                // an SLO rule fired over a telemetry series
      kShardRace,          // the determinism auditor caught a cross-shard
                           // ordering breach (happens-before violation)
    };
    Kind kind = Kind::kFlowConservation;
    Tick at = 0;
    Uid stage;  // nil when not attributable to one Eject
    std::string detail;
  };

  // Per-stage item accounting (fresh items only; see file comment).
  struct Flow {
    uint64_t produced = 0;  // items the stage wrote into its output primitive
    uint64_t served = 0;    // items delivered to consumers via Transfer reply
    uint64_t pushed = 0;    // items sent downstream via Push
    uint64_t pulled = 0;    // items ingested from an upstream server
    uint64_t accepted = 0;  // items accepted from an upstream pusher
    uint64_t consumed = 0;  // items the stage's own logic took from buffers
    uint64_t putback = 0;   // items returned to a buffer after being taken
  };

  // Per-band accounting for banded (acceptor-side) queues: every take and
  // put-back is charged to the band it happened on, so the bands provably
  // drop nothing — a band that hands out more than arrived (net of
  // put-backs) is caught inline.
  struct BandFlow {
    uint64_t accepted = 0;  // items accepted into this band
    uint64_t taken = 0;     // items the owner took from this band
    uint64_t putback = 0;   // items returned to the front of this band
  };

  InvariantMonitor() = default;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // ---- Kernel feed (installed via Kernel::set_monitor): the merged,
  // ordered trace stream.
  void OnTraceEvent(const TraceEvent& event);

  // ---- Stream-primitive feed. Callers gate on kernel().monitor() so the
  // uninstalled fast path stays one pointer test. `at` is kernel().now() —
  // passed in so the monitor needs no back-pointer to the kernel. Each call
  // records into the calling shard's slot (see the file comment).
  void OnProduced(const Uid& stage, Tick at, uint64_t items);
  void OnServed(const Uid& stage, Tick at, uint64_t items);
  void OnPushed(const Uid& stage, const Uid& sink, Tick at, uint64_t items);
  void OnPulled(const Uid& stage, const Uid& source, Tick at, uint64_t items);
  // `band` >= 0 additionally charges a banded queue (acceptors); pass the
  // default -1 from unbanded sites (readers consuming pulled items).
  void OnAccepted(const Uid& stage, Tick at, uint64_t items, int band = -1);
  void OnConsumed(const Uid& stage, Tick at, uint64_t items, int band = -1);
  // A put-back (STREAMS putbq): `items` previously reported via OnConsumed
  // returned to the front of their queue and will be consumed again. Nets
  // out of the conservation checks instead of counting twice.
  void OnPutBack(const Uid& stage, Tick at, uint64_t items, int band = -1);
  // Monotonicity check for a named per-stage counter (server next/ack,
  // acceptor next, writer ack). Violation if `value` regresses.
  void OnSequence(const Uid& stage, Tick at, std::string_view counter,
                  uint64_t value);
  // ---- Static-verification feed. The PipelineLinter's error findings join
  // the violation stream here (kind kStatic), so one `monitor` report and
  // one kViolation trace carry both the runtime and the static story.
  void OnStaticFinding(Tick at, const Uid& stage, std::string detail);
  // ---- SLO feed. A fired alert rule (slo.h) joins the violation stream as
  // kind kSlo: `at` is the end tick of the window that completed the
  // sustain streak; `stage` is usually nil (rules watch global series).
  // The SLO engine traces the firing itself, so it is not traced again here.
  void OnSloViolation(Tick at, const Uid& stage, std::string detail);
  // ---- Determinism-audit feed. The ShardRaceAnalyzer's happens-before
  // breaches join the violation stream as kind kShardRace: `at` is the
  // offending event's virtual time; `stage` is nil (the breach belongs to
  // the shard schedule, not to one Eject). Traced by the analyzer, not here.
  void OnShardRace(Tick at, const Uid& stage, std::string detail);

  // ---- Expectations, checked by Check().
  // Exactly `count` invocations of `op` by the end of the run.
  void ExpectInvocations(std::string op, uint64_t count);
  // The §4 identity: a read-only pipeline of n filters moving m items costs
  // (n+1)(m+1) Transfers. Sugar over ExpectInvocations.
  void ExpectReadOnlyPipeline(uint64_t filters, uint64_t items);

  // ---- Results.
  // Inline violations recorded so far (span-tree, sequence, impossible
  // flows) — grows while the run executes.
  const std::vector<Violation>& violations() const { return violations_; }
  // Inline violations plus the end-of-run checks (wire conservation per
  // edge, invocation-count expectations). Non-mutating and idempotent;
  // meaningful once the kernel is quiescent.
  std::vector<Violation> Check() const;
  bool ok() const { return Check().empty(); }

  // Merged over the shard slots; the reference stays valid, and its
  // contents current as of this call, until the next flows()/band_flows().
  const std::map<Uid, Flow>& flows() const;
  const std::map<std::pair<Uid, int>, BandFlow>& band_flows() const;
  uint64_t invocations_of(std::string_view op) const;

  // Violations are also emitted as TraceEvent::Kind::kViolation into this
  // sink (e.g. a TraceRecorder::Hook()) as they are detected; handed-over
  // SLO firings and shard races are not, their engines trace them.
  void set_trace_sink(Tracer sink) { trace_sink_ = std::move(sink); }

  void Label(const Uid& uid, std::string name);
  std::string NameOf(const Uid& uid) const;

  // Flow table + violation list, for the shell and reports.
  std::string ToString() const;
  Value ToValue() const;

  void Clear();

 private:
  struct UidPairHash {
    size_t operator()(const std::pair<Uid, Uid>& key) const {
      return Uid::Hash()(key.first) * 31 + Uid::Hash()(key.second);
    }
  };
  struct BandKeyHash {
    size_t operator()(const std::pair<Uid, int>& key) const {
      return Uid::Hash()(key.first) + static_cast<size_t>(key.second);
    }
  };
  // One shard's stream-primitive accounting.
  struct alignas(64) ShardState {
    std::unordered_map<Uid, Flow, Uid::Hash> flows;
    std::unordered_map<std::pair<Uid, int>, BandFlow, BandKeyHash> band_flows;
    // Wire accounting, recorded by the active end (which knows both parties).
    std::unordered_map<std::pair<Uid, Uid>, uint64_t, UidPairHash>
        pull_edges;  // (server, reader)
    std::unordered_map<std::pair<Uid, Uid>, uint64_t, UidPairHash>
        push_edges;  // (writer, acceptor)
    std::map<std::pair<Uid, std::string>, uint64_t, std::less<>> sequences;
  };
  // The slots folded together, ordered for deterministic reports.
  struct Merged {
    std::map<Uid, Flow> flows;
    std::map<std::pair<Uid, int>, BandFlow> band_flows;
    std::map<Uid, uint64_t> pulled_from;  // per server, over all readers
    std::map<Uid, uint64_t> pushed_into;  // per acceptor, over all writers
  };

  ShardState& Local();
  Merged Merge() const;
  // Queues the violation on the ordered stream (Kernel::EmitInOrder).
  void Report(Violation::Kind kind, Tick at, const Uid& stage,
              std::string detail);
  // Appends it and emits its trace line; single-threaded.
  void Publish(Violation violation);
  std::vector<Violation> CheckMerged(const Merged& merged) const;
  static void Describe(const Violation& violation, Value& out);

  PerShard<ShardState> shards_;
  mutable std::map<Uid, Flow> flows_view_;
  mutable std::map<std::pair<Uid, int>, BandFlow> band_flows_view_;
  // ---- Ordered-stream state (single-threaded; see the file comment).
  std::map<std::string, uint64_t, std::less<>> invocations_by_op_;
  std::map<std::string, uint64_t, std::less<>> expected_invocations_;
  // Last span id seen per origin (an InvocationId's high bits name the node
  // that allocated it — see message.h). Ids are monotone per origin, not
  // globally, so the well-formedness checks track each origin's frontier.
  std::unordered_map<uint64_t, InvocationId> last_span_by_origin_;
  uint64_t events_seen_ = 0;
  std::vector<Violation> violations_;
  Tracer trace_sink_;
  std::map<Uid, std::string> labels_;
};

}  // namespace eden

#endif  // SRC_EDEN_MONITOR_H_
