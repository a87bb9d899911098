// Message tracing: records every invocation and reply as it is sent, so
// tools can render the communication structure the paper's figures draw.
//
// The tracer is an optional kernel hook with zero cost when unset. Every
// invocation is a *span*: its id is the span id, and `parent` names the
// invocation that was being served when it was sent, so the recorded events
// form a causal tree per datum across Transfer/Push chains. The bundled
// renderer produces an ASCII sequence chart (lifelines per Eject, one row
// per message); ChromeTraceExporter (trace_export.h) turns the same events
// into Perfetto-loadable Chrome trace JSON.
#ifndef SRC_EDEN_TRACE_H_
#define SRC_EDEN_TRACE_H_

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/message.h"
#include "src/eden/uid.h"

namespace eden {

struct TraceEvent {
  // kDrop: the fault injector lost the message (from/to are the endpoints of
  // the lost message). kTimeout: an invocation deadline fired at the caller
  // before any reply arrived. kCrash: an Eject's volatile state vanished
  // (from == to == the victim; op is its type name). kViolation: an
  // InvariantMonitor check failed (from == to == the guilty stage, or nil;
  // op carries the violation description).
  enum class Kind { kInvoke, kReply, kDrop, kTimeout, kCrash, kViolation };
  Kind kind = Kind::kInvoke;
  Tick at = 0;
  Uid from;  // nil = external driver
  Uid to;
  std::string op;       // invocations and crashes only
  InvocationId id = 0;  // the span id; matches a reply to its invocation
  // The invocation the sender was serving when this message left (0 = root:
  // sent from an external driver or a process outside any serving context).
  InvocationId parent = 0;
  bool ok = true;       // replies only
};

using Tracer = std::function<void(const TraceEvent&)>;

// Collects events and renders them as an ASCII message-sequence chart.
//
// Memory is bounded: with a nonzero capacity the recorder keeps the most
// recent `capacity` events as a ring, counting what it evicts in
// events_dropped() — long fault-injection runs can trace indefinitely.
//
// Who writes the ring: the kernel fans trace events out from single-threaded
// contexts only (sequential events, or the ordered merge at the window
// barrier of a sharded run), and the per-shard observers never write it from
// a shard worker — the invariant monitor's and the determinism auditor's
// violations travel through that same merge (Kernel::EmitInOrder), so a
// trace is byte-identical at any shard count. Ring writes still take an
// (uncontended) mutex because the lock-order analyzer's sink is fed by sync
// primitives wherever they run. The `events()` reference is for quiescent
// reads — between runs, not during one.
class TraceRecorder {
 public:
  // capacity 0 = unbounded (the classic behaviour).
  explicit TraceRecorder(size_t capacity = 0) : capacity_(capacity) {}

  // The hook to install with Kernel::set_tracer.
  Tracer Hook();

  // Bounds the ring from now on (evicts immediately if already over).
  void set_capacity(size_t capacity);
  size_t capacity() const { return capacity_; }
  // Events evicted by the ring (not by Clear or FilterOps).
  uint64_t events_dropped() const { return events_dropped_; }

  // Names a lifeline (unnamed Ejects render as short UIDs).
  void Label(const Uid& uid, std::string name);
  std::string NameOf(const Uid& uid) const;

  const std::deque<TraceEvent>& events() const { return events_; }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    events_dropped_ = 0;
  }

  // Keep only events whose operation matches one of `ops` (replies follow
  // their invocation's fate).
  void FilterOps(const std::vector<std::string>& ops);

  // ---- Span index: the causal tree over the retained events.
  struct Span {
    InvocationId id = 0;
    InvocationId parent = 0;  // 0 = root
    Uid from;
    Uid to;
    std::string op;
    Tick start = 0;
    Tick end = -1;  // reply (or timeout) time; -1 = still open at capture end
    bool ok = false;
    bool dropped = false;    // the invocation message was lost in flight
    bool timed_out = false;  // the caller's deadline fired first
    // The recorded parent was ring-evicted: the span is re-rooted (parent
    // rewritten to 0) so no link dangles, and flagged so analyses can tell
    // true roots from eviction artifacts.
    bool orphaned = false;
    // Chronological: ascending (start, id). Ids are allocated per origin
    // node (message.h), so id order alone is not time order.
    std::vector<InvocationId> children;
  };

  // Builds the index from the retained events. Ring eviction can orphan a
  // span two ways: a reply whose kInvoke was evicted is skipped entirely,
  // and a span whose *parent* was evicted is kept but re-rooted with
  // `orphaned` set (a dangling parent id would otherwise escape the map).
  std::map<InvocationId, Span> SpanIndex() const;
  // Number of retained invocation (span-opening) events.
  size_t span_count() const;

  // Renders a chart like:
  //     sink          F1         source
  //      |--Transfer-->|            |        t=120
  //      |             |--Transfer-->|       t=240
  //      |             |<- - ok - - -|       t=460
  std::string Render(size_t max_rows = 40) const;

 private:
  mutable std::mutex mu_;
  size_t capacity_ = 0;  // 0 = unbounded
  uint64_t events_dropped_ = 0;
  std::deque<TraceEvent> events_;
  std::map<Uid, std::string> labels_;
};

}  // namespace eden

#endif  // SRC_EDEN_TRACE_H_
