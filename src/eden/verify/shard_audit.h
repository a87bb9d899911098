// ShardRaceAnalyzer: the dynamic half of the cross-shard determinism story.
//
// The sharded kernel (DESIGN.md "Sharded kernel") promises that a run's
// committed event stream is a pure function of the topology — byte-identical
// at any shard count — because (1) every shard's virtual clock is monotone
// over its commits, (2) no cross-shard message arrives before the window promise in
// force when it was staged, and (3) every event commits inside the window
// that admitted it. The analyzer checks exactly those three happens-before
// obligations online, in the logical-clock framework (Aspnes, *Notes on
// Theory of Distributed Systems*): each shard's frontier — the last EventKey
// it committed — is its logical clock, and the window barrier's
// [t_min, window_end) interval is the global cut every commit and delivery
// is checked against.
//
// It rides the kernel's ShardAuditor hook (src/eden/audit.h), nullptr by
// default like the tracer/profiler/telemetry. While installed, a lookahead
// undercut no longer aborts the process: the kernel reports it here and
// clamps the delivery, so the run completes with the violation on record —
// which is how a seeded undercut is caught at runtime without a death test.
//
// Beyond checking, the analyzer *certifies*: every committed (at, origin,
// seq) key is folded into an order-insensitive digest, kept per origin node
// (an origin is a topology fact; the executing shard is not), so the
// certificate a run emits is byte-identical at shards 1, 2, 4 or 8 — and
// two runs of one workload can be compared by certificate instead of by
// diffing full outputs.
#ifndef SRC_EDEN_VERIFY_SHARD_AUDIT_H_
#define SRC_EDEN_VERIFY_SHARD_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/eden/audit.h"
#include "src/eden/per_shard.h"
#include "src/eden/trace.h"
#include "src/eden/value.h"

namespace eden {
class InvariantMonitor;
}

namespace eden::verify {

// One happens-before breach, attributed to the shard that observed it.
struct AuditViolation {
  enum class Kind {
    kWindowUndercut,     // cross-shard send scheduled before the promise
    kNonMonotoneCommit,  // a shard's virtual clock went backwards at commit
    kLateDelivery,       // an event committed before its window's floor
  };
  Kind kind = Kind::kWindowUndercut;
  int shard = 0;       // shard observing the breach
  Tick at = 0;         // offending event's virtual time
  NodeId origin = kNoNode;
  uint64_t seq = 0;
  Tick bound = 0;      // the promise/floor/frontier time it violated

  std::string ToString() const;
};

std::string_view AuditViolationKindName(AuditViolation::Kind kind);

// The determinism certificate: an order-insensitive digest of the committed
// event stream. Per-origin-node sub-digests compose into the merged one by
// wrapping addition, so the certificate is independent of which shard
// executed what — the JSON form deliberately carries no shard count and is
// byte-identical across shard counts for a deterministic workload.
struct RunDigest {
  uint64_t events = 0;
  uint64_t merged = 0;  // wrapping sum of per-event FNV-1a hashes
  // (origin node, {events, digest}) ascending by node; kNoNode = driver.
  struct OriginDigest {
    NodeId node = kNoNode;
    uint64_t events = 0;
    uint64_t digest = 0;
  };
  std::vector<OriginDigest> origins;
  size_t violations = 0;

  bool certified() const { return violations == 0; }

  // Byte-stable certificate JSON (field order fixed, digests as hex).
  std::string ToJson() const;
  std::string ToString() const;

  // "" when the certificates match; otherwise one loud line naming the
  // first mismatching field ("digest mismatch: merged 0x... vs 0x...").
  static std::string Compare(const RunDigest& expect, const RunDigest& actual);
  // The --expect-digest form: checks the merged digest against a pinned hex
  // string (with or without "0x"), and that the run certified at all.
  // "" on match, a loud one-line error otherwise.
  static std::string ExpectDigest(const RunDigest& run,
                                  std::string_view expect_hex);
};

class ShardRaceAnalyzer : public ShardAuditor {
 public:
  ShardRaceAnalyzer() = default;
  ShardRaceAnalyzer(const ShardRaceAnalyzer&) = delete;
  ShardRaceAnalyzer& operator=(const ShardRaceAnalyzer&) = delete;

  // ---- ShardAuditor feed (installed via Kernel::set_auditor).
  void OnEventCommit(int shard, const EventKey& key, bool parallel) override;
  void OnWindowOpen(Tick t_min, Tick window_end, int shards) override;
  void OnCrossShardSend(int from_shard, int to_shard, const EventKey& key,
                        Tick promised) override;

  // ---- Results (quiescent reads: between runs, not during one).
  RunDigest Digest() const;
  std::vector<AuditViolation> Violations() const;
  size_t violation_count() const;
  uint64_t events() const;
  uint64_t windows() const { return windows_; }
  bool ok() const { return violation_count() == 0; }

  // Violations double as kViolation trace events into this sink as they are
  // detected, and as kShardRace monitor violations (same contract as the
  // lockdep analyzer and the SLO engine).
  void set_trace_sink(Tracer sink);
  void set_monitor(InvariantMonitor* monitor);

  std::string ToString() const;
  std::string ToJson() const { return Digest().ToJson(); }
  Value ToValue() const;
  void Clear();

 private:
  // Owned by exactly one shard worker during a run; padded so neighbouring
  // workers never share a cache line.
  struct alignas(64) Slot {
    bool has_last = false;
    EventKey last{};       // the shard's logical clock: last committed key
    uint64_t events = 0;
    // Per-origin digest contributions of the events this shard committed.
    // Touched only by the owning worker; folded under the global view at
    // Digest() time (quiescent).
    std::map<NodeId, RunDigest::OriginDigest> origins;
  };

  void RecordViolation(AuditViolation violation);

  PerShard<Slot> slots_;
  // The open window, written only at the barrier (single-threaded) and read
  // by committing workers.
  std::atomic<Tick> window_floor_{0};
  std::atomic<Tick> window_end_{0};
  uint64_t windows_ = 0;  // barrier-only writes

  mutable std::mutex mu_;  // violations + sinks
  std::vector<AuditViolation> violations_;
  Tracer trace_sink_;
  InvariantMonitor* monitor_ = nullptr;
};

}  // namespace eden::verify

#endif  // SRC_EDEN_VERIFY_SHARD_AUDIT_H_
