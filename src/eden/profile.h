// Wall-clock profiling for the sharded kernel.
//
// Everything else in the observability stack measures *virtual* time — spans,
// histograms, the doctor's critical path are all tick-exact and deterministic.
// The sharded kernel (DESIGN.md "Sharded kernel") also spends *host* time:
// worker threads drain mailboxes, execute their window, and park at barriers,
// and none of that is visible in virtual ticks (by design — the simulation's
// output is byte-identical at any shard count). ShardProfiler records where
// the host clock went, per shard and per synchronization window, so the
// parallel fraction can be tuned instead of guessed at.
//
// Phases, per shard per window (they tile the worker loop):
//   * mailbox-drain — moving the cross-shard inbox into the local queue;
//   * barrier-wait  — parked at the top or bottom SyncPoint (includes the
//                     window completion the last arriver runs);
//   * execute       — running events below the window promise (plus the
//                     outbox flush, which rides on its tail);
//   * lookahead-stall — an execute phase that ran zero events: the shard
//                     woke, found nothing below window_end, and re-parked.
//
// The profiler is an optional kernel hook with the same contract as the
// tracer/metrics/monitor: nullptr by default, one pointer test per recording
// site when unset, never owned by the kernel. Recording never touches virtual
// time, so a profiled run's output stays byte-identical to an unprofiled one.
// Per-shard sample rings are bounded (aggregates keep counting after the ring
// wraps); each shard worker writes only its own slot, so recording is
// lock-free during a run. Snapshot/ToValue/ToString are for quiescent reads —
// between runs, like TraceRecorder::events().
//
// Sequential runs (1 shard, or a pinned fault injector) have no windows; the
// profiler records each as a single execute-only sample on shard 0 with
// `sequential` set, so a 1-shard bench row still draws a track, but the
// parallel verdict (analysis.h DiagnoseParallel) is computed from parallel
// windows and wall time only.
//
// FlightRecorder is the always-on post-mortem companion: a tiny process-wide
// ring of recent window records (t_min, the lookahead promise, the event
// batch) that costs one mutexed write per window — per *window*, not per
// event — whether or not any profiler is installed. The kernel dumps it to
// stderr on the lookahead-violation abort path, so a crashed run's last few
// windows are never lost with the process.
#ifndef SRC_EDEN_PROFILE_H_
#define SRC_EDEN_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/eden/clock.h"
#include "src/eden/value.h"

namespace eden {

class ShardProfiler {
 public:
  static constexpr size_t kDefaultRingCapacity = 256;

  // One window of one shard's worker loop, on the host clock. Offsets are
  // nanoseconds since the profiler's construction (NowNs's epoch); the four
  // phase durations are laid end to end starting at start_ns.
  struct WindowSample {
    uint64_t window = 0;      // the shard's window ordinal (1-based)
    Tick window_end = 0;      // the window's lookahead promise (virtual)
    uint64_t events = 0;      // events this shard executed in the window
    uint64_t start_ns = 0;    // host offset of the drain start
    uint64_t drain_ns = 0;
    uint64_t top_barrier_ns = 0;
    uint64_t execute_ns = 0;  // counted as lookahead-stall when events == 0
    uint64_t bottom_barrier_ns = 0;
    bool sequential = false;  // a whole sequential run folded into one sample

    uint64_t barrier_ns() const { return top_barrier_ns + bottom_barrier_ns; }
    bool stalled() const { return !sequential && events == 0; }
  };

  // Per-shard aggregate since the last Clear(), plus the bounded sample ring.
  // The aggregate covers parallel windows only; sequential runs are summed in
  // the profiler-level run totals instead (their samples still enter shard
  // 0's ring for the timeline export).
  struct ShardProfile {
    uint64_t windows = 0;
    uint64_t events = 0;
    uint64_t drain_ns = 0;
    uint64_t execute_ns = 0;  // execute phases that ran at least one event
    uint64_t stall_ns = 0;    // execute phases that ran none
    uint64_t barrier_ns = 0;  // top + bottom
    // The bottom share of barrier_ns: waiting for the window's slowest
    // shard. Execute + bottom wait is the busiest shard's execute time, so
    // this is what per-window skew costs (ParallelVerdict::window_skew).
    uint64_t bottom_barrier_ns = 0;
    uint64_t samples_dropped = 0;       // windows evicted from the ring
    std::vector<WindowSample> samples;  // most recent windows, oldest first
  };

  explicit ShardProfiler(size_t ring_capacity = kDefaultRingCapacity);

  // ---- Kernel-facing hooks. The kernel gates every call on the installed
  // pointer, so an absent profiler costs one test per site.
  // Called at the start of every Run/RunUntil/RunFor, before any worker
  // thread exists; sizes the per-shard slots.
  void OnRunStart(int shards);
  // Nanoseconds since the profiler's epoch, on the steady clock.
  uint64_t NowNs() const;
  // Called by shard `shard`'s worker after each window. Each worker touches
  // only its own slot, so no lock is taken.
  void OnWindow(int shard, const WindowSample& sample);
  // Called when the run returns; `events` is the run's event count and
  // `parallel` says whether shard workers ran (vs the sequential loop).
  void OnRunEnd(uint64_t events, bool parallel);

  // ---- Results (quiescent reads: between runs, not during one).
  int shard_count() const;
  uint64_t runs() const;
  uint64_t parallel_runs() const;
  uint64_t wall_ns() const;           // cumulative over all runs
  uint64_t parallel_wall_ns() const;  // cumulative over parallel runs only
  uint64_t events() const;            // cumulative over all runs
  std::vector<ShardProfile> Snapshot() const;
  Value ToValue() const;
  std::string ToString() const;
  void Clear();

 private:
  // One cache line per shard keeps concurrent OnWindow writers off each
  // other's lines; the vector itself only changes size in OnRunStart (no
  // workers alive) and Clear.
  struct alignas(64) Slot {
    ShardProfile profile;
    size_t ring_next = 0;  // overwrite cursor once the ring is full
  };

  const size_t ring_capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::mutex mu_;  // guards the run totals and slot (re)allocation
  uint64_t run_start_ns_ = 0;
  uint64_t runs_ = 0;
  uint64_t parallel_runs_ = 0;
  uint64_t wall_ns_ = 0;
  uint64_t parallel_wall_ns_ = 0;
  uint64_t events_ = 0;
  bool run_open_ = false;
};

// Process-wide ring of recent profile windows, recorded by every kernel's
// window barrier whether or not a ShardProfiler is installed. The point is
// the abort path: when a cross-shard message undercuts the lookahead promise
// the kernel calls Dump(stderr) before std::abort(), so the post-mortem
// shows what the synchronizer was doing when it died.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 64;

  struct Entry {
    uint64_t seq = 0;       // monotone across the process
    uint64_t wall_us = 0;   // host microseconds since the first entry
    Tick t_min = 0;         // earliest pending event when the window opened
    Tick window_end = 0;    // the lookahead promise (t_min + lookahead)
    uint64_t events = 0;    // events the *previous* window executed, summed
    int shards = 0;
  };

  static FlightRecorder& Instance();

  void Record(Tick t_min, Tick window_end, uint64_t events, int shards);
  std::vector<Entry> Snapshot() const;
  Value ToValue() const;
  // Human-readable table, newest last. Safe on the abort path (buffered
  // stdio, no allocation beyond the snapshot copy).
  void Dump(std::FILE* out) const;
  void Clear();

 private:
  FlightRecorder() = default;

  mutable std::mutex mu_;
  uint64_t seq_ = 0;
  bool have_epoch_ = false;
  std::chrono::steady_clock::time_point epoch_;
  size_t next_ = 0;
  std::vector<Entry> ring_;  // grows to kCapacity, then overwrites
};

}  // namespace eden

#endif  // SRC_EDEN_PROFILE_H_
