// MetricsRegistry: latency histograms, queue gauges and invocation counts.
//
// The paper's §4 argument is quantitative, and Stats makes the totals
// countable — but totals cannot say *which* operation spent the time or
// which buffer backed up. The registry attributes them: a fixed-bucket log2
// histogram of virtual-tick invocation latency per operation name, a
// depth/high-water gauge per instrumented queue (PassiveBuffer faces,
// StreamReader prefetch buffers, StreamServer work-ahead buffers), and an
// invocation count per target Eject.
//
// Like the tracer, the registry is an optional kernel hook: when none is
// installed (Kernel::set_metrics(nullptr), the default) the kernel skips
// every recording site behind a single null check, and the stream
// components report through Kernel::ObserveQueueDepth/ObserveFlowEvent,
// which cost one inline flag test while neither the registry nor a
// telemetry sampler is installed.
#ifndef SRC_EDEN_METRICS_H_
#define SRC_EDEN_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/eden/per_shard.h"
#include "src/eden/stats.h"
#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

// A histogram with 32 fixed power-of-two buckets: bucket 0 holds the value
// 0, bucket b (b >= 1) holds values in [2^(b-1), 2^b - 1], and the last
// bucket absorbs everything above 2^30. Recording is O(1) with no
// allocation; exact min/max/sum ride along so percentile estimates can be
// clamped to observed bounds.
class Log2Histogram {
 public:
  static constexpr size_t kBucketCount = 32;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(size_t index) const {
    return index < kBucketCount ? buckets_[index] : 0;
  }

  // Bucket geometry (static so tests can assert the math directly).
  static size_t BucketOf(uint64_t value);
  static uint64_t BucketLow(size_t index);   // smallest value in the bucket
  static uint64_t BucketHigh(size_t index);  // largest value in the bucket

  // The p-th percentile (p in [0, 100]) of the recorded values, linearly
  // interpolated within the winning bucket and clamped to [min, max]. When
  // all samples fall in one bucket the interpolation range tightens to the
  // observed [min, max] — exact when min == max. Returns 0 when empty.
  uint64_t Percentile(double p) const;

  // Bucketwise accumulation of `other` into this histogram: counts, sums and
  // buckets add exactly; min/max combine exactly (an empty side contributes
  // nothing). Merging disjoint windows reproduces the histogram a single
  // accumulation over both would have built.
  void Merge(const Log2Histogram& other);

  // The windowed delta of two cumulative snapshots: `*this` must be a later
  // snapshot of the same accumulation as `earlier` (every bucket, the count
  // and the sum of `earlier` are <= ours). Buckets, count and sum subtract
  // exactly. The delta's min/max are NOT recoverable from cumulative state;
  // they are approximated by the bounds of the delta's outermost non-empty
  // buckets, clamped to this snapshot's observed [min, max] — tight enough
  // for percentile clamping, and deterministic.
  Log2Histogram Subtract(const Log2Histogram& earlier) const;

  // {count, sum, min, max, mean, p50, p90, p99, buckets: [...]} — buckets
  // are trimmed to the last non-empty one.
  Value ToValue() const;

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Flow-control incidents on one queue (see PROTOCOL.md "Flow control").
// The fixed underlying type lets kernel.h forward-declare the enum for its
// observation hooks without pulling this header into every Eject.
enum class FlowEvent : uint8_t {
  kHiwatHit,       // a producer was blocked/withheld at the high watermark
  kPutBack,        // an item was returned to the front of its band (putbq)
  kBandOvertake,   // a control item was served ahead of queued data
};

// The stream primitive owning an instrumented queue. Enumerators are in the
// alphabetical order of their names, so maps keyed by the enum iterate in
// the same order as maps keyed by the name would.
enum class StreamComponent : uint8_t {
  kAcceptor,  // StreamAcceptor input buffers
  kPipe,      // PassiveBuffer (both faces together)
  kReader,    // StreamReader prefetch buffers
  kServer,    // StreamServer work-ahead buffers
};

// "acceptor", "pipe", "reader", "server".
const char* ComponentName(StreamComponent component);
// The inverse of ComponentName; nullopt for any other name.
std::optional<StreamComponent> ParseComponent(std::string_view name);

class MetricsRegistry {
 public:
  struct QueueGauge {
    size_t depth = 0;       // most recent sample
    size_t high_water = 0;  // largest sample ever
    uint64_t samples = 0;
  };

  struct FlowCounters {
    uint64_t hiwat_hits = 0;
    uint64_t putbacks = 0;
    uint64_t band_overtakes = 0;
  };

  // ---- Recording hooks (the kernel; callers gate on the registry pointer,
  // so these assume they are wanted). Each hook writes the calling shard's
  // own slot (PerShard, per_shard.h) and takes no lock: a queue belongs to
  // one Eject and so to one shard, and the quantities several shards share
  // (latency per op, invocations per target) are commutative aggregates
  // that the read side merges. The totals at rest are therefore the same at
  // any shard count.
  void RecordLatency(std::string_view op, uint64_t ticks);
  void CountInvocation(const Uid& target);
  void RecordQueueDepth(StreamComponent component, const Uid& owner,
                        size_t depth);
  void CountFlowEvent(StreamComponent component, const Uid& owner,
                      FlowEvent event);
  // Published by the kernel after each run (replacing any previous counters
  // for that shard, so the registry always reflects the most recent run).
  void RecordShardCounters(int shard, const ShardCounters& counters) {
    shard_counters_[shard] = counters;
  }

  // Pretty names for snapshot keys (defaults to the short UID). Set up
  // between runs.
  void Label(const Uid& uid, std::string name) { labels_[uid] = std::move(name); }

  // ---- Introspection: quiescent reads (between runs, not during one),
  // from one thread. Each read merges the per-shard slots into a view the
  // returned pointers point into; a later read refreshes the same entries in
  // place, so earlier pointers stay valid until Clear().
  const Log2Histogram* LatencyFor(std::string_view op) const;
  const QueueGauge* QueueFor(std::string_view component, const Uid& owner) const;
  const FlowCounters* FlowFor(std::string_view component, const Uid& owner) const;
  uint64_t InvocationsTo(const Uid& target) const;
  // Per-shard counters from the most recent run, ascending by shard index.
  std::vector<std::pair<int, ShardCounters>> ShardSnapshot() const;

  void Clear();

  // {"latency": {op: histogram...}, "queues": {"component/name": {depth,
  // high_water, samples}}, "flow": {"component/name": {hiwat_hits, putbacks,
  // band_overtakes}}, "invocations": {name: count}}. The "flow" section is
  // present only when at least one flow event was counted.
  Value Snapshot() const;
  std::string ToJson() const;
  // One line per metric, human-readable.
  std::string ToString() const;

 private:
  struct QueueKey {
    StreamComponent component;
    Uid owner;
    friend bool operator==(const QueueKey& a, const QueueKey& b) {
      return a.component == b.component && a.owner == b.owner;
    }
    friend bool operator<(const QueueKey& a, const QueueKey& b) {
      return a.component != b.component ? a.component < b.component
                                        : a.owner < b.owner;
    }
  };
  struct QueueKeyHash {
    size_t operator()(const QueueKey& key) const {
      return Uid::Hash()(key.owner) ^ static_cast<size_t>(key.component);
    }
  };
  // One shard's recordings. Hash maps on the hot path; the merged view is
  // ordered, which is what makes Snapshot byte-stable.
  struct alignas(64) ShardState {
    std::map<std::string, Log2Histogram, std::less<>> latency;
    std::unordered_map<QueueKey, QueueGauge, QueueKeyHash> queues;
    std::unordered_map<QueueKey, FlowCounters, QueueKeyHash> flow;
    std::unordered_map<Uid, uint64_t, Uid::Hash> invocations;
  };
  struct Merged {
    std::map<std::string, Log2Histogram, std::less<>> latency;
    std::map<QueueKey, QueueGauge> queues;
    std::map<QueueKey, FlowCounters> flow;
    std::map<Uid, uint64_t> invocations;
  };

  ShardState& Local();
  // Refreshes merged_ from the slots (keys are only ever added).
  const Merged& Merge() const;
  std::string NameOf(const Uid& uid) const;
  std::string QueueName(const QueueKey& key) const;

  PerShard<ShardState> shards_;
  mutable Merged merged_;
  std::map<Uid, std::string> labels_;
  std::map<int, ShardCounters> shard_counters_;
};

}  // namespace eden

#endif  // SRC_EDEN_METRICS_H_
