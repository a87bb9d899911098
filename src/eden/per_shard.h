// PerShard<T>: lock-free per-shard state for commutative observers.
//
// A sharded run executes every Eject's events on the one worker that owns
// its node, so observer state keyed by that Eject (a queue gauge, a stage's
// flow counters) is written by exactly one shard. An observer that keeps one
// T per shard — indexed by Kernel::ExecutingShard() — therefore records with
// no lock and no shared cache line on the hot path. Quantities keyed by
// something several shards touch (latency per op name, invocations per
// target) stay correct too, as long as they are commutative aggregates:
// the read side merges the slots, and a sum, a max or a histogram merge does
// not depend on the order the shards ran in.
//
// Threading contract: slot i is created and written only by the thread
// executing shard i (the driver thread, outside any run, executes shard 0).
// Reads (ForEach) are for quiescent moments — between runs, not during one.
#ifndef SRC_EDEN_PER_SHARD_H_
#define SRC_EDEN_PER_SHARD_H_

#include <array>
#include <memory>

namespace eden {

// Upper bound on a kernel's shard workers (KernelOptions::shards is clamped
// to it), so per-shard observer tables can be fixed-size.
inline constexpr int kMaxShards = 64;

template <typename T>
class PerShard {
 public:
  // The slot of `shard`, created on first use by the shard's own thread.
  T& At(int shard) {
    std::unique_ptr<T>& slot = slots_[static_cast<size_t>(shard)];
    if (slot == nullptr) {
      slot = std::make_unique<T>();
    }
    return *slot;
  }

  // Visits every slot created so far, in ascending shard order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::unique_ptr<T>& slot : slots_) {
      if (slot != nullptr) {
        fn(*slot);
      }
    }
  }

  void Clear() {
    for (std::unique_ptr<T>& slot : slots_) {
      slot.reset();
    }
  }

 private:
  std::array<std::unique_ptr<T>, kMaxShards> slots_{};
};

}  // namespace eden

#endif  // SRC_EDEN_PER_SHARD_H_
