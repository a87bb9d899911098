#include "src/eden/profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <utility>

namespace eden {
namespace {

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string FormatLine(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace

ShardProfiler::ShardProfiler(size_t ring_capacity)
    : ring_capacity_(ring_capacity),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t ShardProfiler::NowNs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - epoch_)
                                   .count());
}

void ShardProfiler::OnRunStart(int shards) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shards < 1) shards = 1;
  while (slots_.size() < static_cast<size_t>(shards)) {
    slots_.push_back(std::make_unique<Slot>());
  }
  run_start_ns_ = NowNs();
  run_open_ = true;
}

void ShardProfiler::OnWindow(int shard, const WindowSample& sample) {
  // Lock-free by construction: OnRunStart sized slots_ before any worker
  // started, and shard workers have disjoint indices.
  if (shard < 0 || static_cast<size_t>(shard) >= slots_.size()) return;
  Slot& slot = *slots_[static_cast<size_t>(shard)];
  ShardProfile& p = slot.profile;
  if (!sample.sequential) {
    p.windows++;
    p.events += sample.events;
    p.drain_ns += sample.drain_ns;
    if (sample.events > 0) {
      p.execute_ns += sample.execute_ns;
    } else {
      p.stall_ns += sample.execute_ns;
    }
    p.barrier_ns += sample.barrier_ns();
    p.bottom_barrier_ns += sample.bottom_barrier_ns;
  }
  if (ring_capacity_ == 0) return;
  if (p.samples.size() < ring_capacity_) {
    p.samples.push_back(sample);
  } else {
    p.samples[slot.ring_next] = sample;
    slot.ring_next = (slot.ring_next + 1) % ring_capacity_;
    p.samples_dropped++;
  }
}

void ShardProfiler::OnRunEnd(uint64_t events, bool parallel) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!run_open_) return;
  run_open_ = false;
  const uint64_t wall = NowNs() - run_start_ns_;
  runs_++;
  wall_ns_ += wall;
  events_ += events;
  if (parallel) {
    parallel_runs_++;
    parallel_wall_ns_ += wall;
    return;
  }
  // A sequential run has no windows; fold the whole run into one execute
  // sample on shard 0 so the timeline export still draws a track for it.
  // It stays out of the per-shard aggregates (see ShardProfile).
  if (events == 0 || slots_.empty()) return;
  WindowSample sample;
  sample.window = runs_;
  sample.events = events;
  sample.start_ns = run_start_ns_;
  sample.execute_ns = wall;
  sample.sequential = true;
  OnWindow(0, sample);
}

int ShardProfiler::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(slots_.size());
}

uint64_t ShardProfiler::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

uint64_t ShardProfiler::parallel_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parallel_runs_;
}

uint64_t ShardProfiler::wall_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wall_ns_;
}

uint64_t ShardProfiler::parallel_wall_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parallel_wall_ns_;
}

uint64_t ShardProfiler::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<ShardProfiler::ShardProfile> ShardProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardProfile> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    ShardProfile p = slot->profile;
    // Rotate the ring so samples come out oldest first.
    if (p.samples_dropped > 0 && slot->ring_next > 0) {
      std::rotate(p.samples.begin(),
                  p.samples.begin() + static_cast<ptrdiff_t>(slot->ring_next),
                  p.samples.end());
    }
    out.push_back(std::move(p));
  }
  return out;
}

Value ShardProfiler::ToValue() const {
  std::vector<ShardProfile> shards = Snapshot();
  Value root;
  {
    std::lock_guard<std::mutex> lock(mu_);
    root.Set("runs", Value(static_cast<int64_t>(runs_)));
    root.Set("parallel_runs", Value(static_cast<int64_t>(parallel_runs_)));
    root.Set("wall_ms", Value(Ms(wall_ns_)));
    root.Set("parallel_wall_ms", Value(Ms(parallel_wall_ns_)));
    root.Set("events", Value(static_cast<int64_t>(events_)));
    root.Set("ring_capacity", Value(static_cast<int64_t>(ring_capacity_)));
  }
  ValueList list;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardProfile& p = shards[i];
    Value d;
    d.Set("shard", Value(static_cast<int64_t>(i)));
    d.Set("windows", Value(static_cast<int64_t>(p.windows)));
    d.Set("events", Value(static_cast<int64_t>(p.events)));
    d.Set("drain_ms", Value(Ms(p.drain_ns)));
    d.Set("execute_ms", Value(Ms(p.execute_ns)));
    d.Set("stall_ms", Value(Ms(p.stall_ns)));
    d.Set("barrier_ms", Value(Ms(p.barrier_ns)));
    d.Set("samples", Value(static_cast<int64_t>(p.samples.size())));
    d.Set("samples_dropped", Value(static_cast<int64_t>(p.samples_dropped)));
    list.push_back(std::move(d));
  }
  root.Set("shards", Value(std::move(list)));
  return root;
}

std::string ShardProfiler::ToString() const {
  std::vector<ShardProfile> shards = Snapshot();
  uint64_t runs, parallel_runs, wall_ns, events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runs = runs_;
    parallel_runs = parallel_runs_;
    wall_ns = wall_ns_;
    events = events_;
  }
  std::string out = FormatLine(
      "profiler: %" PRIu64 " runs (%" PRIu64 " parallel), wall %.3f ms, %" PRIu64
      " events, %zu shards\n",
      runs, parallel_runs, Ms(wall_ns), events, shards.size());
  out += FormatLine("  %-6s %-9s %-10s %-11s %-9s %-9s %-11s %-8s\n", "shard",
                    "windows", "events", "execute-ms", "drain-ms", "stall-ms",
                    "barrier-ms", "samples");
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardProfile& p = shards[i];
    out += FormatLine(
        "  %-6zu %-9" PRIu64 " %-10" PRIu64 " %-11.3f %-9.3f %-9.3f %-11.3f"
        " %zu(+%" PRIu64 " dropped)\n",
        i, p.windows, p.events, Ms(p.execute_ns), Ms(p.drain_ns),
        Ms(p.stall_ns), Ms(p.barrier_ns), p.samples.size(), p.samples_dropped);
  }
  return out;
}

void ShardProfiler::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  run_start_ns_ = 0;
  runs_ = 0;
  parallel_runs_ = 0;
  wall_ns_ = 0;
  parallel_wall_ns_ = 0;
  events_ = 0;
  run_open_ = false;
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::Record(Tick t_min, Tick window_end, uint64_t events,
                            int shards) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_epoch_) {
    have_epoch_ = true;
    epoch_ = now;
  }
  Entry entry;
  entry.seq = ++seq_;
  entry.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
          .count());
  entry.t_min = t_min;
  entry.window_end = window_end;
  entry.events = events;
  entry.shards = shards;
  if (ring_.size() < kCapacity) {
    ring_.push_back(entry);
  } else {
    ring_[next_] = entry;
    next_ = (next_ + 1) % kCapacity;
  }
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out = ring_;
  if (out.size() == kCapacity && next_ > 0) {
    std::rotate(out.begin(), out.begin() + static_cast<ptrdiff_t>(next_),
                out.end());
  }
  return out;
}

Value FlightRecorder::ToValue() const {
  ValueList list;
  for (const Entry& e : Snapshot()) {
    Value d;
    d.Set("seq", Value(static_cast<int64_t>(e.seq)));
    d.Set("wall_us", Value(static_cast<int64_t>(e.wall_us)));
    d.Set("t_min", Value(static_cast<int64_t>(e.t_min)));
    d.Set("window_end", Value(static_cast<int64_t>(e.window_end)));
    d.Set("events", Value(static_cast<int64_t>(e.events)));
    d.Set("shards", Value(static_cast<int64_t>(e.shards)));
    list.push_back(std::move(d));
  }
  Value root;
  root.Set("windows", Value(std::move(list)));
  return root;
}

void FlightRecorder::Dump(std::FILE* out) const {
  std::vector<Entry> entries = Snapshot();
  std::fprintf(out,
               "flight recorder: last %zu window(s), newest last "
               "(seq wall-us t_min window_end events shards)\n",
               entries.size());
  for (const Entry& e : entries) {
    std::fprintf(out,
                 "  #%-8" PRIu64 " %-10" PRIu64 " %-12lld %-12lld %-8" PRIu64
                 " %d\n",
                 e.seq, e.wall_us, static_cast<long long>(e.t_min),
                 static_cast<long long>(e.window_end), e.events, e.shards);
  }
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  seq_ = 0;
  have_epoch_ = false;
  next_ = 0;
  ring_.clear();
}

}  // namespace eden
