#include "src/eden/verify/shard_audit.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/eden/kernel.h"
#include "src/eden/monitor.h"

namespace eden::verify {

namespace {

// FNV-1a 64 over the 24 key bytes, mixed field by field so the hash is a
// pure function of (at, origin, seq) — never of padding or layout.
uint64_t HashKey(const EventKey& key) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 64; i += 8) {
      h ^= (v >> i) & 0xFFULL;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(key.at));
  mix(static_cast<uint64_t>(key.origin));
  mix(key.seq);
  return h;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string_view AuditViolationKindName(AuditViolation::Kind kind) {
  switch (kind) {
    case AuditViolation::Kind::kWindowUndercut:
      return "window-undercut";
    case AuditViolation::Kind::kNonMonotoneCommit:
      return "non-monotone-commit";
    case AuditViolation::Kind::kLateDelivery:
      return "late-delivery";
  }
  return "unknown";
}

std::string AuditViolation::ToString() const {
  std::string out = std::string(AuditViolationKindName(kind)) + " on shard " +
                    std::to_string(shard) + ": event (t=" + std::to_string(at) +
                    ", origin=" + std::to_string(origin) +
                    ", seq=" + std::to_string(seq) + ") ";
  switch (kind) {
    case Kind::kWindowUndercut:
      out += "undercuts the window promise t=" + std::to_string(bound);
      break;
    case Kind::kNonMonotoneCommit:
      out += "commits behind the shard frontier t=" + std::to_string(bound);
      break;
    case Kind::kLateDelivery:
      out += "commits before the window floor t=" + std::to_string(bound);
      break;
  }
  return out;
}

// ---------------------------------------------------------------- RunDigest

std::string RunDigest::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"certificate\": \"eden-run-digest-v1\",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"digest\": \"" << Hex(merged) << "\",\n";
  out << "  \"violations\": " << violations << ",\n";
  out << "  \"certified\": " << (certified() ? "true" : "false") << ",\n";
  out << "  \"origins\": [";
  for (size_t i = 0; i < origins.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << "\n    {\"node\": " << origins[i].node
        << ", \"events\": " << origins[i].events << ", \"digest\": \""
        << Hex(origins[i].digest) << "\"}";
  }
  if (!origins.empty()) {
    out << "\n  ";
  }
  out << "]\n}\n";
  return out.str();
}

std::string RunDigest::ToString() const {
  std::string out = "run digest: " + Hex(merged) + " over " +
                    std::to_string(events) + " events, " +
                    std::to_string(origins.size()) + " origin(s); " +
                    (certified()
                         ? std::string("certified deterministic")
                         : std::to_string(violations) + " violation(s)");
  return out;
}

std::string RunDigest::Compare(const RunDigest& expect,
                               const RunDigest& actual) {
  if (expect.events != actual.events) {
    return "certificate mismatch: events " + std::to_string(expect.events) +
           " vs " + std::to_string(actual.events);
  }
  if (expect.merged != actual.merged) {
    return "certificate mismatch: merged digest " + Hex(expect.merged) +
           " vs " + Hex(actual.merged);
  }
  if (expect.violations != actual.violations) {
    return "certificate mismatch: violations " +
           std::to_string(expect.violations) + " vs " +
           std::to_string(actual.violations);
  }
  if (expect.origins.size() != actual.origins.size()) {
    return "certificate mismatch: " + std::to_string(expect.origins.size()) +
           " vs " + std::to_string(actual.origins.size()) + " origin nodes";
  }
  for (size_t i = 0; i < expect.origins.size(); ++i) {
    const OriginDigest& e = expect.origins[i];
    const OriginDigest& a = actual.origins[i];
    if (e.node != a.node || e.events != a.events || e.digest != a.digest) {
      return "certificate mismatch: origin node " + std::to_string(e.node) +
             " digest " + Hex(e.digest) + " (" + std::to_string(e.events) +
             " events) vs node " + std::to_string(a.node) + " digest " +
             Hex(a.digest) + " (" + std::to_string(a.events) + " events)";
    }
  }
  return "";
}

std::string RunDigest::ExpectDigest(const RunDigest& run,
                                    std::string_view expect_hex) {
  std::string_view digits = expect_hex;
  if (digits.size() > 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
  }
  uint64_t expect = 0;
  if (digits.empty() || digits.size() > 16) {
    return "expect-digest: malformed hex digest '" + std::string(expect_hex) +
           "'";
  }
  for (char c : digits) {
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      nibble = c - 'A' + 10;
    } else {
      return "expect-digest: malformed hex digest '" +
             std::string(expect_hex) + "'";
    }
    expect = (expect << 4) | static_cast<uint64_t>(nibble);
  }
  if (!run.certified()) {
    return "expect-digest: run is NOT certified (" +
           std::to_string(run.violations) +
           " shard-race violation(s)); digest " + Hex(run.merged) +
           " is not trustworthy";
  }
  if (run.merged != expect) {
    return "expect-digest: digest mismatch: expected " + Hex(expect) +
           ", run produced " + Hex(run.merged) + " over " +
           std::to_string(run.events) + " events";
  }
  return "";
}

// ------------------------------------------------------- ShardRaceAnalyzer

void ShardRaceAnalyzer::OnEventCommit(int shard, const EventKey& key,
                                      bool parallel) {
  Slot& slot = slots_.At(shard);
  // The kernel's commit invariant is per-shard *time* monotonicity, not full
  // EventKey order: a handler may legally schedule a same-tick event whose
  // (origin, seq) sorts below the one executing, and it pops next — still
  // deterministic, because the heap's tie order is a pure function of the
  // schedule history. Only a clock rewind is a breach.
  if (slot.has_last && key.at < slot.last.at) {
    RecordViolation(AuditViolation{AuditViolation::Kind::kNonMonotoneCommit,
                                   shard, key.at, key.origin, key.seq,
                                   slot.last.at});
  }
  if (parallel) {
    Tick floor = window_floor_.load(std::memory_order_relaxed);
    if (key.at < floor) {
      RecordViolation(AuditViolation{AuditViolation::Kind::kLateDelivery,
                                     shard, key.at, key.origin, key.seq,
                                     floor});
    }
  }
  slot.last = key;
  slot.has_last = true;
  slot.events++;
  RunDigest::OriginDigest& origin = slot.origins[key.origin];
  origin.node = key.origin;
  origin.events++;
  origin.digest += HashKey(key);  // wrapping: order-insensitive by design
}

void ShardRaceAnalyzer::OnWindowOpen(Tick t_min, Tick window_end,
                                     int shards) {
  (void)shards;
  window_floor_.store(t_min, std::memory_order_relaxed);
  window_end_.store(window_end, std::memory_order_relaxed);
  windows_++;
}

void ShardRaceAnalyzer::OnCrossShardSend(int from_shard, int to_shard,
                                         const EventKey& key, Tick promised) {
  (void)to_shard;
  if (key.at < promised) {
    RecordViolation(AuditViolation{AuditViolation::Kind::kWindowUndercut,
                                   from_shard, key.at, key.origin, key.seq,
                                   promised});
  }
}

void ShardRaceAnalyzer::RecordViolation(AuditViolation violation) {
  // Reported from shard workers: the ordered merge publishes it, so the
  // violation list and its trace line do not depend on thread timing.
  Kernel::EmitInOrder([this, violation = std::move(violation)]() mutable {
    std::lock_guard<std::mutex> lock(mu_);
    if (trace_sink_) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kViolation;
      event.at = violation.at;
      event.op = "shard-race: " + violation.ToString();
      event.ok = false;
      trace_sink_(event);
    }
    if (monitor_ != nullptr) {
      monitor_->OnShardRace(violation.at, Uid(), violation.ToString());
    }
    violations_.push_back(std::move(violation));
  });
}

RunDigest ShardRaceAnalyzer::Digest() const {
  RunDigest digest;
  std::map<NodeId, RunDigest::OriginDigest> merged;
  slots_.ForEach([&](const Slot& slot) {
    digest.events += slot.events;
    for (const auto& [node, origin] : slot.origins) {
      RunDigest::OriginDigest& into = merged[node];
      into.node = node;
      into.events += origin.events;
      into.digest += origin.digest;  // wrapping add composes shard slots
    }
  });
  digest.origins.reserve(merged.size());
  for (const auto& [node, origin] : merged) {
    digest.origins.push_back(origin);
    digest.merged += origin.digest;
  }
  digest.violations = violation_count();
  return digest;
}

std::vector<AuditViolation> ShardRaceAnalyzer::Violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

size_t ShardRaceAnalyzer::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

uint64_t ShardRaceAnalyzer::events() const {
  uint64_t total = 0;
  slots_.ForEach([&total](const Slot& slot) { total += slot.events; });
  return total;
}

void ShardRaceAnalyzer::set_trace_sink(Tracer sink) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_sink_ = std::move(sink);
}

void ShardRaceAnalyzer::set_monitor(InvariantMonitor* monitor) {
  std::lock_guard<std::mutex> lock(mu_);
  monitor_ = monitor;
}

std::string ShardRaceAnalyzer::ToString() const {
  RunDigest digest = Digest();
  std::ostringstream out;
  out << "shard audit: " << digest.ToString() << "\n";
  out << "  windows opened: " << windows_ << "\n";
  std::vector<AuditViolation> violations = Violations();
  if (violations.empty()) {
    out << "  happens-before: clean (no cross-shard ordering breach)\n";
  } else {
    out << "  VIOLATIONS:\n";
    for (const AuditViolation& v : violations) {
      out << "    " << v.ToString() << "\n";
    }
  }
  return out.str();
}

Value ShardRaceAnalyzer::ToValue() const {
  RunDigest digest = Digest();
  Value v;
  v.Set("events", Value(static_cast<int64_t>(digest.events)));
  v.Set("digest", Value(digest.ToString()));
  v.Set("violations", Value(static_cast<int64_t>(digest.violations)));
  v.Set("certified", Value(digest.certified()));
  ValueList origins;
  for (const RunDigest::OriginDigest& origin : digest.origins) {
    Value entry;
    entry.Set("node", Value(static_cast<int64_t>(origin.node)));
    entry.Set("events", Value(static_cast<int64_t>(origin.events)));
    origins.push_back(std::move(entry));
  }
  v.Set("origins", Value(std::move(origins)));
  ValueList breaches;
  for (const AuditViolation& violation : Violations()) {
    breaches.push_back(Value(violation.ToString()));
  }
  v.Set("breaches", Value(std::move(breaches)));
  return v;
}

void ShardRaceAnalyzer::Clear() {
  slots_.Clear();
  window_floor_.store(0, std::memory_order_relaxed);
  window_end_.store(0, std::memory_order_relaxed);
  windows_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  violations_.clear();
}

}  // namespace eden::verify
