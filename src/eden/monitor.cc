#include "src/eden/monitor.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/eden/kernel.h"

namespace eden {

namespace {

const char* KindName(InvariantMonitor::Violation::Kind kind) {
  using Kind = InvariantMonitor::Violation::Kind;
  switch (kind) {
    case Kind::kFlowConservation:
      return "flow-conservation";
    case Kind::kInvocationCount:
      return "invocation-count";
    case Kind::kSpanTree:
      return "span-tree";
    case Kind::kSequence:
      return "sequence";
    case Kind::kStatic:
      return "static-lint";
    case Kind::kSlo:
      return "slo";
    case Kind::kShardRace:
      return "shard-race";
  }
  return "unknown";
}

}  // namespace

InvariantMonitor::ShardState& InvariantMonitor::Local() {
  return shards_.At(Kernel::ExecutingShard());
}

void InvariantMonitor::Report(Violation::Kind kind, Tick at, const Uid& stage,
                              std::string detail) {
  Violation violation;
  violation.kind = kind;
  violation.at = at;
  violation.stage = stage;
  violation.detail = std::move(detail);
  Kernel::EmitInOrder([this, violation = std::move(violation)]() mutable {
    Publish(std::move(violation));
  });
}

void InvariantMonitor::Publish(Violation violation) {
  // SLO firings and shard races were traced by the engine that caught them;
  // the ledger records them, the trace keeps one line each.
  const bool handed_over = violation.kind == Violation::Kind::kSlo ||
                           violation.kind == Violation::Kind::kShardRace;
  if (trace_sink_ && !handed_over) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kViolation;
    event.at = violation.at;
    event.from = violation.stage;
    event.to = violation.stage;
    event.op = std::string(KindName(violation.kind)) + ": " + violation.detail;
    event.ok = false;
    trace_sink_(event);
  }
  violations_.push_back(std::move(violation));
}

void InvariantMonitor::OnTraceEvent(const TraceEvent& event) {
  events_seen_++;
  if (event.kind != TraceEvent::Kind::kInvoke) {
    return;
  }
  auto op_it = invocations_by_op_.find(event.op);
  if (op_it == invocations_by_op_.end()) {
    op_it = invocations_by_op_.emplace(event.op, 0).first;
  }
  op_it->second++;
  // Span-tree well-formedness. Ids are allocated per origin node (high bits;
  // see message.h) in send order, and the monitor observes invocations in
  // the deterministic trace order, so each origin's ids must arrive strictly
  // increasing, and a well-formed parent link names an id its own origin has
  // already issued — the parent's kInvoke necessarily preceded the child's
  // (the child was sent while serving the parent). Unlike the ring-buffered
  // recorder there is no eviction here, so these are real defects.
  uint64_t origin = InvocationOriginKey(event.id);
  auto [origin_it, first_from_origin] = last_span_by_origin_.try_emplace(origin, 0);
  if (!first_from_origin && event.id <= origin_it->second) {
    Report(Violation::Kind::kSpanTree, event.at, event.from,
           "span id " + std::to_string(event.id) +
               " not monotone for its origin (last " +
               std::to_string(origin_it->second) + ")");
  }
  if (event.parent != 0) {
    auto parent_it = last_span_by_origin_.find(InvocationOriginKey(event.parent));
    bool parent_seen = parent_it != last_span_by_origin_.end() &&
                       event.parent <= parent_it->second;
    if (!parent_seen && event.parent != event.id) {
      Report(Violation::Kind::kSpanTree, event.at, event.from,
             "span " + std::to_string(event.id) + " names parent " +
                 std::to_string(event.parent) +
                 " which it cannot causally descend from");
    } else if (event.parent == event.id) {
      Report(Violation::Kind::kSpanTree, event.at, event.from,
             "span " + std::to_string(event.id) + " names itself as parent");
    }
  }
  origin_it->second = event.id > origin_it->second ? event.id : origin_it->second;
}

void InvariantMonitor::OnProduced(const Uid& stage, Tick, uint64_t items) {
  Local().flows[stage].produced += items;
}

void InvariantMonitor::OnServed(const Uid& stage, Tick at, uint64_t items) {
  Flow& flow = Local().flows[stage];
  flow.served += items;
  if (flow.served + flow.pushed > flow.produced) {
    Report(Violation::Kind::kFlowConservation, at, stage,
           NameOf(stage) + " delivered " +
               std::to_string(flow.served + flow.pushed) +
               " items but produced only " + std::to_string(flow.produced));
  }
}

void InvariantMonitor::OnPushed(const Uid& stage, const Uid& sink, Tick at,
                                uint64_t items) {
  ShardState& local = Local();
  Flow& flow = local.flows[stage];
  flow.pushed += items;
  local.push_edges[{stage, sink}] += items;
  if (flow.served + flow.pushed > flow.produced) {
    Report(Violation::Kind::kFlowConservation, at, stage,
           NameOf(stage) + " delivered " +
               std::to_string(flow.served + flow.pushed) +
               " items but produced only " + std::to_string(flow.produced));
  }
}

void InvariantMonitor::OnPulled(const Uid& stage, const Uid& source, Tick,
                                uint64_t items) {
  ShardState& local = Local();
  local.flows[stage].pulled += items;
  local.pull_edges[{source, stage}] += items;
}

void InvariantMonitor::OnAccepted(const Uid& stage, Tick, uint64_t items,
                                  int band) {
  ShardState& local = Local();
  local.flows[stage].accepted += items;
  if (band >= 0) {
    local.band_flows[{stage, band}].accepted += items;
  }
}

void InvariantMonitor::OnConsumed(const Uid& stage, Tick at, uint64_t items,
                                  int band) {
  ShardState& local = Local();
  Flow& flow = local.flows[stage];
  flow.consumed += items;
  // Put-backs return a consumed item to its buffer, so it is legitimately
  // consumed again: net consumption is consumed - putback.
  if (flow.consumed > flow.pulled + flow.accepted + flow.putback) {
    Report(Violation::Kind::kFlowConservation, at, stage,
           NameOf(stage) + " consumed " + std::to_string(flow.consumed) +
               " items but only " +
               std::to_string(flow.pulled + flow.accepted + flow.putback) +
               " arrived");
  }
  if (band >= 0) {
    BandFlow& bf = local.band_flows[{stage, band}];
    bf.taken += items;
    if (bf.taken > bf.accepted + bf.putback) {
      Report(Violation::Kind::kFlowConservation, at, stage,
             NameOf(stage) + " band " + std::to_string(band) + " handed out " +
                 std::to_string(bf.taken) + " items but only " +
                 std::to_string(bf.accepted + bf.putback) + " arrived on it");
    }
  }
}

void InvariantMonitor::OnPutBack(const Uid& stage, Tick at, uint64_t items,
                                 int band) {
  ShardState& local = Local();
  Flow& flow = local.flows[stage];
  flow.putback += items;
  if (flow.putback > flow.consumed) {
    Report(Violation::Kind::kFlowConservation, at, stage,
           NameOf(stage) + " put back " + std::to_string(flow.putback) +
               " items but consumed only " + std::to_string(flow.consumed));
  }
  if (band >= 0) {
    BandFlow& bf = local.band_flows[{stage, band}];
    bf.putback += items;
    if (bf.putback > bf.taken) {
      Report(Violation::Kind::kFlowConservation, at, stage,
             NameOf(stage) + " band " + std::to_string(band) + " put back " +
                 std::to_string(bf.putback) + " items but took only " +
                 std::to_string(bf.taken));
    }
  }
}

void InvariantMonitor::OnSequence(const Uid& stage, Tick at,
                                  std::string_view counter, uint64_t value) {
  auto& sequences = Local().sequences;
  auto key = std::make_pair(stage, std::string(counter));
  auto it = sequences.find(key);
  if (it == sequences.end()) {
    sequences.emplace(std::move(key), value);
    return;
  }
  if (value < it->second) {
    Report(Violation::Kind::kSequence, at, stage,
           NameOf(stage) + " " + std::string(counter) + " regressed " +
               std::to_string(it->second) + " -> " + std::to_string(value));
  }
  it->second = value;
}

void InvariantMonitor::OnStaticFinding(Tick at, const Uid& stage,
                                       std::string detail) {
  Report(Violation::Kind::kStatic, at, stage, std::move(detail));
}

void InvariantMonitor::OnSloViolation(Tick at, const Uid& stage,
                                      std::string detail) {
  Report(Violation::Kind::kSlo, at, stage, std::move(detail));
}

void InvariantMonitor::OnShardRace(Tick at, const Uid& stage,
                                   std::string detail) {
  Report(Violation::Kind::kShardRace, at, stage, std::move(detail));
}

void InvariantMonitor::ExpectInvocations(std::string op, uint64_t count) {
  expected_invocations_[std::move(op)] = count;
}

void InvariantMonitor::ExpectReadOnlyPipeline(uint64_t filters,
                                              uint64_t items) {
  // §4: each of the n+1 hops moves m items in m+1 Transfers (the last
  // carries the end-of-stream marker).
  ExpectInvocations("Transfer", (filters + 1) * (items + 1));
}

uint64_t InvariantMonitor::invocations_of(std::string_view op) const {
  auto it = invocations_by_op_.find(op);
  return it == invocations_by_op_.end() ? 0 : it->second;
}

InvariantMonitor::Merged InvariantMonitor::Merge() const {
  Merged merged;
  shards_.ForEach([&merged](const ShardState& shard) {
    for (const auto& [stage, flow] : shard.flows) {
      Flow& into = merged.flows[stage];
      into.produced += flow.produced;
      into.served += flow.served;
      into.pushed += flow.pushed;
      into.pulled += flow.pulled;
      into.accepted += flow.accepted;
      into.consumed += flow.consumed;
      into.putback += flow.putback;
    }
    for (const auto& [key, bf] : shard.band_flows) {
      BandFlow& into = merged.band_flows[key];
      into.accepted += bf.accepted;
      into.taken += bf.taken;
      into.putback += bf.putback;
    }
    for (const auto& [edge, items] : shard.pull_edges) {
      merged.pulled_from[edge.first] += items;
    }
    for (const auto& [edge, items] : shard.push_edges) {
      merged.pushed_into[edge.second] += items;
    }
  });
  return merged;
}

const std::map<Uid, InvariantMonitor::Flow>& InvariantMonitor::flows() const {
  flows_view_ = Merge().flows;
  return flows_view_;
}

const std::map<std::pair<Uid, int>, InvariantMonitor::BandFlow>&
InvariantMonitor::band_flows() const {
  band_flows_view_ = Merge().band_flows;
  return band_flows_view_;
}

std::vector<InvariantMonitor::Violation> InvariantMonitor::Check() const {
  return CheckMerged(Merge());
}

std::vector<InvariantMonitor::Violation> InvariantMonitor::CheckMerged(
    const Merged& merged) const {
  std::vector<Violation> result = violations_;
  auto report = [&result](Violation::Kind kind, const Uid& stage,
                          std::string detail) {
    Violation violation;
    violation.kind = kind;
    violation.stage = stage;
    violation.detail = std::move(detail);
    result.push_back(std::move(violation));
  };

  // Wire conservation, pull side: everything a server handed out over
  // Transfer replies must have been ingested by some reader. A shortfall
  // means a reply (and the items it carried) was lost in flight.
  for (const auto& [stage, flow] : merged.flows) {
    uint64_t arrived = 0;
    if (auto it = merged.pulled_from.find(stage); it != merged.pulled_from.end()) {
      arrived = it->second;
    }
    if (flow.served != arrived) {
      report(Violation::Kind::kFlowConservation, stage,
             NameOf(stage) + " served " + std::to_string(flow.served) +
                 " items but consumers ingested " + std::to_string(arrived) +
                 " (lost on the wire)");
    }
  }
  for (const auto& [stage, arrived] : merged.pulled_from) {
    if (merged.flows.find(stage) == merged.flows.end() && arrived != 0) {
      report(Violation::Kind::kFlowConservation, stage,
             "consumers ingested " + std::to_string(arrived) + " items from " +
                 NameOf(stage) + " which served none");
    }
  }

  // Wire conservation, push side: everything a writer transmitted must have
  // been accepted by the acceptor it names as its sink.
  for (const auto& [sink, sent] : merged.pushed_into) {
    uint64_t accepted = 0;
    if (auto it = merged.flows.find(sink); it != merged.flows.end()) {
      accepted = it->second.accepted;
    }
    if (sent != accepted) {
      report(Violation::Kind::kFlowConservation, sink,
             "writers pushed " + std::to_string(sent) + " items at " +
                 NameOf(sink) + " but it accepted " +
                 std::to_string(accepted) + " (lost on the wire)");
    }
  }

  // Invocation-count identities.
  for (const auto& [op, expected] : expected_invocations_) {
    uint64_t actual = invocations_of(op);
    if (actual != expected) {
      report(Violation::Kind::kInvocationCount, Uid(),
             "expected " + std::to_string(expected) + " " + op +
                 " invocations, observed " + std::to_string(actual));
    }
  }
  return result;
}

void InvariantMonitor::Label(const Uid& uid, std::string name) {
  labels_[uid] = std::move(name);
}

std::string InvariantMonitor::NameOf(const Uid& uid) const {
  auto it = labels_.find(uid);
  return it == labels_.end() ? uid.Short() : it->second;
}

std::string InvariantMonitor::ToString() const {
  Merged merged = Merge();
  std::ostringstream out;
  out << "invariant monitor: " << events_seen_ << " events, "
      << merged.flows.size() << " stages\n";
  out << "  stage            in(pull+acc)  consumed  produced  out(srv+psh)"
         "  buffered\n";
  for (const auto& [stage, flow] : merged.flows) {
    int64_t in = static_cast<int64_t>(flow.pulled + flow.accepted);
    int64_t delivered = static_cast<int64_t>(flow.served + flow.pushed);
    // in - net consumed (put-backs return to the buffer) still sits in input
    // buffers; produced - delivered in output buffers. Both are >= 0 when
    // conservation holds (signed so a violated run prints a legible
    // negative, not a wrapped uint64).
    int64_t buffered = (in - static_cast<int64_t>(flow.consumed) +
                        static_cast<int64_t>(flow.putback)) +
                       (static_cast<int64_t>(flow.produced) - delivered);
    char line[128];
    std::snprintf(line, sizeof(line), "  %-16s %12lld %9llu %9llu %13lld %9lld\n",
                  NameOf(stage).c_str(), static_cast<long long>(in),
                  static_cast<unsigned long long>(flow.consumed),
                  static_cast<unsigned long long>(flow.produced),
                  static_cast<long long>(delivered),
                  static_cast<long long>(buffered));
    out << line;
  }
  if (!merged.band_flows.empty()) {
    out << "  bands (accepted/taken/putback):\n";
    for (const auto& [key, bf] : merged.band_flows) {
      out << "    " << NameOf(key.first) << " band " << key.second << ": "
          << bf.accepted << "/" << bf.taken << "/" << bf.putback << "\n";
    }
  }
  std::vector<Violation> all = CheckMerged(merged);
  if (all.empty()) {
    out << "  all invariants hold\n";
  } else {
    out << "  VIOLATIONS (" << all.size() << "):\n";
    for (const Violation& violation : all) {
      out << "    [" << KindName(violation.kind) << "]";
      if (violation.at != 0) {
        out << " t=" << violation.at;
      }
      out << " " << violation.detail << "\n";
    }
  }
  return out.str();
}

void InvariantMonitor::Describe(const Violation& violation, Value& out) {
  out.Set("kind", Value(std::string(KindName(violation.kind))));
  out.Set("at", Value(static_cast<int64_t>(violation.at)));
  if (!violation.stage.IsNil()) {
    out.Set("stage", Value(violation.stage));
  }
  out.Set("detail", Value(violation.detail));
}

Value InvariantMonitor::ToValue() const {
  Merged merged = Merge();
  Value flows;
  for (const auto& [stage, flow] : merged.flows) {
    Value entry;
    entry.Set("produced", Value(static_cast<int64_t>(flow.produced)));
    entry.Set("served", Value(static_cast<int64_t>(flow.served)));
    entry.Set("pushed", Value(static_cast<int64_t>(flow.pushed)));
    entry.Set("pulled", Value(static_cast<int64_t>(flow.pulled)));
    entry.Set("accepted", Value(static_cast<int64_t>(flow.accepted)));
    entry.Set("consumed", Value(static_cast<int64_t>(flow.consumed)));
    entry.Set("putback", Value(static_cast<int64_t>(flow.putback)));
    flows.Set(NameOf(stage), std::move(entry));
  }
  Value bands;
  for (const auto& [key, bf] : merged.band_flows) {
    Value entry;
    entry.Set("accepted", Value(static_cast<int64_t>(bf.accepted)));
    entry.Set("taken", Value(static_cast<int64_t>(bf.taken)));
    entry.Set("putback", Value(static_cast<int64_t>(bf.putback)));
    bands.Set(NameOf(key.first) + "/band" + std::to_string(key.second),
              std::move(entry));
  }
  Value invocations;
  for (const auto& [op, count] : invocations_by_op_) {
    invocations.Set(op, Value(static_cast<int64_t>(count)));
  }
  std::vector<Violation> all = CheckMerged(merged);
  ValueList violations;
  for (const Violation& violation : all) {
    Value entry;
    Describe(violation, entry);
    violations.push_back(std::move(entry));
  }
  Value report;
  report.Set("events", Value(static_cast<int64_t>(events_seen_)));
  report.Set("flows", std::move(flows));
  if (!merged.band_flows.empty()) {
    report.Set("bands", std::move(bands));
  }
  report.Set("invocations", std::move(invocations));
  report.Set("ok", Value(all.empty()));
  report.Set("violations", Value(std::move(violations)));
  return report;
}

void InvariantMonitor::Clear() {
  shards_.Clear();
  flows_view_.clear();
  band_flows_view_.clear();
  invocations_by_op_.clear();
  expected_invocations_.clear();
  last_span_by_origin_.clear();
  events_seen_ = 0;
  violations_.clear();
  labels_.clear();
}

}  // namespace eden
