#include "src/core/stream_server.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/eden/metrics.h"
#include "src/eden/monitor.h"

namespace eden {

void StreamServer::DeclareChannel(std::string name, ChannelOptions options) {
  bool fresh = table_.Declare(name, options.capability_only);
  assert(fresh && "channel declared twice");
  (void)fresh;
  channels_.try_emplace(std::move(name), owner_, options);
}

void StreamServer::InstallOps() {
  owner_.RegisterOp(std::string(kOpTransfer),
                    [this](InvocationContext ctx) { HandleTransfer(std::move(ctx)); });
  owner_.RegisterOp(std::string(kOpOpenChannel), [this](InvocationContext ctx) {
    if (channels_locked_) {
      ctx.ReplyError(StatusCode::kPermissionDenied, "channel table is locked");
      return;
    }
    table_.ServeOpenChannel(std::move(ctx), owner_.kernel());
  });
}

StreamServer::OutChannel* StreamServer::Find(std::string_view name) {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}
const StreamServer::OutChannel* StreamServer::Find(std::string_view name) const {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

Task<void> StreamServer::Write(std::string_view channel, Value item, Band band) {
  OutChannel* ch = Find(channel);
  assert(ch != nullptr && "write to undeclared channel");
  band = ch->BandOf(band);
  if (band == Band::kData) {
    // The producer may run ahead of demand by at most `hiwat` items; with
    // hiwat 0 (pure §4 laziness) it proceeds only when a consumer is
    // already waiting. Once blocked at hiwat it stays blocked until the
    // buffer drains below lowat. Control writes skip this entirely: they
    // must overtake data.
    while (!ch->ended() && ch->parked.empty() &&
           (ch->limits().hiwat == 0 || ch->Throttle())) {
      co_await ch->Wait();
    }
  }
  if (ch->ended()) {
    co_return;  // late writes after Close are dropped
  }
  if (!ch->parked.empty()) {
    // Proceeding because a consumer's Transfer is already parked: from here
    // on this continuation is serving that demand, so the producer's next
    // sends (its own upstream pull included) join the demand's causal span.
    owner_.kernel().AdoptSpan(ch->parked.front().reply.id());
  }
  owner_.kernel().CountLocalStep();
  ch->Push(std::move(item), band);
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    mon->OnProduced(owner_.uid(), owner_.kernel().now(), 1);
  }
  ch->ReportDepth();
  Pump(*ch);
}

bool StreamServer::CanPut(std::string_view channel, Band band) const {
  const OutChannel* ch = Find(channel);
  if (ch == nullptr || ch->ended()) {
    return false;
  }
  // Control is never flow-controlled, and parked demand admits a write
  // regardless of depth; without demand, pure laziness admits nothing.
  if (ch->BandOf(band) == Band::kControl || !ch->parked.empty()) {
    return true;
  }
  return ch->limits().hiwat != 0 && ch->Admits();
}

void StreamServer::PutBack(std::string_view channel, Value item, Band band) {
  OutChannel* ch = Find(channel);
  assert(ch != nullptr && "put-back to undeclared channel");
  // The item enters the production buffer for the first time (the owner
  // cannot take items back out of a server buffer), so it counts as
  // produced — conservation must see it before Pump serves it.
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    mon->OnProduced(owner_.uid(), owner_.kernel().now(), 1);
  }
  ch->PutBack(std::move(item), ch->BandOf(band));
}

void StreamServer::Close(std::string_view channel) {
  OutChannel* ch = Find(channel);
  assert(ch != nullptr && "close of undeclared channel");
  if (!ch->ended()) {
    Finish(*ch, Status(StatusCode::kEndOfStream));
  }
}

void StreamServer::CloseAll() {
  for (auto& [name, channel] : channels_) {
    if (!channel.ended()) {
      Finish(channel, Status(StatusCode::kEndOfStream));
    }
  }
}

void StreamServer::AbortAll(Status status) {
  for (auto& [name, channel] : channels_) {
    Finish(channel, status);
  }
}

void StreamServer::Finish(OutChannel& channel, Status status) {
  channel.End(std::move(status));
  Pump(channel);
  channel.WakeNow();
}

void StreamServer::Pump(OutChannel& channel) {
  while (!channel.parked.empty()) {
    if (!channel.failed()) {
      // A request for an already-served position can be answered from the
      // replay window even with an empty buffer.
      const Parked& front = channel.parked.front();
      bool replayable = channel.sequenced() && front.seq >= 0 &&
                        static_cast<uint64_t>(front.seq) < channel.next_seq;
      if (channel.Depth() == 0 && !channel.ended() && !replayable) {
        break;  // nothing to serve yet; keep the vacuum
      }
    }
    Parked request = std::move(channel.parked.front());
    channel.parked.pop_front();
    if (channel.failed()) {
      transfers_aborted_++;
      request.reply.ReplyStatus(channel.status());
      continue;
    }
    // Where this reply starts. Classic requests take the next fresh item; a
    // sequenced request names its position. Requests *ahead* of production
    // happen when a restored producer rolled back and is regenerating items
    // the consumer already has — serve from next_seq and let the consumer
    // discard the duplicate prefix.
    uint64_t pos = channel.next_seq;
    if (channel.sequenced() && request.seq >= 0) {
      uint64_t want = static_cast<uint64_t>(request.seq);
      if (want < channel.replay_base) {
        transfers_served_++;
        request.reply.ReplyError(
            StatusCode::kInternal,
            "requested position already discarded from the replay window");
        continue;
      }
      pos = std::min(want, channel.next_seq);
    }
    uint64_t first = pos;
    ValueList items;
    size_t fresh = 0;
    bool redelivered = false;
    int64_t take = std::max<int64_t>(request.max, 1);
    while (take-- > 0) {
      // Queued control items lead every batch, ahead of replay and data.
      // (Sequenced channels never queue control.)
      if (channel.Empty(Band::kControl) && pos < channel.next_seq) {
        items.push_back(channel.replay[pos - channel.replay_base]);
        redelivered = true;
        pos++;
        continue;
      }
      if (channel.Depth() == 0) {
        break;
      }
      PassiveQueue::Taken taken = channel.Pop();
      if (taken.band == Band::kData) {
        if (channel.sequenced()) {
          channel.replay.push_back(taken.item);
        }
        channel.next_seq++;
        pos++;
      }
      items.push_back(std::move(taken.item));
      fresh++;
    }
    bool end = channel.ended() && channel.Depth() == 0 && pos >= channel.next_seq;
    items_delivered_ += fresh;
    transfers_served_++;
    if (InvariantMonitor* mon = owner_.kernel().monitor()) {
      // Fresh items only: replayed positions were counted when first served.
      if (fresh > 0) {
        mon->OnServed(owner_.uid(), owner_.kernel().now(), fresh);
      }
      if (channel.sequenced()) {
        mon->OnSequence(owner_.uid(), owner_.kernel().now(), "server.next",
                        channel.next_seq);
      }
    }
    if (redelivered) {
      owner_.kernel().stats().redeliveries++;
    }
    request.reply.Reply(channel.sequenced()
                            ? MakeBatchReply(std::move(items), end, first)
                            : MakeBatchReply(std::move(items), end));
  }
  channel.ReportDepth();
  // Back-enable the producer under the lowat rule: closed channels and
  // parked demand always release; a watermarked channel releases only once
  // drained below lowat (opening the hysteresis latch). Deferred service
  // coalesces the wakeup to drain time.
  bool drained = channel.Drained();
  if (channel.ended() || drained || !channel.parked.empty()) {
    channel.Wake();
  }
}

void StreamServer::HandleTransfer(InvocationContext ctx) {
  if (!demand_seen_) {
    demand_seen_ = true;
    if (on_first_demand_) {
      on_first_demand_();
    }
  }
  std::optional<std::string> name = table_.Resolve(ctx.Arg(kFieldChannel));
  if (!name) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel identifier");
    return;
  }
  OutChannel* ch = Find(*name);
  assert(ch != nullptr);
  if (ch->sequenced() && ctx.args().HasField(kFieldAck)) {
    // Positions below the caller's durable mark can never be re-requested.
    uint64_t ack = static_cast<uint64_t>(ctx.Arg(kFieldAck).IntOr(0));
    while (ch->replay_base < ack && !ch->replay.empty()) {
      ch->replay.pop_front();
      ch->replay_base++;
    }
    if (InvariantMonitor* mon = owner_.kernel().monitor()) {
      mon->OnSequence(owner_.uid(), owner_.kernel().now(), "server.ack",
                      ch->replay_base);
    }
  }
  Parked parked;
  parked.max = ctx.Arg(kFieldMax).IntOr(1);
  parked.seq = ctx.Arg(kFieldSeq).IntOr(-1);
  parked.reply = ctx.TakeReply();
  ch->parked.push_back(std::move(parked));
  Pump(*ch);
}

Value StreamServer::SaveChannels() const {
  ValueMap state;
  for (const auto& [name, ch] : channels_) {
    Value v;
    v.Set("closed", Value(ch.ended()));
    v.Set("next", Value(ch.next_seq));
    v.Set("base", Value(ch.replay_base));
    v.Set("replay", Value(ValueList(ch.replay.begin(), ch.replay.end())));
    ch.Save(v);
    state.emplace(name, std::move(v));
  }
  return Value(std::move(state));
}

void StreamServer::RestoreChannels(const Value& state) {
  const ValueMap* map = state.AsMap();
  if (map == nullptr) {
    return;
  }
  for (const auto& [name, v] : *map) {
    OutChannel* ch = Find(name);
    if (ch == nullptr) {
      continue;  // channel set is part of the type, not the checkpoint
    }
    ch->Restore(v, v.Field("closed").BoolOr(false));
    ch->next_seq = static_cast<uint64_t>(v.Field("next").IntOr(0));
    ch->replay_base = static_cast<uint64_t>(v.Field("base").IntOr(0));
    ch->replay.clear();
    if (const ValueList* replay = v.Field("replay").AsList()) {
      ch->replay.assign(replay->begin(), replay->end());
    }
  }
}

}  // namespace eden
