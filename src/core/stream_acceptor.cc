#include "src/core/stream_acceptor.h"

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>

#include "src/eden/metrics.h"
#include "src/eden/monitor.h"

namespace eden {

void StreamAcceptor::DeclareChannel(std::string name, ChannelOptions options) {
  bool fresh = table_.Declare(name, options.capability_only);
  assert(fresh && "input channel declared twice");
  (void)fresh;
  channels_.try_emplace(std::move(name), owner_, options);
}

void StreamAcceptor::InstallOps() {
  owner_.RegisterOp(std::string(kOpPush),
                    [this](InvocationContext ctx) { HandlePush(std::move(ctx)); });
  if (!owner_.Responds(std::string(kOpOpenChannel))) {
    owner_.RegisterOp(std::string(kOpOpenChannel), [this](InvocationContext ctx) {
      table_.ServeOpenChannel(std::move(ctx), owner_.kernel());
    });
  }
}

StreamAcceptor::InChannel* StreamAcceptor::Find(std::string_view name) {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}
const StreamAcceptor::InChannel* StreamAcceptor::Find(std::string_view name) const {
  auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

Value StreamAcceptor::PushReply(const InChannel& channel) const {
  if (!channel.sequenced()) {
    return Value();
  }
  Value reply;
  reply.Set(std::string(kFieldAck),
            Value(channel.explicit_durable ? channel.durable : channel.consumed));
  reply.Set(std::string(kFieldNext), Value(channel.next_seq));
  return reply;
}

void StreamAcceptor::HandlePush(InvocationContext ctx) {
  std::optional<std::string> name = table_.Resolve(ctx.Arg(kFieldChannel));
  if (!name) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel identifier");
    return;
  }
  InChannel* ch = Find(*name);
  assert(ch != nullptr);
  pushes_received_++;
  const ValueList* items = ctx.Arg(kFieldItems).AsList();
  size_t count = items == nullptr ? 0 : items->size();
  // A sequenced channel ignores the band field: it is single-band.
  Band band = ch->BandOf(ctx.Arg(kFieldBand).IntOr(0) != 0 ? Band::kControl
                                                           : Band::kData);
  size_t skip = 0;
  if (ch->sequenced()) {
    int64_t seq = ctx.Arg(kFieldSeq).IntOr(-1);
    if (seq >= 0) {
      uint64_t s = static_cast<uint64_t>(seq);
      if (s > ch->next_seq) {
        // Gap: a push we never saw carried positions [next_seq, s). Refuse —
        // ingesting would reorder the stream — and reply immediately so the
        // sender learns where to rewind to.
        ctx.Reply(PushReply(*ch));
        return;
      }
      // Duplicate prefix from a retrying sender: take only what is new.
      skip = std::min<size_t>(ch->next_seq - s, count);
      if (skip > 0) {
        owner_.kernel().stats().redeliveries_dropped += skip;
      }
    }
  }
  for (size_t i = skip; i < count; ++i) {
    ch->Push((*items)[i], band);
    ch->next_seq++;
    items_received_++;
  }
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    if (count > skip) {
      mon->OnAccepted(owner_.uid(), owner_.kernel().now(), count - skip,
                      BandIndex(band));
    }
    if (ch->sequenced()) {
      mon->OnSequence(owner_.uid(), owner_.kernel().now(), "acceptor.next",
                      ch->next_seq);
    }
  }
  if (ctx.Arg(kFieldEnd).BoolOr(false)) {
    ch->End(PushEndStatus(ctx.args()));
  }
  ch->ReportDepth();
  // Deferred service: wake a blocked consumer once, at the next event, so a
  // burst of pushes coalesces into one wakeup.
  ch->Wake();
  if (ch->ended()) {
    // Nothing more is coming; flow control is moot. Free any producer still
    // parked on an old push before answering this one.
    ReleaseWithheld(*ch);
  } else if (band == Band::kData) {
    // Flow control: the buffer reached hiwat (or earlier producers are
    // already parked — joining behind them keeps releases FIFO). Withhold
    // the reply until the owner drains below lowat. Control pushes are
    // exempt: they must overtake data, not park behind it. Every withheld
    // reply counts as a hiwat hit; the latch reports only the first.
    bool queued = !ch->withheld.empty();
    if (ch->Throttle()) {
      if (queued) {
        ch->Report(FlowEvent::kHiwatHit);
      }
      ch->withheld.push_back(ctx.TakeReply());
      return;
    }
  }
  ctx.Reply(PushReply(*ch));
}

void StreamAcceptor::ReleaseWithheld(InChannel& channel) {
  // The lowat rule: a parked producer stays parked until the owner drains
  // the queue below the low watermark (hysteresis — one wakeup per drain
  // cycle, not per item). End of stream voids flow control entirely: the
  // queue can only shrink, so every producer is released immediately —
  // including when `ended` arrives while a final drain is still in flight.
  if (!channel.ended() && !channel.Drained()) {
    return;
  }
  while (!channel.withheld.empty()) {
    ReplyHandle reply = std::move(channel.withheld.front());
    channel.withheld.pop_front();
    reply.Reply(PushReply(channel));
  }
}

template <typename Result>
Task<std::optional<Result>> StreamAcceptor::TakeNext(std::string_view channel,
                                                     std::optional<Band> only) {
  InChannel* ch = Find(channel);
  assert(ch != nullptr && "read from undeclared input channel");
  // A sequenced channel's control band is always empty, so a control-band
  // loop there simply idles until end of stream.
  auto empty = [ch, only] { return only ? ch->Empty(*only) : ch->Depth() == 0; };
  while (empty() && !ch->ended()) {
    co_await ch->Wait();
  }
  if (empty()) {
    ReleaseWithheld(*ch);
    co_return std::nullopt;
  }
  owner_.kernel().CountLocalStep();
  Taken taken = only ? ch->Pop(*only) : ch->Pop();
  ch->consumed++;
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    mon->OnConsumed(owner_.uid(), owner_.kernel().now(), 1,
                    BandIndex(taken.band));
  }
  ch->ReportDepth();
  ReleaseWithheld(*ch);
  if constexpr (std::is_same_v<Result, Taken>) {
    co_return std::move(taken);
  } else {
    co_return std::move(taken.item);
  }
}

template Task<std::optional<Value>> StreamAcceptor::TakeNext<Value>(
    std::string_view, std::optional<Band>);
template Task<std::optional<StreamAcceptor::Taken>>
StreamAcceptor::TakeNext<StreamAcceptor::Taken>(std::string_view,
                                                std::optional<Band>);

bool StreamAcceptor::CanPut(std::string_view channel, Band band) const {
  const InChannel* ch = Find(channel);
  // Control is never subject to flow control.
  return ch != nullptr && (ch->BandOf(band) == Band::kControl || ch->Admits());
}

void StreamAcceptor::PutBack(std::string_view channel, Value item, Band band) {
  InChannel* ch = Find(channel);
  assert(ch != nullptr && "put-back to undeclared input channel");
  assert(ch->consumed > 0 && "put-back without a matching take");
  band = ch->BandOf(band);
  // The position is back in the queue: un-consume it so sequenced acks (and
  // the saved consumed mark) stay truthful.
  ch->consumed--;
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    mon->OnPutBack(owner_.uid(), owner_.kernel().now(), 1, BandIndex(band));
  }
  ch->PutBack(std::move(item), band);
}

const Status& StreamAcceptor::status(std::string_view channel) const {
  static const Status kNoChannel(StatusCode::kNoSuchChannel);
  const InChannel* ch = Find(channel);
  return ch == nullptr ? kNoChannel : ch->status();
}

void StreamAcceptor::SetDurable(std::string_view channel, uint64_t pos) {
  InChannel* ch = Find(channel);
  assert(ch != nullptr && "SetDurable on undeclared input channel");
  ch->durable = pos;
  ch->explicit_durable = true;
}

Value StreamAcceptor::SaveChannels() const {
  ValueMap state;
  for (const auto& [name, ch] : channels_) {
    Value v;
    v.Set("ended", Value(ch.ended()));
    v.Set("next", Value(ch.next_seq));
    v.Set("consumed", Value(ch.consumed));
    ch.Save(v);
    state.emplace(name, std::move(v));
  }
  return Value(std::move(state));
}

void StreamAcceptor::RestoreChannels(const Value& state) {
  const ValueMap* map = state.AsMap();
  if (map == nullptr) {
    return;
  }
  for (const auto& [name, v] : *map) {
    InChannel* ch = Find(name);
    if (ch == nullptr) {
      continue;  // channel set is part of the type, not the checkpoint
    }
    ch->Restore(v, v.Field("ended").BoolOr(false));
    ch->next_seq = static_cast<uint64_t>(v.Field("next").IntOr(0));
    ch->consumed = static_cast<uint64_t>(v.Field("consumed").IntOr(0));
    if (ch->sequenced()) {
      // Everything the checkpoint accepted is, by definition, durable now.
      ch->durable = ch->next_seq;
      ch->explicit_durable = true;
    }
  }
}

}  // namespace eden
