#include "src/core/stream_writer.h"

#include <algorithm>
#include <cstddef>
#include <string>

#include "src/core/retry.h"
#include "src/eden/monitor.h"

namespace eden {

Task<Status> StreamWriter::Send(bool end, Status failure) {
  if (options_.sequenced) {
    return SendSequenced(end, std::move(failure));
  }
  ValueList items;
  items.swap(pending_);
  return SendItems(std::move(items), end, Band::kData, std::move(failure));
}

Task<Status> StreamWriter::SendItems(ValueList items, bool end, Band band, Status failure) {
  items_written_ += items.size();
  if (InvariantMonitor* mon = owner_.kernel().monitor()) {
    if (!items.empty()) {
      mon->OnProduced(owner_.uid(), owner_.kernel().now(), items.size());
      mon->OnPushed(owner_.uid(), sink_, owner_.kernel().now(), items.size());
    }
  }
  // `items` is copied per attempt so a retry resends the same payload.
  auto make_args = [&] {
    pushes_sent_++;
    Value args = MakePushArgs(channel_, items, end, band);
    SetPushError(args, failure);
    return args;
  };
  InvokeResult result = co_await owner_.Invoke(sink_, std::string(kOpPush), make_args(),
                                               options_.deadline);
  if (!result.ok()) {
    int attempt = 0;
    result = co_await Retry(owner_, sink_, kOpPush, make_args, PolicyOf(options_), attempt,
                            &Status::ok_or_end, std::move(result));
  }
  status_ = std::move(result.status);
  co_return status_;
}

Task<Status> StreamWriter::SendSequenced(bool end, Status failure) {
  int attempt = 0;  // one retry budget across go-back-N rewinds
  for (;;) {
    uint64_t first = cursor_;
    uint64_t total = replay_base_ + replay_.size();
    uint64_t count = total - first;
    auto make_args = [&] {
      pushes_sent_++;
      if (InvariantMonitor* mon = owner_.kernel().monitor()) {
        // Only positions beyond the transmission high-water mark are fresh;
        // a resend retransmits already-counted items.
        if (first + count > sent_high_) {
          mon->OnPushed(owner_.uid(), sink_, owner_.kernel().now(), first + count - sent_high_);
        }
      }
      sent_high_ = std::max(sent_high_, first + count);
      Value args = MakePushArgs(
          channel_,
          ValueList(replay_.begin() + static_cast<ptrdiff_t>(first - replay_base_), replay_.end()),
          end, first);
      SetPushError(args, failure);
      return args;
    };
    InvokeResult result = co_await owner_.Invoke(sink_, std::string(kOpPush), make_args(),
                                                 options_.deadline);
    if (!result.ok() || attempt > 0) {
      result = co_await Retry(owner_, sink_, kOpPush, make_args, PolicyOf(options_), attempt,
                              &Status::ok, std::move(result));
    }
    if (!result.ok()) {
      status_ = std::move(result.status);
      co_return status_;
    }
    uint64_t next = static_cast<uint64_t>(
        result.value.Field(kFieldNext).IntOr(static_cast<int64_t>(first + count)));
    uint64_t ack = static_cast<uint64_t>(
        result.value.Field(kFieldAck).IntOr(static_cast<int64_t>(replay_base_)));
    if (next < replay_base_) {
      // The receiver wants items we have already discarded as durable —
      // its state regressed below its own advertised ack. Unrecoverable.
      status_ = Status(StatusCode::kInternal,
                       "receiver rewound below the acknowledged position");
      co_return status_;
    }
    // Positions the receiver checkpointed can never be re-requested.
    while (replay_base_ < ack && !replay_.empty()) {
      replay_.pop_front();
      replay_base_++;
    }
    if (InvariantMonitor* mon = owner_.kernel().monitor()) {
      mon->OnSequence(owner_.uid(), owner_.kernel().now(), "writer.ack",
                      replay_base_);
    }
    if (cursor_ < next) {
      cursor_ = std::min(next, total);
    }
    if (next >= first + count) {
      status_ = std::move(result.status);
      co_return status_;  // everything we sent was accepted (or already held)
    }
    // Gap: an earlier push was lost and the receiver refused this one.
    // Rewind to the first position it is missing and resend.
    cursor_ = next;
    owner_.kernel().stats().retries++;
  }
}

Task<Status> StreamWriter::Write(Value item) {
  if (ended_ || !status_.ok_or_end()) {
    co_return status_.ok_or_end() ? Status(StatusCode::kEndOfStream) : status_;
  }
  if (options_.sequenced) {
    replay_.push_back(std::move(item));
    items_written_++;
    if (InvariantMonitor* mon = owner_.kernel().monitor()) {
      mon->OnProduced(owner_.uid(), owner_.kernel().now(), 1);
    }
    uint64_t unsent = replay_base_ + replay_.size() - cursor_;
    if (static_cast<int64_t>(unsent) >= options_.batch) {
      co_return co_await Send(/*end=*/false);
    }
    co_return Status::Ok();
  }
  pending_.push_back(std::move(item));
  if (static_cast<int64_t>(pending_.size()) >= options_.batch) {
    co_return co_await Send(/*end=*/false);
  }
  co_return Status::Ok();
}

Task<Status> StreamWriter::WriteControl(Value item) {
  if (ended_ || !status_.ok_or_end()) {
    co_return status_.ok_or_end() ? Status(StatusCode::kEndOfStream) : status_;
  }
  if (options_.sequenced) {
    co_return co_await Write(std::move(item));
  }
  ValueList items;
  items.push_back(std::move(item));
  co_return co_await SendItems(std::move(items), /*end=*/false, Band::kControl, Status());
}

Task<Status> StreamWriter::End(Status failure) {
  if (ended_) {
    co_return status_;
  }
  ended_ = true;
  co_return co_await Send(/*end=*/true, std::move(failure));
}

Value StreamWriter::SaveState() const {
  Value state;
  state.Set("base", Value(replay_base_));
  state.Set("items", Value(ValueList(replay_.begin(), replay_.end())));
  state.Set("ended", Value(ended_));
  return state;
}

void StreamWriter::RestoreState(const Value& state) {
  replay_base_ = static_cast<uint64_t>(state.Field("base").IntOr(0));
  replay_.clear();
  if (const ValueList* items = state.Field("items").AsList()) {
    replay_.assign(items->begin(), items->end());
  }
  ended_ = state.Field("ended").BoolOr(false);
  // Resend the whole unacknowledged window; the receiver deduplicates.
  cursor_ = replay_base_;
  // A restored writer retransmits its window: assume the lost incarnation
  // already transmitted it so the monitor does not double count (crash runs
  // are outside the exact-balance guarantee either way; see monitor.h).
  sent_high_ = replay_base_ + replay_.size();
  status_ = Status::Ok();
}

}  // namespace eden
