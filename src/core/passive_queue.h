// PassiveQueue: the one queue behind both passive stream ends.
//
// Passive output (StreamServer, §4) and passive input (StreamAcceptor, §5)
// are duals: each is a buffer shared between the owner's processes and a
// responder answering the other side's invocations, and each parks one party
// until the other acts. This is that buffer, STREAMS-style:
//
//  * two priority bands: control overtakes queued data; a sequenced channel
//    is single-band (positions define a total order overtaking would break);
//  * a hiwat/lowat hysteresis latch: data is refused from the moment the
//    queue reaches hiwat until it has drained below lowat, so a saturated
//    producer is woken once per drain cycle, not once per item;
//  * put-back (putbq) to the front of a band;
//  * an end, clean or with the Status the stream failed with;
//  * a coalesced wakeup (deferred service procedure) for the parked owner;
//  * its queue-depth and flow-event reports, and checkpointing of both bands.
//
// Each end keeps only what is its own: the server its parked Transfers and
// replay window, the acceptor its withheld Push replies and its
// consumed/durable marks.
#ifndef SRC_CORE_PASSIVE_QUEUE_H_
#define SRC_CORE_PASSIVE_QUEUE_H_

#include <deque>
#include <utility>

#include "src/core/stream.h"
#include "src/eden/eject.h"
#include "src/eden/metrics.h"
#include "src/eden/sync.h"

namespace eden {

class PassiveQueue {
 public:
  // One item taken from the queue, with the band it travelled on.
  struct Taken {
    Value item;
    Band band = Band::kData;
  };

  PassiveQueue(Eject& owner, StreamComponent component, FlowLimits limits,
               bool sequenced)
      : owner_(owner),
        component_(component),
        limits_(limits),
        sequenced_(sequenced),
        waiters_(owner),
        service_(owner.kernel(), [this] { waiters_.NotifyAll(); }) {}
  PassiveQueue(const PassiveQueue&) = delete;
  PassiveQueue& operator=(const PassiveQueue&) = delete;

  // ---- Storage and bands.
  size_t Depth() const { return data_.size() + control_.size(); }
  bool Empty(Band band) const { return Lane(band).empty(); }
  const FlowLimits& limits() const { return limits_; }
  bool sequenced() const { return sequenced_; }
  // The band an item written on `band` travels on here.
  Band BandOf(Band band) const { return sequenced_ ? Band::kData : band; }

  void Push(Value item, Band band) { Lane(band).push_back(std::move(item)); }
  // putbq: back to the front of its band, order within the band preserved.
  void PutBack(Value item, Band band) {
    Lane(band).push_front(std::move(item));
    Report(FlowEvent::kPutBack);
    ReportDepth();
  }
  // The front item of `band`; queued control taken ahead of data is
  // reported as an overtake.
  Taken Pop(Band band) {
    std::deque<Value>& queue = Lane(band);
    Taken taken{std::move(queue.front()), band};
    queue.pop_front();
    if (band == Band::kControl && !data_.empty()) {
      Report(FlowEvent::kBandOvertake);
    }
    return taken;
  }
  // The front item, control ahead of data. The queue must not be empty.
  Taken Pop() { return Pop(control_.empty() ? Band::kData : Band::kControl); }

  // ---- Admission (data band only: control is never flow-controlled).
  // STREAMS canput: would a data put be admitted right now?
  bool Admits() const {
    size_t depth = Depth();
    return depth < limits_.hiwat && !(blocked_ && depth >= limits_.lowat);
  }
  // The same rule, latched: closes at hiwat (reporting kHiwatHit as it
  // closes) and opens below lowat. True while a data put must wait.
  bool Throttle() {
    size_t depth = Depth();
    if (depth >= limits_.hiwat) {
      if (!blocked_) {
        blocked_ = true;
        Report(FlowEvent::kHiwatHit);
      }
    } else if (depth < limits_.lowat) {
      blocked_ = false;
    }
    return blocked_;
  }
  // Opens the latch if the queue has drained below lowat; true if it has.
  bool Drained() {
    if (Depth() >= limits_.lowat) {
      return false;
    }
    blocked_ = false;
    return true;
  }

  // ---- Ending. A clean end keeps the queued tail for the consumer; a failed
  // end discards it, so the consumer learns of the failure at once. The
  // first failure sticks. Flow control is moot once the stream has ended.
  void End(Status status = Status(StatusCode::kEndOfStream)) {
    ended_ = true;
    blocked_ = false;
    if (status.ok_or_end()) {
      if (status_.ok()) {
        status_ = Status(StatusCode::kEndOfStream);
      }
      return;
    }
    if (!failed()) {
      status_ = std::move(status);
    }
    data_.clear();
    control_.clear();
  }
  bool ended() const { return ended_; }
  bool failed() const { return !status_.ok_or_end(); }
  // kOk while open, kEndOfStream after a clean end, else the failure.
  const Status& status() const { return status_; }

  // ---- Waking the owner process parked on this queue.
  CondVar::Waiter Wait() { return waiters_.Wait(); }
  // Deferred service: one wakeup at the next event, however many puts or
  // drains precede it.
  void Wake() {
    if (waiters_.waiter_count() > 0) {
      service_.Schedule();
    }
  }
  void WakeNow() { waiters_.NotifyAll(); }

  // ---- Reporting, as this queue's component and owner.
  void ReportDepth() const {
    owner_.kernel().ObserveQueueDepth(component_, owner_.uid(), Depth());
  }
  void Report(FlowEvent event) const {
    owner_.kernel().ObserveFlowEvent(component_, owner_.uid(), event);
  }

  // ---- Checkpointing both bands ("buffer" and, when non-empty, "control").
  // Restore also takes the end flag the owning end saved beside them.
  void Save(Value& state) const {
    state.Set("buffer", Value(ValueList(data_.begin(), data_.end())));
    if (!control_.empty()) {
      state.Set("control", Value(ValueList(control_.begin(), control_.end())));
    }
  }
  void Restore(const Value& state, bool ended) {
    data_.clear();
    control_.clear();
    if (const ValueList* data = state.Field("buffer").AsList()) {
      data_.assign(data->begin(), data->end());
    }
    if (const ValueList* control = state.Field("control").AsList()) {
      control_.assign(control->begin(), control->end());
    }
    blocked_ = false;
    ended_ = ended;
    status_ = ended ? Status(StatusCode::kEndOfStream) : Status::Ok();
  }

 private:
  std::deque<Value>& Lane(Band band) {
    return band == Band::kControl ? control_ : data_;
  }
  const std::deque<Value>& Lane(Band band) const {
    return band == Band::kControl ? control_ : data_;
  }

  Eject& owner_;
  StreamComponent component_;
  FlowLimits limits_;
  bool sequenced_;
  bool ended_ = false;
  bool blocked_ = false;  // the hysteresis latch
  Status status_;
  std::deque<Value> data_;
  std::deque<Value> control_;
  CondVar waiters_;
  ServiceProc service_;
};

}  // namespace eden

#endif  // SRC_CORE_PASSIVE_QUEUE_H_
