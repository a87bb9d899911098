// Filter Ejects: one per transput discipline, all wrapping the same
// Transform and all running the one FilterEject loop.
//
//  * ReadOnlyFilter     — active input + passive output (paper §4, Figure 2)
//  * WriteOnlyFilter    — passive input + active output (paper §5, Figure 3)
//  * ConventionalFilter — active input + active output  (paper §3, Figure 1;
//                         needs PassiveBuffers for its correspondents)
//
// Because the Transform is shared, a pipeline built in any discipline from
// the same factories produces identical output — the invocation *structure*
// is the only thing that changes, which is precisely the paper's subject.
//
// Recovery mode (FilterRecoveryOptions::enabled) makes a filter
// crash-tolerant: its streams are sequenced, its active sides retry with
// deadlines, and it periodically checkpoints {input position, transform
// state, undelivered output} to the StableStore. A later invocation (a
// neighbour's retry, or a monitor's probe) reactivates it from that
// checkpoint and the stream positions make the restart exactly-once.
#ifndef SRC_CORE_FILTER_EJECT_H_
#define SRC_CORE_FILTER_EJECT_H_

#include <map>
#include <memory>
#include <string>

#include "src/core/stream_acceptor.h"
#include "src/core/stream_reader.h"
#include "src/core/stream_server.h"
#include "src/core/stream_writer.h"
#include "src/core/transform.h"
#include "src/eden/eject.h"
#include "src/eden/sync.h"

namespace eden {

// Shared fault-tolerance knobs for all three filter shapes.
struct FilterRecoveryOptions {
  // Master switch: sequence the streams, checkpoint periodically, answer
  // liveness probes ("Ping").
  bool enabled = false;
  // Input items between checkpoints.
  uint64_t checkpoint_every = 16;
  // Per-invocation deadline / retry policy for the filter's *active* stream
  // ends (reader Transfers, writer Pushes).
  Tick deadline = 0;
  int retry_attempts = 0;
  Tick retry_backoff = 0;  // first retry delay; doubles per attempt
  // Reactivation type name to register the Eject under. Must be unique per
  // instance within a kernel (a checkpoint names its type, and every
  // instance has different wiring). Empty = use the class type name, which
  // leaves the instance unrecoverable unless registered externally.
  std::string eject_type;

  // The deadline/retry knobs apply only while `enabled` is set. A classic
  // filter must never time out a Transfer: a hold-back stage downstream
  // (sort, tail) legitimately parks requests for the entire streaming
  // phase, and without sequence numbers a timed-out request's eventual
  // reply is item loss, not a retry.
  Tick effective_deadline() const { return enabled ? deadline : 0; }
  int effective_retry_attempts() const { return enabled ? retry_attempts : 0; }
  Tick effective_retry_backoff() const { return enabled ? retry_backoff : 0; }
};

// ---------------------------------------------------------------------------
// The one filter loop the three classes below share: a Transform between an
// input end (a StreamReader, or a StreamAcceptor on channel "in") and an
// output end (a StreamServer, or one StreamWriter per bound channel). The
// ends change one decision only: a passive input cannot stop an active
// upstream, so once the Transform is Done() it drains and discards. A failed
// input ends every output with its failure: a server aborts its channels,
// a writer sends it on its end marker.
class FilterEject : public Eject {
 public:
  // Active output: directs output channel `channel` at `sink` (wire channel
  // `sink_channel`). Must be called before data arrives. Unbound channels
  // discard.
  void BindOutput(const std::string& channel, Uid sink, Value sink_channel);

  void OnStart() override { Spawn(Run()); }
  void OnActivate() override { Spawn(Run()); }
  // {in, processed, transform, server | out}: the input position, the items
  // processed, the Transform's state and the undelivered output.
  Value SaveState() override;
  void RestoreState(const Value& state) override;

 protected:
  FilterEject(Kernel& kernel, const char* type, std::unique_ptr<Transform> transform,
              FilterRecoveryOptions recovery, int64_t batch, Tick processing_cost);

  // Active input: pull channel `channel` of `source`.
  void ReadFrom(Uid source, Value channel, size_t lookahead);

  std::unique_ptr<Transform> transform_;
  const FilterRecoveryOptions recovery_;
  std::unique_ptr<StreamReader> reader_;      // active input
  std::unique_ptr<StreamAcceptor> acceptor_;  // passive input
  std::unique_ptr<StreamServer> server_;      // passive output
  std::map<std::string, std::unique_ptr<StreamWriter>> writers_;  // active output
  std::unique_ptr<Gate> demand_;  // §4 laziness: opened by the first Transfer

 private:
  // Finish() has a frame of its own so Run's, allocated with every filter, stays small.
  Task<void> Run();
  Task<void> Finish();
  Task<void> DoCheckpoint();

  int64_t batch_;
  Tick processing_cost_;
  uint64_t items_processed_ = 0;
  bool restored_ = false;  // this incarnation came from a checkpoint
};

// ---------------------------------------------------------------------------
// Read-only discipline: active input + passive output, the paper's
// preferred filter shape (§4, Figure 2).
struct ReadOnlyFilterOptions {
  Uid source;                       // upstream Eject (must passively output)
  Value source_channel = Value(std::string(kChanOut));
  int64_t batch = 1;                // items per upstream Transfer
  size_t lookahead = 0;             // reader prefetch depth
  size_t work_ahead = 4;            // output buffer beyond demand (0 = lazy);
                                    // acts as the output hiwat
  size_t work_ahead_lowat = 0;      // resume producing below this (0 = derive)
  bool start_on_demand = false;     // do no work until first Transfer (§4)
  bool capability_only_channels = false;  // §5 channel security
  // Virtual compute charged per input item (models the filter's real work;
  // what work-ahead buffering overlaps with communication, §4).
  Tick processing_cost = 0;
  FilterRecoveryOptions recovery;
};

class ReadOnlyFilter : public FilterEject {
 public:
  static constexpr const char* kType = "ReadOnlyFilter";

  using Options = ReadOnlyFilterOptions;

  ReadOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                 Options options);

  StreamServer& server() { return *server_; }
};

// ---------------------------------------------------------------------------
// Write-only discipline: passive input + active output, the dual
// arrangement of §5 (Figure 3).
struct WriteOnlyFilterOptions {
  size_t input_hiwat = 8;     // withhold Push replies at this depth
  size_t input_lowat = 0;     // release them below this (0 = derive)
  int64_t batch = 1;  // items per downstream Push
  Tick processing_cost = 0;  // virtual compute per input item
  FilterRecoveryOptions recovery;
};

class WriteOnlyFilter : public FilterEject {
 public:
  static constexpr const char* kType = "WriteOnlyFilter";

  using Options = WriteOnlyFilterOptions;

  WriteOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                  Options options = {});
};

// ---------------------------------------------------------------------------
// Conventional discipline: active both ways; the data pump of §3 (Figure 1).
// The downstream correspondent must perform passive input (a PassiveBuffer
// or a PushSink).
class ConventionalFilter : public FilterEject {
 public:
  static constexpr const char* kType = "ConventionalFilter";

  struct Options {
    Uid source;
    Value source_channel = Value(std::string(kChanOut));
    int64_t batch = 1;
    size_t lookahead = 0;
    Tick processing_cost = 0;  // virtual compute per input item
    FilterRecoveryOptions recovery;
  };

  ConventionalFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                     Options options);
};

}  // namespace eden

#endif  // SRC_CORE_FILTER_EJECT_H_
