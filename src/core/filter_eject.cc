#include "src/core/filter_eject.h"

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

namespace eden {

namespace {

// Items emitted by one Transform step, tagged with their channel.
using EmittedItems = std::vector<std::pair<std::string, Value>>;

EmittedItems ApplyItem(Transform& transform, const Value& item) {
  EmittedItems emitted;
  transform.OnItem(item, [&emitted](std::string_view channel, Value v) {
    emitted.emplace_back(std::string(channel), std::move(v));
  });
  return emitted;
}

EmittedItems ApplyEnd(Transform& transform) {
  EmittedItems emitted;
  transform.OnEnd([&emitted](std::string_view channel, Value v) {
    emitted.emplace_back(std::string(channel), std::move(v));
  });
  return emitted;
}

}  // namespace

// --------------------------------------------------------------- FilterEject

FilterEject::FilterEject(Kernel& kernel, const char* type, std::unique_ptr<Transform> transform,
                         FilterRecoveryOptions recovery, int64_t batch, Tick processing_cost)
    : Eject(kernel, recovery.eject_type.empty() ? std::string(type) : recovery.eject_type),
      transform_(std::move(transform)),
      recovery_(std::move(recovery)),
      batch_(batch),
      processing_cost_(processing_cost) {
  assert(transform_ != nullptr);
  if (recovery_.enabled) {
    Register("Ping", [](InvocationContext ctx) { ctx.Reply(); });
  }
}

void FilterEject::ReadFrom(Uid source, Value channel, size_t lookahead) {
  reader_ = std::make_unique<StreamReader>(
      *this, source, std::move(channel),
      StreamReader::Options{batch_, lookahead, recovery_.effective_deadline(),
                            recovery_.effective_retry_attempts(),
                            recovery_.effective_retry_backoff(), recovery_.enabled});
  if (recovery_.enabled) {
    // Nothing upstream may be forgotten until our first checkpoint covers it.
    reader_->set_durable(0);
  }
}

void FilterEject::BindOutput(const std::string& channel, Uid sink, Value sink_channel) {
  StreamWriter::Options writer{batch_, recovery_.effective_deadline(),
                               recovery_.effective_retry_attempts(),
                               recovery_.effective_retry_backoff(),
                               recovery_.enabled};
  writers_[channel] =
      std::make_unique<StreamWriter>(*this, sink, std::move(sink_channel), writer);
}

Value FilterEject::SaveState() {
  Value state;
  state.Set("in", reader_ ? Value(reader_->consumed()) : acceptor_->SaveChannels());
  state.Set("processed", Value(items_processed_));
  state.Set("transform", transform_->SaveState());
  if (server_) {
    state.Set("server", server_->SaveChannels());
  } else {
    Value out;
    for (auto& [channel, writer] : writers_) {
      out.Set(channel, writer->SaveState());
    }
    state.Set("out", std::move(out));
  }
  return state;
}

void FilterEject::RestoreState(const Value& state) {
  restored_ = true;
  items_processed_ = static_cast<uint64_t>(state.Field("processed").IntOr(0));
  transform_->RestoreState(state.Field("transform"));
  if (reader_) {
    uint64_t in = static_cast<uint64_t>(state.Field("in").IntOr(0));
    reader_->ResumeAt(in);
    reader_->set_durable(in);
  } else {
    acceptor_->RestoreChannels(state.Field("in"));
  }
  if (server_) {
    server_->RestoreChannels(state.Field("server"));
  }
  const Value& out = state.Field("out");
  for (auto& [channel, writer] : writers_) {
    if (out.HasField(channel)) {
      writer->RestoreState(out.Field(channel));
    }
  }
}

Task<void> FilterEject::DoCheckpoint() {
  co_await Sleep(kernel_.costs().checkpoint);
  Checkpoint();
  // Everything the checkpoint consumed is durable here; upstream may drop
  // it from its replay window.
  if (reader_) {
    reader_->set_durable(reader_->consumed());
  } else {
    acceptor_->SetDurable(kChanIn, acceptor_->accepted(kChanIn));
  }
}

Task<void> FilterEject::Run() {
  if (recovery_.enabled && !restored_) {
    // Establish a passive representation before any fault can land, so a
    // reactivating invocation always finds one.
    co_await DoCheckpoint();
  }
  if (demand_) {
    // §4 laziness: "each Eject may be programmed so as not to do any work
    // until it is asked for output."
    co_await demand_->Wait();
  }
  for (;;) {
    std::optional<Value> item;
    if (reader_) {
      item = co_await reader_->Next();
    } else {
      item = co_await acceptor_->Next(kChanIn);
    }
    if (!item) {
      break;
    }
    if (acceptor_ && transform_->Done()) {
      continue;  // cannot stop an active-output upstream: drain and discard
    }
    items_processed_++;
    if (processing_cost_ > 0) {
      co_await Sleep(processing_cost_);
    }
    for (auto& [channel, value] : ApplyItem(*transform_, *item)) {
      if (server_) {
        co_await server_->Write(channel, std::move(value));
      } else if (auto it = writers_.find(channel); it != writers_.end()) {
        co_await it->second->Write(std::move(value));
      }
    }
    if (reader_ && transform_->Done()) {
      break;  // lazy pull: stop issuing Transfers; even infinite upstreams end
    }
    if (recovery_.enabled && items_processed_ % recovery_.checkpoint_every == 0) {
      co_await DoCheckpoint();
    }
  }
  co_await Finish();
}

Task<void> FilterEject::Finish() {
  const Status& input = reader_ ? reader_->status() : acceptor_->status(kChanIn);
  if (!input.ok_or_end()) {
    // Upstream failed mid-stream: end every output with that failure
    // instead of masquerading as a clean end.
    if (server_) {
      server_->AbortAll(input);
    }
    for (auto& [channel, writer] : writers_) {
      co_await writer->End(input);
    }
    co_return;
  }
  for (auto& [channel, value] : ApplyEnd(*transform_)) {
    if (server_) {
      co_await server_->Write(channel, std::move(value));
    } else if (auto it = writers_.find(channel); it != writers_.end()) {
      co_await it->second->Write(std::move(value));
    }
  }
  if (server_) {
    server_->CloseAll();
  }
  for (auto& [channel, writer] : writers_) {
    co_await writer->End();
  }
  if (recovery_.enabled) {
    // Final checkpoint: a crash after this still serves the tail (and the
    // end markers) from the restored replay window.
    co_await DoCheckpoint();
  }
}

// ------------------------------------------------------------ ReadOnlyFilter

ReadOnlyFilter::ReadOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                               Options options)
    : FilterEject(kernel, kType, std::move(transform), std::move(options.recovery),
                  options.batch, options.processing_cost) {
  ReadFrom(options.source, std::move(options.source_channel), options.lookahead);
  server_ = std::make_unique<StreamServer>(*this);
  demand_ = std::make_unique<Gate>(*this);
  for (const std::string& name : transform_->output_channels()) {
    StreamServer::ChannelOptions channel_options;
    channel_options.hiwat = options.work_ahead;
    channel_options.lowat = options.work_ahead_lowat;
    channel_options.capability_only = options.capability_only_channels;
    channel_options.sequenced = recovery_.enabled;
    server_->DeclareChannel(name, channel_options);
  }
  server_->InstallOps();
  if (options.start_on_demand) {
    server_->set_on_first_demand([this] { demand_->Open(); });
  } else {
    demand_->Open();
  }
}

// ----------------------------------------------------------- WriteOnlyFilter

WriteOnlyFilter::WriteOnlyFilter(Kernel& kernel, std::unique_ptr<Transform> transform,
                                 Options options)
    : FilterEject(kernel, kType, std::move(transform), std::move(options.recovery),
                  options.batch, options.processing_cost) {
  acceptor_ = std::make_unique<StreamAcceptor>(*this);
  StreamAcceptor::ChannelOptions in;
  in.hiwat = options.input_hiwat;
  in.lowat = options.input_lowat;
  in.sequenced = recovery_.enabled;
  acceptor_->DeclareChannel(std::string(kChanIn), in);
  acceptor_->InstallOps();
  if (recovery_.enabled) {
    // Until the first checkpoint, advertise nothing as durable: the sender
    // must keep its whole replay window for us.
    acceptor_->SetDurable(kChanIn, 0);
  }
}

// -------------------------------------------------------- ConventionalFilter

ConventionalFilter::ConventionalFilter(Kernel& kernel,
                                       std::unique_ptr<Transform> transform,
                                       Options options)
    : FilterEject(kernel, kType, std::move(transform), std::move(options.recovery),
                  options.batch, options.processing_cost) {
  ReadFrom(options.source, std::move(options.source_channel), options.lookahead);
}

}  // namespace eden
