#include "src/core/channel.h"

#include <utility>

#include "src/core/stream.h"
#include "src/eden/kernel.h"

namespace eden {

bool ChannelTable::Declare(std::string name, bool capability_only) {
  if (Contains(name)) {
    return false;
  }
  capability_only_[name] = capability_only;
  names_.push_back(std::move(name));
  return true;
}

bool ChannelTable::Contains(std::string_view name) const {
  return capability_only_.find(name) != capability_only_.end();
}

bool ChannelTable::IsCapabilityOnly(std::string_view name) const {
  auto it = capability_only_.find(name);
  return it != capability_only_.end() && it->second;
}

std::optional<Uid> ChannelTable::MintCapability(const std::string& name,
                                                Kernel& kernel) {
  if (!Contains(name)) {
    return std::nullopt;
  }
  Uid cap = kernel.uids().Next();
  capabilities_[cap] = name;
  return cap;
}

void ChannelTable::ServeOpenChannel(InvocationContext ctx, Kernel& kernel) {
  const std::string* name = ctx.Arg(kFieldName).AsStr();
  if (name == nullptr || !Contains(*name)) {
    ctx.ReplyError(StatusCode::kNoSuchChannel, "unknown channel name");
    return;
  }
  Value reply;
  reply.Set(std::string(kFieldChannel), Value(*MintCapability(*name, kernel)));
  ctx.Reply(std::move(reply));
}

std::optional<std::string> ChannelTable::Resolve(const Value& wire_id) const {
  if (auto uid = wire_id.AsUid()) {
    auto it = capabilities_.find(*uid);
    if (it == capabilities_.end()) {
      return std::nullopt;  // forged or stale capability
    }
    return it->second;
  }
  if (auto index = wire_id.AsInt()) {
    if (*index < 0 || static_cast<size_t>(*index) >= names_.size()) {
      return std::nullopt;
    }
    const std::string& name = names_[static_cast<size_t>(*index)];
    if (IsCapabilityOnly(name)) {
      return std::nullopt;
    }
    return name;
  }
  if (const std::string* name = wire_id.AsStr()) {
    if (!Contains(*name) || IsCapabilityOnly(*name)) {
      return std::nullopt;
    }
    return *name;
  }
  return std::nullopt;
}

}  // namespace eden
