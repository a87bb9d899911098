#include "src/eden/verify/topology.h"

#include <utility>

#include "src/eden/placement.h"

namespace eden::verify {

std::string_view FlavorName(Flavor flavor) {
  switch (flavor) {
    case Flavor::kReadOnly:
      return "read-only";
    case Flavor::kWriteOnly:
      return "write-only";
    case Flavor::kConventional:
      return "conventional";
    case Flavor::kMixed:
      return "mixed";
  }
  return "unknown";
}

StageSpec& TopologySpec::AddStage(StageSpec stage) {
  stages.push_back(std::move(stage));
  return stages.back();
}

EdgeSpec& TopologySpec::AddEdge(EdgeSpec edge) {
  edges.push_back(std::move(edge));
  return edges.back();
}

EdgeSpec& TopologySpec::Connect(const Uid& from, const Uid& to,
                                EdgeSpec::Mode mode, std::string channel,
                                Uid channel_uid) {
  EdgeSpec edge;
  edge.from = from;
  edge.to = to;
  edge.mode = mode;
  edge.channel = std::move(channel);
  edge.channel_uid = channel_uid;
  return AddEdge(std::move(edge));
}

const StageSpec* TopologySpec::Find(const Uid& uid) const {
  for (const StageSpec& stage : stages) {
    if (stage.uid == uid) {
      return &stage;
    }
  }
  return nullptr;
}

std::string TopologySpec::NameOf(const Uid& uid) const {
  if (const StageSpec* stage = Find(uid); stage != nullptr && !stage->name.empty()) {
    return stage->name;
  }
  return uid.Short();
}

int TopologySpec::ShardOf(const StageSpec& stage) const {
  return PlaceNode(stage.node, stage.shard_hint, shards);
}

}  // namespace eden::verify
