// Channel identifiers and the per-Eject channel table.
//
// Paper §5: "In the 'read only' model, a channel identifier is associated
// with each output stream, and each Read invocation is qualified by the
// appropriate identifier."
//
// Three identifier spellings are accepted on the wire:
//   * integer index — "We are experimenting with a 'read only' transput
//     system that uses integer channel identifiers" (§7); index i denotes
//     the i-th declared channel.
//   * string name — the documented channel names ("Output", "Report").
//   * capability UID — unforgeable identifiers minted by OpenChannel (§5);
//     a channel may be marked capability-only, in which case its integer
//     and string spellings are refused *as if the channel did not exist*
//     (kNoSuchChannel, so probing reveals nothing).
#ifndef SRC_CORE_CHANNEL_H_
#define SRC_CORE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/eden/uid.h"
#include "src/eden/value.h"

namespace eden {

class InvocationContext;
class Kernel;

// Resolves wire channel identifiers to declared channel names.
class ChannelTable {
 public:
  // Declares a channel; its integer identifier is its declaration order.
  // Returns the index. Declaring an existing name is an error (false).
  bool Declare(std::string name, bool capability_only = false);

  bool Contains(std::string_view name) const;
  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  // Mints a fresh capability UID for `name` (which must exist).
  std::optional<Uid> MintCapability(const std::string& name, Kernel& kernel);

  // Resolves a wire identifier (int / str / uid Value) to a channel name.
  // Capability-only channels resolve *only* via a minted UID.
  std::optional<std::string> Resolve(const Value& wire_id) const;

  bool IsCapabilityOnly(std::string_view name) const;

  // The OpenChannel handler both passive ends install: `{name}` -> a fresh
  // capability `{chan}`, or NO_SUCH_CHANNEL for an undeclared name.
  void ServeOpenChannel(InvocationContext ctx, Kernel& kernel);

  size_t minted_count() const { return capabilities_.size(); }

 private:
  std::vector<std::string> names_;            // index -> name
  std::map<std::string, bool, std::less<>> capability_only_;
  std::map<Uid, std::string> capabilities_;   // minted UID -> name
};

}  // namespace eden

#endif  // SRC_CORE_CHANNEL_H_
