// Unified knobs for both halves of the ADT datapath codec.
//
// The deserializer (ArenaDeserializer) and the serializer
// (ObjectSerializer) are the two directions of the same offload and share
// their limits. One options struct keeps call sites symmetric — a DpuProxy
// configures its whole datapath with a single value.
#pragma once

namespace dpurpc::adt {

struct CodecOptions {
  bool validate_utf8 = true;        ///< proto3 requires it for `string` fields
  int max_recursion_depth = 100;    ///< hostile nesting guard, both directions
};

}  // namespace dpurpc::adt
