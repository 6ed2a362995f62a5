// Proxy↔host stream chunk framing (docs/PROTOCOL.md §8).
//
// A streaming xRPC call crosses the RDMA hop as a sequence of ordinary
// RPC over RDMA calls, one message per decoded piece, each payload
// prefixed with this 16-byte header. The proxy reserves the
// prefix hole at the front of every chunk buffer *before* handing it to
// the codec pool, so the decoded piece forwards to the host without a
// re-copy; the host engine peels the prefix, checks sequencing, and acks
// each chunk with an empty-OK response. The end-of-stream marker is a
// prefix-only payload with kStreamPrefixEnd set; its response becomes the
// stream's final xRPC response.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"
#include "rdmarpc/protocol.hpp"

namespace dpurpc::grpccompat {

/// StreamPrefix::stream_flags bit0: end-of-stream marker (payload is the
/// bare prefix; the response to this call completes the stream).
inline constexpr uint32_t kStreamPrefixEnd = 1u << 0;

struct StreamPrefix {
  uint32_t stream_id = 0;    ///< proxy-assigned, unique per connection
  uint32_t chunk_seq = 0;    ///< 0-based; the host rejects gaps/reorders
  uint32_t stream_flags = 0; ///< kStreamPrefixEnd only; others reserved
  uint32_t reserved = 0;     ///< must be zero
};
static_assert(sizeof(StreamPrefix) == 16, "StreamPrefix is 16 bytes on the wire");

inline constexpr size_t kStreamPrefixSize = sizeof(StreamPrefix);

/// Largest piece of stream bytes one forwarded RPC carries: prefix and
/// piece fill one RDMA message at most. Pieces travel untraced, so no
/// WireTrace prefix competes for the room.
inline constexpr size_t kMaxStreamPiece =
    rdmarpc::kMaxPayloadSize - kStreamPrefixSize;

inline void write_stream_prefix(std::byte* dst, const StreamPrefix& prefix) {
  std::memcpy(dst, &prefix, sizeof(prefix));
}

/// False on short payloads or a nonzero reserved word.
inline bool read_stream_prefix(ByteSpan payload, StreamPrefix* out) {
  if (payload.size() < kStreamPrefixSize) return false;
  std::memcpy(out, payload.data(), sizeof(*out));
  return out->reserved == 0;
}

}  // namespace dpurpc::grpccompat
