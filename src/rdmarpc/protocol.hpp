// RPC over RDMA wire protocol (§IV of the paper).
//
// Messages are batched into *blocks* — the unit of RDMA transfer — because
// ~90% of real RPCs are ≤512 B and a two-sided operation costs a physical
// packet per side. A block is:
//
//   | preamble | header #1 | payload #1 | header #2 | payload #2 | ... |
//
// written to remote memory with one write-with-immediate. The 4-byte
// immediate carries the block's *bucket*: offset = bucket × 1024, which
// addresses 4 TiB of receive buffer while keeping blocks 1 KiB-aligned.
// Preamble and headers are 8-byte aligned, payloads too, so the receiving
// side processes everything zero-copy. All integers little-endian.
#pragma once

#include <cstdint>

#include "common/align.hpp"
#include "common/endian.hpp"
#include "common/status.hpp"

namespace dpurpc::rdmarpc {

/// Per-block preamble. 16 bytes, amortized over the whole block.
struct Preamble {
  /// Messages in this block (paper: max 2^16).
  uint16_t message_count;
  /// Piggybacked implicit acknowledgment: count of blocks from the peer
  /// processed since our previous send (client→server direction; §IV.B).
  uint16_t ack_blocks;
  /// Total block length in bytes including this preamble (validation).
  uint32_t block_bytes;
  /// Reserved for background-RPC bookkeeping (§III.D); zero today.
  uint64_t reserved;
};
static_assert(sizeof(Preamble) == 16);

/// Per-message header. 8 bytes; precedes every payload.
///
/// Requests do NOT carry their request ID — both sides derive it from the
/// deterministic pool synchronized by the reliable connection's ordering
/// (§IV.D). Responses reuse `id_or_method` to name the request they answer
/// (foreground RPCs respond in block order, but carrying the ID keeps the
/// protocol ready for background RPCs, which complete out of order).
struct MsgHeader {
  /// Payload bytes that follow (paper: max 2^16-1; larger payloads would
  /// switch to varint length encoding).
  uint16_t payload_size;
  /// Requests: method id. Responses: request id being answered.
  uint16_t id_or_method;
  /// Bit 0: payload is a pre-deserialized in-place object (offload path)
  /// rather than serialized bytes. Bit 1: response carries an error status
  /// code in `aux` instead of a payload. Bit 2: payload starts with a
  /// WireTrace prefix. Every other bit is reserved (kKnownFlags).
  uint16_t flags;
  /// Offload path: ADT class index of the in-place object. Error path:
  /// status code.
  uint16_t aux;
};
static_assert(sizeof(MsgHeader) == 8);

inline constexpr uint16_t kFlagInPlaceObject = 1u << 0;
inline constexpr uint16_t kFlagErrorStatus = 1u << 1;
/// Payload starts with a WireTrace prefix (stripped by BlockReader::next).
inline constexpr uint16_t kFlagTraced = 1u << 2;
/// Every flag bit a sender may set. Bits 3-15 are reserved: BlockReader::next
/// fails a message carrying any of them with kDataLoss.
inline constexpr uint16_t kKnownFlags =
    kFlagInPlaceObject | kFlagErrorStatus | kFlagTraced;

/// Per-message trace prefix (DESIGN.md §3.15): the first kWireTraceSize
/// payload bytes of a kFlagTraced message. 24 bytes, 8-aligned like every
/// payload, so stripping it keeps the remaining payload kPayloadAlign'd —
/// in-place objects land with their root at the post-prefix address.
/// BlockWriter::begin_message writes it (its only writer), and
/// `send_ns` is stamped by BlockWriter::finalize (the flush instant) so
/// the receiver can attribute wire+poll time without clock handshakes
/// (both ends share CLOCK_MONOTONIC in this single-process harness).
struct WireTrace {
  uint64_t trace_id;
  uint64_t parent_span_id;
  uint64_t send_ns;
};
static_assert(sizeof(WireTrace) == 24);
inline constexpr uint32_t kWireTraceSize = sizeof(WireTrace);

inline constexpr uint32_t kPreambleSize = sizeof(Preamble);
inline constexpr uint32_t kHeaderSize = sizeof(MsgHeader);
inline constexpr uint32_t kMaxPayloadSize = UINT16_MAX;
inline constexpr uint32_t kMaxMessagesPerBlock = UINT16_MAX;

/// Pure-ack immediates: top bit set, pending-ack count in the low 16 bits.
/// Blocks never use the top bit (it would require a 2 TiB receive buffer).
inline constexpr uint32_t kPureAckImmFlag = 0x8000'0000u;

/// Immediate-data bucket addressing (§IV.E).
constexpr uint32_t bucket_of(uint64_t block_offset) noexcept {
  return static_cast<uint32_t>(block_offset / kBlockAlign);
}
constexpr uint64_t offset_of_bucket(uint32_t bucket) noexcept {
  return static_cast<uint64_t>(bucket) * kBlockAlign;
}

/// Space a message occupies inside a block (header + 8-aligned payload).
constexpr uint64_t message_slot_size(uint32_t payload_size) noexcept {
  return kHeaderSize + align_up(payload_size, kPayloadAlign);
}

}  // namespace dpurpc::rdmarpc
