// Block construction and parsing (§IV.A).
//
// BlockWriter fills a region allocated from the send buffer: preamble,
// then header/payload pairs, everything 8-byte aligned so the receiver
// processes the block zero-copy. Payloads can be *built in place* (the
// offload path deserializes protobuf objects directly into the block) via
// a payload arena spanning the rest of the block.
//
// BlockReader validates and iterates a received block without copying.
//
// The WireTrace prefix of a traced message lives here and nowhere else:
// the writer stamps it in begin_message (identity) and finalize (send_ns),
// the reader peels it in next(); engines only ever see the payload
// after it.
#pragma once

#include <vector>

#include "arena/arena.hpp"
#include "common/bytes.hpp"
#include "common/cpu_timer.hpp"
#include "common/hot_path.hpp"
#include "common/status.hpp"
#include "rdmarpc/protocol.hpp"
#include "trace/trace.hpp"

namespace dpurpc::rdmarpc {

class BlockWriter {
 public:
  /// Begin writing a block at `base` with at most `capacity` bytes.
  BlockWriter(std::byte* base, uint64_t capacity) noexcept
      : base_(base), capacity_(capacity), cursor_(kPreambleSize) {}

  /// True if a message with `payload_size` bytes still fits.
  bool can_fit(uint32_t payload_size) const noexcept {
    return message_count_ < kMaxMessagesPerBlock &&
           cursor_ + message_slot_size(payload_size) <= capacity_;
  }

  /// Start a message: reserves the header slot and returns the payload
  /// base (8-aligned). An active `tctx` writes the message's WireTrace
  /// prefix first (send_ns is stamped by finalize); the returned base and
  /// payload_arena() then start just past it, so an in-place object root
  /// lands where the receiver's peeled payload_addr points. Pair with
  /// commit_message or abort_message.
  StatusOr<std::byte*> begin_message(trace::TraceContext tctx = {}) noexcept {
    if (in_message_) return Status(Code::kFailedPrecondition, "message already open");
    if (message_count_ >= kMaxMessagesPerBlock) {
      return Status(Code::kResourceExhausted, "block message count limit");
    }
    const uint32_t prefix = tctx.active() ? kWireTraceSize : 0;
    if (cursor_ + kHeaderSize + prefix >= capacity_) {
      return Status(Code::kResourceExhausted, "block full");
    }
    in_message_ = true;
    header_pos_ = cursor_;
    prefix_size_ = prefix;
    if (prefix != 0) {
      WireTrace wt{tctx.trace_id, tctx.parent_span_id, 0};
      std::memcpy(base_ + header_pos_ + kHeaderSize, &wt, sizeof(wt));
    }
    return payload_base();
  }

  /// Arena over the open message's payload space, for in-place building.
  arena::Arena payload_arena() noexcept {
    return arena::Arena(payload_base(),
                        capacity_ - header_pos_ - kHeaderSize - prefix_size_);
  }

  /// Finish the open message with its payload size, not counting the
  /// trace prefix: the header's payload_size adds it, and kFlagTraced is
  /// set when the message carries one.
  Status commit_message(uint32_t payload_size, uint16_t id_or_method,
                        uint16_t flags = 0, uint16_t aux = 0) noexcept {
    if (!in_message_) return Status(Code::kFailedPrecondition, "no open message");
    const uint64_t wire_size = uint64_t{payload_size} + prefix_size_;
    if (wire_size > kMaxPayloadSize) {
      return Status(Code::kOutOfRange, "payload exceeds 64 KiB header limit");
    }
    uint64_t slot = message_slot_size(static_cast<uint32_t>(wire_size));
    if (header_pos_ + slot > capacity_) {
      return Status(Code::kResourceExhausted, "payload overruns block");
    }
    MsgHeader h;
    h.payload_size = static_cast<uint16_t>(wire_size);
    h.id_or_method = id_or_method;
    h.flags = prefix_size_ != 0 ? static_cast<uint16_t>(flags | kFlagTraced) : flags;
    h.aux = aux;
    std::memcpy(base_ + header_pos_, &h, sizeof(h));
    if (prefix_size_ != 0) {
      // Remember where the WireTrace prefix sits; finalize() stamps its
      // send_ns field so every traced message in the block shares the
      // flush instant (kFlushWait ends exactly where the wire span starts).
      traced_payloads_.push_back(header_pos_ + kHeaderSize);
    }
    cursor_ = header_pos_ + slot;
    ++message_count_;
    in_message_ = false;
    return Status::ok();
  }

  /// Roll back the open message (e.g. in-place build failed).
  void abort_message() noexcept { in_message_ = false; }

  /// Write the preamble and return the block's total byte length. Also
  /// stamps send_ns into every traced message's WireTrace prefix (one
  /// WallTimer read per block, not per message).
  DPURPC_HOT_PATH uint64_t finalize(uint16_t ack_blocks) noexcept {
    Preamble p;
    p.message_count = message_count_;
    p.ack_blocks = ack_blocks;
    p.block_bytes = static_cast<uint32_t>(cursor_);
    p.reserved = 0;
    std::memcpy(base_, &p, sizeof(p));
    if (!traced_payloads_.empty()) {
      trace_stamp_ns_ = WallTimer::now();
      for (uint64_t off : traced_payloads_) {
        std::memcpy(base_ + off + offsetof(WireTrace, send_ns),
                    &trace_stamp_ns_, sizeof(trace_stamp_ns_));
      }
    }
    return cursor_;
  }

  /// The send_ns written by finalize(); 0 if no message was traced.
  uint64_t trace_stamp_ns() const noexcept { return trace_stamp_ns_; }

  uint16_t message_count() const noexcept { return message_count_; }
  uint64_t bytes_used() const noexcept { return cursor_; }
  bool empty() const noexcept { return message_count_ == 0; }
  std::byte* base() const noexcept { return base_; }

 private:
  std::byte* payload_base() const noexcept {
    return base_ + header_pos_ + kHeaderSize + prefix_size_;
  }

  std::byte* base_;
  uint64_t capacity_;
  uint64_t cursor_;
  uint64_t header_pos_ = 0;
  uint32_t prefix_size_ = 0;  ///< open message's WireTrace prefix: 0 or 24
  uint16_t message_count_ = 0;
  bool in_message_ = false;
  std::vector<uint64_t> traced_payloads_;  ///< block offsets of WireTrace prefixes
  uint64_t trace_stamp_ns_ = 0;
};

/// Zero-copy view over one received message. For kFlagTraced messages the
/// WireTrace prefix has been peeled off: `trace` holds it and
/// payload/payload_addr point past it (at the in-place object root).
struct InMessage {
  MsgHeader header;
  ByteSpan payload;             ///< borrowed from the receive buffer
  const std::byte* payload_addr;///< receive-buffer address (in-place objects)
  WireTrace trace{0, 0, 0};     ///< zero trace_id when untraced
};

class BlockReader {
 public:
  /// Validate the preamble and structural integrity of a block that starts
  /// at `region.data()`; `region` extends to the end of the receive buffer
  /// (the preamble's block_bytes says where the block really ends).
  static StatusOr<BlockReader> parse(ByteSpan region) noexcept;

  const Preamble& preamble() const noexcept { return preamble_; }
  uint16_t message_count() const noexcept { return preamble_.message_count; }
  uint64_t block_bytes() const noexcept { return preamble_.block_bytes; }

  /// Next message; kOutOfRange past the last one, kDataLoss on a header
  /// that overruns the block or sets a reserved flag bit.
  StatusOr<InMessage> next() noexcept;
  bool done() const noexcept { return consumed_ >= preamble_.message_count; }

 private:
  BlockReader(const std::byte* base, Preamble p) noexcept
      : base_(base), preamble_(p), cursor_(kPreambleSize) {}

  const std::byte* base_;
  Preamble preamble_;
  uint64_t cursor_;
  uint16_t consumed_ = 0;
};

}  // namespace dpurpc::rdmarpc
