#include "rdmarpc/block.hpp"

#include <cstring>

namespace dpurpc::rdmarpc {

StatusOr<BlockReader> BlockReader::parse(ByteSpan region) noexcept {
  if (region.size() < kPreambleSize) {
    return Status(Code::kDataLoss, "region smaller than a preamble");
  }
  Preamble p;
  std::memcpy(&p, region.data(), sizeof(p));
  if (p.block_bytes < kPreambleSize || p.block_bytes > region.size()) {
    return Status(Code::kDataLoss, "preamble block_bytes out of range");
  }
  if (p.reserved != 0) {
    return Status(Code::kDataLoss, "nonzero reserved preamble bits");
  }
  return BlockReader(region.data(), p);
}

StatusOr<InMessage> BlockReader::next() noexcept {
  if (done()) return Status(Code::kOutOfRange, "no more messages in block");
  if (cursor_ + kHeaderSize > preamble_.block_bytes) {
    return Status(Code::kDataLoss, "message header overruns block");
  }
  InMessage m;
  std::memcpy(&m.header, base_ + cursor_, sizeof(m.header));
  if ((m.header.flags & static_cast<uint16_t>(~kKnownFlags)) != 0) {
    return Status(Code::kDataLoss, "reserved message flag bit set");
  }
  uint64_t payload_start = cursor_ + kHeaderSize;
  if (payload_start + m.header.payload_size > preamble_.block_bytes) {
    return Status(Code::kDataLoss, "message payload overruns block");
  }
  m.payload_addr = base_ + payload_start;
  m.payload = ByteSpan(m.payload_addr, m.header.payload_size);
  if (m.header.flags & kFlagTraced) {
    if (m.header.payload_size < kWireTraceSize) {
      return Status(Code::kDataLoss, "traced message shorter than its prefix");
    }
    // Peel the WireTrace prefix so payload_addr points at the real payload
    // (the in-place object root, for offloaded messages). Slot advance
    // below still uses the full on-wire payload_size.
    std::memcpy(&m.trace, m.payload_addr, kWireTraceSize);
    m.payload_addr += kWireTraceSize;
    m.payload = ByteSpan(m.payload_addr, m.header.payload_size - kWireTraceSize);
  }
  cursor_ = cursor_ + message_slot_size(m.header.payload_size);
  ++consumed_;
  return m;
}

}  // namespace dpurpc::rdmarpc
