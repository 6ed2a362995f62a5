#include "xrpc/frame.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/endian.hpp"

namespace dpurpc::xrpc {

namespace {

uint8_t* put_trace(uint8_t* p, const FrameTrace& t) {
  store_le<uint64_t>(p, t.trace_id);
  store_le<uint64_t>(p + 8, t.span_id);
  store_le<uint64_t>(p + 16, t.send_ns);
  return p + kFrameTraceSize;
}

/// Append a frame's length, type, call_id and trace to `out`, with room
/// for `rest` more body bytes; returns where those bytes go.
uint8_t* append_header(Bytes& out, FrameType type, uint32_t call_id,
                       const FrameTrace* trace, size_t rest) {
  bool traced = trace != nullptr && trace->active();
  uint32_t extra = traced ? kFrameTraceSize : 0;
  auto body = static_cast<uint32_t>(1 + 4 + extra + rest);
  size_t at = out.size();
  out.resize(at + 4 + body);
  auto* p = reinterpret_cast<uint8_t*>(out.data() + at);
  store_le<uint32_t>(p, body);
  p += 4;
  *p++ = static_cast<uint8_t>(type) | (traced ? kFrameTracedBit : 0);
  store_le<uint32_t>(p, call_id);
  p += 4;
  if (traced) p = put_trace(p, *trace);
  return p;
}

/// Append a fixed-shape stream frame: header + `tail` bytes.
void append_stream_frame(Bytes& out, FrameType type, uint32_t call_id,
                         ByteSpan tail, const FrameTrace* trace = nullptr) {
  uint8_t* p = append_header(out, type, call_id, trace, tail.size());
  if (!tail.empty()) std::memcpy(p, tail.data(), tail.size());
}

}  // namespace

void append_response(Bytes& out, uint32_t call_id, Code status, ByteSpan payload,
                     const FrameTrace* trace) {
  uint8_t* p =
      append_header(out, FrameType::kResponse, call_id, trace, 1 + payload.size());
  *p++ = static_cast<uint8_t>(status);
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
}

void append_stream_credit(Bytes& out, uint32_t call_id, uint32_t bytes) {
  uint8_t tail[4];
  store_le<uint32_t>(tail, bytes);
  append_stream_frame(out, FrameType::kStreamCredit, call_id,
                      ByteSpan(reinterpret_cast<const std::byte*>(tail), 4));
}

Status write_request(const Fd& fd, uint32_t call_id, std::string_view method,
                     ByteSpan payload, const FrameTrace* trace) {
  if (method.size() > UINT16_MAX) {
    return Status(Code::kInvalidArgument, "method name too long");
  }
  Bytes frame;
  uint8_t* p = append_header(frame, FrameType::kRequest, call_id, trace,
                             2 + method.size() + payload.size());
  store_le<uint16_t>(p, static_cast<uint16_t>(method.size()));
  p += 2;
  std::memcpy(p, method.data(), method.size());
  p += method.size();
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
  return write_all(fd, frame.data(), frame.size());
}

Status write_stream_open(const Fd& fd, uint32_t call_id, std::string_view method,
                         const FrameTrace* trace) {
  if (method.size() > UINT16_MAX) {
    return Status(Code::kInvalidArgument, "method name too long");
  }
  Bytes frame;
  uint8_t* p = append_header(frame, FrameType::kStreamOpen, call_id, trace,
                             2 + method.size());
  store_le<uint16_t>(p, static_cast<uint16_t>(method.size()));
  std::memcpy(p + 2, method.data(), method.size());
  return write_all(fd, frame.data(), frame.size());
}

Status write_stream_chunk(const Fd& fd, uint32_t call_id, ByteSpan chunk) {
  if (chunk.size() + 5 > kMaxFrameBody) {
    return Status(Code::kInvalidArgument, "stream chunk exceeds frame limit");
  }
  Bytes frame;
  append_stream_frame(frame, FrameType::kStreamChunk, call_id, chunk);
  return write_all(fd, frame.data(), frame.size());
}

Status write_stream_end(const Fd& fd, uint32_t call_id) {
  Bytes frame;
  append_stream_frame(frame, FrameType::kStreamEnd, call_id, {});
  return write_all(fd, frame.data(), frame.size());
}

Status write_stream_abort(const Fd& fd, uint32_t call_id, Code code) {
  std::byte tail{static_cast<uint8_t>(code)};
  Bytes frame;
  append_stream_frame(frame, FrameType::kStreamAbort, call_id, ByteSpan(&tail, 1));
  return write_all(fd, frame.data(), frame.size());
}

namespace {

/// Parse one frame's `body` bytes (everything after the length word).
StatusOr<AnyFrame> parse_frame(const uint8_t* p, uint32_t body) {
  const auto* end = p + body;

  AnyFrame out;
  uint8_t raw_type = *p++;
  bool traced = (raw_type & kFrameTracedBit) != 0;
  uint8_t type = raw_type & static_cast<uint8_t>(~kFrameTracedBit);
  uint32_t call_id = load_le<uint32_t>(p);
  p += 4;
  FrameTrace trace;
  if (traced) {
    if (end - p < static_cast<ptrdiff_t>(kFrameTraceSize)) {
      return Status(Code::kDataLoss, "truncated frame trace");
    }
    trace.trace_id = load_le<uint64_t>(p);
    trace.span_id = load_le<uint64_t>(p + 8);
    trace.send_ns = load_le<uint64_t>(p + 16);
    p += kFrameTraceSize;
  }
  if (type == static_cast<uint8_t>(FrameType::kRequest)) {
    out.type = FrameType::kRequest;
    out.request.call_id = call_id;
    out.request.trace = trace;
    if (end - p < 2) return Status(Code::kDataLoss, "truncated request frame");
    uint16_t name_len = load_le<uint16_t>(p);
    p += 2;
    if (end - p < name_len) return Status(Code::kDataLoss, "truncated method name");
    out.request.method.assign(reinterpret_cast<const char*>(p), name_len);
    p += name_len;
    out.request.payload.assign(reinterpret_cast<const std::byte*>(p),
                               reinterpret_cast<const std::byte*>(end));
  } else if (type == static_cast<uint8_t>(FrameType::kResponse)) {
    out.type = FrameType::kResponse;
    out.response.call_id = call_id;
    out.response.trace = trace;
    if (end - p < 1) return Status(Code::kDataLoss, "truncated response frame");
    uint8_t code = *p++;
    if (code > static_cast<uint8_t>(Code::kAborted)) {
      return Status(Code::kDataLoss, "invalid status code");
    }
    out.response.status = static_cast<Code>(code);
    out.response.payload.assign(reinterpret_cast<const std::byte*>(p),
                                reinterpret_cast<const std::byte*>(end));
  } else if (type >= static_cast<uint8_t>(FrameType::kStreamOpen) &&
             type <= static_cast<uint8_t>(FrameType::kStreamAbort)) {
    out.type = static_cast<FrameType>(type);
    out.stream.call_id = call_id;
    out.stream.trace = trace;
    switch (out.type) {
      case FrameType::kStreamOpen: {
        if (end - p < 2) {
          return Status(Code::kDataLoss, "truncated stream-open frame");
        }
        uint16_t name_len = load_le<uint16_t>(p);
        p += 2;
        if (end - p != name_len) {
          return Status(Code::kDataLoss, "stream-open length mismatch");
        }
        out.stream.method.assign(reinterpret_cast<const char*>(p), name_len);
        break;
      }
      case FrameType::kStreamChunk:
        out.stream.payload.assign(reinterpret_cast<const std::byte*>(p),
                                  reinterpret_cast<const std::byte*>(end));
        break;
      case FrameType::kStreamEnd:
        if (end != p) {
          return Status(Code::kDataLoss, "stream-end frame carries bytes");
        }
        break;
      case FrameType::kStreamCredit:
        if (end - p != 4) {
          return Status(Code::kDataLoss, "bad stream-credit frame length");
        }
        out.stream.credit = load_le<uint32_t>(p);
        break;
      case FrameType::kStreamAbort: {
        if (end - p != 1) {
          return Status(Code::kDataLoss, "bad stream-abort frame length");
        }
        uint8_t code = *p;
        if (code > static_cast<uint8_t>(Code::kAborted)) {
          return Status(Code::kDataLoss, "invalid status code");
        }
        out.stream.status = static_cast<Code>(code);
        break;
      }
      default:
        break;  // unreachable: range-checked above
    }
  } else {
    return Status(Code::kDataLoss, "unknown xrpc frame type");
  }
  return out;
}

}  // namespace

StatusOr<AnyFrame> FrameReader::next() {
  for (;;) {
    const size_t have = tail_ - head_;
    size_t need = 4;
    if (have >= 4) {
      uint32_t body = load_le<uint32_t>(buf_.data() + head_);
      if (body < 5 || body > kMaxFrameBody) {
        return Status(Code::kDataLoss, "xrpc frame length out of range");
      }
      need = 4 + size_t{body};
      if (have >= need) {
        auto frame = parse_frame(
            reinterpret_cast<const uint8_t*>(buf_.data() + head_ + 4), body);
        head_ += need;
        if (head_ == tail_) head_ = tail_ = 0;
        // A large frame is consumed: give its buffer back.
        if (buf_.size() > kBufferBytes && tail_ - head_ <= kBufferBytes) {
          make_room(0);
        }
        return frame;
      }
    }
    if (need > buf_.size() - head_) make_room(need);
    ssize_t n = ::recv(fd_.get(), buf_.data() + tail_, buf_.size() - tail_, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(Code::kUnavailable,
                    std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status(Code::kUnavailable, "peer closed connection");
    tail_ += static_cast<size_t>(n);
  }
}

void FrameReader::make_room(size_t need) {
  const size_t have = tail_ - head_;
  const size_t size = std::max(need, kBufferBytes);
  if (size != buf_.size()) {
    Bytes fresh(size);
    std::memcpy(fresh.data(), buf_.data() + head_, have);
    buf_.swap(fresh);
  } else {
    std::memmove(buf_.data(), buf_.data() + head_, have);
  }
  head_ = 0;
  tail_ = have;
}

}  // namespace dpurpc::xrpc
