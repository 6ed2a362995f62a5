// xRPC wire framing.
//
// Every frame:
//
//   u32 body_len | u8 type | u32 call_id | [trace] | body
//
// request body:       u16 method_len | method name | payload
// response body:      u8 status code | payload
// stream-open body:   u16 method_len | method name
// stream-chunk body:  raw chunk bytes
// stream-end body:    empty
// stream-credit body: u32 granted bytes (receiver -> sender flow control)
// stream-abort body:  u8 status code
//
// call_id multiplexes concurrent outstanding calls over one TCP
// connection, like HTTP/2 stream ids under gRPC. A streaming call opens
// with kStreamOpen, ships kStreamChunk frames under the credit window,
// closes with kStreamEnd, and completes with an ordinary kResponse
// carrying the final status/payload (DESIGN.md streaming section).
//
// Tracing rides in the type byte's high bit (kFrameTracedBit): when set,
// a 24-byte FrameTrace follows the call_id. Untraced frames are
// byte-identical to the pre-tracing protocol.
#pragma once

#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "xrpc/socket.hpp"

namespace dpurpc::xrpc {

enum class FrameType : uint8_t {
  kRequest = 0,
  kResponse = 1,
  kStreamOpen = 2,
  kStreamChunk = 3,
  kStreamEnd = 4,
  kStreamCredit = 5,
  kStreamAbort = 6,
};

/// High bit of the type byte: frame carries a FrameTrace after call_id.
inline constexpr uint8_t kFrameTracedBit = 0x80;

inline constexpr uint32_t kMaxFrameBody = 16u << 20;

/// Trace context carried across the xRPC hop (the gRPC-metadata analogue
/// of rdmarpc's WireTrace): identity plus the sender's serialize-finish
/// instant, so the receiver can attribute wire + reader-dispatch time.
struct FrameTrace {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t send_ns = 0;
  bool active() const noexcept { return trace_id != 0; }
};
inline constexpr uint32_t kFrameTraceSize = 24;

struct RequestFrame {
  uint32_t call_id = 0;
  std::string method;  ///< "pkg.Service/Method"
  Bytes payload;
  FrameTrace trace;
};

struct ResponseFrame {
  uint32_t call_id = 0;
  Code status = Code::kOk;
  Bytes payload;
  FrameTrace trace;
};

/// One inbound stream-control frame (open/chunk/end/credit/abort).
struct StreamFrame {
  uint32_t call_id = 0;
  std::string method;   ///< kStreamOpen only
  Bytes payload;        ///< kStreamChunk only
  uint32_t credit = 0;  ///< kStreamCredit only
  Code status = Code::kOk;  ///< kStreamAbort only
  FrameTrace trace;
};

/// Append one whole server frame to `out`. Servers send through
/// send_response/send_stream_credit (write_batch.hpp), which batch them;
/// the write_* functions below are the client's, each frame written at
/// once.
void append_response(Bytes& out, uint32_t call_id, Code status, ByteSpan payload,
                     const FrameTrace* trace = nullptr);
void append_stream_credit(Bytes& out, uint32_t call_id, uint32_t bytes);

Status write_request(const Fd& fd, uint32_t call_id, std::string_view method,
                     ByteSpan payload, const FrameTrace* trace = nullptr);
Status write_stream_open(const Fd& fd, uint32_t call_id, std::string_view method,
                         const FrameTrace* trace = nullptr);
Status write_stream_chunk(const Fd& fd, uint32_t call_id, ByteSpan chunk);
Status write_stream_end(const Fd& fd, uint32_t call_id);
Status write_stream_abort(const Fd& fd, uint32_t call_id, Code code);

/// Either kind of inbound frame.
struct AnyFrame {
  FrameType type = FrameType::kRequest;
  RequestFrame request;
  ResponseFrame response;
  StreamFrame stream;  ///< valid for the kStream* types
};

/// The one way to read frames: a buffered reader for one connection.
/// A recv() fills the buffer with whatever the socket holds, and next()
/// hands out every complete frame in it before it reads again, so a
/// burst of frames costs one system call, not two per frame.
///
/// The buffer is kBufferBytes. A frame larger than that grows it to the
/// frame's own size (kMaxFrameBody bounds the length before anything is
/// allocated), and it shrinks back once that frame is consumed, so large
/// frames do not pin memory on an idle connection. Not thread-safe: one
/// reader thread per connection owns it.
class FrameReader {
 public:
  static constexpr size_t kBufferBytes = 64u << 10;

  /// `fd` must outlive the reader.
  explicit FrameReader(const Fd& fd) : fd_(fd), buf_(kBufferBytes) {}

  /// Blocks until the next frame is complete. kUnavailable when the peer
  /// closes (cleanly or mid-frame) or the socket fails; kDataLoss on a
  /// malformed frame, after which the stream is out of sync.
  StatusOr<AnyFrame> next();

  /// Current buffer size in bytes (kBufferBytes between large frames).
  size_t buffer_size() const noexcept { return buf_.size(); }

 private:
  /// Make [head_, head_ + need) fit the buffer: move the unparsed bytes
  /// to the front, into a buffer grown to `need` if it is smaller.
  void make_room(size_t need);

  const Fd& fd_;
  Bytes buf_;
  size_t head_ = 0;  ///< first unparsed byte
  size_t tail_ = 0;  ///< end of the received bytes
};

}  // namespace dpurpc::xrpc
