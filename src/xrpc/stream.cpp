#include "xrpc/stream.hpp"

namespace dpurpc::xrpc {

Status ServerStream::grant(uint32_t bytes) {
  return send_stream_credit(conn_, call_id_, bytes);
}

}  // namespace dpurpc::xrpc
