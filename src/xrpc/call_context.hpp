// The unified call surface (DESIGN.md §3.16).
//
// Every way a request enters the system — a unary xRPC dispatch, a
// streaming open, a grpccompat engine — now presents one typed context
// instead of the three historical ad-hoc shapes (raw (method, payload)
// callbacks, ad-hoc HostEngine registration signatures, DpuProxy
// responder plumbing). The deprecated register_method* shims that
// bridged one release are gone; register_unary*/register_stream are
// the only entry points.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "trace/trace.hpp"

namespace dpurpc::xrpc {

class ServerStream;

/// Completes one call; thread-safe, callable once per request. For a
/// streaming call this sends the *final* response, after the stream ends.
using Responder = std::function<void(Code, ByteSpan payload)>;

struct CallContext {
  /// Full method name, "pkg.Service/Method".
  std::string method;
  /// Unary request payload; empty for streaming calls (their bytes arrive
  /// through `stream`).
  Bytes payload;
  /// Propagated trace context (inactive when the client did not trace).
  trace::TraceContext trace;
  Responder respond;
  /// Non-null for streaming calls: install chunk/end/abort callbacks on it
  /// before the handler returns (frames cannot arrive earlier).
  std::shared_ptr<ServerStream> stream;

  bool is_stream() const noexcept { return stream != nullptr; }
};

/// Handler for the unified surface: invoked on the connection's reader
/// thread for every call, unary or streaming.
using CallHandler = std::function<void(CallContext ctx)>;

}  // namespace dpurpc::xrpc
