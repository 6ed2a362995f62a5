// Host-side compatibility layer (§III.A, §V.D).
//
// "A compatibility layer mocks the xRPC server on the host and interprets
// the RPC over RDMA requests as xRPC requests" — business logic keeps the
// familiar service-callback shape while requests arrive as ready-built
// C++ objects with zero deserialization work. Handlers receive a
// LayoutView over the in-place object (generated-class deployments would
// static_cast to the real type instead). Handlers come in three shapes:
//
//   * register_unary           — handler fills a DynamicMessage; the host
//     serializes it with the reference WireCodec (the paper's baseline:
//     response serialization not offloaded, §III.A).
//   * register_unary_object    — handler builds the response *object* with
//     a LayoutBuilder in per-thread scratch; the object is copied into the
//     RDMA send block and the *DPU* serializes it (host codec cost ≈ 0 in
//     both directions). fig10_roundtrip's request-offload mode measures
//     the host-serialize alternative on rdmarpc::RpcServer directly.
//   * register_stream          — bulk-transfer requests: the proxy ships
//     the stream as prefixed chunks (stream_wire.hpp), each decoded on
//     the DPU pool first; the handler sees raw chunk bytes in order and
//     produces the final response when the end marker arrives.
//
// The gRPC context is mocked as a null pointer, exactly as the paper does
// (§V.D).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/dynamic_message.hpp"
#include "rdmarpc/server.hpp"

namespace dpurpc::grpccompat {

/// Mocked call context (the paper passes a null gRPC context; metadata
/// could ride in the payload instead).
struct ServerContext {
  void* grpc_context = nullptr;
};

class HostEngine {
 public:
  /// `response` starts empty (of the method's output type) and is
  /// serialized after the handler returns OK.
  using Method = std::function<Status(const ServerContext&, const adt::LayoutView& request,
                                      proto::DynamicMessage& response)>;

  /// `pool` must contain the response message types (same pool the
  /// manifest was built from). `options` governs the engine's own codec
  /// work (the relocation walk behind register_unary_object).
  HostEngine(rdmarpc::Connection* conn, const OffloadManifest* manifest,
             const proto::DescriptorPool* pool, adt::CodecOptions options = {});

  /// Bind business logic to "pkg.Service/Method". NOT_FOUND if the
  /// manifest does not know the method.
  Status register_unary(std::string_view full_name, Method method);

  /// Offloaded-response variant (§III.A extension): the handler builds the
  /// response *object* through a LayoutBuilder into per-thread scratch —
  /// handlers never see block-arena backpressure, and the engine is safe
  /// to drive from multiple threads or engines. The finished object is
  /// then copied+relocated into the send block for DPU-side serialization
  /// with the ADT-driven ObjectSerializer.
  using InPlaceMethod = std::function<Status(const ServerContext&,
                                             const adt::LayoutView& request,
                                             adt::LayoutBuilder& response)>;
  Status register_unary_object(std::string_view full_name, InPlaceMethod method);

  /// Streaming bulk-transfer handler. Invoked once per chunk with the raw
  /// (already DPU-validated) wire bytes and end == false — the chunk is
  /// acked with an empty-OK response, `final_response` must stay empty —
  /// and once more with an empty chunk and end == true, where the handler
  /// fills `final_response` (the stream's final xRPC payload). The engine
  /// peels the StreamPrefix and rejects out-of-order or cross-method
  /// chunks before the handler runs. Chunks of one stream arrive strictly
  /// in sequence; distinct streams may interleave. Each chunk is one RDMA
  /// message, at most kMaxStreamPiece bytes, borrowed from the receive
  /// block: copy whatever must outlive the call.
  using StreamMethod = std::function<Status(const ServerContext&,
                                            uint32_t stream_id, ByteSpan chunk,
                                            bool end, Bytes& final_response)>;
  Status register_stream(std::string_view full_name, StreamMethod method);

  /// Pump the underlying RPC over RDMA server (§III.D event loop).
  StatusOr<uint32_t> event_loop_once() { return server_.event_loop_once(); }
  bool wait(int timeout_ms) { return server_.wait(timeout_ms); }

  uint64_t requests_served() const noexcept { return server_.requests_served(); }
  rdmarpc::RpcServer& rpc_server() noexcept { return server_; }

 private:
  /// The manifest entry every register_* binds to; NOT_FOUND if absent.
  StatusOr<const MethodEntry*> find_method(std::string_view full_name) const;

  rdmarpc::RpcServer server_;
  const OffloadManifest* manifest_;
  const proto::DescriptorPool* pool_;
  /// Relocation walks for register_unary_object's copy-into-block path.
  adt::ArenaDeserializer deserializer_;
  /// Per-stream sequencing state for register_stream, keyed by the
  /// proxy-assigned stream id. Touched only from handler context (the
  /// thread pumping this engine's event loop). Entries leave on the end
  /// marker or on a sequencing error; an abandoned stream's entry (a few
  /// ints) lives until the engine does — the proxy never replays its id.
  struct StreamProgress {
    uint16_t method_id = 0;
    uint32_t next_seq = 0;
  };
  std::map<uint32_t, StreamProgress> stream_progress_;
};

}  // namespace dpurpc::grpccompat
