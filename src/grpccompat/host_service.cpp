#include "grpccompat/host_service.hpp"

#include <cstring>

#include "grpccompat/stream_wire.hpp"

namespace dpurpc::grpccompat {

namespace {
/// Scratch-arena capacity for register_unary_object responses; matches
/// the largest payload the RPC over RDMA layer will carry anyway.
constexpr size_t kObjectScratchCapacity = 1u << 20;

/// Per-thread build scratch: object handlers may run under any thread
/// that pumps an engine's event loop (bench pools drive several engines
/// concurrently), so the scratch must be per invocation thread, not per
/// engine. Reset by each handler before use; capacity persists.
arena::OwningArena& object_scratch() {
  static thread_local arena::OwningArena scratch(kObjectScratchCapacity);
  return scratch;
}
}  // namespace

HostEngine::HostEngine(rdmarpc::Connection* conn, const OffloadManifest* manifest,
                       const proto::DescriptorPool* pool, adt::CodecOptions options)
    : server_(conn),
      manifest_(manifest),
      pool_(pool),
      deserializer_(&manifest->adt(), options) {}

StatusOr<const MethodEntry*> HostEngine::find_method(std::string_view full_name) const {
  const MethodEntry* entry = manifest_->find_by_name(full_name);
  if (entry == nullptr) {
    return Status(Code::kNotFound,
                  "method not in offload manifest: " + std::string(full_name));
  }
  return entry;
}

Status HostEngine::register_unary(std::string_view full_name, Method method) {
  DPURPC_ASSIGN_OR_RETURN(const MethodEntry* entry, find_method(full_name));
  const proto::MessageDescriptor* out_desc = pool_->find_message(entry->output_type);
  if (out_desc == nullptr) {
    return Status(Code::kNotFound, "response type missing from pool: " + entry->output_type);
  }
  uint32_t input_class = entry->input_class;
  const OffloadManifest* manifest = manifest_;

  server_.register_handler(
      entry->method_id,
      [method = std::move(method), manifest, input_class, out_desc](
          const rdmarpc::RequestView& req, Bytes& response_bytes) -> Status {
        if (req.object == nullptr) {
          return Status(Code::kInvalidArgument,
                        "expected an in-place (offloaded) request object");
        }
        if (req.class_index != input_class) {
          return Status(Code::kInvalidArgument, "request class index mismatch");
        }
        // Zero host-side deserialization: wrap the bytes that already sit
        // in the receive buffer.
        adt::LayoutView request(&manifest->adt(), input_class, req.object);
        ServerContext ctx;  // null gRPC context (§V.D)
        proto::DynamicMessage response(out_desc);
        DPURPC_RETURN_IF_ERROR(method(ctx, request, response));
        proto::WireCodec::serialize(response, response_bytes);
        return Status::ok();
      });
  return Status::ok();
}

Status HostEngine::register_unary_object(std::string_view full_name,
                                          InPlaceMethod method) {
  DPURPC_ASSIGN_OR_RETURN(const MethodEntry* entry, find_method(full_name));
  uint32_t input_class = entry->input_class;
  uint32_t output_class = entry->output_class;

  // The handler builds into per-thread scratch with local pointers; the
  // engine then copies the finished tree into the send block, rebasing
  // every pointer into the peer's address space, and the DPU serializes
  // it. The host touches no wire bytes.
  server_.register_inplace_handler(
      entry->method_id,
      [this, method = std::move(method), input_class, output_class](
          const rdmarpc::RequestView& req, arena::Arena& response_arena,
          const arena::AddressTranslator& xlate, uint32_t* payload_size,
          uint16_t* class_index) -> Status {
        if (req.object == nullptr || req.class_index != input_class) {
          return Status(Code::kInvalidArgument, "bad in-place request");
        }
        adt::LayoutView request(&manifest_->adt(), input_class, req.object);
        arena::OwningArena& scratch = object_scratch();
        scratch.reset();
        auto response = adt::LayoutBuilder::create(&manifest_->adt(),
                                                   output_class, &scratch);
        if (!response.is_ok()) return response.status();
        ServerContext ctx;
        DPURPC_RETURN_IF_ERROR(method(ctx, request, *response));
        if (static_cast<std::byte*>(response->object()) != scratch.base()) {
          // The receiver resolves the root at payload offset 0; the
          // builder's instance is the arena's first allocation, so this
          // can only fire if that invariant ever breaks.
          return Status(Code::kInternal, "response root not at scratch base");
        }
        const size_t used = scratch.used();
        void* dst = response_arena.allocate(used, kPayloadAlign);
        if (dst == nullptr) {
          return Status(Code::kResourceExhausted,
                        "send block cannot hold response object");
        }
        std::memcpy(dst, scratch.base(), used);
        adt::ArenaDeserializer::SliceRelocation rel;
        rel.old_begin = scratch.base();
        rel.old_end = scratch.base() + used;
        rel.move_delta = static_cast<std::byte*>(dst) - scratch.base();
        rel.publish_delta = rel.move_delta + xlate.delta;
        deserializer_.relocate(output_class, static_cast<std::byte*>(dst), rel);
        *payload_size = static_cast<uint32_t>(response_arena.used());
        *class_index = static_cast<uint16_t>(output_class);
        return Status::ok();
      });
  return Status::ok();
}

Status HostEngine::register_stream(std::string_view full_name,
                                   StreamMethod method) {
  DPURPC_ASSIGN_OR_RETURN(const MethodEntry* entry, find_method(full_name));
  uint16_t method_id = entry->method_id;

  server_.register_handler(
      entry->method_id,
      [this, method = std::move(method), method_id](
          const rdmarpc::RequestView& req, Bytes& response_bytes) -> Status {
        StreamPrefix prefix;
        if (!read_stream_prefix(req.payload, &prefix)) {
          return Status(Code::kInvalidArgument, "bad stream chunk prefix");
        }
        ByteSpan chunk = req.payload.subspan(kStreamPrefixSize);
        auto it = stream_progress_.find(prefix.stream_id);
        if (it == stream_progress_.end()) {
          if (prefix.chunk_seq != 0) {
            return Status(Code::kDataLoss, "stream opened mid-sequence");
          }
          it = stream_progress_
                   .emplace(prefix.stream_id, StreamProgress{method_id, 0})
                   .first;
        }
        if (it->second.method_id != method_id) {
          stream_progress_.erase(it);
          return Status(Code::kInvalidArgument, "stream id crossed methods");
        }
        if (prefix.chunk_seq != it->second.next_seq) {
          // The proxy forwards strictly in order; a gap means the stream
          // is unrecoverable — drop its state so a retry starts clean.
          stream_progress_.erase(it);
          return Status(Code::kDataLoss, "stream chunk out of order");
        }
        ++it->second.next_seq;
        ServerContext ctx;  // null gRPC context (§V.D)
        if ((prefix.stream_flags & kStreamPrefixEnd) != 0) {
          if (!chunk.empty()) {
            stream_progress_.erase(it);
            return Status(Code::kInvalidArgument,
                          "stream end marker carries payload");
          }
          stream_progress_.erase(it);
          return method(ctx, prefix.stream_id, ByteSpan(), /*end=*/true,
                        response_bytes);
        }
        Status st = method(ctx, prefix.stream_id, chunk, /*end=*/false,
                           response_bytes);
        if (!st.is_ok()) stream_progress_.erase(prefix.stream_id);
        // OK chunks ack with the (empty) response_bytes as-is.
        return st;
      });
  return Status::ok();
}

}  // namespace dpurpc::grpccompat
