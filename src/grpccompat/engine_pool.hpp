// Multi-connection deployment helpers (§III.C threading model at scale).
//
// The paper's configuration runs sixteen DPU threads, each a dedicated
// poller for its own RDMA connection, against eight host threads whose
// pollers may share connections. HostEnginePool is the host half: one
// HostEngine per connection, identical method tables, all pumpable from
// shared pollers via ServerPoller.
#pragma once

#include <memory>
#include <vector>

#include "grpccompat/host_service.hpp"
#include "rdmarpc/poller.hpp"

namespace dpurpc::grpccompat {

class HostEnginePool {
 public:
  /// One engine per (server-role) connection. Connections should be
  /// constructed with `poller().shared_channel()` so one thread can sleep
  /// on all of them; use several ServerPollers to shard across threads.
  HostEnginePool(const std::vector<rdmarpc::Connection*>& connections,
                 const OffloadManifest* manifest, const proto::DescriptorPool* pool,
                 adt::CodecOptions options = {}) {
    for (auto* conn : connections) {
      engines_.push_back(
          std::make_unique<HostEngine>(conn, manifest, pool, options));
      poller_.add(&engines_.back()->rpc_server());
    }
  }

  /// Register on every engine (the same business logic serves every
  /// connection, like a normal multi-threaded RPC server).
  Status register_unary(std::string_view full_name, HostEngine::Method method) {
    for (auto& e : engines_) {
      DPURPC_RETURN_IF_ERROR(e->register_unary(full_name, method));
    }
    return Status::ok();
  }

  Status register_unary_object(std::string_view full_name,
                               HostEngine::InPlaceMethod method) {
    for (auto& e : engines_) {
      DPURPC_RETURN_IF_ERROR(e->register_unary_object(full_name, method));
    }
    return Status::ok();
  }

  Status register_stream(std::string_view full_name,
                         HostEngine::StreamMethod method) {
    for (auto& e : engines_) {
      DPURPC_RETURN_IF_ERROR(e->register_stream(full_name, method));
    }
    return Status::ok();
  }

  rdmarpc::ServerPoller& poller() noexcept { return poller_; }

  StatusOr<uint32_t> event_loop_once() { return poller_.event_loop_once(); }
  bool wait(int timeout_ms) { return poller_.wait(timeout_ms); }
  void interrupt() { poller_.interrupt(); }

  uint64_t requests_served() const noexcept {
    uint64_t total = 0;
    for (const auto& e : engines_) total += e->requests_served();
    return total;
  }
  size_t size() const noexcept { return engines_.size(); }
  HostEngine& engine(size_t i) { return *engines_.at(i); }

 private:
  std::vector<std::unique_ptr<HostEngine>> engines_;
  rdmarpc::ServerPoller poller_;
};

}  // namespace dpurpc::grpccompat
