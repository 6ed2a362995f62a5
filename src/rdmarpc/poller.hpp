// Server-side shared poller (§III.C threading model).
//
// "Since our goal is to run the RPC over RDMA server on a powerful host
// and the RPC over RDMA client on a multi-core DPU, there is an imbalance
// between both sides: the client dedicates a poller per connection, but a
// single server poller can share multiple connections." ServerPoller owns
// that loop: it round-robins event processing over any number of
// RpcServers whose connections share one completion channel, and sleeps
// on that channel when everything is idle.
#pragma once

#include <vector>

#include "rdmarpc/server.hpp"
#include "simverbs/simverbs.hpp"

namespace dpurpc::rdmarpc {

class ServerPoller {
 public:
  ServerPoller() = default;

  /// The channel every pooled connection must be constructed with
  /// (ConnectionConfig::shared_channel).
  simverbs::CompletionChannel* shared_channel() noexcept { return &channel_; }

  /// Register a server whose connection uses shared_channel(). Servers
  /// must outlive the poller.
  void add(RpcServer* server) { servers_.push_back(server); }

  /// One round over every connection. Returns total requests served.
  StatusOr<uint32_t> event_loop_once() {
    uint32_t served = 0;
    for (RpcServer* s : servers_) {
      auto n = s->event_loop_once();
      if (!n.is_ok()) return n.status();
      served += *n;
    }
    return served;
  }

  /// Sleep until any pooled connection has work (or timeout). §III.C:
  /// poll()-style blocking, not busy polling.
  bool wait(int timeout_ms) { return channel_.wait(timeout_ms); }
  void interrupt() { channel_.notify(); }

  size_t connection_count() const noexcept { return servers_.size(); }

 private:
  simverbs::CompletionChannel channel_;
  std::vector<RpcServer*> servers_;
};

}  // namespace dpurpc::rdmarpc
