// The offloaded deployment under test and the seeded inputs that drive it.
//
// Deployment shape (recorded in BENCHMARK.json): one xRPC server on the
// proxy (loopback TCP), one grpccompat::DpuProxy lane over one rdmarpc
// connection on in-process simverbs memory, and one host engine thread.
// Codec-pool and lane sizing stay at library defaults, so a change of
// those defaults is what the benchmark measures. Every handler answers
// with an object response, so the DPU also serializes the reply.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/descriptor.hpp"

namespace perfbench {

using namespace dpurpc;

inline constexpr std::string_view kSchema = R"(
syntax = "proto3";
package lb;
message Small { int32 id = 1; bool flag = 2; float score = 3; uint64 stamp = 4; }
message IntArray { repeated uint32 values = 1; }
message CharArray { string data = 1; }
message Row { uint64 row_id = 1; bytes cells = 2; }
message Ack { uint64 stamp = 1; }
service Ledger {
  rpc Tiny (Small) returns (Ack);
  rpc Ints (IntArray) returns (IntArray);
  rpc Chars (CharArray) returns (Ack);
  rpc Bulk (Row) returns (Ack);
}
)";

/// The paper's three synthetic messages (§VI.C.1).
enum class Kind : uint8_t { kSmall = 0, kInts = 1, kChars = 2 };
inline constexpr size_t kKinds = 3;
inline constexpr const char* kKindNames[kKinds] = {"small", "ints512",
                                                  "chars8000"};
inline constexpr const char* kMethods[kKinds] = {
    "lb.Ledger/Tiny", "lb.Ledger/Ints", "lb.Ledger/Chars"};
inline constexpr const char* kBulkMethod = "lb.Ledger/Bulk";
inline constexpr size_t kIntsCount = 512;
inline constexpr size_t kCharsCount = 8000;

/// Parse kSchema into `pool` (aborts on a malformed schema: it is a
/// constant of this program).
void parse_schema(proto::DescriptorPool& pool);

/// Request wires and the exact reply each must get back, all derived from
/// the seed. A Small call's Ack carries the request stamp, an Ints reply
/// is byte-identical to its request, a Chars reply carries the length.
struct Inputs {
  std::array<std::vector<Bytes>, kKinds> wire;
  std::array<std::vector<Bytes>, kKinds> expected;
  /// One bulk stream's payload: concatenated Row records (~512 KiB).
  Bytes stream_payload;

  static Inputs make(const proto::DescriptorPool& pool, uint64_t seed);
  /// Ack{stamp = v} on the wire.
  static Bytes ack_wire(const proto::DescriptorPool& pool, uint64_t v);
};

class Deployment {
 public:
  Deployment() = default;
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Schema parse → manifest → connections → host engine and handlers →
  /// host thread → proxy start.
  Status start();

  uint16_t port() const noexcept { return port_; }
  const grpccompat::DpuProxy& proxy() const noexcept { return *proxy_; }
  const rdmarpc::Connection& dpu_conn() const noexcept { return *dpu_conn_; }
  const rdmarpc::Connection& host_conn() const noexcept { return *host_conn_; }

  /// CPU time the host engine thread has used so far.
  uint64_t host_cpu_ns() const;
  /// CPU time the host thread spent inside this program's handlers.
  uint64_t handler_cpu_ns() const noexcept { return handler_ns_.load(); }
  /// RpcServer::block_hint_retries, published by the host thread.
  uint64_t block_hint_retries() const noexcept { return hint_retries_.load(); }

 private:
  Status register_handlers();

  proto::DescriptorPool pool_;
  std::unique_ptr<grpccompat::OffloadManifest> manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<grpccompat::HostEngine> host_;
  std::unique_ptr<grpccompat::DpuProxy> proxy_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> handler_ns_{0};
  std::atomic<uint64_t> hint_retries_{0};
  uint16_t port_ = 0;
  std::thread host_thread_;
};

}  // namespace perfbench
