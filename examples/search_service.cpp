// search_service: both offload directions plus background execution.
//
// Extends the paper's implemented scope with the two features it sketches:
//   * response-serialization offload (§III.A "can be implemented
//     similarly"): the host handler BUILDS the response object in place
//     with a LayoutBuilder; the DPU serializes it for the client with the
//     ADT-driven ObjectSerializer. The host never touches wire bytes.
//   * background RPCs (§III.D): the slow "Reindex" method runs on the
//     host's thread pool while fast "Find" calls keep flowing foreground.
//
//   $ ./search_service [num_queries]
#include <atomic>
#include <iostream>
#include <map>
#include <thread>

#include "common/cpu_timer.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

using namespace dpurpc;

static constexpr std::string_view kSearchProto = R"(
syntax = "proto3";
package search;

message Query { string text = 1; uint32 top_k = 2; }
message Hit { string doc = 1; double score = 2; }
message Results { repeated Hit hits = 1; uint64 scanned = 2; }
message ReindexRequest { repeated string docs = 1; }
message ReindexReply { uint64 indexed = 1; }

service Search {
  rpc Find (Query) returns (Results);
  rpc Reindex (ReindexRequest) returns (ReindexReply);
}
)";

int main(int argc, char** argv) {
  const int kQueries = argc > 1 ? std::atoi(argv[1]) : 200;

  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  if (auto st = parser.parse_and_link(kSearchProto); !st.is_ok()) {
    std::cerr << st.to_string() << "\n";
    return 1;
  }
  auto manifest = grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  if (!manifest.is_ok()) {
    std::cerr << manifest.status().to_string() << "\n";
    return 1;
  }

  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
  if (auto st = rdmarpc::Connection::connect(dpu_conn, host_conn); !st.is_ok()) {
    std::cerr << st.to_string() << "\n";
    return 1;
  }

  grpccompat::HostEngine host(&host_conn, &*manifest, &pool);
  // Background pool for the slow method (§III.D).
  if (auto st = host.rpc_server().enable_background({.threads = 2}); !st.is_ok()) {
    std::cerr << st.to_string() << "\n";
    return 1;
  }

  // A toy inverted index. The foreground poller thread and the background
  // Reindex workers share it; a real service would shard or lock finer.
  std::mutex index_mu;
  std::map<std::string, std::vector<std::string>> index;  // term -> docs

  // Fully offloaded Find: in-place request in, in-place response out.
  (void)host.register_unary_object(
      "search.Search/Find",
      [&](const grpccompat::ServerContext&, const adt::LayoutView& req,
          adt::LayoutBuilder& resp) {
        std::string term(req.get_string(1));
        uint64_t top_k = req.get_uint64(2);
        std::lock_guard lk(index_mu);
        uint64_t scanned = 0;
        if (auto it = index.find(term); it != index.end()) {
          uint64_t n = std::min<uint64_t>(top_k, it->second.size());
          for (uint64_t i = 0; i < n; ++i) {
            auto hit = resp.add_message(1);
            if (!hit.is_ok()) return hit.status();
            DPURPC_RETURN_IF_ERROR(hit->set_string(1, it->second[i]));
            DPURPC_RETURN_IF_ERROR(hit->set_double(2, 1.0 / (1.0 + static_cast<double>(i))));
          }
          scanned = it->second.size();
        }
        return resp.set_uint64(2, scanned);
      });

  // Background Reindex (copy path: bulk data, latency-insensitive).
  const auto* reindex_req = pool.find_message("search.ReindexRequest");
  const auto* reindex_entry = manifest->find_by_name("search.Search/Reindex");
  (void)host.rpc_server().register_background_handler(
      reindex_entry->method_id,
      [&](const rdmarpc::RequestView& req, Bytes& out) {
        adt::LayoutView view(&manifest->adt(), reindex_entry->input_class, req.object);
        uint64_t added = 0;
        {
          std::lock_guard lk(index_mu);
          for (uint32_t i = 0; i < view.repeated_size(1); ++i) {
            std::string doc(view.repeated_string(1, i));
            auto term = doc.substr(0, doc.find(' '));  // toy tokenizer: first word
            index[term].push_back(doc);
            ++added;
          }
        }
        proto::DynamicMessage reply(pool.find_message("search.ReindexReply"));
        reply.set_uint64(reply.descriptor()->field_by_name("indexed"), added);
        proto::WireCodec::serialize(reply, out);
        return Status::ok();
      });
  (void)reindex_req;

  std::atomic<bool> stop{false};
  std::thread host_thread([&] {
    while (!stop.load()) {
      auto n = host.event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) host.wait(1);
    }
  });

  grpccompat::DpuProxy proxy(&dpu_conn, &*manifest);
  auto port = proxy.start();
  if (!port.is_ok()) {
    std::cerr << port.status().to_string() << "\n";
    return 1;
  }
  auto chan = xrpc::Channel::connect(*port);
  if (!chan.is_ok()) {
    std::cerr << chan.status().to_string() << "\n";
    return 1;
  }

  // 1. Index a corpus via the background method.
  {
    proto::DynamicMessage r(pool.find_message("search.ReindexRequest"));
    const auto* docs_field = r.descriptor()->field_by_name("docs");
    const char* corpus[] = {
        "rdma verbs and queue pairs",  "rdma write with immediate",
        "protobuf varint decoding",    "protobuf arena deserialization",
        "dpu offload architectures",   "dpu bluefield three cores",
        "rdma reliable connections",   "protobuf wire format",
    };
    for (const char* d : corpus) r.add_string(docs_field, d);
    Bytes wire = proto::WireCodec::serialize(r);
    auto resp = (*chan)->call("search.Search/Reindex", ByteSpan(wire));
    if (!resp.is_ok()) {
      std::cerr << "reindex: " << resp.status().to_string() << "\n";
      return 1;
    }
    proto::DynamicMessage reply(pool.find_message("search.ReindexReply"));
    (void)proto::WireCodec::parse(ByteSpan(*resp), reply);
    std::cout << "indexed "
              << reply.get_uint64(reply.descriptor()->field_by_name("indexed"))
              << " docs (background RPC on the host's pool)\n";
  }

  // 2. Query hot loop through the fully offloaded path.
  const auto* query_desc = pool.find_message("search.Query");
  const auto* results_desc = pool.find_message("search.Results");
  const char* terms[] = {"rdma", "protobuf", "dpu", "missing"};
  uint64_t hits_total = 0;
  WallTimer wall;
  for (int i = 0; i < kQueries; ++i) {
    proto::DynamicMessage q(query_desc);
    q.set_string(query_desc->field_by_name("text"), terms[i % 4]);
    q.set_uint64(query_desc->field_by_name("top_k"), 2);
    Bytes wire = proto::WireCodec::serialize(q);
    auto resp = (*chan)->call("search.Search/Find", ByteSpan(wire));
    if (!resp.is_ok()) {
      std::cerr << "find: " << resp.status().to_string() << "\n";
      return 1;
    }
    proto::DynamicMessage r(results_desc);
    (void)proto::WireCodec::parse(ByteSpan(*resp), r);
    hits_total += r.repeated_size(results_desc->field_by_name("hits"));
  }
  double secs = wall.elapsed_s();
  std::cout << kQueries << " fully-offloaded queries in " << secs * 1e3 << " ms ("
            << static_cast<uint64_t>(kQueries / secs) << " qps), " << hits_total
            << " hits\n";
  std::cout << "host (de)serializations on the Find path: 0 — requests arrive as\n"
            << "objects, responses leave as objects; the DPU handles both wires.\n";

  proxy.stop();
  stop.store(true);
  host_conn.interrupt();
  host_thread.join();
  return 0;
}
