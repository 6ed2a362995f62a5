// kv_store: a key-value microservice with offloaded deserialization.
//
// The workload the paper's introduction motivates: many small RPCs from
// several client connections, multiplexed by the DPU onto one host link.
// Demonstrates: multiple methods, concurrent xRPC clients, backpressure,
// and the library-level Prometheus metrics with the paper's monitoring
// methodology (instant rate of increase over scrapes).
//
//   $ ./kv_store [num_requests_per_client]
#include <algorithm>
#include <iostream>
#include <string_view>
#include <thread>

#include "common/cpu_timer.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "metrics/monitor.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"

using namespace dpurpc;

static constexpr std::string_view kKvProto = R"(
syntax = "proto3";
package kv;

message GetRequest  { string key = 1; }
message GetResponse { string value = 1; bool found = 2; }
message PutRequest  { string key = 1; string value = 2; uint64 ttl_ms = 3; }
message PutResponse { bool created = 1; }
message ScanRequest { string prefix = 1; uint32 limit = 2; }
message ScanResponse { repeated string keys = 1; }

service KvStore {
  rpc Get  (GetRequest)  returns (GetResponse);
  rpc Put  (PutRequest)  returns (PutResponse);
  rpc Scan (ScanRequest) returns (ScanResponse);
}
)";

int main(int argc, char** argv) {
  const int kRequests = argc > 1 ? std::atoi(argv[1]) : 400;
  constexpr int kClients = 3;

  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  if (auto st = parser.parse_and_link(kKvProto); !st.is_ok()) {
    std::cerr << st.to_string() << "\n";
    return 1;
  }
  auto manifest = grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  if (!manifest.is_ok()) {
    std::cerr << manifest.status().to_string() << "\n";
    return 1;
  }

  // Every layer registers in the process registry (§VI: "directly
  // instrumentalized at the library level with a Prometheus client").
  simverbs::ProtectionDomain dpu_pd("dpu"), host_pd("host");
  rdmarpc::Connection dpu_conn(rdmarpc::Role::kClient, &dpu_pd, {});
  rdmarpc::Connection host_conn(rdmarpc::Role::kServer, &host_pd, {});
  if (auto st = rdmarpc::Connection::connect(dpu_conn, host_conn); !st.is_ok()) {
    std::cerr << st.to_string() << "\n";
    return 1;
  }

  // --- host: the store ---
  std::map<std::string, std::string> store;  // single poller thread: no lock
  grpccompat::HostEngine host(&host_conn, &*manifest, &pool);
  (void)host.register_unary(
      "kv.KvStore/Put",
      [&store](const grpccompat::ServerContext&, const adt::LayoutView& req,
               proto::DynamicMessage& resp) {
        std::string key(req.get_string(1));
        bool created = store.emplace(key, std::string(req.get_string(2))).second;
        if (!created) store[key] = std::string(req.get_string(2));
        resp.set_uint64(resp.descriptor()->field_by_name("created"), created ? 1 : 0);
        return Status::ok();
      });
  (void)host.register_unary(
      "kv.KvStore/Get",
      [&store](const grpccompat::ServerContext&, const adt::LayoutView& req,
               proto::DynamicMessage& resp) {
        auto it = store.find(std::string(req.get_string(1)));
        if (it != store.end()) {
          resp.set_string(resp.descriptor()->field_by_name("value"), it->second);
          resp.set_uint64(resp.descriptor()->field_by_name("found"), 1);
        }
        return Status::ok();
      });
  (void)host.register_unary(
      "kv.KvStore/Scan",
      [&store](const grpccompat::ServerContext&, const adt::LayoutView& req,
               proto::DynamicMessage& resp) {
        std::string prefix(req.get_string(1));
        uint64_t limit = req.get_uint64(2);
        const auto* keys_field = resp.descriptor()->field_by_name("keys");
        uint64_t n = 0;
        for (auto it = store.lower_bound(prefix);
             it != store.end() && n < limit && it->first.rfind(prefix, 0) == 0;
             ++it, ++n) {
          resp.add_string(keys_field, it->first);
        }
        return Status::ok();
      });

  // Host CPU accounting for the report (Fig. 8c's measurement style).
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> host_busy_ns{0};
  std::thread host_thread([&] {
    ThreadCpuTimer cpu;
    while (!stop.load()) {
      auto n = host.event_loop_once();
      if (!n.is_ok()) break;
      if (*n == 0) host.wait(1);
    }
    host_busy_ns.store(cpu.elapsed_ns());
  });

  // --- DPU proxy ---
  grpccompat::DpuProxy proxy(&dpu_conn, &*manifest);
  auto port = proxy.start();
  if (!port.is_ok()) {
    std::cerr << port.status().to_string() << "\n";
    return 1;
  }

  // --- clients ---
  WallTimer wall;
  metrics::RateMonitor rps_monitor("rdmarpc_messages_received_total",
                                   {{"role", "server"}});
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto chan = xrpc::Channel::connect(*port);
      if (!chan.is_ok()) return;
      const auto* put_desc = pool.find_message("kv.PutRequest");
      const auto* get_desc = pool.find_message("kv.GetRequest");
      for (int i = 0; i < kRequests; ++i) {
        std::string key = "user:" + std::to_string(c) + ":" + std::to_string(i % 50);
        proto::DynamicMessage put(put_desc);
        put.set_string(put_desc->field_by_name("key"), key);
        put.set_string(put_desc->field_by_name("value"),
                       "payload-" + std::string(40, 'v') + std::to_string(i));
        Bytes put_wire = proto::WireCodec::serialize(put);
        if (!(*chan)->call("kv.KvStore/Put", ByteSpan(put_wire)).is_ok()) return;

        proto::DynamicMessage get(get_desc);
        get.set_string(get_desc->field_by_name("key"), key);
        Bytes get_wire = proto::WireCodec::serialize(get);
        if (!(*chan)->call("kv.KvStore/Get", ByteSpan(get_wire)).is_ok()) return;
        completed.fetch_add(2);
      }
    });
  }
  // Scrape the metrics while the run is in flight (the monitoring
  // process of §VI).
  std::thread monitor([&] {
    while (!stop.load()) {
      (void)rps_monitor.observe(metrics::default_registry().scrape());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  for (auto& t : clients) t.join();
  double seconds = wall.elapsed_s();

  // Final scan over everything we wrote.
  auto chan = xrpc::Channel::connect(*port);
  const auto* scan_desc = pool.find_message("kv.ScanRequest");
  proto::DynamicMessage scan(scan_desc);
  scan.set_string(scan_desc->field_by_name("prefix"), "user:1:");
  scan.set_uint64(scan_desc->field_by_name("limit"), 10);
  Bytes scan_wire = proto::WireCodec::serialize(scan);
  auto scan_resp = (*chan)->call("kv.KvStore/Scan", ByteSpan(scan_wire));
  // The monitoring process's scrape, over xRPC from the proxy's port.
  auto scrape = (*chan)->call(xrpc::kMetricsMethod, {});

  stop.store(true);
  monitor.join();
  proxy.stop();
  host_conn.interrupt();
  host_thread.join();

  std::cout << "kv_store: " << completed.load() << " rpcs in " << seconds << " s ("
            << static_cast<uint64_t>(completed.load() / seconds) << " rps wall)\n";
  std::cout << "store size: " << store.size() << " keys\n";
  if (scan_resp.is_ok()) {
    proto::DynamicMessage r(pool.find_message("kv.ScanResponse"));
    (void)proto::WireCodec::parse(ByteSpan(*scan_resp), r);
    std::cout << "scan(user:1:) -> "
              << r.repeated_size(r.descriptor()->field_by_name("keys")) << " keys\n";
  }
  std::cout << "host busy: " << host_busy_ns.load() / 1e6 << " ms CPU over "
            << seconds * 1e3 << " ms wall ("
            << 100.0 * host_busy_ns.load() / 1e9 / seconds << "% of one core)\n";
  if (auto rate = rps_monitor.instant_rate()) {
    std::cout << "monitor instant rate (server messages/s): "
              << static_cast<uint64_t>(*rate) << "\n";
  }
  // Transport and codec families, side by side in one scrape.
  std::cout << "--- metrics exposition (excerpt) ---\n";
  std::string_view text = scrape.is_ok() ? as_string_view(ByteSpan(*scrape)) : "";
  for (size_t pos = 0, end; pos < text.size(); pos = end + 1) {
    end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    for (std::string_view family :
         {"rdmarpc_messages_sent_total", "rdmarpc_credits_available",
          "rdmarpc_request_latency_seconds_count", "dpurpc_deser_plan_parses_total"}) {
      if (line.starts_with(family)) std::cout << line << "\n";
    }
  }
  return 0;
}
