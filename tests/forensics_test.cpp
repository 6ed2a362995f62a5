// End-to-end tail forensics over the full offload datapath: the default
// registry's stage-quantile lines and resource-occupancy gauges must be
// visible through the in-band dpurpc.Metrics/Scrape endpoint, a captured
// tail exemplar must surface in the exposition, and the sampler's
// timelines must tile with the span tracks in one Chrome/Perfetto export.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "metrics/metrics.hpp"
#include "proto/schema_parser.hpp"
#include "trace/collector.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/resource_sampler.hpp"
#include "trace/trace.hpp"
#include "xrpc/channel.hpp"

namespace dpurpc::grpccompat {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package kv;

message PutRequest { string key = 1; string value = 2; }
message PutResponse { bool created = 1; }

service KvStore {
  rpc Put (PutRequest) returns (PutResponse);
}
)";

class ForensicsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    auto built = OffloadManifest::build(pool_, arena::StdLibFlavor::kLibstdcpp);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    manifest_ = std::make_unique<OffloadManifest>(std::move(*built));

    dpu_pd_ = std::make_unique<simverbs::ProtectionDomain>("dpu");
    host_pd_ = std::make_unique<simverbs::ProtectionDomain>("host");
    dpu_conn_ = std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kClient, dpu_pd_.get(), rdmarpc::ConnectionConfig{});
    host_conn_ = std::make_unique<rdmarpc::Connection>(
        rdmarpc::Role::kServer, host_pd_.get(), rdmarpc::ConnectionConfig{});
    ASSERT_TRUE(rdmarpc::Connection::connect(*dpu_conn_, *host_conn_).is_ok());
    host_ = std::make_unique<HostEngine>(host_conn_.get(), manifest_.get(),
                                         &pool_);
  }

  void start_host_loop() {
    host_thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        auto n = host_->event_loop_once();
        if (!n.is_ok()) return;
        if (*n == 0) host_->wait(1);
      }
    });
  }

  void TearDown() override {
    if (proxy_) proxy_->stop();
    stop_.store(true);
    host_conn_->interrupt();
    if (host_thread_.joinable()) host_thread_.join();
    trace::Tracer::instance().configure(trace::TraceConfig{});
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;
  std::unique_ptr<DpuProxy> proxy_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
};

TEST_F(ForensicsFixture, ScrapeCarriesQuantilesGaugesAndExemplars) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  {
    std::vector<trace::SpanRecord> junk;
    trace::Tracer::instance().drain_into(junk);
  }
  trace::TraceConfig config;
  config.mode = trace::Mode::kFull;
  trace::Tracer::instance().configure(config);

  // Collector + recorder + sampler on the DEFAULT registry: that is the
  // registry the proxy's xRPC server scrapes from, so everything they
  // register becomes visible in-band.
  trace::TraceCollector::Options copts;
  copts.tail_keep_every = 1;
  copts.orphan_max_age = 10000;
  trace::TraceCollector collector(copts);

  trace::FlightRecorder::Options ropts;
  ropts.anomaly_window = 64;
  trace::FlightRecorder recorder(ropts);
  collector.set_flight_recorder(&recorder);
  // One armed window: the next completed trees are captured regardless of
  // latency, and each capture stamps an exemplar on the e2e histogram.
  recorder.arm(trace::TriggerKind::kManual);

  std::map<std::string, std::string> store;
  ASSERT_TRUE(host_
                  ->register_unary(
                      "kv.KvStore/Put",
                      [&store](const ServerContext&, const adt::LayoutView& req,
                               proto::DynamicMessage& resp) {
                        store[std::string(req.get_string(1))] =
                            std::string(req.get_string(2));
                        resp.set_uint64(resp.descriptor()->field_by_name("created"),
                                        1);
                        return Status::ok();
                      })
                  .is_ok());
  start_host_loop();

  proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), manifest_.get());
  auto port = proxy_->start();
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  auto chan = xrpc::Channel::connect(*port);
  ASSERT_TRUE(chan.is_ok());

  // The resource timelines the proxy publishes, paced by hand so the test
  // does not depend on thread scheduling.
  trace::ResourceSampler sampler;
  proxy_->register_resource_probes(sampler);
  ASSERT_GE(sampler.probe_count(), 4u);

  constexpr int kCalls = 8;
  const auto* put_desc = pool_.find_message("kv.PutRequest");
  for (int i = 0; i < kCalls; ++i) {
    proto::DynamicMessage m(put_desc);
    m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
    m.set_string(put_desc->field_by_name("value"), "v" + std::to_string(i));
    Bytes wire = proto::WireCodec::serialize(m);
    auto resp = (*chan)->call("kv.KvStore/Put", ByteSpan(wire));
    ASSERT_TRUE(resp.is_ok()) << resp.status().to_string();
    sampler.sample_once();
  }

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (collector.traces_completed() < kCalls &&
         std::chrono::steady_clock::now() < deadline) {
    collector.collect();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(collector.traces_completed(), static_cast<uint64_t>(kCalls));
  EXPECT_GE(recorder.captured_total(), 1u);

  // The in-band scrape: one raw xRPC to the built-in endpoint, answered
  // from the default registry without touching the handler.
  auto scrape = (*chan)->call("dpurpc.Metrics/Scrape", ByteSpan());
  ASSERT_TRUE(scrape.is_ok()) << scrape.status().to_string();
  std::string text(reinterpret_cast<const char*>(scrape->data()),
                   scrape->size());

  // Satellite (a): derived per-stage quantiles are first-class series.
  // block_build is a stage every offloaded call records (the request
  // decodes inside it, on the lane: DESIGN.md §3.14).
  for (const char* line : {
           "dpurpc_trace_stage_seconds_p50{stage=\"block_build\"}",
           "dpurpc_trace_stage_seconds_p95{stage=\"block_build\"}",
           "dpurpc_trace_stage_seconds_p99{stage=\"block_build\"}",
           "dpurpc_trace_stage_seconds_p99{stage=\"request\"}",
           "dpurpc_trace_stage_seconds_p99{stage=\"rdma_inbound\"}",
       }) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
  // The sampler's gauges, labeled by probe, at their latest sample.
  EXPECT_NE(text.find("dpurpc_resource_occupancy{probe=\"lane0_"),
            std::string::npos);
  EXPECT_NE(text.find("_busy_fraction\"}"), std::string::npos);
  // The captured outlier rides the e2e histogram as an OpenMetrics-style
  // exemplar: bucket line annotated with the trace id.
  EXPECT_NE(text.find(" # {trace_id=\""), std::string::npos);
  // Collector health is scrapeable (and what fig8/fig12 gate on).
  EXPECT_NE(text.find("dpurpc_trace_orphans_dropped_total"),
            std::string::npos);

  // The recorder's dump references real datapath stages and ids.
  std::string dump = recorder.to_json();
  EXPECT_NE(dump.find("\"trigger\":\"manual\""), std::string::npos);
  EXPECT_NE(dump.find("block_build"), std::string::npos);

  // One timeline, two kinds of tracks: spans (ph:"X") from the retained
  // trees and resource counters (ph:"C") from the sampler.
  std::string timeline = trace::TraceCollector::to_chrome_json(
      collector.retained(), collector.global_events(), sampler.series());
  EXPECT_NE(timeline.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(timeline.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(timeline.find("lane0_outstanding_jobs"), std::string::npos);
  EXPECT_NE(timeline.find("\"name\":\"block_build\""), std::string::npos);
}

}  // namespace
}  // namespace dpurpc::grpccompat
