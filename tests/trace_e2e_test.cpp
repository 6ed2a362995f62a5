// End-to-end trace propagation over the full offload datapath: xRPC
// client → DPU proxy (codec on the lane) → RPC over RDMA → host → back.
// Every datapath stage must record exactly one span into the request's
// tree, and a unary tree carries no codec-pool stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "proto/schema_parser.hpp"
#include "trace/collector.hpp"
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

class TraceE2eFixture : public ::testing::Test {
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

  /// Full tracing, with anything a previous test left in the rings
  /// drained first. The collector retains every tree.
  trace::TraceCollector& start_full_tracing() {
    std::vector<trace::SpanRecord> junk;
    trace::Tracer::instance().drain_into(junk);
    trace::TraceConfig config;
    config.mode = trace::Mode::kFull;
    trace::Tracer::instance().configure(config);
    trace::TraceCollector::Options copts;
    copts.tail_keep_every = 1;     // retain every tree: we inspect them all
    copts.orphan_max_age = 10000;  // never age out mid-test
    collector_ = std::make_unique<trace::TraceCollector>(copts);
    for (size_t i = 0; i < stage_before_.size(); ++i) {
      stage_before_[i] =
          collector_->stage_histogram(static_cast<trace::Stage>(i))->snapshot();
    }
    return *collector_;
  }

  /// kWarm warm-up calls (the first span on each thread creates its span
  /// ring, a cold spill that would break those trees' tiling), then
  /// kSerial blocking calls, then kBurst async calls over two channels
  /// with kWindow in flight (the lane queue stays busy). Trace ids follow
  /// call order, so the first kWarm trees are the warm-up.
  void drive_calls() {
    start_host_loop();
    proxy_ = std::make_unique<DpuProxy>(dpu_conn_.get(), manifest_.get());
    auto port = proxy_->start();
    ASSERT_TRUE(port.is_ok()) << port.status().to_string();
    for (int c = 0; c < 2; ++c) {
      auto chan = xrpc::Channel::connect(*port);
      ASSERT_TRUE(chan.is_ok());
      chans_.push_back(std::move(*chan));
    }
    ASSERT_NO_FATAL_FAILURE(run_window(0, kWarm, kWarm));
    ASSERT_NO_FATAL_FAILURE(run_window(kWarm, kWarm + kSerial, 1));
    ASSERT_NO_FATAL_FAILURE(run_window(kWarm + kSerial, kTotal, kWindow));
    // Unary codec work never leaves the lane, serial or windowed.
    EXPECT_EQ(proxy_->codec_pool().total_jobs(), 0u);
  }

  /// Calls [first, last) alternating between the channels, at most
  /// `window` in flight; returns once all of them replied OK.
  void run_window(int first, int last, int window) {
    const auto* put_desc = pool_.find_message("kv.PutRequest");
    std::atomic<int> ok{0}, done{0};
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int i = first; i < last; ++i) {
      while (i - first - done.load() >= window &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      proto::DynamicMessage m(put_desc);
      m.set_string(put_desc->field_by_name("key"), "k" + std::to_string(i));
      m.set_string(put_desc->field_by_name("value"), "v" + std::to_string(i));
      Bytes wire = proto::WireCodec::serialize(m);
      ASSERT_TRUE(chans_[i % 2]
                      ->call_async("kv.KvStore/Put", ByteSpan(wire),
                                   [&ok, &done](Code code, Bytes) {
                                     if (code == Code::kOk) ++ok;
                                     ++done;
                                   })
                      .is_ok());
    }
    while (done.load() < last - first &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(ok.load(), last - first);
  }

  /// The root span lands on the channel reader thread *after* the
  /// callback that completed the call, so keep collecting until every
  /// tree closes.
  void collect_all(trace::TraceCollector& collector) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (collector.traces_completed() < kTotal &&
           std::chrono::steady_clock::now() < deadline) {
      collector.collect();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(collector.traces_completed(), static_cast<uint64_t>(kTotal));
    ASSERT_EQ(collector.retained().size(), static_cast<size_t>(kTotal));
  }

  /// Every tree carries exactly the lane-run stage set `base`, each stage
  /// once, and nothing else: no ring wait, no worker span. Tree shape
  /// holds for every tree; tiling holds over the trees past the warm-up.
  void check_trees(const trace::TraceCollector& collector,
                   const std::vector<trace::Stage>& base) {
    double stage_ns = 0, e2e_ns = 0;
    std::vector<const trace::SpanTree*> trees;
    for (const trace::SpanTree& tree : collector.retained()) trees.push_back(&tree);
    std::sort(trees.begin(), trees.end(), [](const auto* x, const auto* y) {
      return x->trace_id < y->trace_id;
    });
    for (size_t i = 0; i < trees.size(); ++i) {
      const trace::SpanTree& tree = *trees[i];
      std::map<trace::Stage, int> counts;
      for (const trace::Span& s : tree.spans) counts[s.stage] += 1;
      for (trace::Stage st : base) {
        EXPECT_EQ(counts[st], 1) << "stage " << trace::stage_name(st)
                                 << " in trace " << tree.trace_id;
      }
      EXPECT_EQ(tree.spans.size(), base.size())
          << "unexpected extra spans in trace " << tree.trace_id;

      // Tree shape: one root, every stage span parented to it.
      const trace::Span* root = tree.root();
      EXPECT_NE(root, nullptr) << "trace " << tree.trace_id;
      if (root == nullptr) continue;
      EXPECT_GT(root->duration_ns(), 0u);
      for (const trace::Span& s : tree.spans) {
        if (&s == root) continue;
        EXPECT_EQ(s.parent_span_id, root->span_id);
        EXPECT_LE(s.start_ns, s.end_ns);
      }
      if (i < kWarm) continue;
      stage_ns += static_cast<double>(tree.stage_sum_ns());
      e2e_ns += static_cast<double>(root->duration_ns());
    }
    // Stage spans cover most of the end-to-end time and count none of it
    // twice (the ratio perfbench reports as trace.tiling_ratio). Single
    // trees can stray: a thread preempted at a span boundary stretches
    // one span over the next, or leaves a gap.
    ASSERT_GT(e2e_ns, 0);
    EXPECT_GE(stage_ns / e2e_ns, 0.5);
    EXPECT_LE(stage_ns / e2e_ns, 1.05);
  }

  /// Per-stage histograms: every base stage observed once per call, and
  /// no codec-pool stage at all.
  void expect_stage_counts(const std::vector<trace::Stage>& base) {
    auto count_of = [this](trace::Stage st) {
      return collector_->stage_histogram(st)
          ->snapshot()
          .delta(stage_before_[static_cast<size_t>(st)])
          .count;
    };
    for (trace::Stage st : base) {
      EXPECT_EQ(count_of(st), static_cast<uint64_t>(kTotal)) << trace::stage_name(st);
    }
    for (trace::Stage st : {trace::Stage::kDecodeRingWait, trace::Stage::kWorkerDecode,
                            trace::Stage::kEncodeRingWait, trace::Stage::kWorkerEncode}) {
      EXPECT_EQ(count_of(st), 0u) << trace::stage_name(st);
    }
  }

  proto::DescriptorPool pool_;
  std::unique_ptr<OffloadManifest> manifest_;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd_, host_pd_;
  std::unique_ptr<rdmarpc::Connection> dpu_conn_, host_conn_;
  std::unique_ptr<HostEngine> host_;

  static constexpr int kWarm = 8;
  static constexpr int kSerial = 8;
  static constexpr int kBurst = 48;
  static constexpr int kWindow = 8;
  static constexpr int kTotal = kWarm + kSerial + kBurst;

  std::unique_ptr<DpuProxy> proxy_;
  std::vector<std::unique_ptr<xrpc::Channel>> chans_;
  std::thread host_thread_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<trace::TraceCollector> collector_;
  /// Stage histograms when the collector started: the process registry's
  /// counts are read as deltas from here.
  std::array<metrics::HistogramSnapshot, static_cast<size_t>(trace::Stage::kStageCount)>
      stage_before_;
};

TEST_F(TraceE2eFixture, EveryStageRecordsExactlyOnce) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  trace::TraceCollector& collector = start_full_tracing();
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
  ASSERT_NO_FATAL_FAILURE(drive_calls());
  ASSERT_NO_FATAL_FAILURE(collect_all(collector));

  // The stages every offloaded request passes through, in Fig. 1 order.
  // The request decodes on the lane, inside block_build.
  const std::vector<trace::Stage> base = {
      trace::Stage::kRequest,       trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,   trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait, trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,     trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,  trace::Stage::kHostSerialize,
      trace::Stage::kRespFlushWait, trace::Stage::kRdmaOutbound,
      trace::Stage::kComplete,      trace::Stage::kXrpcOutbound,
  };
  check_trees(collector, base);
  expect_stage_counts(base);

  // The exporter produces an openable timeline for what we retained
  // (codec_pool_test covers the worker spans' export).
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"block_build\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
}

// The response-offload variant: handlers built with register_unary_object
// reply with an in-place *object* that the DPU serializes. The
// host-serialize span disappears, and the lane serializes the reply
// inside its complete span.
TEST_F(TraceE2eFixture, OffloadedReplyStagesRecordExactlyOnce) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  trace::TraceCollector& collector = start_full_tracing();
  ASSERT_TRUE(host_
                  ->register_unary_object(
                      "kv.KvStore/Put",
                      [](const ServerContext&, const adt::LayoutView&,
                         adt::LayoutBuilder& resp) {
                        return resp.set_uint64(1, 1);
                      })
                  .is_ok());
  ASSERT_NO_FATAL_FAILURE(drive_calls());
  // Every reply was serialized on the DPU exactly once, and none spilled.
  const auto& stats = proxy_->stats();
  ASSERT_EQ(stats.offloaded_responses.load(), static_cast<uint64_t>(kTotal));
  ASSERT_EQ(stats.inline_serializes.load(), 0u);
  ASSERT_NO_FATAL_FAILURE(collect_all(collector));

  const std::vector<trace::Stage> base = {
      trace::Stage::kRequest,       trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,   trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait, trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,     trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,  trace::Stage::kRespFlushWait,
      trace::Stage::kRdmaOutbound,  trace::Stage::kComplete,
      trace::Stage::kXrpcOutbound,
  };
  check_trees(collector, base);
  for (const trace::SpanTree& tree : collector.retained()) {
    for (const trace::Span& s : tree.spans) {
      EXPECT_NE(s.stage, trace::Stage::kHostSerialize)
          << "offloaded reply must not record a host serialize span";
    }
  }
  expect_stage_counts(base);

  // Perfetto/Chrome timelines still export the response-side spans under
  // their wire names.
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"name\":\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rdma_outbound\""), std::string::npos);
}

}  // namespace
}  // namespace dpurpc::grpccompat
