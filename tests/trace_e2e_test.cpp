// End-to-end trace propagation over the full offload datapath: xRPC
// client → DPU proxy (pool or lane-run codec) → RPC over RDMA → host →
// back. Every datapath stage must record exactly one span into the
// request's tree, and which codec stages appear says where the codec ran.
#include <gtest/gtest.h>

#include <algorithm>
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
    copts.registry = &reg_;
    copts.tail_keep_every = 1;     // retain every tree: we inspect them all
    copts.orphan_max_age = 10000;  // never age out mid-test
    collector_ = std::make_unique<trace::TraceCollector>(copts);
    return *collector_;
  }

  /// kWarm warm-up calls (the first span on each thread creates its span
  /// ring, a cold spill that would break those trees' tiling), then
  /// kSerial blocking calls on a parked pool (the hand-off rule runs each
  /// on the lane), then kBurst async calls over two channels with
  /// kWindow in flight (the lane queue and the pool stay busy, so work is
  /// handed off). Trace ids follow call order, so the first kWarm trees
  /// are the warm-up.
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
    for (int i = 0; i < 10000 && !proxy_->codec_pool().idle(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_TRUE(proxy_->codec_pool().idle());
    const uint64_t lane_before = proxy_->stats().lane_run_decodes.load();
    ASSERT_NO_FATAL_FAILURE(run_window(kWarm, kWarm + kSerial, 1));
    // Serial calls on a parked pool never wake it.
    EXPECT_EQ(proxy_->stats().lane_run_decodes.load() - lane_before,
              static_cast<uint64_t>(kSerial));
    ASSERT_NO_FATAL_FAILURE(run_window(kWarm + kSerial, kTotal, kWindow));
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

  /// How many trees ran each codec direction on the pool (the rest ran
  /// on the lane).
  struct Placement {
    int pool_decodes = 0;
    int pool_encodes = 0;
  };

  /// Every tree carries `base` exactly once, plus, per codec direction,
  /// either the whole pool-run stage group exactly once or none of it —
  /// nothing else. Tree shape holds for every tree, tiling for both sets.
  Placement check_trees(const trace::TraceCollector& collector,
                        const std::vector<trace::Stage>& base,
                        const std::vector<trace::Stage>& encode_stages) {
    const std::vector<trace::Stage> decode_stages = {
        trace::Stage::kDecodeRingWait, trace::Stage::kWorkerDecode};
    Placement p;
    // Count one optional stage group: all of it once (pool-run) or none
    // of it (lane-run). Returns true for pool-run.
    auto group = [](std::map<trace::Stage, int>& counts,
                    const std::vector<trace::Stage>& stages, uint64_t id) {
      const bool pool = !stages.empty() && counts[stages[0]] > 0;
      for (trace::Stage st : stages) {
        EXPECT_EQ(counts[st], pool ? 1 : 0)
            << "stage " << trace::stage_name(st) << " in trace " << id;
      }
      return pool;
    };
    double stage_ns[2] = {0, 0}, e2e_ns[2] = {0, 0};  // [pool_decode]
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
      const bool pool_decode = group(counts, decode_stages, tree.trace_id);
      const bool pool_encode = group(counts, encode_stages, tree.trace_id);
      p.pool_decodes += pool_decode ? 1 : 0;
      p.pool_encodes += pool_encode ? 1 : 0;
      EXPECT_EQ(tree.spans.size(),
                base.size() + (pool_decode ? decode_stages.size() : 0) +
                    (pool_encode ? encode_stages.size() : 0))
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
      // Tiling, past the warm-up, summed per decode stage set (the
      // ratio perfbench reports as trace.tiling_ratio).
      if (i < kWarm) continue;
      stage_ns[pool_decode] += static_cast<double>(tree.stage_sum_ns());
      e2e_ns[pool_decode] += static_cast<double>(root->duration_ns());
    }
    // Stage spans cover most of the end-to-end time and do not count any
    // of it twice, on the lane-run and the pool-run set alike. (Single
    // trees can stray: a thread preempted at a span boundary stretches
    // one span over the next, or leaves a gap.)
    for (int set = 0; set < 2; ++set) {
      if (e2e_ns[set] == 0) continue;
      const double tiling = stage_ns[set] / e2e_ns[set];
      EXPECT_GE(tiling, 0.5) << (set ? "pool-run" : "lane-run");
      EXPECT_LE(tiling, 1.05) << (set ? "pool-run" : "lane-run");
    }
    // The trees agree with the proxy's placement ledger (a lane-run and
    // an overload-spill decode trace alike), and the serial phase
    // guarantees lane-run trees exist.
    const DpuProxyStats& stats = proxy_->stats();
    EXPECT_EQ(static_cast<uint64_t>(kTotal - p.pool_decodes),
              stats.lane_run_decodes.load() + stats.inline_decodes.load());
    EXPECT_GE(stats.lane_run_decodes.load(), static_cast<uint64_t>(kSerial));
    return p;
  }

  /// Per-stage histograms: every base stage observed once per call, each
  /// pool-run stage once per pool-run tree.
  void expect_stage_counts(const std::vector<trace::Stage>& base,
                           const Placement& p) {
    metrics::Snapshot snap = reg_.scrape();
    auto count_of = [&snap](trace::Stage st) {
      const metrics::Sample* c = snap.find("dpurpc_trace_stage_seconds_count",
                                           {{"stage", trace::stage_name(st)}});
      return c == nullptr ? 0.0 : c->value;
    };
    for (trace::Stage st : base) {
      EXPECT_EQ(count_of(st), static_cast<double>(kTotal)) << trace::stage_name(st);
    }
    EXPECT_EQ(count_of(trace::Stage::kDecodeRingWait), static_cast<double>(p.pool_decodes));
    EXPECT_EQ(count_of(trace::Stage::kWorkerDecode), static_cast<double>(p.pool_decodes));
    EXPECT_EQ(count_of(trace::Stage::kEncodeRingWait), static_cast<double>(p.pool_encodes));
    EXPECT_EQ(count_of(trace::Stage::kWorkerEncode), static_cast<double>(p.pool_encodes));
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
  metrics::Registry reg_;
  std::unique_ptr<trace::TraceCollector> collector_;
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
  // A lane-run request decodes inside block_build; a pool-run one adds
  // the decode ring wait and the worker's decode span.
  const std::vector<trace::Stage> base = {
      trace::Stage::kRequest,       trace::Stage::kClientSerialize,
      trace::Stage::kXrpcInbound,   trace::Stage::kProxyDispatch,
      trace::Stage::kLaneQueueWait, trace::Stage::kBlockBuild,
      trace::Stage::kFlushWait,     trace::Stage::kRdmaInbound,
      trace::Stage::kHostDispatch,  trace::Stage::kHostSerialize,
      trace::Stage::kRespFlushWait, trace::Stage::kRdmaOutbound,
      trace::Stage::kComplete,      trace::Stage::kXrpcOutbound,
  };
  const Placement p = check_trees(collector, base, /*encode_stages=*/{});
  EXPECT_EQ(p.pool_encodes, 0);
  expect_stage_counts(base, p);

  // The exporter produces an openable timeline for what we retained.
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_decode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
}

// The response-offload variant: handlers built with register_unary_object
// reply with an in-place *object* that the DPU serializes. The
// host-serialize span disappears; a pool-serialized reply adds the two
// response-side pool stages, a lane-run one serializes inside complete.
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
  // Nothing spilled: every reply was serialized on the DPU, by the pool
  // or on the lane, exactly once.
  const auto& stats = proxy_->stats();
  ASSERT_EQ(stats.offloaded_responses.load() + stats.lane_run_serializes.load(),
            static_cast<uint64_t>(kTotal));
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
  const Placement p = check_trees(
      collector, base,
      {trace::Stage::kEncodeRingWait, trace::Stage::kWorkerEncode});
  for (const trace::SpanTree& tree : collector.retained()) {
    for (const trace::Span& s : tree.spans) {
      EXPECT_NE(s.stage, trace::Stage::kHostSerialize)
          << "offloaded reply must not record a host serialize span";
    }
  }
  // The trees agree with the proxy's own placement ledger.
  EXPECT_EQ(static_cast<uint64_t>(p.pool_encodes),
            stats.offloaded_responses.load());
  expect_stage_counts(base, p);

  // Perfetto/Chrome timelines still tile: the response-side spans export
  // under their wire names.
  std::string json = collector.export_chrome_json();
  EXPECT_NE(json.find("\"name\":\"worker_encode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode_ring_wait\""), std::string::npos);
}

}  // namespace
}  // namespace dpurpc::grpccompat
