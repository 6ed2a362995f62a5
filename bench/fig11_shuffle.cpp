// Fig. 11: streaming bulk transfer — chunked DPU decode with bounded
// memory (the shuffle-style workload the unary datapath cannot carry).
//
// A client streams multi-MB payloads of repeated sh.ShuffleRow records
// over xRPC. The DPU proxy cuts the byte stream at protobuf record
// boundaries into pieces of at most kMaxStreamPiece bytes, decodes each
// piece on the CodecPool (kDecodeChunk — the offloaded validation work),
// and forwards the raw wire bytes to the host as one RPC-over-RDMA
// message per piece, never holding more than the per-stream budget
// (kStreamBudget). Backpressure composes end
// to end: host acks release budget, released budget becomes xRPC credit,
// and a sender that outruns the datapath stalls at the xRPC edge.
//
// Reported: end-to-end stream throughput (bytes/s over simverbs), pool
// chunk-decode throughput, credit stalls, the peak per-stream bytes held
// by the proxy, and the count and largest size of the pieces the host saw.
//
// In-bench acceptance gates (exit 3 on violation):
//   - bit-for-bit parity: the host's reassembled stream equals the
//     WireCodec oracle concatenation, byte for byte (checked inline) and
//     by digest in the final response;
//   - bounded memory: proxy stream_peak_bytes <= kStreamBudget;
//   - one message per piece: the largest piece <= kMaxStreamPiece;
//   - backpressure: the client observed at least one credit stall;
//   - trace tiling (full runs only): the streaming span tree keeps the
//     stage-spans-sum-to-e2e invariant, including the new kStreamTransfer
//     and kStreamDrainWait stages.
//
// Usage: fig11_shuffle [--quick] [--json <path>]
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/endian.hpp"
#include "grpccompat/dpu_proxy.hpp"
#include "grpccompat/host_service.hpp"
#include "grpccompat/manifest.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "xrpc/channel.hpp"

namespace {

using namespace dpurpc;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package sh;
message ShuffleRow { uint64 row_id = 1; bytes cells = 2; }
message ShuffleAck { uint64 rows = 1; uint64 total = 2; fixed64 digest = 3; }
service Shuffle { rpc Rows (ShuffleRow) returns (ShuffleAck); }
)";

uint64_t fnv1a(ByteSpan data, uint64_t h = 1469598103934665603ull) {
  for (std::byte b : data) {
    h ^= static_cast<uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

struct StreamResult {
  double seconds = 0;
  uint64_t stalls = 0;
};

struct Deployment {
  proto::DescriptorPool pool;
  std::unique_ptr<grpccompat::OffloadManifest> manifest;
  std::unique_ptr<simverbs::ProtectionDomain> dpu_pd, host_pd;
  std::unique_ptr<rdmarpc::Connection> dpu_conn, host_conn;
  std::unique_ptr<grpccompat::HostEngine> host;
  std::unique_ptr<grpccompat::DpuProxy> proxy;
  std::thread host_thread;
  std::atomic<bool> stop{false};
  uint16_t port = 0;

  // Parity and piece-size state shared with the host-side stream handler.
  const Bytes* oracle = nullptr;
  std::atomic<bool> parity_failed{false};
  std::atomic<uint64_t> pieces{0};
  std::atomic<uint64_t> largest_piece{0};

  ~Deployment() {
    if (proxy) proxy->stop();
    stop.store(true);
    if (host_conn) host_conn->interrupt();
    if (host_thread.joinable()) host_thread.join();
  }
};

bool setup(Deployment& d) {
  proto::SchemaParser parser(d.pool);
  if (!parser.parse_and_link(kSchema).is_ok()) return false;
  auto built = grpccompat::OffloadManifest::build(d.pool,
                                                  arena::StdLibFlavor::kLibstdcpp);
  if (!built.is_ok()) return false;
  d.manifest = std::make_unique<grpccompat::OffloadManifest>(std::move(*built));

  d.dpu_pd = std::make_unique<simverbs::ProtectionDomain>("dpu");
  d.host_pd = std::make_unique<simverbs::ProtectionDomain>("host");
  // Stream pieces ride the DPU->host direction in (up to) 64 KiB blocks,
  // one each; size both ends so a full budget's worth is in flight.
  rdmarpc::ConnectionConfig ccfg, scfg;
  ccfg.sbuf_size = 32ull << 20;
  scfg.rbuf_size = 32ull << 20;
  d.dpu_conn = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kClient,
                                                     d.dpu_pd.get(), ccfg);
  d.host_conn = std::make_unique<rdmarpc::Connection>(rdmarpc::Role::kServer,
                                                      d.host_pd.get(), scfg);
  if (!rdmarpc::Connection::connect(*d.dpu_conn, *d.host_conn).is_ok()) {
    return false;
  }
  d.host = std::make_unique<grpccompat::HostEngine>(d.host_conn.get(),
                                                    d.manifest.get(), &d.pool);

  // The host's shuffle sink: digest + inline byte-for-byte comparison
  // against the oracle (the bench owns both ends, so exact parity is
  // directly checkable, not just digest-inferred).
  auto st = d.host->register_stream(
      "sh.Shuffle/Rows",
      [&d](const grpccompat::ServerContext&, uint32_t, ByteSpan chunk,
           bool end, Bytes& final_response) -> Status {
        static thread_local uint64_t offset = 0;
        static thread_local uint64_t digest = 1469598103934665603ull;
        if (end) {
          const auto* ack_desc = d.pool.find_message("sh.ShuffleAck");
          proto::DynamicMessage ack(ack_desc);
          ack.set_uint64(ack_desc->field_by_name("total"), offset);
          ack.set_uint64(ack_desc->field_by_name("digest"), digest);
          final_response = proto::WireCodec::serialize(ack);
          offset = 0;
          digest = 1469598103934665603ull;
          return Status::ok();
        }
        d.pieces.fetch_add(1, std::memory_order_relaxed);
        if (chunk.size() > d.largest_piece.load(std::memory_order_relaxed)) {
          d.largest_piece.store(chunk.size(), std::memory_order_relaxed);
        }
        if (d.oracle != nullptr) {
          if (offset + chunk.size() > d.oracle->size() ||
              std::memcmp(chunk.data(), d.oracle->data() + offset,
                          chunk.size()) != 0) {
            d.parity_failed.store(true);
          }
        }
        digest = fnv1a(chunk, digest);
        offset += chunk.size();
        return Status::ok();
      });
  if (!st.is_ok()) return false;

  d.host_thread = std::thread([&d] {
    while (!d.stop.load(std::memory_order_relaxed)) {
      auto n = d.host->event_loop_once();
      if (!n.is_ok()) return;
      if (*n == 0) d.host->wait(1);
    }
  });

  d.proxy = std::make_unique<grpccompat::DpuProxy>(d.dpu_conn.get(),
                                                   d.manifest.get());
  auto port = d.proxy->start();
  if (!port.is_ok()) return false;
  d.port = *port;
  return true;
}

/// One full stream of the oracle bytes; returns wall seconds + stalls.
bool run_stream(Deployment& d, xrpc::Channel& chan, const Bytes& oracle,
                uint64_t oracle_digest, StreamResult* out) {
  auto stream = chan.open_stream("sh.Shuffle/Rows");
  if (!stream.is_ok()) {
    std::fprintf(stderr, "fig11: open_stream: %s\n",
                 stream.status().to_string().c_str());
    return false;
  }
  auto t0 = std::chrono::steady_clock::now();
  constexpr size_t kWrite = 64 * 1024;
  for (size_t off = 0; off < oracle.size(); off += kWrite) {
    size_t n = std::min(kWrite, oracle.size() - off);
    if (auto st = (*stream)->write(ByteSpan(oracle.data() + off, n), 30000);
        !st.is_ok()) {
      std::fprintf(stderr, "fig11: write: %s\n", st.to_string().c_str());
      return false;
    }
  }
  auto resp = (*stream)->finish(60000);
  auto t1 = std::chrono::steady_clock::now();
  if (!resp.is_ok()) {
    std::fprintf(stderr, "fig11: finish: %s\n",
                 resp.status().to_string().c_str());
    return false;
  }
  const auto* ack_desc = d.pool.find_message("sh.ShuffleAck");
  proto::DynamicMessage ack(ack_desc);
  if (!proto::WireCodec::parse(ByteSpan(*resp), ack).is_ok()) {
    std::fprintf(stderr, "fig11: final response does not parse\n");
    return false;
  }
  if (ack.get_uint64(ack_desc->field_by_name("total")) != oracle.size() ||
      ack.get_uint64(ack_desc->field_by_name("digest")) != oracle_digest) {
    std::fprintf(stderr, "fig11: digest/size mismatch in final ack\n");
    d.parity_failed.store(true);
  }
  out->seconds = std::chrono::duration<double>(t1 - t0).count();
  out->stalls = (*stream)->credit_stalls();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = bench::smoke_mode();
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const uint64_t stream_bytes = quick ? (3ull << 20) / 2 : 8ull << 20;
  const int n_streams = quick ? 1 : 3;

  Deployment d;
  if (!setup(d)) {
    std::fprintf(stderr, "fig11: deployment setup failed\n");
    return 1;
  }
  const size_t budget = grpccompat::kStreamBudget;

  // The oracle: WireCodec-serialized ShuffleRow records, concatenated —
  // the exact bytes the host must reassemble.
  Bytes oracle;
  uint64_t n_rows = 0;
  {
    std::mt19937_64 rng(kDefaultSeed);
    const auto* row_desc = d.pool.find_message("sh.ShuffleRow");
    while (oracle.size() < stream_bytes) {
      proto::DynamicMessage m(row_desc);
      m.set_uint64(row_desc->field_by_name("row_id"), n_rows);
      m.set_string(row_desc->field_by_name("cells"),
                   random_ascii(rng, 256 + rng() % 1792));
      Bytes wire = proto::WireCodec::serialize(m);
      oracle.insert(oracle.end(), wire.begin(), wire.end());
      ++n_rows;
    }
  }
  const uint64_t oracle_digest = fnv1a(ByteSpan(oracle));
  d.oracle = &oracle;

  std::printf("Fig. 11 — streaming shuffle: chunked DPU decode with bounded "
              "memory\n");
  std::printf("%" PRIu64 " rows, %.1f MiB per stream, %zu KiB budget, "
              "%d stream(s)\n\n",
              n_rows, static_cast<double>(oracle.size()) / (1 << 20),
              budget >> 10, n_streams);

  auto chan = xrpc::Channel::connect(d.port);
  if (!chan.is_ok()) {
    std::fprintf(stderr, "fig11: connect: %s\n",
                 chan.status().to_string().c_str());
    return 1;
  }

  double total_seconds = 0;
  uint64_t total_stalls = 0;
  std::printf("%-8s %12s %14s %10s\n", "stream", "seconds", "MiB/s", "stalls");
  for (int s = 0; s < n_streams; ++s) {
    StreamResult r;
    if (!run_stream(d, **chan, oracle, oracle_digest, &r)) return 1;
    total_seconds += r.seconds;
    total_stalls += r.stalls;
    std::printf("%-8d %12.3f %14.1f %10" PRIu64 "\n", s, r.seconds,
                static_cast<double>(oracle.size()) / (1 << 20) / r.seconds,
                r.stalls);
  }
  const double stream_mibs = static_cast<double>(oracle.size()) * n_streams /
                             (1 << 20) / total_seconds;

  // Pool-side chunk decode throughput (the offloaded work product).
  uint64_t decode_bytes = 0, decode_busy_ns = 0;
  const dpu::CodecPool& pool = d.proxy->codec_pool();
  for (size_t w = 0; w < pool.worker_count(); ++w) {
    auto ws = pool.worker_stats(w);
    decode_bytes += ws.bytes_decoded;
    decode_busy_ns += ws.busy_ns;
  }
  const double decode_mibs =
      decode_busy_ns == 0 ? 0.0
                          : static_cast<double>(decode_bytes) / (1 << 20) /
                                (static_cast<double>(decode_busy_ns) * 1e-9);

  const auto& stats = d.proxy->stats();
  const uint64_t peak = stats.stream_peak_bytes.load();
  std::printf("\nstream throughput: %.1f MiB/s over simverbs\n", stream_mibs);
  std::printf("pool chunk decode: %" PRIu64 " bytes in %.3f ms busy "
              "(%.1f MiB/s per worker-thread)\n",
              decode_bytes, static_cast<double>(decode_busy_ns) * 1e-6,
              decode_mibs);
  std::printf("proxy peak held:   %" PRIu64 " bytes (budget %zu)\n", peak,
              budget);
  std::printf("credit stalls:     %" PRIu64 "\n", total_stalls);
  const uint64_t pieces = d.pieces.load();
  const uint64_t largest = d.largest_piece.load();
  std::printf("pieces:            %" PRIu64 ", largest %" PRIu64
              " bytes (limit %zu)\n",
              pieces, largest, grpccompat::kMaxStreamPiece);

  // ---- acceptance gates -------------------------------------------------
  bool failed = false;
  if (d.parity_failed.load()) {
    std::fprintf(stderr, "FAIL: reassembled stream differs from the "
                         "WireCodec oracle\n");
    failed = true;
  }
  if (peak > budget) {
    std::fprintf(stderr,
                 "FAIL: proxy held %" PRIu64 " bytes, budget %zu — "
                 "per-stream memory is not bounded\n",
                 peak, budget);
    failed = true;
  }
  if (largest > grpccompat::kMaxStreamPiece) {
    std::fprintf(stderr,
                 "FAIL: a %" PRIu64 "-byte piece exceeds kMaxStreamPiece "
                 "(%zu) — pieces no longer fit one RDMA message\n",
                 largest, grpccompat::kMaxStreamPiece);
    failed = true;
  }
  if (total_stalls == 0) {
    std::fprintf(stderr, "FAIL: no credit stalls — backpressure never "
                         "reached the xRPC edge\n");
    failed = true;
  }
  if (stats.stream_aborts.load() != 0 ||
      stats.deserialize_failures.load() != 0) {
    std::fprintf(stderr, "FAIL: aborts/decode failures on a clean stream\n");
    failed = true;
  }

  // ---- trace tiling on the streaming path -------------------------------
  // One more stream under full tracing: the span tree must keep the
  // stages-sum-to-e2e invariant with the new stream stages present.
  double trace_sum_ratio = 0.0;
  if (DPURPC_TRACE_ENABLED) {
    {
      std::vector<trace::SpanRecord> junk;
      trace::Tracer::instance().drain_into(junk);
    }
    trace::TraceConfig config;
    config.mode = trace::Mode::kFull;
    trace::Tracer::instance().configure(config);
    trace::TraceCollector::Options copts;
    copts.tail_keep_every = 1;
    copts.orphan_max_age = 10000;
    trace::TraceCollector collector(copts);

    StreamResult r;
    if (!run_stream(d, **chan, oracle, oracle_digest, &r)) return 1;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (collector.traces_completed() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      collector.collect();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    trace::Tracer::instance().configure(trace::TraceConfig{});
    if (collector.retained().empty()) {
      std::fprintf(stderr, "FAIL: traced stream produced no span tree\n");
      failed = true;
    } else {
      const trace::SpanTree& tree = collector.retained().front();
      const trace::Span* root = tree.root();
      int transfer = 0, drain = 0;
      uint64_t child_sum = 0;
      for (const trace::Span& sp : tree.spans) {
        if (root != nullptr && &sp == root) continue;
        child_sum += sp.duration_ns();
        if (sp.stage == trace::Stage::kStreamTransfer) ++transfer;
        if (sp.stage == trace::Stage::kStreamDrainWait) ++drain;
      }
      if (root == nullptr || transfer != 1 || drain != 1) {
        std::fprintf(stderr,
                     "FAIL: streaming trace malformed (root=%d transfer=%d "
                     "drain=%d)\n",
                     root != nullptr, transfer, drain);
        failed = true;
      } else {
        trace_sum_ratio = static_cast<double>(child_sum) /
                          static_cast<double>(root->duration_ns());
        std::printf("trace tiling:      stage spans sum to %.2fx of the "
                    "e2e root\n",
                    trace_sum_ratio);
        // Tiling: stages partition the root; 5%% slack for clock reads.
        // Skipped under quick/smoke — tiny runs make the ratio noisy.
        if (!quick && trace_sum_ratio > 1.05) {
          std::fprintf(stderr,
                       "FAIL: stream stage spans sum to %.2fx of e2e — "
                       "stages no longer tile\n",
                       trace_sum_ratio);
          failed = true;
        }
      }
    }
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fig11_shuffle: --json open");
      return 65;
    }
    std::fprintf(f,
                 "{\n  \"benchmark\": \"fig11_shuffle\",\n"
                 "  \"stream_bytes\": %zu,\n  \"streams\": %d,\n"
                 "  \"rows\": %" PRIu64 ",\n"
                 "  \"stream_mib_s\": %.2f,\n"
                 "  \"decode_bytes\": %" PRIu64 ",\n"
                 "  \"decode_busy_ns\": %" PRIu64 ",\n"
                 "  \"decode_mib_s\": %.2f,\n"
                 "  \"credit_stalls\": %" PRIu64 ",\n"
                 "  \"peak_bytes\": %" PRIu64 ",\n"
                 "  \"budget_bytes\": %zu,\n"
                 "  \"pieces\": %" PRIu64 ",\n"
                 "  \"largest_piece_bytes\": %" PRIu64 ",\n"
                 "  \"trace_sum_ratio\": %.3f\n}\n",
                 oracle.size(), n_streams, n_rows, stream_mibs, decode_bytes,
                 decode_busy_ns, decode_mibs, total_stalls, peak, budget,
                 pieces, largest, trace_sum_ratio);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (failed) return 3;
  std::printf("\nall gates pass: bit-for-bit parity, peak <= budget, "
              "pieces <= one message, backpressure at the xRPC edge\n");
  return 0;
}
