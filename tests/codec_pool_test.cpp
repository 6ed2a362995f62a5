// Tests for the codec pool (DESIGN.md §3.14/§3.16): both codec
// directions sharded across the simulated DPU core pool.
//
// Decode direction, the load-bearing property is relocation parity: a
// worker decodes into a private scratch slice with a zero-delta
// translator, the consumer memcpys the slice elsewhere and calls
// ArenaDeserializer::relocate() — and the result must be
// indistinguishable from having deserialized straight into the
// destination. Encode direction, it is serialize parity: a worker running
// the compiled serialize plan over a fully-local object must produce the
// exact bytes the direct-path ObjectSerializer (itself bit-identical to
// the reference WireCodec, tests/serialize_plan_test.cpp) produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/cpu_timer.hpp"
#include "common/rng.hpp"
#include "dpu/codec_pool.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"

namespace dpurpc::dpu {
namespace {

using arena::AddressTranslator;
using arena::OwningArena;
using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::WireCodec;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package dp;
message Leaf { int32 a = 1; string s = 2; repeated uint32 packed = 3; }
message Node {
  Leaf head = 1;
  repeated Leaf items = 2;
  repeated string names = 3;
  string label = 4;
  uint64 id = 5;
}
)";

class CodecPoolFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    adt::DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    leaf_ = *builder.add_message(pool_.find_message("dp.Leaf"));
    node_ = *builder.add_message(pool_.find_message("dp.Node"));
    adt_ = std::move(builder).take();
    adt_.set_fingerprint(adt::AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
    deser_ = std::make_unique<adt::ArenaDeserializer>(&adt_);
    ser_ = std::make_unique<adt::ObjectSerializer>(&adt_);
  }

  Bytes node_wire(uint64_t seed) const {
    std::mt19937_64 rng(seed);
    const auto* node = pool_.find_message("dp.Node");
    const auto* leaf = pool_.find_message("dp.Leaf");
    DynamicMessage m(node);
    auto fill = [&](DynamicMessage* l, size_t strlen_hint) {
      l->set_int64(leaf->field_by_name("a"), static_cast<int32_t>(rng()));
      // Mix SSO-short and heap-long strings: both relocation forms.
      l->set_string(leaf->field_by_name("s"), random_ascii(rng, strlen_hint));
      for (int i = 0; i < 5; ++i)
        l->add_uint64(leaf->field_by_name("packed"), rng() % 1000);
    };
    fill(m.mutable_message(node->field_by_name("head")), 40);
    for (int i = 0; i < 3; ++i)
      fill(m.add_message(node->field_by_name("items")), i % 2 == 0 ? 6 : 64);
    m.add_string(node->field_by_name("names"), "tiny");
    m.add_string(node->field_by_name("names"),
                 std::string(100, 'x') + std::to_string(rng()));
    m.set_string(node->field_by_name("label"), "label");
    m.set_uint64(node->field_by_name("id"), rng());
    return WireCodec::serialize(m);
  }

  /// Canonical wire via the direct (non-pool) path: deserialize into a
  /// local arena, re-serialize.
  Bytes oracle_roundtrip(uint32_t class_index, const Bytes& wire) {
    OwningArena arena(1 << 20);
    auto obj = deser_->deserialize(class_index, ByteSpan(wire), arena, {});
    EXPECT_TRUE(obj.is_ok()) << obj.status().to_string();
    Bytes out;
    EXPECT_TRUE(ser_->serialize(adt::ObjectRef(class_index, *obj), out).is_ok());
    return out;
  }

  proto::DescriptorPool pool_;
  adt::Adt adt_;
  std::unique_ptr<adt::ArenaDeserializer> deser_;
  std::unique_ptr<adt::ObjectSerializer> ser_;
  uint32_t leaf_ = 0, node_ = 0;
};

/// Drain helper: pop from every lane until `n` results arrived.
std::vector<CodecResult> drain(CodecPool& pool, size_t n) {
  std::vector<CodecResult> out;
  while (out.size() < n) {
    for (size_t lane = 0; lane < pool.lane_count(); ++lane) {
      CodecResult r;
      while (pool.try_pop_result(lane, r)) out.push_back(std::move(r));
    }
  }
  return out;
}

TEST_F(CodecPoolFixture, RelocatedDecodeMatchesSerializeOracle) {
  CodecPool::Options opts;
  opts.workers = 2;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/2, opts);
  pool.start();

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Bytes wire = node_wire(seed);
    const Bytes expected = oracle_roundtrip(node_, wire);

    CodecJob job;
    job.kind = JobKind::kDecode;
    job.class_index = node_;
    job.cookie = seed;
    job.wire = wire;
    const size_t lane = seed % 2;
    ASSERT_TRUE(pool.submit(lane, job));
    CodecResult r = std::move(drain(pool, 1)[0]);
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    EXPECT_EQ(r.kind, JobKind::kDecode);
    EXPECT_EQ(r.cookie, seed);
    ASSERT_GT(r.used, 0u);

    // Ship the slice the way the proxy does: memcpy to an 8-aligned
    // destination at a different address, then relocate. The +8 skew
    // keeps the copy off 64-byte alignment, so any pointer the decoder
    // failed to register would land visibly wrong.
    std::byte* raw = static_cast<std::byte*>(
        std::aligned_alloc(64, (r.used + 72 + 63) / 64 * 64));
    ASSERT_NE(raw, nullptr);
    std::byte* dst = raw + 8;
    std::memcpy(dst, r.slice.data(), r.used);
    const ptrdiff_t delta = dst - r.slice.data();
    adt::ArenaDeserializer::SliceRelocation rel;
    rel.old_begin = r.slice.data();
    rel.old_end = r.slice.data() + r.used;
    rel.move_delta = delta;
    rel.publish_delta = delta;  // local consumer: published == local
    deser_->relocate(node_, dst + r.obj_offset, rel);

    // Poison the original slice: the relocated tree must not reference it.
    std::memset(r.slice.data(), 0xAB, r.used);

    Bytes relocated_wire;
    ASSERT_TRUE(
        ser_->serialize(adt::ObjectRef(node_, dst + r.obj_offset), relocated_wire)
            .is_ok());
    EXPECT_EQ(relocated_wire, expected) << "seed " << seed;
    std::free(raw);
  }
  pool.stop();
}

// The response direction's load-bearing property: a pool worker running
// the compiled serialize plan over a fully-local tree produces bytes
// bit-identical to the direct-path serializer (and hence to WireCodec).
// The object is produced by the pool's own decode direction — exactly the
// proxy's round trip.
TEST_F(CodecPoolFixture, EncodedObjectMatchesSerializeOracle) {
  CodecPool::Options opts;
  opts.workers = 2;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/2, opts);
  pool.start();

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Bytes wire = node_wire(seed);

    CodecJob decode_job;
    decode_job.kind = JobKind::kDecode;
    decode_job.class_index = node_;
    decode_job.cookie = seed;
    decode_job.wire = wire;
    ASSERT_TRUE(pool.submit(seed % 2, decode_job));
    CodecResult decoded = std::move(drain(pool, 1)[0]);
    ASSERT_TRUE(decoded.status.is_ok()) << decoded.status.to_string();

    // Direct-path oracle over the very same object, before the slice's
    // ownership moves into the encode job.
    Bytes expected;
    ASSERT_TRUE(ser_->serialize(adt::ObjectRef(node_, decoded.slice.data() +
                                                          decoded.obj_offset),
                                expected)
                    .is_ok());

    CodecJob encode_job;
    encode_job.kind = JobKind::kEncode;
    encode_job.class_index = node_;
    encode_job.cookie = 1000 + seed;
    encode_job.object = std::move(decoded.slice);
    encode_job.object_used = decoded.used;
    encode_job.obj_offset = decoded.obj_offset;
    ASSERT_TRUE(pool.submit(seed % 2, encode_job));
    CodecResult encoded = std::move(drain(pool, 1)[0]);
    ASSERT_TRUE(encoded.status.is_ok()) << encoded.status.to_string();
    EXPECT_EQ(encoded.kind, JobKind::kEncode);
    EXPECT_EQ(encoded.cookie, 1000 + seed);
    EXPECT_EQ(encoded.wire, expected) << "seed " << seed;
  }
  pool.stop();

  uint64_t encodes = 0, bytes_encoded = 0;
  for (size_t w = 0; w < pool.worker_count(); ++w) {
    const auto stats = pool.worker_stats(w);
    encodes += stats.encodes;
    bytes_encoded += stats.bytes_encoded;
    EXPECT_EQ(stats.failures, 0u) << "worker " << w;
  }
  EXPECT_EQ(encodes, 8u);
  EXPECT_GT(bytes_encoded, 0u);
}

// Parity under randomized *schemas*, not just randomized payloads: build
// fresh message shapes (field kinds, counts and numbers drawn from a
// seeded rng), round-trip wire → pool decode → pool encode, and demand
// the canonical bytes the direct path produces.
TEST_F(CodecPoolFixture, RandomizedSchemasRoundTripBitForBit) {
  std::mt19937_64 rng(0xC0DEC);
  for (int round = 0; round < 6; ++round) {
    const int nfields = 1 + static_cast<int>(rng() % 8);
    std::string schema = "syntax = \"proto3\";\npackage rs" +
                         std::to_string(round) + ";\nmessage M {\n";
    std::vector<int> kinds;
    for (int i = 1; i <= nfields; ++i) {
      const int kind = static_cast<int>(rng() % 5);
      kinds.push_back(kind);
      const char* type = kind == 0   ? "int64 "
                         : kind == 1 ? "uint64 "
                         : kind == 2 ? "string "
                         : kind == 3 ? "repeated uint32 "
                                     : "repeated string ";
      schema += std::string("  ") + type + "f" + std::to_string(i) + " = " +
                std::to_string(i) + ";\n";
    }
    schema += "}\n";

    proto::DescriptorPool pool;
    proto::SchemaParser parser(pool);
    ASSERT_TRUE(parser.parse_and_link(schema).is_ok()) << schema;
    adt::DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    const std::string msg_name = "rs" + std::to_string(round) + ".M";
    const auto* desc = pool.find_message(msg_name);
    ASSERT_NE(desc, nullptr);
    uint32_t cls = *builder.add_message(desc);
    adt::Adt adt = std::move(builder).take();
    adt.set_fingerprint(adt::AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
    adt::ArenaDeserializer deser(&adt);
    adt::ObjectSerializer ser(&adt);

    DynamicMessage m(desc);
    for (int i = 1; i <= nfields; ++i) {
      const auto* f = desc->field_by_number(static_cast<uint32_t>(i));
      ASSERT_NE(f, nullptr);
      switch (kinds[static_cast<size_t>(i - 1)]) {
        case 0: m.set_int64(f, static_cast<int64_t>(rng())); break;
        case 1: m.set_uint64(f, rng()); break;
        case 2: m.set_string(f, random_ascii(rng, 1 + rng() % 90)); break;
        case 3:
          for (uint64_t k = rng() % 7; k > 0; --k) m.add_uint64(f, rng() % 100000);
          break;
        default:
          for (uint64_t k = rng() % 4; k > 0; --k)
            m.add_string(f, random_ascii(rng, 1 + rng() % 50));
          break;
      }
    }
    const Bytes wire = WireCodec::serialize(m);

    CodecPool::Options opts;
    opts.workers = 1;
    CodecPool pool2(&deser, &ser, /*lanes=*/1, opts);
    pool2.start();

    CodecJob decode_job;
    decode_job.kind = JobKind::kDecode;
    decode_job.class_index = cls;
    decode_job.wire = wire;
    ASSERT_TRUE(pool2.submit(0, decode_job));
    CodecResult decoded = std::move(drain(pool2, 1)[0]);
    ASSERT_TRUE(decoded.status.is_ok())
        << decoded.status.to_string() << "\n" << schema;

    Bytes expected;
    ASSERT_TRUE(
        ser.serialize(
               adt::ObjectRef(cls, decoded.slice.data() + decoded.obj_offset),
               expected)
            .is_ok());

    CodecJob encode_job;
    encode_job.kind = JobKind::kEncode;
    encode_job.class_index = cls;
    encode_job.object = std::move(decoded.slice);
    encode_job.object_used = decoded.used;
    encode_job.obj_offset = decoded.obj_offset;
    ASSERT_TRUE(pool2.submit(0, encode_job));
    CodecResult encoded = std::move(drain(pool2, 1)[0]);
    ASSERT_TRUE(encoded.status.is_ok()) << encoded.status.to_string();
    EXPECT_EQ(encoded.wire, expected) << "round " << round << "\n" << schema;
    pool2.stop();
  }
}

// Both kinds share the per-lane rings and the counters keep them apart.
TEST_F(CodecPoolFixture, MixedKindsShareRingsAndCountersBalance) {
  constexpr size_t kLanes = 2;
  constexpr uint64_t kRounds = 60;
  CodecPool::Options opts;
  opts.workers = 2;
  CodecPool pool(deser_.get(), ser_.get(), kLanes, opts);
  pool.start();

  const Bytes wire = node_wire(17);
  uint64_t decodes_seen = 0, encodes_seen = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    CodecJob job;
    job.kind = JobKind::kDecode;
    job.class_index = node_;
    job.cookie = i;
    job.wire = wire;
    ASSERT_TRUE(pool.submit(i % kLanes, job));
    CodecResult decoded = std::move(drain(pool, 1)[0]);
    ASSERT_TRUE(decoded.status.is_ok());
    ++decodes_seen;

    // Every third object goes straight back through the encode direction
    // of the same lane's rings.
    if (i % 3 == 0) {
      CodecJob enc;
      enc.kind = JobKind::kEncode;
      enc.class_index = node_;
      enc.cookie = 10000 + i;
      enc.object = std::move(decoded.slice);
      enc.object_used = decoded.used;
      enc.obj_offset = decoded.obj_offset;
      ASSERT_TRUE(pool.submit(i % kLanes, enc));
      CodecResult encoded = std::move(drain(pool, 1)[0]);
      ASSERT_TRUE(encoded.status.is_ok());
      EXPECT_EQ(encoded.kind, JobKind::kEncode);
      EXPECT_FALSE(encoded.wire.empty());
      ++encodes_seen;
    }
  }
  pool.stop();

  uint64_t jobs = 0, encodes = 0;
  for (size_t w = 0; w < pool.worker_count(); ++w) {
    const auto stats = pool.worker_stats(w);
    jobs += stats.jobs;
    encodes += stats.encodes;
    EXPECT_EQ(stats.failures, 0u);
  }
  EXPECT_EQ(jobs, decodes_seen + encodes_seen);
  EXPECT_EQ(encodes, encodes_seen);
  EXPECT_EQ(pool.total_jobs(), jobs);
}

// The proxy's overload contract: when the encode submit ring is full,
// submit() returns false with the job intact, and the caller serializes
// the very same object inline — bit-identical bytes either way. The pool
// is deliberately not started until after the spill, so "ring full" is
// deterministic rather than a race.
TEST_F(CodecPoolFixture, EncodeRingFullSpillsToInlineSerialize) {
  struct LocalObject {
    ScratchSlice slice;
    uint32_t used = 0;
    uint32_t obj_offset = 0;
  };
  // Build fully-local object slices the way the lane poller does: decode
  // into a private arena (zero-delta translator), copy into an owned
  // slice, relocate with publish delta == move delta.
  auto make_local = [&](const Bytes& wire) {
    OwningArena arena(1 << 20);
    auto obj = deser_->deserialize(node_, ByteSpan(wire), arena, {});
    EXPECT_TRUE(obj.is_ok());
    LocalObject out;
    out.used = static_cast<uint32_t>(arena.used());
    out.slice = ScratchSlice::allocate(out.used);
    out.obj_offset = static_cast<uint32_t>(static_cast<std::byte*>(*obj) -
                                           arena.base());
    std::memcpy(out.slice.data(), arena.base(), out.used);
    adt::ArenaDeserializer::SliceRelocation rel;
    rel.old_begin = arena.base();
    rel.old_end = arena.base() + out.used;
    rel.move_delta = out.slice.data() - arena.base();
    rel.publish_delta = rel.move_delta;
    deser_->relocate(node_, out.slice.data() + out.obj_offset, rel);
    return out;
  };

  constexpr size_t kRing = 4;
  CodecPool::Options opts;
  opts.workers = 1;
  opts.ring_capacity = kRing;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/1, opts);
  // NOT started yet: submitted jobs sit in the ring until we say go.

  std::vector<Bytes> expected;
  for (uint64_t seed = 0; seed < kRing; ++seed) {
    const Bytes wire = node_wire(100 + seed);
    LocalObject local = make_local(wire);
    Bytes direct;
    ASSERT_TRUE(ser_->serialize(adt::ObjectRef(node_, local.slice.data() +
                                                          local.obj_offset),
                                direct)
                    .is_ok());
    expected.push_back(std::move(direct));
    CodecJob job;
    job.kind = JobKind::kEncode;
    job.class_index = node_;
    job.cookie = seed;
    job.object = std::move(local.slice);
    job.object_used = local.used;
    job.obj_offset = local.obj_offset;
    ASSERT_TRUE(pool.submit(0, job)) << "ring should hold " << kRing;
  }

  // Ring full: the next submit is refused, the job survives, and the
  // caller's inline serialize of the same object is the spill path.
  LocalObject spill = make_local(node_wire(999));
  CodecJob job;
  job.kind = JobKind::kEncode;
  job.class_index = node_;
  job.cookie = kRing;
  job.object = std::move(spill.slice);
  job.object_used = spill.used;
  job.obj_offset = spill.obj_offset;
  EXPECT_FALSE(pool.submit(0, job));
  ASSERT_TRUE(job.object);  // intact: inline serialize still possible
  Bytes inline_wire;
  ASSERT_TRUE(ser_->serialize(
                      adt::ObjectRef(node_, job.object.data() + job.obj_offset),
                      inline_wire)
                  .is_ok());
  EXPECT_EQ(inline_wire, oracle_roundtrip(node_, node_wire(999)));

  // Now let the worker drain the backlog: every queued encode completes
  // with the same bytes the direct path produces.
  pool.start();
  std::vector<CodecResult> results = drain(pool, kRing);
  pool.stop();
  ASSERT_EQ(results.size(), kRing);
  for (const CodecResult& r : results) {
    ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
    ASSERT_LT(r.cookie, expected.size());
    EXPECT_EQ(r.wire, expected[r.cookie]) << "cookie " << r.cookie;
  }
}

// A decode-only pool (null serializer) refuses encode jobs up front and
// leaves the job — including the object slice — with the caller.
TEST_F(CodecPoolFixture, EncodeRefusedWithoutSerializer) {
  CodecPool::Options opts;
  opts.workers = 1;
  CodecPool pool(deser_.get(), /*serializer=*/nullptr, /*lanes=*/1, opts);
  pool.start();

  CodecJob job;
  job.kind = JobKind::kEncode;
  job.class_index = node_;
  job.object = ScratchSlice::allocate(256);
  job.object_used = 64;
  ASSERT_TRUE(job.object);
  EXPECT_FALSE(pool.submit(0, job));
  EXPECT_TRUE(job.object);  // job intact: caller can serialize inline
  pool.stop();
}

TEST_F(CodecPoolFixture, PerWorkerCountersSumToTotalAcrossLanes) {
  constexpr size_t kLanes = 4;
  constexpr uint64_t kJobs = 400;
  CodecPool::Options opts;
  opts.workers = 3;  // uneven on purpose: lanes 3 (and stolen work) shift around
  CodecPool pool(deser_.get(), ser_.get(), kLanes, opts);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_EQ(pool.lane_count(), kLanes);
  pool.start();

  const Bytes wire = node_wire(42);
  uint64_t submitted = 0, completed = 0;
  while (completed < kJobs) {
    for (size_t lane = 0; lane < kLanes && submitted < kJobs; ++lane) {
      CodecJob job;
      job.kind = JobKind::kDecode;
      job.class_index = node_;
      job.cookie = submitted;
      job.wire = wire;
      if (pool.submit(lane, job)) ++submitted;
    }
    for (size_t lane = 0; lane < kLanes; ++lane) {
      CodecResult r;
      while (pool.try_pop_result(lane, r)) {
        EXPECT_TRUE(r.status.is_ok());
        EXPECT_LT(r.worker, pool.worker_count());
        ++completed;
      }
    }
  }
  pool.stop();

  uint64_t sum = 0, bytes = 0;
  for (size_t w = 0; w < pool.worker_count(); ++w) {
    const auto stats = pool.worker_stats(w);
    sum += stats.jobs;
    bytes += stats.bytes_decoded;
    EXPECT_EQ(stats.failures, 0u) << "worker " << w;
  }
  EXPECT_EQ(sum, kJobs);
  EXPECT_EQ(pool.total_jobs(), kJobs);
  EXPECT_EQ(bytes, kJobs * wire.size());
}

TEST_F(CodecPoolFixture, MalformedPayloadYieldsFailureResultNotCrash) {
  CodecPool::Options opts;
  opts.workers = 1;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/1, opts);
  pool.start();

  // Truncated length-delimited field: field 1 (head), declared length 200,
  // one byte of body.
  CodecJob job;
  job.kind = JobKind::kDecode;
  job.class_index = node_;
  job.cookie = 7;
  job.wire = Bytes{std::byte{0x0a}, std::byte{200}, std::byte{1}, std::byte{0x00}};
  ASSERT_TRUE(pool.submit(0, job));
  CodecResult r = std::move(drain(pool, 1)[0]);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.cookie, 7u);
  pool.stop();
  EXPECT_EQ(pool.worker_stats(0).failures, 1u);
  EXPECT_EQ(pool.worker_stats(0).jobs, 1u);
}

TEST_F(CodecPoolFixture, StopWithQueuedJobsShutsDownCleanly) {
  CodecPool::Options opts;
  opts.workers = 1;
  opts.ring_capacity = 64;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/2, opts);
  pool.start();

  const Bytes wire = node_wire(9);
  for (uint64_t i = 0; i < 32; ++i) {
    CodecJob job;
    job.kind = JobKind::kDecode;
    job.class_index = node_;
    job.cookie = i;
    job.wire = wire;
    (void)pool.submit(i % 2, job);  // full ring is fine here
  }
  // Immediate stop: queued jobs are dropped, nothing hangs or leaks (ASan
  // owns the leak half of this assertion).
  pool.stop();
  // After stop, submits are refused and the job survives for the caller.
  CodecJob job;
  job.kind = JobKind::kDecode;
  job.class_index = node_;
  job.cookie = 99;
  job.wire = wire;
  EXPECT_FALSE(pool.submit(0, job));
  EXPECT_EQ(job.wire, wire);
}

TEST_F(CodecPoolFixture, WorkerCountClampsAndEnvOverride) {
  {
    CodecPool::Options opts;
    opts.workers = 16;
    CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/2, opts);
    EXPECT_EQ(pool.worker_count(), 2u);  // never more workers than lanes
  }
  ::setenv("DPURPC_DPU_CORES", "3", 1);
  EXPECT_EQ(DeviceInfo::current().cores, 3);
  {
    CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/8);  // workers=0 → DeviceInfo
    EXPECT_EQ(pool.worker_count(), 3u);
  }
  ::unsetenv("DPURPC_DPU_CORES");
  // No override: the modeled device's cores, capped at the real machine's.
  const unsigned hw = std::thread::hardware_concurrency();
  const int expect = hw == 0 ? DeviceSpec::bluefield3().cores
                             : std::min(DeviceSpec::bluefield3().cores,
                                        static_cast<int>(hw));
  EXPECT_EQ(DeviceInfo::current().cores, expect);
}

// A traced job records its ring wait and its codec span under the job's
// trace, in both directions, and the spans export under their wire names.
// The proxy no longer hands unary calls to the pool, so this direct job is
// what keeps the export of these stages covered.
TEST_F(CodecPoolFixture, TracedJobsExportWorkerSpans) {
#if !DPURPC_TRACE_ENABLED
  GTEST_SKIP() << "tracing compiled out (DPURPC_TRACE=OFF)";
#endif
  std::vector<trace::SpanRecord> leftovers;
  trace::Tracer::instance().drain_into(leftovers);
  trace::TraceConfig config;
  config.mode = trace::Mode::kFull;
  trace::Tracer::instance().configure(config);
  trace::TraceCollector::Options copts;
  copts.tail_keep_every = 1;
  trace::TraceCollector collector(copts);

  CodecPool::Options opts;
  opts.workers = 1;
  CodecPool pool(deser_.get(), ser_.get(), /*lanes=*/1, opts);
  pool.start();
  const trace::TraceContext ctx = trace::Tracer::instance().begin_trace();
  ASSERT_TRUE(ctx.active());
  const uint64_t t0 = WallTimer::now();

  CodecJob decode_job;
  decode_job.kind = JobKind::kDecode;
  decode_job.class_index = node_;
  decode_job.wire = node_wire(5);
  decode_job.trace = ctx;
  decode_job.submit_ns = WallTimer::now();
  ASSERT_TRUE(pool.submit(0, decode_job));
  CodecResult decoded = std::move(drain(pool, 1)[0]);
  ASSERT_TRUE(decoded.status.is_ok()) << decoded.status.to_string();

  CodecJob encode_job;
  encode_job.kind = JobKind::kEncode;
  encode_job.class_index = node_;
  encode_job.object = std::move(decoded.slice);
  encode_job.object_used = decoded.used;
  encode_job.obj_offset = decoded.obj_offset;
  encode_job.trace = ctx;
  encode_job.submit_ns = WallTimer::now();
  ASSERT_TRUE(pool.submit(0, encode_job));
  CodecResult encoded = std::move(drain(pool, 1)[0]);
  ASSERT_TRUE(encoded.status.is_ok()) << encoded.status.to_string();
  pool.stop();
  trace::Tracer::instance().record_root(ctx, t0, WallTimer::now());
  collector.collect();
  trace::Tracer::instance().configure(trace::TraceConfig{});

  ASSERT_EQ(collector.retained().size(), 1u);
  const trace::SpanTree& tree = collector.retained()[0];
  std::map<trace::Stage, int> counts;
  for (const trace::Span& span : tree.spans) counts[span.stage] += 1;
  for (trace::Stage st : {trace::Stage::kDecodeRingWait, trace::Stage::kWorkerDecode,
                          trace::Stage::kEncodeRingWait, trace::Stage::kWorkerEncode}) {
    EXPECT_EQ(counts[st], 1) << trace::stage_name(st);
  }
  const std::string json = collector.export_chrome_json();
  for (const char* name : {"decode_ring_wait", "worker_decode", "encode_ring_wait",
                           "worker_encode"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""), std::string::npos)
        << name;
  }
}

}  // namespace
}  // namespace dpurpc::dpu
