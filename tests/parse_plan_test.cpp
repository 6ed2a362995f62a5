// Tests for the parse-plan compiler and the plan-driven deserializer loop.
//
// The load-bearing property is agreement with the reference WireCodec,
// which parses into an independent data model (DynamicMessage): for every
// input both accept or both reject with the same Code, and when both
// accept, re-serializing the arena object (ObjectSerializer) yields the
// same bytes as re-serializing the DynamicMessage (WireCodec).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "adt/adt.hpp"
#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "adt/parse_plan.hpp"
#include "adt/serialize_plan.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"
#include "wire/coded_stream.hpp"
#include "wire/wire_format.hpp"

namespace dpurpc::adt {
namespace {

using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::WireCodec;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package bench;

message Small {
  int32 id = 1;
  bool flag = 2;
  float score = 3;
  uint64 stamp = 4;
}
message IntArray { repeated uint32 values = 1; }
message CharArray { string data = 1; }
message Nested {
  Small head = 1;
  repeated Small items = 2;
  string label = 3;
  repeated string tags = 4;
  repeated sint64 deltas = 5;
  double weight = 6;
}
message Recur { Recur next = 1; int32 depth = 2; }
)";

class ParsePlanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    auto st = parser.parse_and_link(kSchema);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    for (const char* name :
         {"bench.Small", "bench.IntArray", "bench.CharArray", "bench.Nested",
          "bench.Recur"}) {
      auto idx = builder.add_message(pool_.find_message(name));
      ASSERT_TRUE(idx.is_ok()) << idx.status().to_string();
    }
    adt_ = std::move(builder).take();
    adt_.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
    ASSERT_TRUE(adt_.validate().is_ok());
  }

  uint32_t cls(std::string_view name) const {
    uint32_t i = adt_.find_class(name);
    EXPECT_NE(i, UINT32_MAX) << name;
    return i;
  }

  /// Parse `wire` as `class_name` with the ArenaDeserializer and with the
  /// reference WireCodec. Both must accept or both reject with the same
  /// Code; when both accept, re-serializing each result must give the
  /// same bytes. Returns the deserializer's status.
  Status expect_matches_oracle(std::string_view class_name, ByteSpan wire,
                               const std::string& what) {
    std::vector<std::byte> buf(1 << 16);
    arena::Arena arena(buf.data(), buf.size());
    ArenaDeserializer deser(&adt_);
    auto obj = deser.deserialize(cls(class_name), wire, arena, {});

    DynamicMessage ref(pool_.find_message(class_name));
    Status ref_status = WireCodec::parse(wire, ref);

    const Status status = obj.is_ok() ? Status::ok() : obj.status();
    EXPECT_EQ(status.code(), ref_status.code())
        << what << ": plan " << status.to_string() << " vs WireCodec "
        << ref_status.to_string();
    if (obj.is_ok() && ref_status.is_ok()) {
      Bytes from_plan;
      Status ser = ObjectSerializer(&adt_).serialize(
          ObjectRef(cls(class_name), *obj), from_plan);
      EXPECT_TRUE(ser.is_ok()) << what << ": " << ser.to_string();
      EXPECT_EQ(from_plan, WireCodec::serialize(ref))
          << what << ": re-serialized bytes diverge";
    }
    return status;
  }

  Bytes rich_nested_wire() {
    const auto* nested = pool_.find_message("bench.Nested");
    const auto* small = pool_.find_message("bench.Small");
    DynamicMessage m(nested);
    m.mutable_message(nested->field_by_name("head"))
        ->set_int64(small->field_by_name("id"), 77);
    for (int i = 0; i < 5; ++i) {
      auto* item = m.add_message(nested->field_by_name("items"));
      item->set_int64(small->field_by_name("id"), i);
      item->set_uint64(small->field_by_name("flag"), i & 1);
      m.add_string(nested->field_by_name("tags"),
                   "tag-" + std::string(40, 'y') + std::to_string(i));
      m.add_int64(nested->field_by_name("deltas"), (i - 2) * 1'000'000'007ll);
    }
    m.set_string(nested->field_by_name("label"), "plan-vs-oracle");
    m.set_double(nested->field_by_name("weight"), 2.75);
    return WireCodec::serialize(m);
  }

  proto::DescriptorPool pool_;
  Adt adt_;
};

// --------------------------------------------------------- plan building

TEST_F(ParsePlanFixture, PlansCompiledForEveryClass) {
  auto plans = adt_.plans();
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->parse().plan_count(), adt_.class_count());
  const ParsePlan* small = plans->parse().for_class(cls("bench.Small"));
  ASSERT_NE(small, nullptr);
  // 4 fields, max number 4: table covers tags [0, 4<<3 | 7].
  EXPECT_EQ(small->table_size(), ((4u + 1) << 3));
  // First field (int32 id = 1) seeds the prediction with its varint tag.
  EXPECT_EQ(small->first_tag(), (1u << 3) | 0u);
}

TEST_F(ParsePlanFixture, SlotOpsFuseTypeAndWireType) {
  auto plans = adt_.plans();
  const ParsePlan* small = plans->parse().for_class(cls("bench.Small"));
  ASSERT_NE(small, nullptr);
  // id=1 int32: varint slot decodes, fixed32 slot is a mismatch.
  EXPECT_EQ(small->slot((1u << 3) | 0u)->op, PlanOp::kVarint32);
  EXPECT_EQ(small->slot((1u << 3) | 5u)->op, PlanOp::kWireMismatch);
  // LEN data aimed at a singular scalar is the dedicated error op.
  EXPECT_EQ(small->slot((1u << 3) | 2u)->op, PlanOp::kScalarLen);
  // score=3 float: fixed32.
  EXPECT_EQ(small->slot((3u << 3) | 5u)->op, PlanOp::kFixed32);

  const ParsePlan* ints = plans->parse().for_class(cls("bench.IntArray"));
  ASSERT_NE(ints, nullptr);
  // repeated uint32: packed LEN payload plus unpacked varint occurrences.
  EXPECT_EQ(ints->slot((1u << 3) | 2u)->op, PlanOp::kPackedVarint32);
  EXPECT_EQ(ints->slot((1u << 3) | 0u)->op, PlanOp::kRepVarint32);
}

TEST_F(ParsePlanFixture, PredictionFollowsEmittedOrder) {
  auto plans = adt_.plans();
  const ParsePlan* small = plans->parse().for_class(cls("bench.Small"));
  // id(1,varint) -> flag(2,varint) -> score(3,fixed32) -> stamp(4,varint) -> id.
  EXPECT_EQ(small->slot((1u << 3) | 0u)->next_tag, (2u << 3) | 0u);
  EXPECT_EQ(small->slot((2u << 3) | 0u)->next_tag, (3u << 3) | 5u);
  EXPECT_EQ(small->slot((3u << 3) | 5u)->next_tag, (4u << 3) | 0u);
  EXPECT_EQ(small->slot((4u << 3) | 0u)->next_tag, (1u << 3) | 0u);

  const ParsePlan* nested = plans->parse().for_class(cls("bench.Nested"));
  // Repeated message/string fields predict their own tag (runs repeat);
  // packed repeated scalars emit one LEN record, so they predict onward.
  EXPECT_EQ(nested->slot((2u << 3) | 2u)->next_tag, (2u << 3) | 2u);
  EXPECT_EQ(nested->slot((4u << 3) | 2u)->next_tag, (4u << 3) | 2u);
  EXPECT_EQ(nested->slot((5u << 3) | 2u)->next_tag, (6u << 3) | 1u);
}

TEST_F(ParsePlanFixture, CacheSharedAndInvalidated) {
  auto a = adt_.plans();
  auto b = adt_.plans();
  EXPECT_EQ(a.get(), b.get());  // one compile, shared by all codecs
  ClassEntry extra;
  extra.name = "bench.Extra";
  extra.size = 16;
  extra.align = 8;
  extra.default_bytes.assign(16, 0);
  adt_.add_class(std::move(extra));
  auto c = adt_.plans();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->parse().plan_count(), adt_.class_count());
}

TEST_F(ParsePlanFixture, SparseFieldNumbersUseSideTable) {
  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser
                  .parse_and_link("syntax = \"proto3\";\n"
                                  "message Sparse {\n"
                                  "  uint64 lo = 1;\n"
                                  "  string mid = 1025;\n"
                                  "  repeated sint32 far = 2000;\n"
                                  "  fixed64 top = 536870911;\n"
                                  "}\n")
                  .is_ok());
  const auto* desc = pool.find_message("Sparse");
  DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(builder.add_message(desc).is_ok());
  Adt adt = std::move(builder).take();
  adt.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));

  // Every class gets a plan: a dense table up to field 1, and the tags of
  // the three high fields in the side table.
  auto plans = adt.plans();
  EXPECT_EQ(plans->parse().plan_count(), 1u);
  const ParsePlan* plan = plans->parse().for_class(0);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->table_size(), (1u + 1) << 3);
  using wire::make_tag;
  using wire::WireType;
  EXPECT_EQ(plan->slot(make_tag(1025, WireType::kLengthDelimited))->op,
            PlanOp::kString);
  EXPECT_EQ(plan->slot(make_tag(2000, WireType::kLengthDelimited))->op,
            PlanOp::kPackedSint32);
  EXPECT_EQ(plan->slot(make_tag(2000, WireType::kVarint))->op,
            PlanOp::kRepVarintSint32);
  EXPECT_EQ(plan->slot(make_tag(536870911, WireType::kFixed64))->op,
            PlanOp::kFixed64);
  EXPECT_EQ(plan->slot(make_tag(536870911, WireType::kVarint))->op,
            PlanOp::kWireMismatch);
  EXPECT_EQ(plan->slot(make_tag(1500, WireType::kVarint)), nullptr);

  DynamicMessage m(desc);
  m.set_uint64(desc->field_by_name("lo"), 7);
  m.set_string(desc->field_by_name("mid"), "middle");
  for (int64_t v : {-3, 0, 250000}) m.add_int64(desc->field_by_name("far"), v);
  m.set_uint64(desc->field_by_name("top"), 0xabcdef0123ull);
  Bytes wire = WireCodec::serialize(m);

  // Unknown tags past the dense table, one between two side-table
  // fields and one just below the top field, are skipped.
  Bytes with_unknowns = wire;
  wire::Writer w(with_unknowns);
  w.write_tag(3000, WireType::kVarint);
  w.write_varint(99);
  w.write_tag(536870910, WireType::kLengthDelimited);
  w.write_length_delimited("skip me");

  for (const Bytes* input : {&wire, &with_unknowns}) {
    std::vector<std::byte> buf(1 << 12);
    arena::Arena arena(buf.data(), buf.size());
    ArenaDeserializer deser(&adt);
    auto obj = deser.deserialize(0, ByteSpan(*input), arena, {});
    ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();
    LayoutView v(&adt, 0, *obj);
    EXPECT_EQ(v.get_uint64(1), 7u);
    EXPECT_EQ(v.get_string(1025), "middle");
    ASSERT_EQ(v.repeated_size(2000), 3u);
    EXPECT_EQ(v.repeated_int64(2000, 0), -3);
    EXPECT_EQ(v.repeated_int64(2000, 2), 250000);
    EXPECT_EQ(v.get_uint64(536870911), 0xabcdef0123ull);

    Bytes back;
    ASSERT_TRUE(ObjectSerializer(&adt).serialize(ObjectRef(0, *obj), back).is_ok());
    EXPECT_EQ(back, wire);  // the unknown fields are dropped
  }
}

// ------------------------------------------ agreement with WireCodec

TEST_F(ParsePlanFixture, IdenticalImagesSmall) {
  const auto* desc = pool_.find_message("bench.Small");
  DynamicMessage m(desc);
  m.set_int64(desc->field_by_name("id"), -42);
  m.set_uint64(desc->field_by_name("flag"), 1);
  m.set_float(desc->field_by_name("score"), 3.25f);
  m.set_uint64(desc->field_by_name("stamp"), 0xdeadbeefull);
  Bytes wire = WireCodec::serialize(m);
  EXPECT_TRUE(expect_matches_oracle("bench.Small", ByteSpan(wire), "Small").is_ok());
}

TEST_F(ParsePlanFixture, IdenticalImagesPackedInts) {
  const auto* desc = pool_.find_message("bench.IntArray");
  std::mt19937_64 rng(kDefaultSeed);
  SkewedVarintDistribution dist;
  DynamicMessage m(desc);
  for (int i = 0; i < 512; ++i) m.add_uint64(desc->field_by_name("values"), dist(rng));
  Bytes wire = WireCodec::serialize(m);
  EXPECT_TRUE(
      expect_matches_oracle("bench.IntArray", ByteSpan(wire), "IntArray x512").is_ok());
}

TEST_F(ParsePlanFixture, IdenticalImagesLongString) {
  const auto* desc = pool_.find_message("bench.CharArray");
  std::mt19937_64 rng(kDefaultSeed);
  DynamicMessage m(desc);
  m.set_string(desc->field_by_name("data"), random_ascii(rng, 8000));
  Bytes wire = WireCodec::serialize(m);
  EXPECT_TRUE(
      expect_matches_oracle("bench.CharArray", ByteSpan(wire), "CharArray x8000")
          .is_ok());
}

TEST_F(ParsePlanFixture, IdenticalImagesNestedTree) {
  Bytes wire = rich_nested_wire();
  EXPECT_TRUE(expect_matches_oracle("bench.Nested", ByteSpan(wire), "Nested").is_ok());
}

TEST_F(ParsePlanFixture, IdenticalImagesRecursiveChain) {
  const auto* desc = pool_.find_message("bench.Recur");
  DynamicMessage m(desc);
  DynamicMessage* cur = &m;
  for (int d = 0; d < 40; ++d) {
    cur->set_int64(desc->field_by_name("depth"), d);
    cur = cur->mutable_message(desc->field_by_name("next"));
  }
  Bytes wire = WireCodec::serialize(m);
  EXPECT_TRUE(expect_matches_oracle("bench.Recur", ByteSpan(wire), "Recur x40").is_ok());
}

TEST_F(ParsePlanFixture, IdenticalStatusOnTruncations) {
  Bytes wire = rich_nested_wire();
  // Every prefix must yield the same outcome from both codecs: the same
  // Code when they fail, the same re-serialized bytes when they accept.
  size_t accepted = 0;
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    Status st = expect_matches_oracle("bench.Nested", ByteSpan(wire.data(), cut),
                                      "prefix len " + std::to_string(cut));
    if (st.is_ok()) ++accepted;
  }
  // Field boundaries accept, mid-field cuts reject: both kinds occur.
  EXPECT_GT(accepted, 1u);
  EXPECT_LT(accepted, wire.size());
}

TEST_F(ParsePlanFixture, IdenticalStatusOnMalformedInput) {
  struct Case {
    const char* what;
    const char* class_name;
    std::vector<uint8_t> wire;
  };
  const std::vector<Case> cases = {
      // fixed32 data on the varint-typed id field.
      {"wire type mismatch", "bench.Small", {(1 << 3) | 5, 1, 2, 3, 4}},
      // LEN payload aimed at singular scalar id.
      {"LEN for scalar", "bench.Small", {(1 << 3) | 2, 2, 0xFF, 0x01}},
      // overlong varint (11 continuation bytes).
      {"overlong varint",
       "bench.Small",
       {(1 << 3) | 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
        0x80, 0x01}},
      // group wire types are unsupported.
      {"group wire type", "bench.Small", {(1 << 3) | 3}},
      // packed varint payload ending mid-element.
      {"packed mid-element", "bench.IntArray", {(1 << 3) | 2, 2, 0x80, 0x80}},
      // invalid UTF-8 in a string field.
      {"bad UTF-8", "bench.CharArray", {(1 << 3) | 2, 2, 0xC0, 0xAF}},
  };
  for (const auto& c : cases) {
    ByteSpan wire(reinterpret_cast<const std::byte*>(c.wire.data()),
                  c.wire.size());
    EXPECT_FALSE(expect_matches_oracle(c.class_name, wire, c.what).is_ok())
        << c.what;
  }
}

TEST_F(ParsePlanFixture, IdenticalImagesRandomizedDifferential) {
  // Random message contents: both codecs must agree on every byte, every
  // time.
  const auto* desc = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  std::mt19937_64 rng(kDefaultSeed ^ 0x9e37);
  for (int round = 0; round < 50; ++round) {
    DynamicMessage m(desc);
    if (rng() & 1) {
      m.mutable_message(desc->field_by_name("head"))
          ->set_int64(small->field_by_name("id"), static_cast<int64_t>(rng()));
    }
    const size_t items = rng() % 6;
    for (size_t i = 0; i < items; ++i) {
      m.add_message(desc->field_by_name("items"))
          ->set_uint64(small->field_by_name("stamp"), rng());
    }
    const size_t tags = rng() % 4;
    for (size_t i = 0; i < tags; ++i) {
      m.add_string(desc->field_by_name("tags"),
                   random_ascii(rng, rng() % 120));
    }
    const size_t deltas = rng() % 40;
    for (size_t i = 0; i < deltas; ++i) {
      m.add_int64(desc->field_by_name("deltas"), static_cast<int64_t>(rng()));
    }
    Bytes wire = WireCodec::serialize(m);
    EXPECT_TRUE(expect_matches_oracle("bench.Nested", ByteSpan(wire),
                                      "round " + std::to_string(round))
                    .is_ok());
  }
}

// -------------------------------------------------- prediction metrics

TEST_F(ParsePlanFixture, PredictionHitsOnInOrderWire) {
  auto& fields = metrics::default_counter("dpurpc_deser_plan_fields_total", "");
  auto& hits = metrics::default_counter("dpurpc_deser_prediction_hits_total", "");
  auto& plan_parses = metrics::default_counter("dpurpc_deser_plan_parses_total", "");
  const uint64_t f0 = fields.value(), h0 = hits.value(), p0 = plan_parses.value();

  const auto* desc = pool_.find_message("bench.Small");
  DynamicMessage m(desc);
  m.set_int64(desc->field_by_name("id"), 1);
  m.set_uint64(desc->field_by_name("flag"), 1);
  m.set_float(desc->field_by_name("score"), 1.0f);
  m.set_uint64(desc->field_by_name("stamp"), 1);
  Bytes wire = WireCodec::serialize(m);
  std::vector<std::byte> buf(1 << 12);
  arena::Arena arena(buf.data(), buf.size());
  ASSERT_TRUE(ArenaDeserializer(&adt_)
                  .deserialize(cls("bench.Small"), ByteSpan(wire), arena, {})
                  .is_ok());

  // Encoders emit ascending field order, so all 4 fields are predicted.
  EXPECT_EQ(plan_parses.value(), p0 + 1);
  EXPECT_EQ(fields.value(), f0 + 4);
  EXPECT_EQ(hits.value(), h0 + 4);
}

}  // namespace
}  // namespace dpurpc::adt
