// Tests for the serialize-plan compiler and the planned response path.
//
// The load-bearing property mirrors parse_plan_test: agreement with the
// reference WireCodec. An object deserialized from WireCodec bytes must
// serialize back to exactly those bytes, and byte_size must predict the
// length — for the bench shapes, every field type, and randomized
// schemas.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "adt/adt.hpp"
#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "adt/serialize_plan.hpp"
#include "common/rng.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"

namespace dpurpc::adt {
namespace {

using arena::OwningArena;
using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::FieldDescriptor;
using proto::FieldType;
using proto::MessageDescriptor;
using proto::WireCodec;

// The bench_messages.proto shapes plus a kitchen-sink message that covers
// every field type, singular and repeated.
constexpr std::string_view kSchema = R"(
syntax = "proto3";
package sp;

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

enum Mode { MODE_OFF = 0; MODE_ON = 1; MODE_AUTO = 2; }
message AllTypes {
  double   f_double   = 1;
  float    f_float    = 2;
  int32    f_int32    = 3;
  int64    f_int64    = 4;
  uint32   f_uint32   = 5;
  uint64   f_uint64   = 6;
  sint32   f_sint32   = 7;
  sint64   f_sint64   = 8;
  fixed32  f_fixed32  = 9;
  fixed64  f_fixed64  = 10;
  sfixed32 f_sfixed32 = 11;
  sfixed64 f_sfixed64 = 12;
  bool     f_bool     = 13;
  string   f_string   = 14;
  bytes    f_bytes    = 15;
  Mode     f_enum     = 16;
  Small    f_msg      = 17;
  repeated double   r_double   = 21;
  repeated int32    r_int32    = 23;
  repeated uint64   r_uint64   = 26;
  repeated sint32   r_sint32   = 27;
  repeated fixed32  r_fixed32  = 29;
  repeated sfixed64 r_sfixed64 = 32;
  repeated bool     r_bool     = 33;
  repeated string   r_string   = 34;
  repeated Mode     r_enum     = 36;
  repeated Small    r_msg      = 37;
}
)";

/// Fill `m` with random content, driven purely by descriptors, so the
/// same helper covers randomized schemas too.
void fill_random(DynamicMessage& m, const MessageDescriptor* desc,
                 std::mt19937_64& rng, int depth = 0) {
  for (const auto& fp : desc->fields()) {
    const FieldDescriptor* f = fp.get();
    const size_t count = f->is_repeated() ? rng() % 5 : (rng() % 2);
    for (size_t i = 0; i < count; ++i) {
      switch (f->type()) {
        case FieldType::kDouble:
          if (f->is_repeated()) m.add_double(f, static_cast<double>(rng()) / 7);
          else m.set_double(f, static_cast<double>(rng()) / 7);
          break;
        case FieldType::kFloat:
          if (f->is_repeated()) m.add_float(f, static_cast<float>(rng() % 4096));
          else m.set_float(f, static_cast<float>(rng() % 4096));
          break;
        case FieldType::kInt32:
        case FieldType::kInt64:
        case FieldType::kSint32:
        case FieldType::kSint64:
        case FieldType::kSfixed32:
        case FieldType::kSfixed64: {
          int64_t v = static_cast<int64_t>(rng());
          if (f->type() == FieldType::kInt32 || f->type() == FieldType::kSint32 ||
              f->type() == FieldType::kSfixed32) {
            v = static_cast<int32_t>(v);
          }
          if (f->is_repeated()) m.add_int64(f, v);
          else m.set_int64(f, v);
          break;
        }
        case FieldType::kUint32:
        case FieldType::kFixed32: {
          uint64_t v = static_cast<uint32_t>(rng());
          if (f->is_repeated()) m.add_uint64(f, v);
          else m.set_uint64(f, v);
          break;
        }
        case FieldType::kUint64:
        case FieldType::kFixed64:
          if (f->is_repeated()) m.add_uint64(f, rng());
          else m.set_uint64(f, rng());
          break;
        case FieldType::kBool:
          if (f->is_repeated()) m.add_uint64(f, rng() & 1);
          else m.set_uint64(f, rng() & 1);
          break;
        case FieldType::kEnum:
          if (f->is_repeated()) m.add_uint64(f, rng() % 3);
          else m.set_uint64(f, rng() % 3);
          break;
        case FieldType::kString:
          if (f->is_repeated()) m.add_string(f, random_ascii(rng, rng() % 80));
          else m.set_string(f, random_ascii(rng, rng() % 200));
          break;
        case FieldType::kBytes:
          if (f->is_repeated()) m.add_string(f, random_bytes(rng, rng() % 60));
          else m.set_string(f, random_bytes(rng, rng() % 60));
          break;
        case FieldType::kMessage:
          if (depth < 3) {
            DynamicMessage* sub =
                f->is_repeated() ? m.add_message(f) : m.mutable_message(f);
            fill_random(*sub, f->message_type(), rng, depth + 1);
          }
          break;
      }
    }
  }
}

class SerializePlanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    auto st = parser.parse_and_link(kSchema);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    for (const char* name : {"sp.Small", "sp.IntArray", "sp.CharArray",
                             "sp.Nested", "sp.Recur", "sp.AllTypes"}) {
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

  /// Deserialize `wire` (bytes from the reference codec), serialize the
  /// object back and demand identity with the original bytes.
  void expect_roundtrip_identical(uint32_t class_index, const Bytes& wire,
                                  const char* what) {
    OwningArena arena(1 << 18);
    ArenaDeserializer deser(&adt_);
    auto obj = deser.deserialize(class_index, ByteSpan(wire), arena, {});
    ASSERT_TRUE(obj.is_ok()) << what << ": " << obj.status().to_string();
    ObjectRef ref(class_index, *obj);

    ObjectSerializer ser(&adt_);
    Bytes out;
    Status st = ser.serialize(ref, out);
    ASSERT_TRUE(st.is_ok()) << what << ": " << st.to_string();
    EXPECT_EQ(out, wire) << what << ": round trip not identical";

    auto size = ser.byte_size(ref);
    ASSERT_TRUE(size.is_ok()) << what;
    EXPECT_EQ(*size, wire.size()) << what;
  }

  proto::DescriptorPool pool_;
  Adt adt_;
};

// ---------------------------------------------------------- plan building

TEST_F(SerializePlanFixture, PlansCompiledForEveryClass) {
  auto plans = adt_.plans();
  ASSERT_NE(plans, nullptr);
  // One step per field, one plan per class.
  EXPECT_EQ(plans->serialize().plan_count(), adt_.class_count());
  for (uint32_t ci = 0; ci < adt_.class_count(); ++ci) {
    const SerializePlan* p = plans->serialize().for_class(ci);
    ASSERT_NE(p, nullptr) << adt_.class_at(ci).name;
    EXPECT_EQ(p->steps().size(), adt_.class_at(ci).fields.size());
  }
}

TEST_F(SerializePlanFixture, StepsCarryPrecomputedTags) {
  auto plans = adt_.plans();
  const SerializePlan* small = plans->serialize().for_class(cls("sp.Small"));
  ASSERT_NE(small, nullptr);
  ASSERT_EQ(small->steps().size(), 4u);
  // int32 id = 1 → varint tag 0x08, one byte, precomputed.
  EXPECT_EQ(small->steps()[0].op, SerOp::kVarintI32);
  EXPECT_EQ(small->steps()[0].tag_len, 1);
  EXPECT_EQ(small->steps()[0].tag_bytes[0], 0x08);
  // float score = 3 → fixed32 tag (3<<3)|5.
  EXPECT_EQ(small->steps()[2].op, SerOp::kFixed32);
  EXPECT_EQ(small->steps()[2].tag_bytes[0], (3u << 3) | 5u);

  const SerializePlan* ints = plans->serialize().for_class(cls("sp.IntArray"));
  ASSERT_NE(ints, nullptr);
  // repeated uint32 → packed: one LEN record, tag (1<<3)|2.
  EXPECT_EQ(ints->steps()[0].op, SerOp::kPackedU32);
  EXPECT_EQ(ints->steps()[0].tag_bytes[0], (1u << 3) | 2u);
}

TEST_F(SerializePlanFixture, PlanSetBundlesBothDirectionsInOneCache) {
  auto a = adt_.plans();
  auto b = adt_.plans();
  EXPECT_EQ(a.get(), b.get());  // one compile, one snapshot, both codecs
  EXPECT_EQ(a->parse().plan_count(), adt_.class_count());
  EXPECT_EQ(a->serialize().plan_count(), adt_.class_count());

  // Mutation invalidates the single cache slot for both directions.
  ClassEntry extra;
  extra.name = "sp.Extra";
  extra.size = 16;
  extra.align = 8;
  extra.default_bytes.assign(16, 0);
  adt_.add_class(std::move(extra));
  auto c = adt_.plans();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->serialize().plan_count(), adt_.class_count());
}

// ------------------------------------------ agreement with WireCodec

TEST_F(SerializePlanFixture, DifferentialBenchShapes) {
  std::mt19937_64 rng(kDefaultSeed);
  {
    const auto* desc = pool_.find_message("sp.Small");
    DynamicMessage m(desc);
    m.set_int64(desc->field_by_name("id"), -42);  // negative → 10-byte varint
    m.set_uint64(desc->field_by_name("flag"), 1);
    m.set_float(desc->field_by_name("score"), 3.25f);
    m.set_uint64(desc->field_by_name("stamp"), 0xdeadbeefull);
    expect_roundtrip_identical(cls("sp.Small"), WireCodec::serialize(m), "Small");
  }
  {
    const auto* desc = pool_.find_message("sp.IntArray");
    SkewedVarintDistribution dist;
    DynamicMessage m(desc);
    for (int i = 0; i < 512; ++i) m.add_uint64(desc->field_by_name("values"), dist(rng));
    expect_roundtrip_identical(cls("sp.IntArray"), WireCodec::serialize(m),
                               "IntArray x512");
  }
  {
    const auto* desc = pool_.find_message("sp.CharArray");
    DynamicMessage m(desc);
    m.set_string(desc->field_by_name("data"), random_ascii(rng, 8000));
    expect_roundtrip_identical(cls("sp.CharArray"), WireCodec::serialize(m),
                               "CharArray x8000");
  }
  {
    const auto* nested = pool_.find_message("sp.Nested");
    const auto* small = pool_.find_message("sp.Small");
    DynamicMessage m(nested);
    m.mutable_message(nested->field_by_name("head"))
        ->set_int64(small->field_by_name("id"), 77);
    for (int i = 0; i < 5; ++i) {
      auto* item = m.add_message(nested->field_by_name("items"));
      item->set_int64(small->field_by_name("id"), i);
      m.add_string(nested->field_by_name("tags"), "tag-" + std::to_string(i));
      m.add_int64(nested->field_by_name("deltas"), (i - 2) * 1'000'000'007ll);
    }
    m.set_string(nested->field_by_name("label"), "plan-vs-oracle");
    m.set_double(nested->field_by_name("weight"), 2.75);
    expect_roundtrip_identical(cls("sp.Nested"), WireCodec::serialize(m), "Nested");
  }
}

TEST_F(SerializePlanFixture, DifferentialRandomizedAllTypes) {
  const auto* desc = pool_.find_message("sp.AllTypes");
  std::mt19937_64 rng(kDefaultSeed ^ 0xa11f);
  for (int round = 0; round < 100; ++round) {
    DynamicMessage m(desc);
    fill_random(m, desc, rng);
    expect_roundtrip_identical(cls("sp.AllTypes"), WireCodec::serialize(m),
                               ("AllTypes round " + std::to_string(round)).c_str());
  }
}

TEST_F(SerializePlanFixture, DifferentialRandomizedSchemas) {
  // Fresh schemas synthesized at test time: field-number gaps, type mixes,
  // and nesting the fixture schema does not cover.
  std::mt19937_64 rng(kDefaultSeed ^ 0x5c4e);
  static constexpr const char* kTypes[] = {
      "double", "float",   "int32",   "int64",    "uint32",  "uint64",
      "sint32", "sint64",  "fixed32", "fixed64",  "sfixed32", "sfixed64",
      "bool",   "string",  "bytes"};
  for (int round = 0; round < 20; ++round) {
    std::string schema = "syntax = \"proto3\";\npackage rs;\n";
    schema += "message Inner { uint64 x = 1; string s = 2; }\n";
    schema += "message Outer {\n";
    uint32_t number = 0;
    const size_t nfields = 2 + rng() % 10;
    for (size_t i = 0; i < nfields; ++i) {
      number += 1 + rng() % 30;  // ascending with random gaps
      const bool repeated = (rng() % 3) == 0;
      const char* type = (rng() % 5 == 0)
                             ? "Inner"
                             : kTypes[rng() % (sizeof(kTypes) / sizeof(kTypes[0]))];
      schema += std::string("  ") + (repeated ? "repeated " : "") + type +
                " f" + std::to_string(number) + " = " + std::to_string(number) +
                ";\n";
    }
    schema += "}\n";

    proto::DescriptorPool pool;
    proto::SchemaParser parser(pool);
    ASSERT_TRUE(parser.parse_and_link(schema).is_ok()) << schema;
    DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    auto idx = builder.add_message(pool.find_message("rs.Outer"));
    ASSERT_TRUE(idx.is_ok());
    Adt adt = std::move(builder).take();
    adt.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));

    const auto* desc = pool.find_message("rs.Outer");
    DynamicMessage m(desc);
    fill_random(m, desc, rng);
    Bytes wire = WireCodec::serialize(m);

    OwningArena arena(1 << 18);
    ArenaDeserializer deser(&adt);
    auto obj = deser.deserialize(*idx, ByteSpan(wire), arena, {});
    ASSERT_TRUE(obj.is_ok()) << schema;
    Bytes out;
    ASSERT_TRUE(ObjectSerializer(&adt).serialize(ObjectRef(*idx, *obj), out).is_ok());
    EXPECT_EQ(out, wire) << schema;
  }
}

TEST_F(SerializePlanFixture, PackedVarintEdgeValues) {
  // Varint length-class boundaries, including the 8-byte encoder chunk
  // boundary (2^56) and the >8-byte scalar fallback.
  const auto* desc = pool_.find_message("sp.AllTypes");
  DynamicMessage m(desc);
  const auto* ru64 = desc->field_by_name("r_uint64");
  const uint64_t u64_edges[] = {0,           1,          127,
                                128,         16383,      16384,
                                (1ull << 28) - 1,        1ull << 28,
                                (1ull << 56) - 1,        1ull << 56,
                                UINT64_MAX};
  for (uint64_t v : u64_edges) m.add_uint64(ru64, v);
  const auto* ri32 = desc->field_by_name("r_int32");
  const int64_t i32_edges[] = {0, -1, 1, 2147483647ll, -2147483648ll};
  // Negative int32 → 10-byte sign-extended varint.
  for (int64_t v : i32_edges) m.add_int64(ri32, v);
  const auto* rs32 = desc->field_by_name("r_sint32");
  for (int64_t v : i32_edges) m.add_int64(rs32, v);
  const auto* rb = desc->field_by_name("r_bool");
  for (int i = 0; i < 9; ++i) m.add_uint64(rb, i & 1);
  expect_roundtrip_identical(cls("sp.AllTypes"), WireCodec::serialize(m),
                             "packed edges");
}

TEST_F(SerializePlanFixture, ExplicitZerosStayUnemittedByBothPaths) {
  // A has-bit can be set while the stored value is the proto3 default
  // (e.g. a peer explicitly encoded a zero). Like WireCodec, the plan
  // must not emit it.
  Bytes wire;
  wire.push_back(std::byte{0x08});  // id = 0 (explicit varint zero)
  wire.push_back(std::byte{0x00});
  wire.push_back(std::byte{0x1d});  // score = 0.0f (explicit fixed32 zero)
  for (int i = 0; i < 4; ++i) wire.push_back(std::byte{0x00});

  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("sp.Small"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  ObjectRef ref(cls("sp.Small"), *obj);
  Bytes from_plan;
  ASSERT_TRUE(ObjectSerializer(&adt_).serialize(ref, from_plan).is_ok());
  EXPECT_TRUE(from_plan.empty());

  DynamicMessage m(pool_.find_message("sp.Small"));
  ASSERT_TRUE(WireCodec::parse(ByteSpan(wire), m).is_ok());
  EXPECT_TRUE(WireCodec::serialize(m).empty());
}

// --------------------------------------------------- errors and limits

TEST_F(SerializePlanFixture, UnknownClassRejected) {
  ObjectSerializer ser(&adt_);
  Bytes out;
  char dummy[64] = {};
  EXPECT_EQ(ser.serialize(ObjectRef(999, dummy), out).code(), Code::kNotFound);
  EXPECT_FALSE(ser.byte_size(ObjectRef(999, dummy)).is_ok());
}

TEST_F(SerializePlanFixture, RecursionDepthEnforcedIdentically) {
  // Build a chain deeper than the configured limit with LayoutBuilder,
  // then serialize under a small max_recursion_depth: serialize and
  // byte_size must fail alike, and the output must be untouched.
  OwningArena arena(1 << 16);
  auto root = LayoutBuilder::create(&adt_, cls("sp.Recur"), &arena);
  ASSERT_TRUE(root.is_ok());
  LayoutBuilder cur = *root;
  for (int d = 0; d < 12; ++d) {
    ASSERT_TRUE(cur.set_int64(2, d).is_ok());
    auto next = cur.mutable_message(1);
    ASSERT_TRUE(next.is_ok());
    cur = *next;
  }
  CodecOptions shallow;
  shallow.max_recursion_depth = 4;
  ObjectSerializer shallow_ser(&adt_, shallow);

  Bytes out;
  Status st = shallow_ser.serialize(ObjectRef(*root), out);
  EXPECT_FALSE(st.is_ok());
  auto size = shallow_ser.byte_size(ObjectRef(*root));
  ASSERT_FALSE(size.is_ok());
  EXPECT_EQ(st.to_string(), size.status().to_string());
  EXPECT_TRUE(out.empty());  // failed serialize must not leave bytes

  // With the default limit the same chain serializes fine, and the bytes
  // re-decode through WireCodec to the 12-deep chain.
  Bytes ok_out;
  ASSERT_TRUE(ObjectSerializer(&adt_).serialize(ObjectRef(*root), ok_out).is_ok());
  const auto* desc = pool_.find_message("sp.Recur");
  DynamicMessage m(desc);
  ASSERT_TRUE(WireCodec::parse(ByteSpan(ok_out), m).is_ok());
  EXPECT_EQ(WireCodec::serialize(m), ok_out);
  int depth = 0;
  for (const DynamicMessage* p = &m; p->has(desc->field_by_name("next"));
       p = p->get_message(desc->field_by_name("next"))) {
    ++depth;
  }
  EXPECT_EQ(depth, 12);
}

// ------------------------------------------------- ObjectRef plumbing

TEST_F(SerializePlanFixture, ObjectRefFromBuilderViewAndRawAgree) {
  OwningArena arena(1 << 14);
  auto b = LayoutBuilder::create(&adt_, cls("sp.Small"), &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_int64(1, 1234).is_ok());
  ASSERT_TRUE(b->set_bool(2, true).is_ok());

  ObjectSerializer ser(&adt_);
  Bytes from_builder, from_view, from_raw;
  ASSERT_TRUE(ser.serialize(ObjectRef(*b), from_builder).is_ok());
  ASSERT_TRUE(ser.serialize(ObjectRef(b->view()), from_view).is_ok());
  ASSERT_TRUE(
      ser.serialize(ObjectRef(cls("sp.Small"), b->object()), from_raw).is_ok());
  EXPECT_EQ(from_builder, from_view);
  EXPECT_EQ(from_builder, from_raw);
  EXPECT_FALSE(from_builder.empty());
}

}  // namespace
}  // namespace dpurpc::adt
