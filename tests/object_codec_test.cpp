// Tests for the ADT-driven object codec (serializer + LayoutBuilder): the
// response-serialization-offload extension (§III.A "this can be
// implemented similarly in our design"). The key property is the
// round-trip triangle:
//
//   DynamicMessage --WireCodec--> wire --ArenaDeserializer--> object
//        ^                                                       |
//        '------------------- ObjectSerializer ------------------'
//
// with byte-identical wire output (canonical field order in, canonical
// field order out).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/rng.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"

namespace dpurpc::adt {
namespace {

using arena::AddressTranslator;
using arena::OwningArena;
using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::WireCodec;

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package oc;
message Leaf {
  int32 a = 1;
  sint64 b = 2;
  bool c = 3;
  float d = 4;
  double e = 5;
  fixed32 f = 6;
  sfixed64 g = 7;
  string s = 8;
  bytes raw = 9;
}
message Node {
  Leaf leaf = 1;
  repeated Leaf items = 2;
  repeated uint32 packed = 3;
  repeated string names = 4;
  repeated sint32 zz = 5;
  uint64 id = 6;
}
message Reps {
  repeated bool flags = 1;
  repeated uint32 u32s = 2;
  repeated fixed64 u64s = 3;
  repeated double ds = 4;
  repeated float fs = 5;
  repeated string tags = 6;
  Leaf leaf = 7;
  repeated sint64 s64s = 8;
}
)";

class ObjectCodecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    proto::SchemaParser parser(pool_);
    ASSERT_TRUE(parser.parse_and_link(kSchema).is_ok());
    DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
    leaf_ = *builder.add_message(pool_.find_message("oc.Leaf"));
    node_ = *builder.add_message(pool_.find_message("oc.Node"));
    reps_ = *builder.add_message(pool_.find_message("oc.Reps"));
    adt_ = std::move(builder).take();
    adt_.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
  }

  /// The repeated header of `field` in the Reps object `b` builds.
  const RepHeader& reps_header(const LayoutBuilder& b, uint32_t field) const {
    return *reinterpret_cast<const RepHeader*>(
        static_cast<const std::byte*>(b.object()) +
        adt_.class_at(reps_).field_by_number(field)->offset);
  }

  proto::DescriptorPool pool_;
  Adt adt_;
  uint32_t leaf_ = 0, node_ = 0, reps_ = 0;
};

DynamicMessage random_node(const proto::DescriptorPool& pool, std::mt19937_64& rng) {
  const auto* node = pool.find_message("oc.Node");
  const auto* leaf = pool.find_message("oc.Leaf");
  DynamicMessage m(node);
  auto fill_leaf = [&](DynamicMessage* l) {
    l->set_int64(leaf->field_by_name("a"), static_cast<int32_t>(rng()));
    l->set_int64(leaf->field_by_name("b"), static_cast<int64_t>(rng()));
    l->set_uint64(leaf->field_by_name("c"), rng() % 2);
    l->set_float(leaf->field_by_name("d"), static_cast<float>(rng() % 1000) / 8.0f);
    l->set_double(leaf->field_by_name("e"), static_cast<double>(rng() % 100000) / 3.0);
    l->set_uint64(leaf->field_by_name("f"), static_cast<uint32_t>(rng()));
    l->set_int64(leaf->field_by_name("g"), static_cast<int64_t>(rng()));
    l->set_string(leaf->field_by_name("s"), random_ascii(rng, rng() % 40));
    l->set_string(leaf->field_by_name("raw"), random_bytes(rng, rng() % 24));
  };
  if (rng() % 2) fill_leaf(m.mutable_message(node->field_by_name("leaf")));
  size_t items = rng() % 5;
  for (size_t i = 0; i < items; ++i) fill_leaf(m.add_message(node->field_by_name("items")));
  size_t packed = rng() % 40;
  SkewedVarintDistribution dist;
  for (size_t i = 0; i < packed; ++i) m.add_uint64(node->field_by_name("packed"), dist(rng));
  size_t names = rng() % 4;
  for (size_t i = 0; i < names; ++i) {
    m.add_string(node->field_by_name("names"), random_ascii(rng, rng() % 30));
  }
  size_t zz = rng() % 10;
  for (size_t i = 0; i < zz; ++i) {
    m.add_int64(node->field_by_name("zz"), static_cast<int32_t>(rng()));
  }
  if (rng() % 2) m.set_uint64(node->field_by_name("id"), rng());
  return m;
}

// ---------------------------------------------------------- serializer

TEST_F(ObjectCodecFixture, RoundTripIsByteIdentical) {
  std::mt19937_64 rng(kDefaultSeed);
  ArenaDeserializer deser(&adt_);
  ObjectSerializer ser(&adt_);
  OwningArena arena(1 << 18);
  for (int iter = 0; iter < 200; ++iter) {
    arena.reset();
    DynamicMessage m = random_node(pool_, rng);
    Bytes wire = WireCodec::serialize(m);

    auto obj = deser.deserialize(node_, ByteSpan(wire), arena, {});
    ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();

    Bytes back;
    auto st = ser.serialize(ObjectRef(node_, *obj), back);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_EQ(back, wire) << "iteration " << iter;

    auto size = ser.byte_size(ObjectRef(node_, *obj));
    ASSERT_TRUE(size.is_ok());
    EXPECT_EQ(*size, wire.size());
  }
}

TEST_F(ObjectCodecFixture, EmptyObjectSerializesToNothing) {
  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(node_, {}, arena, {});
  ASSERT_TRUE(obj.is_ok());
  ObjectSerializer ser(&adt_);
  Bytes out;
  ASSERT_TRUE(ser.serialize(ObjectRef(node_, *obj), out).is_ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(*ser.byte_size(ObjectRef(node_, *obj)), 0u);
}

TEST_F(ObjectCodecFixture, UnknownClassRejected) {
  ObjectSerializer ser(&adt_);
  Bytes out;
  char dummy[64] = {};
  EXPECT_EQ(ser.serialize(ObjectRef(999, dummy), out).code(), Code::kNotFound);
  EXPECT_FALSE(ser.byte_size(ObjectRef(999, dummy)).is_ok());
}

// ------------------------------------------------------- LayoutBuilder

TEST_F(ObjectCodecFixture, BuilderSetsScalarsAndStrings) {
  OwningArena arena(1 << 14);
  auto b = LayoutBuilder::create(&adt_, leaf_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_int64(1, -77).is_ok());
  ASSERT_TRUE(b->set_int64(2, -123456789).is_ok());  // sint64
  ASSERT_TRUE(b->set_bool(3, true).is_ok());
  ASSERT_TRUE(b->set_float(4, 2.5f).is_ok());
  ASSERT_TRUE(b->set_double(5, -0.125).is_ok());
  ASSERT_TRUE(b->set_string(8, "a string that is longer than SSO").is_ok());

  LayoutView v = b->view();
  EXPECT_EQ(v.get_int64(1), -77);
  EXPECT_EQ(v.get_int64(2), -123456789);
  EXPECT_TRUE(v.get_bool(3));
  EXPECT_FLOAT_EQ(v.get_float(4), 2.5f);
  EXPECT_DOUBLE_EQ(v.get_double(5), -0.125);
  EXPECT_EQ(v.get_string(8), "a string that is longer than SSO");
  EXPECT_TRUE(v.has(1));
  EXPECT_FALSE(v.has(6));
}

TEST_F(ObjectCodecFixture, BuilderTypeChecks) {
  OwningArena arena(1 << 12);
  auto b = LayoutBuilder::create(&adt_, leaf_, &arena);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(b->set_string(1, "x").code(), Code::kInvalidArgument);  // int field
  EXPECT_EQ(b->set_float(5, 1.0f).code(), Code::kInvalidArgument);  // double field
  EXPECT_EQ(b->set_int64(99, 1).code(), Code::kNotFound);
  EXPECT_EQ(b->add_string(8, "x").code(), Code::kInvalidArgument);  // not repeated
}

TEST_F(ObjectCodecFixture, BuilderRepeatedAndNested) {
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(b->add_scalar(3, i * 3).is_ok());
  ASSERT_TRUE(b->add_string(4, "first").is_ok());
  ASSERT_TRUE(b->add_string(4, std::string(50, 'n')).is_ok());
  auto leaf1 = b->add_message(2);
  ASSERT_TRUE(leaf1.is_ok());
  ASSERT_TRUE(leaf1->set_int64(1, 11).is_ok());
  auto leaf2 = b->add_message(2);
  ASSERT_TRUE(leaf2.is_ok());
  ASSERT_TRUE(leaf2->set_int64(1, 22).is_ok());
  auto head = b->mutable_message(1);
  ASSERT_TRUE(head.is_ok());
  ASSERT_TRUE(head->set_string(8, "head leaf").is_ok());
  // mutable_message twice returns the same instance.
  auto head2 = b->mutable_message(1);
  ASSERT_TRUE(head2.is_ok());
  EXPECT_EQ(head->object(), head2->object());

  LayoutView v = b->view();
  ASSERT_EQ(v.repeated_size(3), 100u);
  EXPECT_EQ(v.repeated_uint64(3, 99), 297u);
  ASSERT_EQ(v.repeated_size(4), 2u);
  EXPECT_EQ(v.repeated_string(4, 1), std::string(50, 'n'));
  ASSERT_EQ(v.repeated_size(2), 2u);
  EXPECT_EQ(v.repeated_message(2, 0).get_int64(1), 11);
  EXPECT_EQ(v.repeated_message(2, 1).get_int64(1), 22);
  EXPECT_EQ(v.get_message(1).get_string(8), "head leaf");
}

TEST_F(ObjectCodecFixture, BuiltObjectSerializesLikeDynamicMessage) {
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_uint64(6, 424242).is_ok());
  for (uint64_t i = 1; i <= 5; ++i) ASSERT_TRUE(b->add_scalar(3, i * 1000).is_ok());
  ASSERT_TRUE(b->add_string(4, "alpha").is_ok());
  auto leaf = b->add_message(2);
  ASSERT_TRUE(leaf.is_ok());
  ASSERT_TRUE(leaf->set_int64(1, 9).is_ok());
  ASSERT_TRUE(leaf->set_string(8, "leafy").is_ok());

  ObjectSerializer ser(&adt_);
  Bytes from_object;
  // ObjectRef converts straight from the builder: no index to mismatch.
  ASSERT_TRUE(ser.serialize(ObjectRef(*b), from_object).is_ok());

  const auto* node_desc = pool_.find_message("oc.Node");
  const auto* leaf_desc = pool_.find_message("oc.Leaf");
  DynamicMessage m(node_desc);
  m.set_uint64(node_desc->field_by_name("id"), 424242);
  for (uint64_t i = 1; i <= 5; ++i) m.add_uint64(node_desc->field_by_name("packed"), i * 1000);
  m.add_string(node_desc->field_by_name("names"), "alpha");
  auto* l = m.add_message(node_desc->field_by_name("items"));
  l->set_int64(leaf_desc->field_by_name("a"), 9);
  l->set_string(leaf_desc->field_by_name("s"), "leafy");

  EXPECT_EQ(from_object, WireCodec::serialize(m));
}

TEST_F(ObjectCodecFixture, BuilderWithTranslationSurvivesBufferCopy) {
  // Build a response object in a "send buffer" with host-space pointers,
  // copy it (the RDMA write), serialize it on the receiver: the offloaded
  // response-serialization path.
  constexpr size_t kBuf = 1 << 15;
  std::vector<std::byte> sbuf(kBuf), rbuf(kBuf);
  AddressTranslator xlate{reinterpret_cast<intptr_t>(rbuf.data()) -
                          reinterpret_cast<intptr_t>(sbuf.data())};
  arena::Arena send_arena(sbuf.data(), kBuf);

  auto b = LayoutBuilder::create(&adt_, node_, &send_arena, xlate);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->set_uint64(6, 777).is_ok());
  for (uint64_t i = 0; i < 20; ++i) ASSERT_TRUE(b->add_scalar(3, i).is_ok());
  ASSERT_TRUE(b->add_string(4, std::string(40, 'z')).is_ok());
  auto leaf = b->add_message(2);
  ASSERT_TRUE(leaf.is_ok());
  ASSERT_TRUE(leaf->set_int64(1, 5).is_ok());

  std::memcpy(rbuf.data(), sbuf.data(), kBuf);  // the RDMA write

  auto* remote_obj =
      reinterpret_cast<std::byte*>(xlate.translate_addr(b->object()));
  ObjectSerializer ser(&adt_);
  Bytes wire;
  ASSERT_TRUE(ser.serialize(ObjectRef(node_, remote_obj), wire).is_ok());

  // Parse back with the reference codec and verify content.
  const auto* node_desc = pool_.find_message("oc.Node");
  DynamicMessage out(node_desc);
  ASSERT_TRUE(WireCodec::parse(ByteSpan(wire), out).is_ok());
  EXPECT_EQ(out.get_uint64(node_desc->field_by_name("id")), 777u);
  EXPECT_EQ(out.repeated_size(node_desc->field_by_name("packed")), 20u);
  EXPECT_EQ(out.get_repeated_string(node_desc->field_by_name("names"), 0),
            std::string(40, 'z'));
}

TEST_F(ObjectCodecFixture, BuilderArenaExhaustion) {
  OwningArena arena(192);  // barely fits the instance
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  Status st = Status::ok();
  for (int i = 0; i < 1000 && st.is_ok(); ++i) st = b->add_scalar(3, i);
  EXPECT_EQ(st.code(), Code::kResourceExhausted);
}

// -------------------------------------------- LayoutView default values
//
// Every getter returns its type's default for an unknown field number,
// for a field of the other shape (singular vs repeated) and, for repeated
// getters, for an index past the size. A Reps object with one value in
// each field serves them all; field 99 is unknown.

class ViewDefaultsFixture : public ObjectCodecFixture {
 protected:
  void SetUp() override {
    ObjectCodecFixture::SetUp();
    auto b = LayoutBuilder::create(&adt_, reps_, &arena_);
    ASSERT_TRUE(b.is_ok());
    ASSERT_TRUE(b->add_scalar(1, 1).is_ok());
    ASSERT_TRUE(b->add_scalar(2, 7).is_ok());
    ASSERT_TRUE(b->add_scalar(3, 9).is_ok());
    ASSERT_TRUE(b->add_scalar(4, std::bit_cast<uint64_t>(1.5)).is_ok());
    ASSERT_TRUE(b->add_scalar(5, std::bit_cast<uint32_t>(2.5f)).is_ok());
    ASSERT_TRUE(b->add_string(6, "tag").is_ok());
    auto leaf = b->mutable_message(7);
    ASSERT_TRUE(leaf.is_ok());
    ASSERT_TRUE(leaf->set_int64(1, 5).is_ok());
    object_ = b->object();
  }

  LayoutView reps() const { return LayoutView(&adt_, reps_, object_); }

  OwningArena arena_{1 << 14};
  void* object_ = nullptr;
};

TEST_F(ViewDefaultsFixture, HasIsFalseForUnknownAndRepeatedFields) {
  EXPECT_TRUE(reps().has(7));
  EXPECT_FALSE(reps().has(99));
  EXPECT_FALSE(reps().has(2));
}

TEST_F(ViewDefaultsFixture, GetInt64DefaultsToZero) {
  EXPECT_EQ(reps().get_message(7).get_int64(1), 5);
  EXPECT_EQ(reps().get_int64(99), 0);
  EXPECT_EQ(reps().get_int64(2), 0);  // repeated
}

TEST_F(ViewDefaultsFixture, GetUint64DefaultsToZero) {
  EXPECT_EQ(reps().get_uint64(99), 0u);
  EXPECT_EQ(reps().get_uint64(3), 0u);  // repeated
}

TEST_F(ViewDefaultsFixture, GetDoubleDefaultsToZero) {
  EXPECT_EQ(reps().get_double(99), 0.0);
  EXPECT_EQ(reps().get_double(4), 0.0);  // repeated
  EXPECT_EQ(reps().get_message(7).get_double(1), 0.0);  // int32, not double
}

TEST_F(ViewDefaultsFixture, GetFloatDefaultsToZero) {
  EXPECT_EQ(reps().get_float(99), 0.0f);
  EXPECT_EQ(reps().get_float(5), 0.0f);  // repeated
  EXPECT_EQ(reps().get_message(7).get_float(5), 0.0f);  // double, not float
}

TEST_F(ViewDefaultsFixture, GetBoolDefaultsToFalse) {
  EXPECT_FALSE(reps().get_bool(99));
  EXPECT_FALSE(reps().get_bool(1));  // repeated
}

TEST_F(ViewDefaultsFixture, GetStringDefaultsToEmpty) {
  EXPECT_EQ(reps().get_string(99), "");
  EXPECT_EQ(reps().get_string(6), "");  // repeated
  EXPECT_EQ(reps().get_message(7).get_string(1), "");  // int32, not string
}

TEST_F(ViewDefaultsFixture, GetMessageDefaultsToTheEmptyView) {
  auto node = LayoutBuilder::create(&adt_, node_, &arena_);
  ASSERT_TRUE(node.is_ok());
  EXPECT_EQ(reps().get_message(7).class_index(), leaf_);
  // Unknown, repeated, and a message field that was never set.
  for (LayoutView v : {reps().get_message(99), reps().get_message(2),
                       node->view().get_message(1)}) {
    EXPECT_EQ(v.object(), nullptr);
    EXPECT_EQ(v.class_index(), kNoChild);
    EXPECT_TRUE(v.class_entry().fields.empty());
    EXPECT_EQ(v.get_int64(1), 0);
    EXPECT_EQ(v.repeated_size(1), 0u);
  }
}

TEST_F(ViewDefaultsFixture, RepeatedSizeDefaultsToZero) {
  EXPECT_EQ(reps().repeated_size(2), 1u);
  EXPECT_EQ(reps().repeated_size(99), 0u);
  EXPECT_EQ(reps().repeated_size(7), 0u);  // singular
}

TEST_F(ViewDefaultsFixture, RepeatedUint64DefaultsToZero) {
  EXPECT_EQ(reps().repeated_uint64(1, 0), 1u);
  EXPECT_EQ(reps().repeated_uint64(2, 0), 7u);
  EXPECT_EQ(reps().repeated_uint64(3, 0), 9u);
  EXPECT_EQ(reps().repeated_uint64(99, 0), 0u);
  EXPECT_EQ(reps().repeated_uint64(7, 0), 0u);  // singular
  EXPECT_EQ(reps().repeated_uint64(2, 1), 0u);  // past the size
  EXPECT_EQ(reps().repeated_uint64(2, UINT32_MAX), 0u);
}

TEST_F(ViewDefaultsFixture, RepeatedInt64DefaultsToZero) {
  EXPECT_EQ(reps().repeated_int64(1, 0), 1);  // bool reads one byte
  EXPECT_EQ(reps().repeated_int64(99, 0), 0);
  EXPECT_EQ(reps().repeated_int64(7, 0), 0);  // singular
  EXPECT_EQ(reps().repeated_int64(3, 1), 0);  // past the size
}

TEST_F(ViewDefaultsFixture, RepeatedDoubleDefaultsToZero) {
  EXPECT_EQ(reps().repeated_double(4, 0), 1.5);
  EXPECT_EQ(reps().repeated_double(99, 0), 0.0);
  EXPECT_EQ(reps().repeated_double(5, 0), 0.0);  // float, not double
  EXPECT_EQ(reps().repeated_double(4, 1), 0.0);  // past the size
}

TEST_F(ViewDefaultsFixture, RepeatedFloatDefaultsToZero) {
  EXPECT_EQ(reps().repeated_float(5, 0), 2.5f);
  EXPECT_EQ(reps().repeated_float(99, 0), 0.0f);
  EXPECT_EQ(reps().repeated_float(4, 0), 0.0f);  // double, not float
  EXPECT_EQ(reps().repeated_float(5, 1), 0.0f);  // past the size
}

TEST_F(ViewDefaultsFixture, RepeatedStringDefaultsToEmpty) {
  EXPECT_EQ(reps().repeated_string(6, 0), "tag");
  EXPECT_EQ(reps().repeated_string(99, 0), "");
  EXPECT_EQ(reps().repeated_string(2, 0), "");  // uint32, not string
  EXPECT_EQ(reps().repeated_string(6, 1), "");  // past the size
}

TEST_F(ViewDefaultsFixture, RepeatedMessageDefaultsToTheEmptyView) {
  OwningArena arena(1 << 12);
  auto b = LayoutBuilder::create(&adt_, node_, &arena);
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(b->add_message(2).is_ok());
  LayoutView v = b->view();
  EXPECT_EQ(v.repeated_message(2, 0).class_index(), leaf_);
  for (LayoutView e : {v.repeated_message(99, 0), v.repeated_message(3, 0),
                       v.repeated_message(2, 1)}) {
    EXPECT_EQ(e.object(), nullptr);
    EXPECT_EQ(e.class_index(), kNoChild);
  }
}

// ------------------------------------------------- in-place array growth

// Field number and element width of Reps' 1-, 4- and 8-byte fields.
struct Width {
  uint32_t field;
  uint32_t elem;
};
constexpr Width kWidths[] = {{1, 1}, {2, 4}, {3, 8}};

uint64_t value_for(uint32_t elem, uint64_t i) {
  return elem == 1 ? (i % 3 != 0) : i * 0x9E3779B97F4A7C15ull >> (elem == 4 ? 40 : 0);
}

TEST_F(ObjectCodecFixture, AddScalarGrowsInPlaceAcrossCapacitySteps) {
  // A nonzero translation: stored pointers are receiver-space, so the
  // in-place check must undo it.
  constexpr size_t kBuf = 1 << 15;
  for (const Width& w : kWidths) {
    std::vector<std::byte> sbuf(kBuf), rbuf(kBuf);
    AddressTranslator xlate{reinterpret_cast<intptr_t>(rbuf.data()) -
                            reinterpret_cast<intptr_t>(sbuf.data())};
    arena::Arena arena(sbuf.data(), kBuf);
    auto b = LayoutBuilder::create(&adt_, reps_, &arena, xlate);
    ASSERT_TRUE(b.is_ok());
    const size_t instance = arena.used();
    const RepHeader& h = reps_header(*b, w.field);
    const void* first_data = nullptr;
    for (uint64_t i = 0; i < 1024; ++i) {
      ASSERT_TRUE(b->add_scalar(w.field, value_for(w.elem, i)).is_ok());
      if (i == 0) first_data = h.data;
      // Capacity steps 8, 16, ..., 1024; the array never moves and the
      // arena holds the instance plus the live array only.
      const uint32_t cap = std::max<uint32_t>(8, std::bit_ceil(static_cast<uint32_t>(i + 1)));
      ASSERT_EQ(h.capacity, cap) << "elem " << w.elem << " i " << i;
      ASSERT_EQ(h.data, first_data) << "elem " << w.elem << " i " << i;
      ASSERT_EQ(arena.used(), instance + size_t{cap} * w.elem) << "elem " << w.elem;
    }
    std::memcpy(rbuf.data(), sbuf.data(), kBuf);  // the RDMA write
    LayoutView v(&adt_, reps_, rbuf.data());
    ASSERT_EQ(v.repeated_size(w.field), 1024u);
    for (uint32_t i = 0; i < 1024; ++i) {
      ASSERT_EQ(v.repeated_uint64(w.field, i), value_for(w.elem, i))
          << "elem " << w.elem << " i " << i;
    }
  }
}

TEST_F(ObjectCodecFixture, AllocationBetweenAddsForcesACopy) {
  // After 8 adds the array is full; an allocation behind it (a string, a
  // sub-message) means the next add must copy, and both fields survive.
  for (int between = 0; between < 2; ++between) {
    OwningArena arena(1 << 14);
    auto b = LayoutBuilder::create(&adt_, reps_, &arena);
    ASSERT_TRUE(b.is_ok());
    for (uint64_t i = 0; i < 8; ++i) ASSERT_TRUE(b->add_scalar(2, i + 100).is_ok());
    const RepHeader& h = reps_header(*b, 2);
    const void* full_array = h.data;
    if (between == 0) {
      ASSERT_TRUE(b->add_string(6, std::string(40, 's')).is_ok());
    } else {
      auto leaf = b->mutable_message(7);
      ASSERT_TRUE(leaf.is_ok());
      ASSERT_TRUE(leaf->set_string(8, std::string(40, 'm')).is_ok());
    }
    for (uint64_t i = 8; i < 40; ++i) ASSERT_TRUE(b->add_scalar(2, i + 100).is_ok());
    EXPECT_NE(h.data, full_array) << "grew over a later allocation";

    LayoutView v = b->view();
    ASSERT_EQ(v.repeated_size(2), 40u);
    for (uint32_t i = 0; i < 40; ++i) ASSERT_EQ(v.repeated_uint64(2, i), i + 100u);
    if (between == 0) {
      EXPECT_EQ(v.repeated_string(6, 0), std::string(40, 's'));
    } else {
      EXPECT_EQ(v.get_message(7).get_string(8), std::string(40, 'm'));
    }
  }
}

TEST_F(ObjectCodecFixture, GrownObjectSerializesLikeWireCodec) {
  // Runs of adds (grown in place) interleaved with allocations (forced
  // copies) on every width, against the reference codec.
  OwningArena arena(1 << 16);
  auto b = LayoutBuilder::create(&adt_, reps_, &arena);
  ASSERT_TRUE(b.is_ok());
  const auto* desc = pool_.find_message("oc.Reps");
  DynamicMessage m(desc);
  for (int round = 0; round < 3; ++round) {
    for (const Width& w : kWidths) {
      const auto* fd = desc->field_by_number(w.field);
      for (uint64_t i = 0; i < 100u << round; ++i) {
        const uint64_t v = value_for(w.elem, i + round);
        ASSERT_TRUE(b->add_scalar(w.field, v).is_ok());
        m.add_uint64(fd, v);
      }
    }
    for (int64_t i = -20; i < 20; ++i) {
      ASSERT_TRUE(b->add_scalar(8, static_cast<uint64_t>(i * 1000003)).is_ok());
      m.add_int64(desc->field_by_number(8), i * 1000003);
    }
    const std::string tag = "tag" + std::to_string(round);
    ASSERT_TRUE(b->add_string(6, tag).is_ok());
    m.add_string(desc->field_by_number(6), tag);
  }
  ObjectSerializer ser(&adt_);
  Bytes from_object;
  ASSERT_TRUE(ser.serialize(ObjectRef(*b), from_object).is_ok());
  EXPECT_EQ(from_object, WireCodec::serialize(m));
}

}  // namespace
}  // namespace dpurpc::adt
