// Robustness / fuzz tests: every public byte-consuming surface must
// survive arbitrary hostile input with a clean Status — never a crash,
// hang, or out-of-bounds access. (The DPU terminates untrusted client
// traffic, so this is the paper system's actual threat surface.)
#include <gtest/gtest.h>

#include <random>

#include "adt/arena_deserializer.hpp"
#include "adt/object_codec.hpp"
#include "common/rng.hpp"
#include "grpccompat/manifest.hpp"
#include "common/endian.hpp"
#include "proto/dynamic_message.hpp"
#include "proto/schema_parser.hpp"
#include "xrpc/channel.hpp"
#include "xrpc/server.hpp"

namespace dpurpc {
namespace {

constexpr std::string_view kSchema = R"(
syntax = "proto3";
package fz;
message Inner { string s = 1; repeated uint64 v = 2; }
message Outer {
  Inner one = 1;
  repeated Inner many = 2;
  string name = 3;
  bytes blob = 4;
  repeated sint32 zz = 5;
  double d = 6;
  fixed64 f = 7;
}
)";

struct FuzzEnv {
  proto::DescriptorPool pool;
  adt::Adt adt;
  uint32_t outer = 0;

  FuzzEnv() {
    proto::SchemaParser parser(pool);
    EXPECT_TRUE(parser.parse_and_link(kSchema).is_ok());
    adt::DescriptorAdtBuilder builder(arena::StdLibFlavor::kLibstdcpp);
    outer = *builder.add_message(pool.find_message("fz.Outer"));
    adt = std::move(builder).take();
    adt.set_fingerprint(adt::AbiFingerprint::current(arena::StdLibFlavor::kLibstdcpp));
  }
};

// ------------------------------------------------------- schema parser

TEST(Fuzz, SchemaParserSurvivesRandomBytes) {
  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < 500; ++i) {
    std::string junk = random_bytes(rng, rng() % 300);
    proto::DescriptorPool pool;
    proto::SchemaParser parser(pool);
    (void)parser.parse_and_link(junk);  // any Status is fine; no crash
  }
}

TEST(Fuzz, SchemaParserSurvivesTokenSoup) {
  std::mt19937_64 rng(kDefaultSeed);
  const char* tokens[] = {"syntax",   "=",      "\"proto3\"", ";",      "message",
                          "M",        "{",      "}",          "int32",  "repeated",
                          "string",   "rpc",    "service",    "(",      ")",
                          "returns",  "enum",   "package",    "import", "option",
                          "reserved", "12345",  "-3",         ".",      "//x\n",
                          "/*",       "*/",     "\"str\"",    "'c'",    "\\"};
  for (int i = 0; i < 800; ++i) {
    std::string src;
    int n = 1 + static_cast<int>(rng() % 40);
    for (int j = 0; j < n; ++j) {
      src += tokens[rng() % std::size(tokens)];
      src += ' ';
    }
    proto::DescriptorPool pool;
    proto::SchemaParser parser(pool);
    (void)parser.parse_and_link(src);
  }
}

// ----------------------------------------------------- arena deserializer

TEST(Fuzz, DeserializerSurvivesRandomBytes) {
  FuzzEnv env;
  adt::ArenaDeserializer deser(&env.adt);
  arena::OwningArena arena(1 << 18);
  std::mt19937_64 rng(kDefaultSeed);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    arena.reset();
    std::string junk = random_bytes(rng, rng() % 200);
    auto obj = deser.deserialize(env.outer, ByteSpan(as_bytes_view(junk)), arena, {});
    if (obj.is_ok()) ++accepted;
  }
  // Random bytes occasionally parse (e.g. empty/skip-only); the point is
  // no crash, and most inputs are rejected.
  EXPECT_LT(accepted, 3000);
}

TEST(Fuzz, DeserializerSurvivesMutatedValidWire) {
  // Mutations of real messages probe deeper code paths than pure noise.
  FuzzEnv env;
  const auto* outer = env.pool.find_message("fz.Outer");
  const auto* inner = env.pool.find_message("fz.Inner");
  std::mt19937_64 rng(kDefaultSeed);

  proto::DynamicMessage m(outer);
  auto* one = m.mutable_message(outer->field_by_name("one"));
  one->set_string(inner->field_by_name("s"), "valid seed message");
  for (int i = 0; i < 30; ++i) one->add_uint64(inner->field_by_name("v"), i * 7);
  for (int i = 0; i < 3; ++i) {
    m.add_message(outer->field_by_name("many"))
        ->set_string(inner->field_by_name("s"), random_ascii(rng, 20));
  }
  m.set_string(outer->field_by_name("name"), "outer");
  m.add_int64(outer->field_by_name("zz"), -5);
  m.set_double(outer->field_by_name("d"), 2.5);
  Bytes seed = proto::WireCodec::serialize(m);

  adt::ArenaDeserializer deser(&env.adt);
  arena::OwningArena arena(1 << 18);
  for (int i = 0; i < 4000; ++i) {
    Bytes wire = seed;
    int mutations = 1 + static_cast<int>(rng() % 4);
    for (int j = 0; j < mutations; ++j) {
      size_t pos = rng() % wire.size();
      switch (rng() % 3) {
        case 0: wire[pos] = static_cast<std::byte>(rng() & 0xff); break;
        case 1: wire.resize(pos); break;  // truncate
        case 2: wire.insert(wire.begin() + static_cast<long>(pos),
                            static_cast<std::byte>(rng() & 0xff));
                break;
      }
      if (wire.empty()) break;
    }
    arena.reset();
    auto obj = deser.deserialize(env.outer, ByteSpan(wire), arena, {});
    if (obj.is_ok()) {
      // Anything accepted must re-serialize without crashing and parse
      // with the reference codec (i.e. the object is self-consistent).
      adt::ObjectSerializer ser(&env.adt);
      Bytes back;
      ASSERT_TRUE(ser.serialize(adt::ObjectRef(env.outer, *obj), back).is_ok());
      proto::DynamicMessage check(outer);
      EXPECT_TRUE(proto::WireCodec::parse(ByteSpan(back), check).is_ok());
    }
  }
}

TEST(Fuzz, ReferenceCodecAgreesOnAcceptReject) {
  // The custom deserializer and the reference codec must accept/reject the
  // same inputs (modulo arena exhaustion, which cannot occur at this size).
  FuzzEnv env;
  const auto* outer = env.pool.find_message("fz.Outer");
  adt::ArenaDeserializer deser(&env.adt);
  arena::OwningArena arena(1 << 18);
  std::mt19937_64 rng(kDefaultSeed + 1);
  for (int i = 0; i < 2000; ++i) {
    std::string junk = random_bytes(rng, rng() % 120);
    arena.reset();
    bool custom_ok =
        deser.deserialize(env.outer, ByteSpan(as_bytes_view(junk)), arena, {}).is_ok();
    proto::DynamicMessage ref(outer);
    bool ref_ok = proto::WireCodec::parse(ByteSpan(as_bytes_view(junk)), ref).is_ok();
    EXPECT_EQ(custom_ok, ref_ok) << "input: " << hex_dump(as_bytes_view(junk), 120);
  }
}

// ------------------------------------------------------------- manifest

TEST(Fuzz, ManifestDeserializeSurvivesCorruption) {
  FuzzEnv env;
  auto manifest = grpccompat::OffloadManifest::build(env.pool,
                                                     arena::StdLibFlavor::kLibstdcpp);
  // No services in the schema: build a tiny one instead.
  proto::DescriptorPool pool;
  proto::SchemaParser parser(pool);
  ASSERT_TRUE(parser
                  .parse_and_link("syntax = \"proto3\"; package z;"
                                  "message A { int32 x = 1; }"
                                  "service S { rpc Do (A) returns (A); }")
                  .is_ok());
  auto m = grpccompat::OffloadManifest::build(pool, arena::StdLibFlavor::kLibstdcpp);
  ASSERT_TRUE(m.is_ok());
  Bytes wire = m->serialize();
  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < 2000; ++i) {
    Bytes bad = wire;
    size_t flips = 1 + rng() % 8;
    for (size_t j = 0; j < flips; ++j) {
      bad[rng() % bad.size()] = static_cast<std::byte>(rng() & 0xff);
    }
    (void)grpccompat::OffloadManifest::deserialize(ByteSpan(bad));  // no crash
  }
  for (size_t cut = 0; cut < wire.size(); cut += 3) {
    (void)grpccompat::OffloadManifest::deserialize(ByteSpan(wire.data(), cut));
  }
}

// ----------------------------------------------------------------- xrpc

TEST(Fuzz, XrpcServerSurvivesGarbageBytes) {
  auto server = xrpc::Server::start(
      xrpc::CallHandler([](xrpc::CallContext ctx) {
        ctx.respond(Code::kOk, ByteSpan(ctx.payload));
      }));
  ASSERT_TRUE(server.is_ok());

  std::mt19937_64 rng(kDefaultSeed);
  for (int i = 0; i < 30; ++i) {
    auto fd = xrpc::dial((*server)->port());
    ASSERT_TRUE(fd.is_ok());
    std::string junk = random_bytes(rng, 1 + rng() % 500);
    // Avoid declaring a huge frame that would make the server block
    // reading forever: clamp the first 4 bytes.
    if (junk.size() >= 4) {
      junk[0] = static_cast<char>(rng() % 64);
      junk[1] = junk[2] = junk[3] = 0;
    }
    (void)xrpc::write_all(*fd, junk.data(), junk.size());
    // Drop the connection; server's reader must clean up.
  }

  // The server must still serve a well-formed client.
  auto chan = xrpc::Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  auto resp = (*chan)->call("any/Method", as_bytes_view("still alive"));
  ASSERT_TRUE(resp.is_ok());
  EXPECT_EQ(as_string_view(ByteSpan(*resp)), "still alive");
}

TEST(Fuzz, XrpcRejectsOversizeFrameDeclaration) {
  auto server = xrpc::Server::start(
      xrpc::CallHandler([](xrpc::CallContext ctx) { ctx.respond(Code::kOk, {}); }));
  ASSERT_TRUE(server.is_ok());
  auto fd = xrpc::dial((*server)->port());
  ASSERT_TRUE(fd.is_ok());
  uint8_t huge[4];
  store_le<uint32_t>(huge, 0x7FFFFFFF);  // > kMaxFrameBody
  ASSERT_TRUE(xrpc::write_all(*fd, huge, 4).is_ok());
  // Server drops the connection instead of trying to allocate 2 GiB; a
  // fresh client still works.
  auto chan = xrpc::Channel::connect((*server)->port());
  ASSERT_TRUE(chan.is_ok());
  EXPECT_TRUE((*chan)->call("m", {}).is_ok());
}

}  // namespace
}  // namespace dpurpc
