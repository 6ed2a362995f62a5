// Per-class serialize plans: the serializer's only datapath.
//
// A field-table walk would re-derive, for every field of every message,
// the emitted wire tag (a make_tag + varint_size pair), a nested
// type/wire-type/repeated switch, and — worst of all — the body size of
// every sub-message *twice*: once for the enclosing length prefix and
// again when the recursion reaches the child during emission. A
// SerializePlan flattens all of that once per class at ADT load time,
// mirroring ParsePlanSet on the parse side:
//
//   * fields pre-sorted by number (= proto3 canonical emission order)
//     with the tag varint pre-encoded into the plan step;
//   * a fused opcode (field type × repeatedness) replacing the switch
//     tower, and the has-bit mask fused with the default check so
//     presence costs one AND plus one compare;
//   * execution is single-pass-per-direction: one sizing walk that
//     caches every sub-message body size in encounter order, then one
//     emission walk over a pre-sized buffer that consumes the cache —
//     raw-pointer stores, no per-write growth or bounds tests, and
//     packed varint payloads batch through wire::encode_varint_run.
//
// Output is bit-for-bit identical to the reference WireCodec (the
// differential suite in tests/serialize_plan_test.cpp). Plans are built
// lazily together with parse plans (Adt::plans()) and published under the
// same immutable-snapshot contract: const from birth, shared lock-free by
// every serializer.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "adt/adt.hpp"
#include "adt/parse_plan.hpp"
#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"

namespace dpurpc::adt {

/// Fused serialize opcode: field type × repeatedness resolved at plan
/// build time. Singular scalars emit iff the has-mask passes AND the
/// stored bit pattern is nonzero (proto3 presence; zigzag and
/// sign-extension map 0 to 0, so one check covers both layers).
enum class SerOp : uint8_t {
  // Singular.
  kVarintI32 = 0,  ///< int32 / enum: sign-extend u32 slot to u64
  kVarintU32,      ///< uint32: zero-extend
  kVarint64,       ///< int64 / uint64
  kVarintSint32,   ///< sint32 (zigzag32)
  kVarintSint64,   ///< sint64 (zigzag64)
  kVarintBool,     ///< bool: 1-byte slot
  kFixed32,        ///< fixed32 / sfixed32 / float
  kFixed64,        ///< fixed64 / sfixed64 / double
  kString,         ///< string / bytes (skipped when empty)
  kMessage,        ///< singular sub-message (skipped when null)
  // Repeated (presence = element count; has-bits not consulted).
  kPackedI32, kPackedU32, kPacked64, kPackedSint32, kPackedSint64,
  kPackedBool, kPackedFixed32, kPackedFixed64,
  kRepString,      ///< repeated string / bytes (tag per element)
  kRepMessage,     ///< repeated sub-message (tag per element)
};

/// One field's precompiled serialize step.
struct SerField {
  SerOp op = SerOp::kVarintI32;
  uint8_t tag_len = 0;         ///< bytes of tag_bytes in use (1..5)
  uint8_t elem_size = 0;       ///< scalar element size (packed ops)
  uint8_t tag_bytes[5] = {};   ///< the emitted tag, varint-encoded once
  uint32_t offset = 0;         ///< field storage offset in the instance
  uint32_t has_mask = 0;       ///< 1 << has_bit, or 0 = no has-bit check
  uint32_t aux = 0;            ///< child class index (message ops)
};

/// Emission program for one class: steps in ascending field-number order.
class SerializePlan {
 public:
  const std::vector<SerField>& steps() const noexcept { return steps_; }
  uint32_t has_bits_offset() const noexcept { return has_bits_offset_; }

 private:
  friend class SerializePlanSet;
  std::vector<SerField> steps_;
  uint32_t has_bits_offset_ = 0;
};

/// All of one ADT's serialize plans, indexed by class index: one step
/// per field, one plan per class.
class SerializePlanSet {
 public:
  /// Compile plans for every class of `adt`.
  static SerializePlanSet build(const Adt& adt);

  const SerializePlan* for_class(uint32_t class_index) const noexcept {
    return class_index < plans_.size() ? &plans_[class_index] : nullptr;
  }

  size_t plan_count() const noexcept { return plans_.size(); }

  /// Single-pass planned serialization of the object at `base` (an
  /// instance of `class_index` with pointers valid in this address
  /// space): one sizing walk caching sub-message body sizes, one raw
  /// emission walk appending exactly that many bytes to `out`.
  /// kInternal if the walks disagree (the parity assertion).
  Status serialize(const Adt& adt, uint32_t class_index, const void* base,
                   arena::StdLibFlavor flavor, int max_depth, Bytes& out) const;

  /// The sizing walk alone (block sizing; sub-message cache discarded).
  StatusOr<size_t> byte_size(const Adt& adt, uint32_t class_index,
                             const void* base, arena::StdLibFlavor flavor,
                             int max_depth) const;

 private:
  std::vector<SerializePlan> plans_;
};

/// Parse + serialize plans for one ADT snapshot, compiled together and
/// published as one unit by Adt::plans(). Immutable after publication —
/// same contract as each half.
class PlanSet {
 public:
  static PlanSet build(const Adt& adt) {
    PlanSet ps;
    ps.parse_ = ParsePlanSet::build(adt);
    ps.serialize_ = SerializePlanSet::build(adt);
    return ps;
  }

  // Movable exactly once — out of build() and into the shared_ptr the
  // Adt snapshot slot publishes. No copying, no assignment: a published
  // set can never be written through, which is what lets every decode
  // worker read it without a lock (DESIGN.md §3.14).
  PlanSet(PlanSet&&) noexcept = default;
  PlanSet(const PlanSet&) = delete;
  PlanSet& operator=(const PlanSet&) = delete;
  PlanSet& operator=(PlanSet&&) = delete;

  const ParsePlanSet& parse() const noexcept { return parse_; }
  const SerializePlanSet& serialize() const noexcept { return serialize_; }

 private:
  PlanSet() = default;
  ParsePlanSet parse_;
  SerializePlanSet serialize_;
};

// The compile-time half of the immutable-after-publication contract
// (Adt::plans() holds the other static_asserts): nothing can reseat or
// overwrite a PlanSet once it exists.
static_assert(!std::is_copy_assignable_v<PlanSet> &&
                  !std::is_move_assignable_v<PlanSet> &&
                  !std::is_copy_constructible_v<PlanSet>,
              "PlanSet must stay immutable after publication");

}  // namespace dpurpc::adt
