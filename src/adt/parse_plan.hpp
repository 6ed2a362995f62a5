// Per-class parse plans: the deserializer's only datapath.
//
// An ADT-driven parser would otherwise pay a binary-search field lookup
// plus a nested type/wire-type/repeated switch for every field of every
// message. A ParsePlan flattens all of that, once per class at ADT load
// time, into a dense table keyed by the full wire *tag* (field number << 3
// | wire type): each slot holds a fused opcode (wire shape × storage op),
// the precomputed destination offset, has-bit mask, auxiliary data (child
// class / element size), and the predicted next tag. Protobuf encoders
// emit fields in ascending field-number order, so the steady-state loop
// is: read tag, hit the predicted slot, dispatch through one flat switch.
//
// Field numbers above kMaxPlanFieldNumber would blow the dense table up
// (8 slots per field number), so their tags live in a small sorted side
// table instead, binary-searched only for tags past the dense table.
// Classes without such fields keep an empty side table. Every class gets
// a plan.
//
// Plans are built lazily (Adt::plans(), which bundles them with the
// serialize plans of serialize_plan.hpp), cached by class index, and
// shared by every deserializer over the same table — the DPU proxy lanes
// and the host compat layer.
#pragma once

#include <cstdint>
#include <vector>

#include "adt/adt.hpp"

namespace dpurpc::adt {

/// Fused dispatch opcode: everything the hot loop switched on at runtime
/// (field type × wire type × repeatedness), resolved at plan-build time.
enum class PlanOp : uint8_t {
  kSkip = 0,        ///< unknown field: skip by the tag's wire type
  kWireMismatch,    ///< known field, non-LEN tag with the wrong wire type
  kScalarLen,       ///< LEN data for a singular scalar (kDataLoss)
  // Singular scalars.
  kVarint32,        ///< int32 / uint32 / enum -> u32 slot
  kVarint64,        ///< int64 / uint64 -> u64 slot
  kVarintSint32,    ///< sint32 (zigzag)
  kVarintSint64,    ///< sint64 (zigzag)
  kVarintBool,      ///< bool -> 1-byte slot
  kFixed32,         ///< fixed32 / sfixed32 / float
  kFixed64,         ///< fixed64 / sfixed64 / double
  // Unpacked occurrences of repeated scalars (one element appended).
  kRepVarint32, kRepVarint64, kRepVarintSint32, kRepVarintSint64,
  kRepVarintBool, kRepFixed32, kRepFixed64,
  // Packed repeated scalars (LEN payload, batch decode).
  kPackedVarint32, kPackedVarint64, kPackedSint32, kPackedSint64,
  kPackedBool, kPackedFixed32, kPackedFixed64,
  // Length-delimited fields.
  kString, kBytes, kRepString, kRepBytes,
  kMessage, kRepMessage,
};

/// One tag's precompiled parse step.
struct PlanSlot {
  PlanOp op = PlanOp::kSkip;
  uint8_t elem_size = 0;   ///< scalar element size (repeated/packed ops)
  uint32_t offset = 0;     ///< field storage offset within the instance
  uint32_t has_mask = 0;   ///< 1 << has_bit, or 0
  uint32_t aux = 0;        ///< child class index (message ops)
  uint32_t next_tag = 0;   ///< predicted next wire tag
};

/// Dense-by-tag parse program for one class, plus the sorted side table
/// for tags of fields numbered above kMaxPlanFieldNumber.
class ParsePlan {
 public:
  /// Slot for `tag`, or nullptr for an unknown tag past the dense table.
  const PlanSlot* slot(uint32_t tag) const noexcept {
    if (tag < slots_.size()) [[likely]] return &slots_[tag];
    return sparse_slot(tag);
  }

  /// Prediction seed: the tag the encoder emits first (lowest field).
  uint32_t first_tag() const noexcept { return first_tag_; }
  uint32_t has_bits_offset() const noexcept { return has_bits_offset_; }
  size_t table_size() const noexcept { return slots_.size(); }

 private:
  friend class ParsePlanSet;

  struct SparseSlot {
    uint32_t tag;
    PlanSlot slot;
  };

  /// Out of line: the hot loop only reaches it past the dense table.
  const PlanSlot* sparse_slot(uint32_t tag) const noexcept;

  std::vector<PlanSlot> slots_;
  std::vector<SparseSlot> sparse_;  ///< sorted by tag; usually empty
  uint32_t first_tag_ = 0;
  uint32_t has_bits_offset_ = 0;
};

/// Field numbers above this get no dense slot (the table would be 8 slots
/// per field number); their tags go to the plan's sorted side table.
inline constexpr uint32_t kMaxPlanFieldNumber = 1024;

/// All of one ADT's plans, indexed by class index.
class ParsePlanSet {
 public:
  /// Compile plans for every class of `adt`.
  static ParsePlanSet build(const Adt& adt);

  /// Plan for a class, or nullptr for an index past the ADT.
  const ParsePlan* for_class(uint32_t class_index) const noexcept {
    return class_index < plans_.size() ? &plans_[class_index] : nullptr;
  }

  size_t plan_count() const noexcept { return plans_.size(); }

 private:
  std::vector<ParsePlan> plans_;
};

}  // namespace dpurpc::adt
