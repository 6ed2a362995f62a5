#include "adt/parse_plan.hpp"

#include <algorithm>

#include "proto/descriptor.hpp"
#include "wire/wire_format.hpp"

namespace dpurpc::adt {

namespace {

using proto::FieldType;
using wire::WireType;

/// Opcode for a scalar field's canonical (non-LEN) tag.
PlanOp scalar_op(FieldType t, bool repeated) noexcept {
  switch (proto::wire_type_for(t)) {
    case WireType::kFixed32:
      return repeated ? PlanOp::kRepFixed32 : PlanOp::kFixed32;
    case WireType::kFixed64:
      return repeated ? PlanOp::kRepFixed64 : PlanOp::kFixed64;
    default:
      break;
  }
  switch (t) {
    case FieldType::kBool:
      return repeated ? PlanOp::kRepVarintBool : PlanOp::kVarintBool;
    case FieldType::kSint32:
      return repeated ? PlanOp::kRepVarintSint32 : PlanOp::kVarintSint32;
    case FieldType::kSint64:
      return repeated ? PlanOp::kRepVarintSint64 : PlanOp::kVarintSint64;
    case FieldType::kInt64:
    case FieldType::kUint64:
      return repeated ? PlanOp::kRepVarint64 : PlanOp::kVarint64;
    default:  // int32 / uint32 / enum: u32 storage, two's complement
      return repeated ? PlanOp::kRepVarint32 : PlanOp::kVarint32;
  }
}

/// Opcode for a packed-scalar LEN payload.
PlanOp packed_op(FieldType t) noexcept {
  switch (proto::wire_type_for(t)) {
    case WireType::kFixed32: return PlanOp::kPackedFixed32;
    case WireType::kFixed64: return PlanOp::kPackedFixed64;
    default: break;
  }
  switch (t) {
    case FieldType::kBool: return PlanOp::kPackedBool;
    case FieldType::kSint32: return PlanOp::kPackedSint32;
    case FieldType::kSint64: return PlanOp::kPackedSint64;
    case FieldType::kInt64:
    case FieldType::kUint64: return PlanOp::kPackedVarint64;
    default: return PlanOp::kPackedVarint32;
  }
}

constexpr WireType kAllWireTypes[] = {WireType::kVarint, WireType::kFixed64,
                                      WireType::kLengthDelimited, WireType::kFixed32};

}  // namespace

const PlanSlot* ParsePlan::sparse_slot(uint32_t tag) const noexcept {
  auto it = std::lower_bound(
      sparse_.begin(), sparse_.end(), tag,
      [](const SparseSlot& s, uint32_t t) { return s.tag < t; });
  return it != sparse_.end() && it->tag == tag ? &it->slot : nullptr;
}

ParsePlanSet ParsePlanSet::build(const Adt& adt) {
  ParsePlanSet set;
  set.plans_.resize(adt.class_count());

  for (uint32_t ci = 0; ci < adt.class_count(); ++ci) {
    const ClassEntry& cls = adt.class_at(ci);
    ParsePlan& plan = set.plans_[ci];
    plan.has_bits_offset_ = cls.has_bits_offset;
    uint32_t max_dense = 0;
    for (const FieldEntry& f : cls.fields) {
      if (f.number <= kMaxPlanFieldNumber) max_dense = std::max(max_dense, f.number);
    }
    plan.slots_.assign((static_cast<size_t>(max_dense) + 1) << 3, PlanSlot{});

    for (size_t fi = 0; fi < cls.fields.size(); ++fi) {
      const FieldEntry& f = cls.fields[fi];
      // Prediction heuristic: encoders emit fields in ascending order, and
      // repeated non-packed fields repeat their own tag; everything else
      // predicts the next field's emitted tag (wrapping to the first).
      const FieldEntry& next =
          cls.fields[(fi + 1) % cls.fields.size()];
      uint32_t next_emitted = proto::emitted_tag(next.number, next.type, next.repeated);
      bool self_repeats =
          f.repeated && (f.type == FieldType::kString || f.type == FieldType::kBytes ||
                         f.type == FieldType::kMessage);
      uint32_t self_tag = proto::emitted_tag(f.number, f.type, f.repeated);
      uint32_t predicted = self_repeats ? self_tag : next_emitted;

      for (WireType wt : kAllWireTypes) {
        PlanSlot s;
        s.offset = f.offset;
        s.has_mask = (!f.repeated && f.has_bit >= 0)
                         ? (1u << static_cast<uint32_t>(f.has_bit))
                         : 0;
        s.elem_size = static_cast<uint8_t>(scalar_elem_size(f.type));
        s.aux = f.child_class;
        s.next_tag = predicted;

        bool is_len_field = f.type == FieldType::kString ||
                            f.type == FieldType::kBytes ||
                            f.type == FieldType::kMessage;
        if (wt == WireType::kLengthDelimited) {
          if (f.type == FieldType::kString) {
            s.op = f.repeated ? PlanOp::kRepString : PlanOp::kString;
          } else if (f.type == FieldType::kBytes) {
            s.op = f.repeated ? PlanOp::kRepBytes : PlanOp::kBytes;
          } else if (f.type == FieldType::kMessage) {
            s.op = f.repeated ? PlanOp::kRepMessage : PlanOp::kMessage;
          } else if (f.repeated) {
            s.op = packed_op(f.type);  // packed scalar payload
          } else {
            s.op = PlanOp::kScalarLen;  // LEN data for a singular scalar
          }
        } else if (is_len_field || wt != proto::wire_type_for(f.type)) {
          s.op = PlanOp::kWireMismatch;
        } else {
          s.op = scalar_op(f.type, f.repeated);
          if (f.repeated) s.next_tag = self_tag;  // unpacked runs repeat
        }

        // Fields are sorted by number and kAllWireTypes ascends, so the
        // side table fills in tag order.
        uint32_t tag = wire::make_tag(f.number, wt);
        if (f.number <= kMaxPlanFieldNumber) {
          plan.slots_[tag] = s;
        } else {
          plan.sparse_.push_back({tag, s});
        }
      }
    }

    if (!cls.fields.empty()) {
      const FieldEntry& first = cls.fields.front();
      plan.first_tag_ = proto::emitted_tag(first.number, first.type, first.repeated);
    }
  }
  return set;
}

}  // namespace dpurpc::adt
