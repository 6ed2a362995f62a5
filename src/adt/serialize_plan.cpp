#include "adt/serialize_plan.hpp"

#include <algorithm>
#include <cstring>

#include "common/endian.hpp"
#include "wire/varint.hpp"
#include "wire/varint_batch.hpp"
#include "wire/wire_format.hpp"

namespace dpurpc::adt {

namespace {

using proto::FieldType;

SerOp singular_op(FieldType t) noexcept {
  switch (t) {
    case FieldType::kInt32:
    case FieldType::kEnum: return SerOp::kVarintI32;
    case FieldType::kUint32: return SerOp::kVarintU32;
    case FieldType::kInt64:
    case FieldType::kUint64: return SerOp::kVarint64;
    case FieldType::kSint32: return SerOp::kVarintSint32;
    case FieldType::kSint64: return SerOp::kVarintSint64;
    case FieldType::kBool: return SerOp::kVarintBool;
    case FieldType::kFloat:
    case FieldType::kFixed32:
    case FieldType::kSfixed32: return SerOp::kFixed32;
    case FieldType::kDouble:
    case FieldType::kFixed64:
    case FieldType::kSfixed64: return SerOp::kFixed64;
    case FieldType::kString:
    case FieldType::kBytes: return SerOp::kString;
    default: return SerOp::kMessage;
  }
}

SerOp repeated_op(FieldType t) noexcept {
  switch (t) {
    case FieldType::kInt32:
    case FieldType::kEnum: return SerOp::kPackedI32;
    case FieldType::kUint32: return SerOp::kPackedU32;
    case FieldType::kInt64:
    case FieldType::kUint64: return SerOp::kPacked64;
    case FieldType::kSint32: return SerOp::kPackedSint32;
    case FieldType::kSint64: return SerOp::kPackedSint64;
    case FieldType::kBool: return SerOp::kPackedBool;
    case FieldType::kFloat:
    case FieldType::kFixed32:
    case FieldType::kSfixed32: return SerOp::kPackedFixed32;
    case FieldType::kDouble:
    case FieldType::kFixed64:
    case FieldType::kSfixed64: return SerOp::kPackedFixed64;
    case FieldType::kString:
    case FieldType::kBytes: return SerOp::kRepString;
    default: return SerOp::kRepMessage;
  }
}

// ------------------------------------------------- packed varint batches

/// Transform chunk size: bounds the wire-value scratch so deep message
/// recursion does not stack large frames (the buffer lives only in the
/// two leaf helpers below).
constexpr uint32_t kEncChunk = 256;

/// Tags are uint32 varints, so at most 5 bytes pre-encoded per step.
constexpr size_t kMaxTagBytes = 5;

/// Stored elements [i0, i0+n) -> the u64 values the varint encoder takes.
void load_wire_values(SerOp op, uint32_t elem, const std::byte* data,
                      uint32_t i0, uint32_t n, uint64_t* out) noexcept {
  const std::byte* p = data + static_cast<size_t>(i0) * elem;
  switch (op) {
    case SerOp::kPackedI32:
      for (uint32_t k = 0; k < n; ++k) {
        out[k] = static_cast<uint64_t>(static_cast<int64_t>(
            static_cast<int32_t>(load_le<uint32_t>(p + k * 4u))));
      }
      break;
    case SerOp::kPackedU32:
      for (uint32_t k = 0; k < n; ++k) out[k] = load_le<uint32_t>(p + k * 4u);
      break;
    case SerOp::kPackedSint32:
      for (uint32_t k = 0; k < n; ++k) {
        out[k] = wire::zigzag_encode32(
            static_cast<int32_t>(load_le<uint32_t>(p + k * 4u)));
      }
      break;
    case SerOp::kPackedSint64:
      for (uint32_t k = 0; k < n; ++k) {
        out[k] = wire::zigzag_encode64(
            static_cast<int64_t>(load_le<uint64_t>(p + k * 8u)));
      }
      break;
    case SerOp::kPackedBool:
      for (uint32_t k = 0; k < n; ++k) {
        out[k] = reinterpret_cast<const uint8_t*>(p)[k] != 0 ? 1 : 0;
      }
      break;
    default:  // kPacked64
      for (uint32_t k = 0; k < n; ++k) out[k] = load_le<uint64_t>(p + k * 8u);
      break;
  }
}

size_t packed_varint_body_size(SerOp op, uint32_t elem, const std::byte* data,
                               uint32_t count) noexcept {
  uint64_t vals[kEncChunk];
  size_t body = 0;
  for (uint32_t i = 0; i < count; i += kEncChunk) {
    const uint32_t take = std::min(kEncChunk, count - i);
    load_wire_values(op, elem, data, i, take, vals);
    body += wire::varint_size_run(vals, take);
  }
  return body;
}

/// Append `n` bytes to `out`. Capacity is reserved up front by
/// serialize(), so every call is a straight memcpy + size bump — and,
/// unlike emitting into a resize()d buffer, no byte is ever written twice
/// (resize() would zero-fill the whole body before the walk overwrites
/// it, which costs real bandwidth on memcpy-bound payloads).
inline void append_raw(Bytes& out, const void* src, size_t n) {
  const auto* b = static_cast<const std::byte*>(src);
  out.insert(out.end(), b, b + n);
}

void emit_packed_varints(SerOp op, uint32_t elem, const std::byte* data,
                         uint32_t count, Bytes& out) {
  uint64_t vals[kEncChunk];
  // Staged through an L1-resident scratch with 8 bytes of headroom past
  // the worst case, so encode_varint_run's 8-byte-store fast path never
  // has to fall back near the end.
  uint8_t tmp[kEncChunk * wire::kMaxVarint64Bytes + 8];
  for (uint32_t i = 0; i < count; i += kEncChunk) {
    const uint32_t take = std::min(kEncChunk, count - i);
    load_wire_values(op, elem, data, i, take, vals);
    uint8_t* e = wire::encode_varint_run(tmp, tmp + sizeof(tmp), vals, take);
    append_raw(out, tmp, static_cast<size_t>(e - tmp));
  }
}

void emit_packed_bools(const std::byte* data, uint32_t count, Bytes& out) {
  uint8_t tmp[kEncChunk];
  for (uint32_t i = 0; i < count; i += kEncChunk) {
    const uint32_t take = std::min(kEncChunk, count - i);
    for (uint32_t k = 0; k < take; ++k) {
      tmp[k] = reinterpret_cast<const uint8_t*>(data)[i + k] != 0 ? 1 : 0;
    }
    append_raw(out, tmp, take);
  }
}

// --------------------------------------------------------- plan executor

struct ExecCtx {
  const Adt* adt;
  const SerializePlanSet* set;
  arena::StdLibFlavor flavor;
  int max_depth;
  /// Body sizes (sub-messages and packed varint payloads) in traversal
  /// (pre-)order: reserved when the sizing walk encounters the field,
  /// filled once computed, and consumed at the same position by the
  /// emission walk — the cache that makes the plan path single-pass per
  /// direction instead of re-sizing every length-prefixed body on emit.
  std::vector<size_t> sub_sizes;
};

/// Singular scalar wire value for `op` (stored bits already known nonzero).
uint64_t singular_wire_value(SerOp op, const std::byte* p) noexcept {
  switch (op) {
    case SerOp::kVarintI32:
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(load_le<uint32_t>(p))));
    case SerOp::kVarintU32:
      return load_le<uint32_t>(p);
    case SerOp::kVarintSint32:
      return wire::zigzag_encode32(static_cast<int32_t>(load_le<uint32_t>(p)));
    case SerOp::kVarintSint64:
      return wire::zigzag_encode64(static_cast<int64_t>(load_le<uint64_t>(p)));
    case SerOp::kVarintBool:
      return *reinterpret_cast<const uint8_t*>(p) != 0 ? 1 : 0;
    default:  // kVarint64
      return load_le<uint64_t>(p);
  }
}

bool stored_is_zero(uint32_t elem, const std::byte* p) noexcept {
  // Bit-pattern zero is the proto3 default for every scalar (so -0.0
  // floats are emitted, matching protobuf).
  return elem == 1   ? *reinterpret_cast<const uint8_t*>(p) == 0
         : elem == 4 ? load_le<uint32_t>(p) == 0
                     : load_le<uint64_t>(p) == 0;
}

StatusOr<size_t> size_walk(ExecCtx& ctx, const SerializePlan& plan,
                           const std::byte* base, int depth) {
  if (depth > ctx.max_depth) {
    return Status(Code::kInternal, "object nesting too deep");
  }
  const uint32_t has_word = load_le<uint32_t>(base + plan.has_bits_offset());
  size_t total = 0;
  for (const SerField& s : plan.steps()) {
    const std::byte* p = base + s.offset;
    if (s.op >= SerOp::kPackedI32) {  // repeated shapes
      RepHeader h;
      std::memcpy(&h, p, sizeof(h));
      if (h.size == 0) continue;
      const auto* data = static_cast<const std::byte*>(h.data);
      switch (s.op) {
        case SerOp::kPackedFixed32:
        case SerOp::kPackedFixed64: {
          const size_t body = static_cast<size_t>(h.size) * s.elem_size;
          total += s.tag_len + wire::varint_size(body) + body;
          break;
        }
        case SerOp::kRepString: {
          auto* const* elems = static_cast<void* const*>(h.data);
          for (uint32_t i = 0; i < h.size; ++i) {
            auto sv = arena::read_crafted_string(elems[i], ctx.flavor);
            if (!sv.is_ok()) return sv.status();
            total += s.tag_len + wire::varint_size(sv->size()) + sv->size();
          }
          break;
        }
        case SerOp::kRepMessage: {
          const SerializePlan* child = ctx.set->for_class(s.aux);
          if (child == nullptr) {
            return Status(Code::kInternal, "serialize plan missing for child class");
          }
          auto* const* elems = static_cast<void* const*>(h.data);
          for (uint32_t i = 0; i < h.size; ++i) {
            const size_t slot = ctx.sub_sizes.size();
            ctx.sub_sizes.push_back(0);
            auto body = size_walk(ctx, *child,
                                  static_cast<const std::byte*>(elems[i]),
                                  depth + 1);
            if (!body.is_ok()) return body.status();
            ctx.sub_sizes[slot] = *body;
            total += s.tag_len + wire::varint_size(*body) + *body;
          }
          break;
        }
        case SerOp::kPackedBool:
          // Bools encode to one byte each whatever the stored value.
          total += s.tag_len + wire::varint_size(h.size) + h.size;
          break;
        default: {  // packed varints: body size cached like sub-messages
          const size_t body = packed_varint_body_size(s.op, s.elem_size, data, h.size);
          ctx.sub_sizes.push_back(body);
          total += s.tag_len + wire::varint_size(body) + body;
          break;
        }
      }
      continue;
    }
    // Singular: fused presence — has-mask AND default check.
    if (s.has_mask != 0 && (has_word & s.has_mask) == 0) continue;
    switch (s.op) {
      case SerOp::kString: {
        auto sv = arena::read_crafted_string(p, ctx.flavor);
        if (!sv.is_ok()) return sv.status();
        if (sv->empty()) continue;
        total += s.tag_len + wire::varint_size(sv->size()) + sv->size();
        break;
      }
      case SerOp::kMessage: {
        const auto* obj = reinterpret_cast<const std::byte*>(load_le<uint64_t>(p));
        if (obj == nullptr) continue;
        const SerializePlan* child = ctx.set->for_class(s.aux);
        if (child == nullptr) {
          return Status(Code::kInternal, "serialize plan missing for child class");
        }
        const size_t slot = ctx.sub_sizes.size();
        ctx.sub_sizes.push_back(0);
        auto body = size_walk(ctx, *child, obj, depth + 1);
        if (!body.is_ok()) return body.status();
        ctx.sub_sizes[slot] = *body;
        total += s.tag_len + wire::varint_size(*body) + *body;
        break;
      }
      case SerOp::kFixed32:
        if (stored_is_zero(4, p)) continue;
        total += s.tag_len + 4u;
        break;
      case SerOp::kFixed64:
        if (stored_is_zero(8, p)) continue;
        total += s.tag_len + 8u;
        break;
      default:  // singular varints
        if (stored_is_zero(s.elem_size, p)) continue;
        total += s.tag_len + wire::varint_size(singular_wire_value(s.op, p));
        break;
    }
  }
  return total;
}

/// Stage a tag + length prefix (or tag + scalar varint) into a small stack
/// buffer and append it in one shot. Worst case: 5 tag bytes + 10 varint
/// bytes.
inline void append_tag_varint(Bytes& out, const SerField& s, uint64_t value) {
  uint8_t tmp[kMaxTagBytes + wire::kMaxVarint64Bytes];
  std::memcpy(tmp, s.tag_bytes, s.tag_len);
  uint8_t* e = wire::encode_varint(tmp + s.tag_len, value);
  append_raw(out, tmp, static_cast<size_t>(e - tmp));
}

Status emit_walk(ExecCtx& ctx, const SerializePlan& plan, const std::byte* base,
                 int depth, Bytes& out, size_t& cursor) {
  if (depth > ctx.max_depth) {
    return Status(Code::kInternal, "object nesting too deep");
  }
  const uint32_t has_word = load_le<uint32_t>(base + plan.has_bits_offset());
  for (const SerField& s : plan.steps()) {
    const std::byte* fp = base + s.offset;
    if (s.op >= SerOp::kPackedI32) {
      RepHeader h;
      std::memcpy(&h, fp, sizeof(h));
      if (h.size == 0) continue;
      const auto* data = static_cast<const std::byte*>(h.data);
      switch (s.op) {
        case SerOp::kPackedFixed32:
        case SerOp::kPackedFixed64: {
          const size_t body = static_cast<size_t>(h.size) * s.elem_size;
          append_tag_varint(out, s, body);
          append_raw(out, data, body);  // storage is wire-endian (LE host)
          break;
        }
        case SerOp::kRepString: {
          auto* const* elems = static_cast<void* const*>(h.data);
          for (uint32_t i = 0; i < h.size; ++i) {
            auto sv = arena::read_crafted_string(elems[i], ctx.flavor);
            if (!sv.is_ok()) return sv.status();
            append_tag_varint(out, s, sv->size());
            append_raw(out, sv->data(), sv->size());
          }
          break;
        }
        case SerOp::kRepMessage: {
          const SerializePlan* child = ctx.set->for_class(s.aux);
          auto* const* elems = static_cast<void* const*>(h.data);
          for (uint32_t i = 0; i < h.size; ++i) {
            if (cursor >= ctx.sub_sizes.size()) {
              return Status(Code::kInternal, "serialize plan sub-size cache exhausted");
            }
            append_tag_varint(out, s, ctx.sub_sizes[cursor++]);
            DPURPC_RETURN_IF_ERROR(
                emit_walk(ctx, *child, static_cast<const std::byte*>(elems[i]),
                          depth + 1, out, cursor));
          }
          break;
        }
        case SerOp::kPackedBool: {
          append_tag_varint(out, s, h.size);
          emit_packed_bools(data, h.size, out);
          break;
        }
        default: {  // packed varints: body size comes from the sizing walk
          if (cursor >= ctx.sub_sizes.size()) {
            return Status(Code::kInternal, "serialize plan sub-size cache exhausted");
          }
          append_tag_varint(out, s, ctx.sub_sizes[cursor++]);
          emit_packed_varints(s.op, s.elem_size, data, h.size, out);
          break;
        }
      }
      continue;
    }
    if (s.has_mask != 0 && (has_word & s.has_mask) == 0) continue;
    switch (s.op) {
      case SerOp::kString: {
        auto sv = arena::read_crafted_string(fp, ctx.flavor);
        if (!sv.is_ok()) return sv.status();
        if (sv->empty()) continue;
        append_tag_varint(out, s, sv->size());
        append_raw(out, sv->data(), sv->size());
        break;
      }
      case SerOp::kMessage: {
        const auto* obj = reinterpret_cast<const std::byte*>(load_le<uint64_t>(fp));
        if (obj == nullptr) continue;
        const SerializePlan* child = ctx.set->for_class(s.aux);
        if (cursor >= ctx.sub_sizes.size()) {
          return Status(Code::kInternal, "serialize plan sub-size cache exhausted");
        }
        append_tag_varint(out, s, ctx.sub_sizes[cursor++]);
        DPURPC_RETURN_IF_ERROR(emit_walk(ctx, *child, obj, depth + 1, out, cursor));
        break;
      }
      case SerOp::kFixed32: {
        if (stored_is_zero(4, fp)) continue;
        uint8_t tmp[kMaxTagBytes + 4];
        std::memcpy(tmp, s.tag_bytes, s.tag_len);
        std::memcpy(tmp + s.tag_len, fp, 4);
        append_raw(out, tmp, s.tag_len + 4u);
        break;
      }
      case SerOp::kFixed64: {
        if (stored_is_zero(8, fp)) continue;
        uint8_t tmp[kMaxTagBytes + 8];
        std::memcpy(tmp, s.tag_bytes, s.tag_len);
        std::memcpy(tmp + s.tag_len, fp, 8);
        append_raw(out, tmp, s.tag_len + 8u);
        break;
      }
      default:
        if (stored_is_zero(s.elem_size, fp)) continue;
        append_tag_varint(out, s, singular_wire_value(s.op, fp));
        break;
    }
  }
  return Status::ok();
}

}  // namespace

SerializePlanSet SerializePlanSet::build(const Adt& adt) {
  SerializePlanSet set;
  set.plans_.resize(adt.class_count());
  for (uint32_t ci = 0; ci < adt.class_count(); ++ci) {
    const ClassEntry& cls = adt.class_at(ci);
    SerializePlan& plan = set.plans_[ci];
    plan.has_bits_offset_ = cls.has_bits_offset;
    plan.steps_.reserve(cls.fields.size());
    for (const FieldEntry& f : cls.fields) {  // already sorted by number
      SerField s;
      s.op = f.repeated ? repeated_op(f.type) : singular_op(f.type);
      s.elem_size = static_cast<uint8_t>(scalar_elem_size(f.type));
      s.offset = f.offset;
      // has_mask == 0 means "no has-bit check" (a field with has_bit < 0
      // is always present); repeated fields key on element count.
      s.has_mask = (!f.repeated && f.has_bit >= 0) ? 1u << f.has_bit : 0;
      s.aux = f.child_class;
      const uint32_t tag = proto::emitted_tag(f.number, f.type, f.repeated);
      uint8_t* tag_end = wire::encode_varint(s.tag_bytes, tag);
      s.tag_len = static_cast<uint8_t>(tag_end - s.tag_bytes);
      plan.steps_.push_back(s);
    }
  }
  return set;
}

Status SerializePlanSet::serialize(const Adt& adt, uint32_t class_index,
                                   const void* base, arena::StdLibFlavor flavor,
                                   int max_depth, Bytes& out) const {
  const SerializePlan* plan = for_class(class_index);
  if (plan == nullptr) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  ExecCtx ctx{&adt, this, flavor, max_depth, {}};
  auto total = size_walk(ctx, *plan, static_cast<const std::byte*>(base), 0);
  if (!total.is_ok()) return total.status();

  // Reserve (not resize) so no byte is written twice: resize() would
  // zero-fill the whole body only for the emit walk to overwrite it,
  // which measurably loses on memcpy-bound payloads. The walk appends —
  // bulk payloads go straight from source storage to `out`, control
  // bytes and varint runs stage through small stack buffers.
  const size_t old_size = out.size();
  out.reserve(old_size + *total);
  size_t cursor = 0;
  Status st = emit_walk(ctx, *plan, static_cast<const std::byte*>(base), 0,
                        out, cursor);
  if (!st.is_ok()) {
    out.resize(old_size);
    return st;
  }
  // The parity assertion: the emission walk must land exactly on the
  // sizing walk's total with every cached sub-size consumed.
  if (out.size() - old_size != *total || cursor != ctx.sub_sizes.size()) {
    out.resize(old_size);
    return Status(Code::kInternal, "serialize plan size/emit walk mismatch");
  }
  return Status::ok();
}

StatusOr<size_t> SerializePlanSet::byte_size(const Adt& adt, uint32_t class_index,
                                             const void* base,
                                             arena::StdLibFlavor flavor,
                                             int max_depth) const {
  const SerializePlan* plan = for_class(class_index);
  if (plan == nullptr) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  ExecCtx ctx{&adt, this, flavor, max_depth, {}};
  return size_walk(ctx, *plan, static_cast<const std::byte*>(base), 0);
}

}  // namespace dpurpc::adt
