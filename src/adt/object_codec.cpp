#include "adt/object_codec.hpp"

#include <cstring>

#include "adt/serialize_plan.hpp"
#include "common/endian.hpp"
#include "metrics/metrics.hpp"

namespace dpurpc::adt {

namespace {

using proto::FieldType;

/// Process-wide serializer counter (default metrics registry), the
/// response-path mirror of the dpurpc_deser_* family.
metrics::Counter& plan_serializes() {
  static metrics::Counter& c =
      metrics::default_counter("dpurpc_ser_plan_serializes_total",
                               "objects serialized through a compiled plan");
  return c;
}

}  // namespace

Status ObjectSerializer::serialize(ObjectRef ref, Bytes& out) const {
  if (plans_->serialize().for_class(ref.class_index) == nullptr) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  plan_serializes().inc();
  return plans_->serialize().serialize(*adt_, ref.class_index, ref.base, flavor_,
                                       options_.max_recursion_depth, out);
}

StatusOr<size_t> ObjectSerializer::byte_size(ObjectRef ref) const {
  return plans_->serialize().byte_size(*adt_, ref.class_index, ref.base, flavor_,
                                       options_.max_recursion_depth);
}

// ---------------------------------------------------------- LayoutBuilder

StatusOr<LayoutBuilder> LayoutBuilder::create(const Adt* adt, uint32_t class_index,
                                              arena::Arena* arena,
                                              arena::AddressTranslator xlate) {
  if (class_index >= adt->class_count()) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  const ClassEntry& cls = adt->class_at(class_index);
  auto* base = static_cast<std::byte*>(arena->allocate(cls.size, cls.align));
  if (base == nullptr) {
    return Status(Code::kResourceExhausted, "arena full allocating instance");
  }
  std::memcpy(base, cls.default_bytes.data(), cls.size);
  return LayoutBuilder(adt, class_index, base, arena, xlate);
}

StatusOr<const FieldEntry*> LayoutBuilder::find_field(uint32_t number, bool repeated) const {
  const FieldEntry* f = adt_->class_at(class_index_).field_by_number(number);
  if (f == nullptr) return Status(Code::kNotFound, "no such field number");
  if (f->repeated != repeated) {
    return Status(Code::kInvalidArgument, repeated ? "field is not repeated"
                                                   : "field is repeated");
  }
  return f;
}

void LayoutBuilder::set_has_bit(const FieldEntry& f) {
  if (f.has_bit < 0) return;
  const ClassEntry& cls = adt_->class_at(class_index_);
  auto* word = reinterpret_cast<uint32_t*>(base_ + cls.has_bits_offset);
  *word |= 1u << f.has_bit;
}

Status LayoutBuilder::set_int64(uint32_t number, int64_t v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (scalar_elem_size(f->type) == 4) {
    store_le(base_ + f->offset, static_cast<uint32_t>(static_cast<int32_t>(v)));
  } else {
    store_le(base_ + f->offset, static_cast<uint64_t>(v));
  }
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_uint64(uint32_t number, uint64_t v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (f->type == FieldType::kBool) {
    *reinterpret_cast<uint8_t*>(base_ + f->offset) = v != 0 ? 1 : 0;
  } else if (scalar_elem_size(f->type) == 4) {
    store_le(base_ + f->offset, static_cast<uint32_t>(v));
  } else {
    store_le(base_ + f->offset, v);
  }
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_bool(uint32_t number, bool v) {
  return set_uint64(number, v ? 1 : 0);
}

Status LayoutBuilder::set_float(uint32_t number, float v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (f->type != FieldType::kFloat) {
    return Status(Code::kInvalidArgument, "field is not float");
  }
  std::memcpy(base_ + f->offset, &v, 4);
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_double(uint32_t number, double v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (f->type != FieldType::kDouble) {
    return Status(Code::kInvalidArgument, "field is not double");
  }
  std::memcpy(base_ + f->offset, &v, 8);
  set_has_bit(*f);
  return Status::ok();
}

Status LayoutBuilder::set_string(uint32_t number, std::string_view v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (f->type != FieldType::kString && f->type != FieldType::kBytes) {
    return Status(Code::kInvalidArgument, "field is not string/bytes");
  }
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  DPURPC_RETURN_IF_ERROR(
      arena::craft_string(base_ + f->offset, v, *arena_, xlate_, flavor));
  set_has_bit(*f);
  return Status::ok();
}

StatusOr<LayoutBuilder> LayoutBuilder::mutable_message(uint32_t number) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, false));
  if (f->type != FieldType::kMessage) {
    return Status(Code::kInvalidArgument, "field is not a message");
  }
  auto* existing =
      reinterpret_cast<std::byte*>(load_le<uint64_t>(base_ + f->offset));
  if (existing != nullptr) {
    // The stored pointer is receiver-space; undo the translation.
    return LayoutBuilder(adt_, f->child_class, local(existing), arena_, xlate_);
  }
  auto child = create(adt_, f->child_class, arena_, xlate_);
  if (!child.is_ok()) return child.status();
  store_le(base_ + f->offset,
           static_cast<uint64_t>(xlate_.translate_addr(child->object())));
  set_has_bit(*f);
  return child;
}

Status LayoutBuilder::add_scalar_slow(uint32_t number, uint64_t raw_value) {
  if (last_rep_ == nullptr || number != last_number_) {
    DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, true));
    if (!proto::is_packable(f->type)) {
      return Status(Code::kInvalidArgument, "field is not a repeated scalar");
    }
    last_rep_ = reinterpret_cast<RepHeader*>(base_ + f->offset);
    last_number_ = number;
    last_elem_ = scalar_elem_size(f->type);
  }
  if (last_rep_->size == last_rep_->capacity) {
    DPURPC_RETURN_IF_ERROR(grow(*last_rep_, last_elem_));
  }
  store_element(*last_rep_, last_elem_, raw_value);
  return Status::ok();
}

Status LayoutBuilder::grow(RepHeader& h, uint32_t elem) {
  const uint32_t new_cap = h.capacity ? h.capacity * 2 : 8;
  if (h.capacity > 0) {
    std::byte* end = local(h.data) + static_cast<size_t>(h.capacity) * elem;
    if (arena_->extend(end, static_cast<size_t>(new_cap - h.capacity) * elem)) {
      h.capacity = new_cap;
      return Status::ok();
    }
  }
  void* fresh = arena_->allocate(static_cast<size_t>(new_cap) * elem, elem);
  if (fresh == nullptr) return Status(Code::kResourceExhausted, "arena full");
  if (h.size > 0) std::memcpy(fresh, local(h.data), static_cast<size_t>(h.size) * elem);
  h.data = reinterpret_cast<void*>(xlate_.translate_addr(fresh));
  h.capacity = new_cap;
  return Status::ok();
}

Status LayoutBuilder::add_string(uint32_t number, std::string_view v) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, true));
  if (f->type != FieldType::kString && f->type != FieldType::kBytes) {
    return Status(Code::kInvalidArgument, "field is not repeated string/bytes");
  }
  uint32_t slot_size = adt_->fingerprint().string_size;
  void* slot = arena_->allocate(slot_size, 8);
  if (slot == nullptr) return Status(Code::kResourceExhausted, "arena full");
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  DPURPC_RETURN_IF_ERROR(arena::craft_string(slot, v, *arena_, xlate_, flavor));

  auto& h = *reinterpret_cast<RepHeader*>(base_ + f->offset);
  if (h.size == h.capacity) DPURPC_RETURN_IF_ERROR(grow(h, sizeof(void*)));
  reinterpret_cast<void**>(local(h.data))[h.size++] =
      reinterpret_cast<void*>(xlate_.translate_addr(slot));
  return Status::ok();
}

StatusOr<LayoutBuilder> LayoutBuilder::add_message(uint32_t number) {
  DPURPC_ASSIGN_OR_RETURN(const FieldEntry* f, find_field(number, true));
  if (f->type != FieldType::kMessage) {
    return Status(Code::kInvalidArgument, "field is not a repeated message");
  }
  auto child = create(adt_, f->child_class, arena_, xlate_);
  if (!child.is_ok()) return child.status();

  auto& h = *reinterpret_cast<RepHeader*>(base_ + f->offset);
  if (h.size == h.capacity) DPURPC_RETURN_IF_ERROR(grow(h, sizeof(void*)));
  reinterpret_cast<void**>(local(h.data))[h.size++] =
      reinterpret_cast<void*>(xlate_.translate_addr(child->object()));
  return child;
}

}  // namespace dpurpc::adt
