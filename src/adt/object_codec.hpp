// ADT-driven object codec: the serialization half of the offload.
//
// The paper offloads request deserialization and notes that response
// serialization "can be implemented similarly in our design" (§III.A).
// This module supplies the two missing pieces:
//
//   * ObjectSerializer — walks an in-memory object *described by the ADT*
//     (no compiled-in classes) and emits proto3 wire bytes. On the DPU it
//     turns an in-place response object back into the bytes the xRPC
//     client expects; it is also the round-trip oracle for tests.
//
//   * LayoutBuilder — constructs such objects field by field into an
//     arena (the write-side mirror of LayoutView): how a host handler
//     builds an in-place response without any generated class.
#pragma once

#include "adt/adt.hpp"
#include "adt/arena_deserializer.hpp"
#include "adt/codec_options.hpp"
#include "arena/arena.hpp"
#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/endian.hpp"
#include "common/hot_path.hpp"
#include "common/status.hpp"

namespace dpurpc::adt {

class LayoutBuilder;

/// Typed handle to a serializable object: the class index bound to the
/// instance base. The serializer entry points take this instead of a raw
/// (index, pointer) pair, so code coming from a LayoutBuilder or
/// LayoutView cannot pass a mismatched index — the conversion reads both
/// halves from the same source.
struct ObjectRef {
  uint32_t class_index = 0;
  const void* base = nullptr;

  constexpr ObjectRef() = default;
  constexpr ObjectRef(uint32_t ci, const void* b) noexcept
      : class_index(ci), base(b) {}
  /// The object under construction in `b` (implicit: the builder *is* the
  /// object for serialization purposes).
  ObjectRef(const LayoutBuilder& b) noexcept;  // NOLINT(google-explicit-constructor)
  ObjectRef(const LayoutView& v) noexcept      // NOLINT(google-explicit-constructor)
      : class_index(v.class_index()), base(v.object()) {}
};

class ObjectSerializer {
 public:
  /// `adt` must outlive the serializer. The constructor captures the
  /// ADT's compiled-plan snapshot (Adt::plans()); serialization runs the
  /// single-pass planned path (serialize_plan.hpp).
  explicit ObjectSerializer(const Adt* adt, CodecOptions options = {})
      : adt_(adt),
        flavor_(static_cast<arena::StdLibFlavor>(adt->fingerprint().string_flavor)),
        options_(options),
        plans_(adt->plans()) {}

  /// Serialize the object `ref` points at (pointers valid in this address
  /// space) to proto3 wire format, appending to `out`. Fields are emitted
  /// in field-number order with proto3 presence semantics (has-bit set
  /// AND value != default), which makes the output byte-identical to the
  /// reference WireCodec.
  Status serialize(ObjectRef ref, Bytes& out) const;

  /// Serialized size without emitting (block sizing).
  StatusOr<size_t> byte_size(ObjectRef ref) const;

 private:
  const Adt* adt_;
  arena::StdLibFlavor flavor_;
  CodecOptions options_;
  std::shared_ptr<const PlanSet> plans_;  ///< captured at construction
};

/// Write-side access to a synthesized-layout object under construction in
/// an arena. Allocates the instance (defaults copied in) on creation.
class LayoutBuilder {
 public:
  /// Allocate and default-initialize an instance of `class_index` in
  /// `arena`. Pointers are emitted through `xlate` (use {} for local use).
  static StatusOr<LayoutBuilder> create(const Adt* adt, uint32_t class_index,
                                        arena::Arena* arena,
                                        arena::AddressTranslator xlate = {});

  /// The constructed object's local address.
  void* object() const noexcept { return base_; }
  uint32_t class_index() const noexcept { return class_index_; }

  // Singular setters (field must exist and have a matching kind).
  Status set_int64(uint32_t field_number, int64_t v);
  Status set_uint64(uint32_t field_number, uint64_t v);
  Status set_bool(uint32_t field_number, bool v);
  Status set_float(uint32_t field_number, float v);
  Status set_double(uint32_t field_number, double v);
  Status set_string(uint32_t field_number, std::string_view v);

  /// Create (or return the existing) singular sub-message builder.
  StatusOr<LayoutBuilder> mutable_message(uint32_t field_number);

  // Repeated adders. A repeated field's array doubles when full (8
  // elements first); while the array is the arena's last allocation, as
  // it is when one field's values are added in a run, it grows in place,
  // so the arena holds no dead copies of it.

  /// Append a value (bool, 32- or 64-bit, stored at the field's width).
  /// Inline when the field is the one the previous add_scalar appended
  /// to and its array has room; the first add to a field, growth and
  /// errors take add_scalar_slow.
  DPURPC_HOT_PATH Status add_scalar(uint32_t field_number, uint64_t raw_value) {
    if (last_rep_ != nullptr && field_number == last_number_ &&
        last_rep_->size < last_rep_->capacity) {
      store_element(*last_rep_, last_elem_, raw_value);
      return Status::ok();
    }
    return add_scalar_slow(field_number, raw_value);
  }
  Status add_string(uint32_t field_number, std::string_view v);
  StatusOr<LayoutBuilder> add_message(uint32_t field_number);

  /// Read access to what has been built so far.
  LayoutView view() const noexcept { return LayoutView(adt_, class_index_, base_); }

 private:
  LayoutBuilder(const Adt* adt, uint32_t class_index, std::byte* base,
                arena::Arena* arena, arena::AddressTranslator xlate)
      : adt_(adt), class_index_(class_index), base_(base), arena_(arena), xlate_(xlate) {}

  StatusOr<const FieldEntry*> find_field(uint32_t number, bool repeated) const;
  void set_has_bit(const FieldEntry& f);
  Status add_scalar_slow(uint32_t field_number, uint64_t raw_value);
  /// Double `h`'s capacity for `elem`-byte elements: in place when its
  /// array is the arena's last allocation, else into a fresh array.
  Status grow(RepHeader& h, uint32_t elem);
  /// Local address of a pointer stored (translated) in the object.
  std::byte* local(void* stored) const noexcept {
    return reinterpret_cast<std::byte*>(reinterpret_cast<intptr_t>(stored) - xlate_.delta);
  }
  /// Write `v` at index h.size (which must be < h.capacity) and count it.
  void store_element(RepHeader& h, uint32_t elem, uint64_t v) const noexcept {
    std::byte* slot = local(h.data) + static_cast<size_t>(h.size) * elem;
    if (elem == 1) {
      *slot = v != 0 ? std::byte{1} : std::byte{0};
    } else if (elem == 4) {
      store_le(slot, static_cast<uint32_t>(v));
    } else {
      store_le(slot, v);
    }
    ++h.size;
  }

  const Adt* adt_;
  uint32_t class_index_;
  std::byte* base_;
  arena::Arena* arena_;
  arena::AddressTranslator xlate_;
  /// add_scalar's one-entry cache: the header and element width of the
  /// last field it appended to (null until the first add).
  RepHeader* last_rep_ = nullptr;
  uint32_t last_number_ = 0;
  uint32_t last_elem_ = 0;
};

inline ObjectRef::ObjectRef(const LayoutBuilder& b) noexcept
    : class_index(b.class_index()), base(b.object()) {}

}  // namespace dpurpc::adt
