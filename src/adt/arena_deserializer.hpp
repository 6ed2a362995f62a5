// The custom stack-based protobuf deserializer (§V of the paper).
//
// Driven entirely by the ADT — no compiled-in message classes — this is
// what runs on the DPU: it turns wire bytes into a finished C++ object
// living in one contiguous arena slice, with every embedded pointer already
// expressed in the *receiver's* (host's) address space. The host then uses
// the object directly; deserialization cost on the host is zero.
//
// Cost centers (per the paper): varint decoding, UTF-8 validation for
// strings, and recursion for nested messages. UTF-8 validation can be
// disabled through CodecOptions for the ablation benchmark.
#pragma once

#include <cstring>

#include "adt/adt.hpp"
#include "adt/codec_options.hpp"
#include "arena/arena.hpp"
#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/endian.hpp"
#include "common/hot_path.hpp"
#include "common/status.hpp"

namespace dpurpc::adt {

class ParsePlan;  // parse_plan.hpp

class ArenaDeserializer {
 public:
  /// `adt` must outlive the deserializer. The string flavor must match the
  /// receiver's ABI (it ships inside the ADT fingerprint).
  ArenaDeserializer(const Adt* adt, CodecOptions options = {});

  /// Deserialize `wire` as an instance of `class_index` into `arena`.
  /// Returns the object's *local* address (use `xlate` to compute the
  /// receiver-space address); all pointers inside the object are already
  /// receiver-space. On error the arena may hold partial garbage — callers
  /// recycle the enclosing block, never individual objects.
  StatusOr<void*> deserialize(uint32_t class_index, ByteSpan wire,
                              arena::Arena& arena,
                              const arena::AddressTranslator& xlate) const;

  const Adt& adt() const noexcept { return *adt_; }

  /// Describes a moved arena slice for relocate(). The object tree was
  /// deserialized into [old_begin, old_end) with a zero-delta translator —
  /// every embedded pointer (child messages, repeated buffers, crafted
  /// string data, SSO self-references) refers into that range — and the
  /// whole slice was then memcpy'd `move_delta` bytes away. `publish_delta`
  /// is what gets *stored* into pointer slots: the move plus the
  /// receiver-space rebase the connection translator would have applied.
  /// Pointers outside the range (static default instances copied in via
  /// default_bytes) are left untouched.
  struct SliceRelocation {
    const std::byte* old_begin = nullptr;
    const std::byte* old_end = nullptr;
    ptrdiff_t move_delta = 0;     ///< old address → copied address (local)
    ptrdiff_t publish_delta = 0;  ///< old address → published (receiver) value

    bool contains(const void* p) const noexcept {
      auto* b = static_cast<const std::byte*>(p);
      return b >= old_begin && b < old_end;
    }
  };

  /// Rebase a deserialized object tree after its slice was copied to a new
  /// location. `base` is the object's address in the *copied* slice. This
  /// is the codec-pool handoff primitive, in both directions: a decode
  /// worker's private slice (zero-delta, fully local) is memcpy'd into
  /// the RDMA send block and relocated into receiver space, and a
  /// response object is copied out of its receive block into an encode
  /// job's slice and relocated fully local — equivalent, bit for bit, to
  /// having deserialized straight into the block with the connection
  /// translator (asserted by tests/codec_pool_test.cpp).
  void relocate(uint32_t class_index, std::byte* base,
                const SliceRelocation& r) const;

 private:
  /// Per-message-tree tallies, flushed to metrics counters once per
  /// deserialize() call (keeps atomics off the per-field hot path).
  struct PlanParseStats {
    uint64_t fields = 0;
    uint64_t prediction_hits = 0;
  };

  /// The plan-driven parse loop for one message (recursing into children).
  Status parse_msg(const ParsePlan& plan, std::byte* base, ByteSpan wire,
                   arena::Arena& arena, const arena::AddressTranslator& xlate,
                   int depth, PlanParseStats& stats) const;
  void fix_pointers(const ClassEntry& cls, std::byte* base,
                    const arena::AddressTranslator& xlate) const;

  const Adt* adt_;
  arena::StdLibFlavor flavor_;
  CodecOptions options_;
  std::shared_ptr<const PlanSet> plans_;  ///< captured at construction
};

/// Typed, bounds-checked read access to an object produced by
/// ArenaDeserializer for a *synthesized* (descriptor-built) layout — the
/// no-codegen path the host compat layer and examples use. For generated
/// classes, use the class's own accessors instead.
///
/// A getter returns its type's default (0, "", or the empty view: no
/// fields, null object, class index kNoChild) when the field number is
/// unknown, when the field is singular and the getter repeated or the
/// reverse, when the field's type is not one the getter can read, or when
/// the index is past the repeated size. The numeric getters are inline:
/// an indexed field lookup (ClassEntry::field_by_number), the checks and
/// a load. A view holds no mutable state, so threads may share one.
class LayoutView {
 public:
  LayoutView(const Adt* adt, uint32_t class_index, const void* base) noexcept
      : adt_(adt), cls_(&adt->class_at(class_index)), class_index_(class_index),
        base_(static_cast<const std::byte*>(base)) {}

  const ClassEntry& class_entry() const noexcept { return *cls_; }
  uint32_t class_index() const noexcept { return class_index_; }
  const void* object() const noexcept { return base_; }

  /// Presence via the has-bits word (singular fields only).
  bool has(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    if (f == nullptr || f->has_bit < 0) return false;
    return ((load_le<uint32_t>(base_ + cls_->has_bits_offset) >> f->has_bit) & 1u) != 0;
  }

  int64_t get_int64(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    return f == nullptr ? 0 : load_signed(at(*f), scalar_elem_size(f->type));
  }
  uint64_t get_uint64(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    return f == nullptr ? 0 : load_unsigned(at(*f), scalar_elem_size(f->type));
  }
  double get_double(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    return f != nullptr && f->type == proto::FieldType::kDouble ? load_as<double>(at(*f))
                                                                : 0.0;
  }
  float get_float(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    return f != nullptr && f->type == proto::FieldType::kFloat ? load_as<float>(at(*f))
                                                               : 0.0f;
  }
  bool get_bool(uint32_t field_number) const noexcept {
    const FieldEntry* f = singular_entry(field_number);
    return f != nullptr && *at(*f) != std::byte{0};
  }
  std::string_view get_string(uint32_t field_number) const noexcept;
  /// Singular sub-message; the empty view when has() is false.
  LayoutView get_message(uint32_t field_number) const noexcept;

  DPURPC_HOT_PATH uint32_t repeated_size(uint32_t field_number) const noexcept {
    const FieldEntry* f = repeated_entry(field_number);
    return f == nullptr ? 0 : rep(*f).size;
  }
  DPURPC_HOT_PATH uint64_t repeated_uint64(uint32_t field_number,
                                           uint32_t i) const noexcept {
    const FieldEntry* f = repeated_entry(field_number);
    if (f == nullptr) return 0;
    const RepHeader h = rep(*f);
    const uint32_t elem = scalar_elem_size(f->type);
    return i < h.size ? load_unsigned(element(h, i, elem), elem) : 0;
  }
  DPURPC_HOT_PATH int64_t repeated_int64(uint32_t field_number,
                                         uint32_t i) const noexcept {
    const FieldEntry* f = repeated_entry(field_number);
    if (f == nullptr) return 0;
    const RepHeader h = rep(*f);
    const uint32_t elem = scalar_elem_size(f->type);
    return i < h.size ? load_signed(element(h, i, elem), elem) : 0;
  }
  double repeated_double(uint32_t field_number, uint32_t i) const noexcept {
    const FieldEntry* f = repeated_entry(field_number);
    if (f == nullptr || f->type != proto::FieldType::kDouble) return 0.0;
    const RepHeader h = rep(*f);
    return i < h.size ? load_as<double>(element(h, i, 8)) : 0.0;
  }
  float repeated_float(uint32_t field_number, uint32_t i) const noexcept {
    const FieldEntry* f = repeated_entry(field_number);
    if (f == nullptr || f->type != proto::FieldType::kFloat) return 0.0f;
    const RepHeader h = rep(*f);
    return i < h.size ? load_as<float>(element(h, i, 4)) : 0.0f;
  }
  std::string_view repeated_string(uint32_t field_number, uint32_t i) const noexcept;
  LayoutView repeated_message(uint32_t field_number, uint32_t i) const noexcept;

 private:
  /// The empty view of `adt`.
  explicit LayoutView(const Adt* adt) noexcept;

  const FieldEntry* singular_entry(uint32_t number) const noexcept {
    const FieldEntry* f = cls_->field_by_number(number);
    return f != nullptr && !f->repeated ? f : nullptr;
  }
  const FieldEntry* repeated_entry(uint32_t number) const noexcept {
    const FieldEntry* f = cls_->field_by_number(number);
    return f != nullptr && f->repeated ? f : nullptr;
  }
  const std::byte* at(const FieldEntry& f) const noexcept { return base_ + f.offset; }
  RepHeader rep(const FieldEntry& f) const noexcept {
    RepHeader h;
    std::memcpy(&h, at(f), sizeof(h));
    return h;
  }
  static const std::byte* element(const RepHeader& h, uint32_t i, uint32_t elem) noexcept {
    return static_cast<const std::byte*>(h.data) + static_cast<size_t>(i) * elem;
  }
  template <typename T>
  static T load_as(const std::byte* p) noexcept {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  static uint64_t load_unsigned(const std::byte* p, uint32_t elem) noexcept {
    switch (elem) {
      case 1: return static_cast<uint8_t>(*p);
      case 4: return load_le<uint32_t>(p);
      default: return load_le<uint64_t>(p);
    }
  }
  static int64_t load_signed(const std::byte* p, uint32_t elem) noexcept {
    switch (elem) {
      case 1: return static_cast<uint8_t>(*p);
      case 4: return static_cast<int32_t>(load_le<uint32_t>(p));
      default: return static_cast<int64_t>(load_le<uint64_t>(p));
    }
  }

  const Adt* adt_;
  const ClassEntry* cls_;
  uint32_t class_index_;
  const std::byte* base_;
};

}  // namespace dpurpc::adt
