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

#include "adt/adt.hpp"
#include "adt/codec_options.hpp"
#include "arena/arena.hpp"
#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
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
class LayoutView {
 public:
  LayoutView(const Adt* adt, uint32_t class_index, const void* base) noexcept
      : adt_(adt), cls_(&adt->class_at(class_index)), class_index_(class_index),
        base_(static_cast<const std::byte*>(base)) {}

  const ClassEntry& class_entry() const noexcept { return *cls_; }
  uint32_t class_index() const noexcept { return class_index_; }
  const void* object() const noexcept { return base_; }

  /// Presence via the has-bits word (singular fields only).
  bool has(uint32_t field_number) const noexcept;

  int64_t get_int64(uint32_t field_number) const noexcept;
  uint64_t get_uint64(uint32_t field_number) const noexcept;
  double get_double(uint32_t field_number) const noexcept;
  float get_float(uint32_t field_number) const noexcept;
  bool get_bool(uint32_t field_number) const noexcept;
  std::string_view get_string(uint32_t field_number) const noexcept;
  /// Singular sub-message; valid only when has() is true.
  LayoutView get_message(uint32_t field_number) const noexcept;

  uint32_t repeated_size(uint32_t field_number) const noexcept;
  uint64_t repeated_uint64(uint32_t field_number, uint32_t i) const noexcept;
  int64_t repeated_int64(uint32_t field_number, uint32_t i) const noexcept;
  double repeated_double(uint32_t field_number, uint32_t i) const noexcept;
  float repeated_float(uint32_t field_number, uint32_t i) const noexcept;
  std::string_view repeated_string(uint32_t field_number, uint32_t i) const noexcept;
  LayoutView repeated_message(uint32_t field_number, uint32_t i) const noexcept;

 private:
  const FieldEntry* field(uint32_t number) const noexcept {
    return cls_->field_by_number(number);
  }
  const std::byte* at(const FieldEntry& f) const noexcept { return base_ + f.offset; }

  const Adt* adt_;
  const ClassEntry* cls_;
  uint32_t class_index_;
  const std::byte* base_;
};

}  // namespace dpurpc::adt
