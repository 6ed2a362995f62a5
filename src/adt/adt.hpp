// The Accelerator Description Table (§V.B of the paper).
//
// The ADT carries everything the DPU needs to deserialize any protobuf
// message straight into a host-ABI C++ object: per-class default instance
// bytes (which embed the host vptr), per-field offsets and wire types, and
// child links for nested message types. Metadata is per *class*, never per
// instance, so it is transmitted exactly once, at application start, and
// the DPU binary needs no recompilation to support new message types.
//
// On the host the table is built by generated .adt.pb.cc code (or by the
// descriptor-driven builder below); it is then serialized and shipped to
// the DPU, which reconstructs it with no knowledge of the C++ classes.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "arena/string_craft.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "proto/descriptor.hpp"

namespace dpurpc::adt {

class ParsePlanSet;  // parse_plan.hpp
class PlanSet;       // serialize_plan.hpp (bundles parse + serialize plans)

// The paper's §IV assumption, made explicit: object crafting stores field
// values in the C++ native representation, and the wire format is
// little-endian, so the two coincide only on little-endian hosts. (The
// ABI fingerprint still carries the endianness byte so mismatched peers
// refuse to pair rather than corrupt objects.)
static_assert(std::endian::native == std::endian::little,
              "ADT object crafting requires a little-endian host, like the "
              "paper's x86-64 host and ARM64 DPU");

inline constexpr uint32_t kNoChild = UINT32_MAX;
inline constexpr int32_t kNoHasBit = -1;

/// One field of a described class: where it lives and how to decode it.
struct FieldEntry {
  uint32_t number = 0;             ///< proto field number
  proto::FieldType type = proto::FieldType::kInt32;
  bool repeated = false;
  uint32_t offset = 0;             ///< byte offset of the storage in the class
  int32_t has_bit = kNoHasBit;     ///< bit index in the has-bits word, or -1
  uint32_t child_class = kNoChild; ///< ClassEntry index for message fields
};

/// In-memory shape of a repeated field, RepeatedField<T> and
/// RepeatedPtrField<T> alike (repeated_field.hpp asserts the same 16
/// bytes): the codecs read and write these three words directly.
struct RepHeader {
  void* data;
  uint32_t size;
  uint32_t capacity;
};
static_assert(sizeof(RepHeader) == 16);

/// Bytes one scalar element of type `t` occupies in the object (the
/// element stride of a RepeatedField<T>).
constexpr uint32_t scalar_elem_size(proto::FieldType t) noexcept {
  switch (t) {
    case proto::FieldType::kBool: return 1;
    case proto::FieldType::kInt32:
    case proto::FieldType::kUint32:
    case proto::FieldType::kSint32:
    case proto::FieldType::kFixed32:
    case proto::FieldType::kSfixed32:
    case proto::FieldType::kFloat:
    case proto::FieldType::kEnum:
      return 4;
    default:
      return 8;
  }
}

/// Largest legal proto field number (2^29 - 1); Adt::validate enforces it.
inline constexpr uint32_t kMaxFieldNumber = (1u << 29) - 1;

/// One message class: identity, layout, default bytes, fields.
struct ClassEntry {
  std::string name;                 ///< fully-qualified proto name
  uint32_t size = 0;                ///< sizeof(T)
  uint32_t align = 0;               ///< alignof(T)
  uint32_t has_bits_offset = 0;     ///< offset of the uint32 has-bits word
  std::vector<uint8_t> default_bytes;  ///< the default instance, verbatim
  std::vector<FieldEntry> fields;      ///< sorted by field number

  /// The field numbered `number`, or nullptr. One indexed load for the
  /// numbers the dense index covers (every field of a densely numbered
  /// class); a binary search over `fields` above it. Adt::add_class and
  /// replace_class build the index; an entry that never went through
  /// them searches every lookup, and a copy whose `fields` are edited
  /// must go back through replace_class before it is looked up.
  const FieldEntry* field_by_number(uint32_t number) const noexcept {
    if (number < by_number_.size()) {
      const uint32_t slot = by_number_[number];
      return slot == kNoSlot ? nullptr : &fields[slot];
    }
    return search_field(number);
  }

 private:
  friend class Adt;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// Rebuild by_number_ from `fields`. Its length is bounded by the field
  /// count, never by the largest number, so a hostile ADT with huge or
  /// sparse numbers costs O(fields) memory; numbers past the bound fall
  /// back to search_field.
  void build_index();
  const FieldEntry* search_field(uint32_t number) const noexcept;

  /// by_number_[n] is the index in `fields` of field n, or kNoSlot.
  std::vector<uint32_t> by_number_;
};

/// ABI facts that must agree between the two sides before offloading is
/// safe (§V.A): pointer width, endianness, std::string layout/size, float
/// format. Exchanged inside the serialized ADT and validated on receipt.
struct AbiFingerprint {
  uint8_t pointer_size = sizeof(void*);
  uint8_t little_endian = 1;
  uint8_t string_flavor = 0;  ///< arena::StdLibFlavor
  uint8_t string_size = 0;    ///< sizeof(std::string) under that flavor
  uint8_t ieee754 = 1;

  static AbiFingerprint current(arena::StdLibFlavor flavor) noexcept;
  Status compatible_with(const AbiFingerprint& other) const noexcept;
};

/// Observability for the plan-snapshot cache (lane-sharding acceptance:
/// the steady-state decode path must take the plan mutex exactly zero
/// times — bench/fig9_scaling asserts it through these numbers).
struct PlanCacheStats {
  uint64_t snapshot_hits = 0;   ///< plans() served by the lock-free fast path
  uint64_t rebuilds = 0;        ///< PlanSet::build runs (cold or invalidated)
  uint64_t mutex_entries = 0;   ///< times plans() fell through to the mutex
};

/// The table itself. Lookup by class index (hot path) or name (setup path).
class Adt {
 public:
  Adt() = default;
  // The published-snapshot slot is a std::atomic (not copyable); carry the
  // snapshot pointer and the cache stats across copies/moves by value so a
  // moved table (DescriptorAdtBuilder::take, StatusOr returns) keeps its
  // compiled plans and its counters.
  Adt(const Adt& other);
  Adt& operator=(const Adt& other);
  Adt(Adt&& other) noexcept;
  Adt& operator=(Adt&& other) noexcept;

  /// Register a class; returns its index.
  uint32_t add_class(ClassEntry entry);

  /// Replace a previously-added entry in place (builders reserve indices
  /// for recursive types before their layout is complete). The name must
  /// stay the same.
  void replace_class(uint32_t index, ClassEntry entry);

  uint32_t class_count() const noexcept { return static_cast<uint32_t>(classes_.size()); }
  const ClassEntry& class_at(uint32_t index) const { return classes_.at(index); }

  /// UINT32_MAX when absent.
  uint32_t find_class(std::string_view name) const noexcept;

  const AbiFingerprint& fingerprint() const noexcept { return fingerprint_; }
  void set_fingerprint(AbiFingerprint fp) noexcept { fingerprint_ = fp; }

  /// Sanity-check internal consistency (child links in range, defaults
  /// sized, fields sorted, numbers at most kMaxFieldNumber, field storage
  /// and has-bits word inside the instance). Run before serializing or
  /// after deserializing.
  Status validate() const;

  /// Wire form for the one-time host→DPU transfer.
  Bytes serialize() const;
  static StatusOr<Adt> deserialize(ByteSpan data);

  /// Per-class compiled plans — parse plans (parse_plan.hpp) and serialize
  /// plans (serialize_plan.hpp) bundled in one PlanSet — compiled on first
  /// use and cached so every codec over this table — DPU proxy lanes, the
  /// codec pool's workers, host compat layer — shares one immutable set.
  /// The returned set is **immutable after publication**: consumers read
  /// it lock-free, from any number of threads, for as long as this Adt
  /// lives (every snapshot the table ever published is retained until the
  /// table is destroyed, so a stale pointer is never a dangling pointer);
  /// add_class / replace_class invalidate by swapping the cache slot,
  /// never by mutating a published set. RCU-style access (DESIGN.md
  /// §3.14): the fast path is a single acquire-load of the published raw
  /// pointer — no mutex and no shared refcount traffic, ever, once a
  /// snapshot exists — and the plan mutex serializes only the
  /// build-and-publish step, so N decode workers fetching plans contend on
  /// nothing. (Deliberately NOT std::atomic<shared_ptr>: libstdc++ 12's
  /// _Sp_atomic unlocks its embedded spinlock with relaxed ordering on the
  /// load path, which leaves no happens-before edge TSan can see between a
  /// reader and the next publisher — and the refcount would bounce a cache
  /// line between every worker besides.) Table *mutation* itself remains a
  /// single-threaded setup-phase activity (builders, bootstrap) — only the
  /// published plan snapshot and its invalidation are concurrency-safe.
  std::shared_ptr<const PlanSet> plans() const;

  /// Drop the published snapshot so the next plans() call rebuilds.
  /// Readers holding the old pointer keep a valid (stale but internally
  /// consistent) set for the lifetime of this Adt. Exists for the
  /// refresh-under-load race test and the fig9 contention probe;
  /// production invalidation happens through add_class / replace_class.
  void invalidate_plans() const;

  /// Cache counters (monotonic, relaxed; safe to read concurrently).
  PlanCacheStats plan_cache_stats() const noexcept;

 private:
  /// Slow half of plans(): serialize the rebuild under the plan mutex and
  /// publish the fresh snapshot. Split out so the lock-free fast path can
  /// carry DPURPC_HOT_PATH and this — the documented cold spill — is the
  /// single waived call site.
  std::shared_ptr<const PlanSet> rebuild_plans() const;

  std::vector<ClassEntry> classes_;
  std::map<std::string, uint32_t, std::less<>> by_name_;
  AbiFingerprint fingerprint_{};
  /// The published snapshot (RCU slot). Readers acquire-load the raw
  /// pointer lock-free; the global plan mutex guards only
  /// rebuild-and-publish and invalidation, never reads. Ownership lives in
  /// plan_history_ (same mutex), which retains every snapshot this table
  /// ever published so a lock-free reader can never observe its set freed;
  /// the history is bounded by the number of mutations, a setup-phase
  /// event count.
  mutable std::atomic<const PlanSet*> plans_{nullptr};
  mutable std::vector<std::shared_ptr<const PlanSet>> plan_history_;
  mutable std::atomic<uint64_t> plan_hits_{0};
  mutable std::atomic<uint64_t> plan_rebuilds_{0};
  mutable std::atomic<uint64_t> plan_mutex_entries_{0};
};

/// Build an ADT **from descriptors alone** by synthesizing the C++ layout
/// the adtc generator would emit (vptr word, has-bits word, fields in
/// declaration order with natural alignment). Generated classes register
/// their real layouts instead (see adt_registry.hpp); this builder is the
/// descriptor-driven path used with DynamicLayout objects and in tests.
class DescriptorAdtBuilder {
 public:
  explicit DescriptorAdtBuilder(arena::StdLibFlavor flavor) : flavor_(flavor) {}

  /// Add `message` and, recursively, every message type it references.
  /// Returns the class index of `message`.
  StatusOr<uint32_t> add_message(const proto::MessageDescriptor* message);

  Adt take() &&;

 private:
  StatusOr<uint32_t> add_message_impl(const proto::MessageDescriptor* message,
                                      int depth);
  arena::StdLibFlavor flavor_;
  Adt adt_;
  std::map<const proto::MessageDescriptor*, uint32_t> built_;
};

/// Field storage size/alignment for a synthesized layout under `flavor`.
/// (For real generated classes these come from the compiler instead.)
uint32_t field_storage_size(proto::FieldType t, bool repeated,
                            arena::StdLibFlavor flavor) noexcept;
uint32_t field_storage_align(proto::FieldType t, bool repeated,
                             arena::StdLibFlavor flavor) noexcept;

}  // namespace dpurpc::adt
