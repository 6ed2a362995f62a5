#include <limits>
#include "adt/adt.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "adt/serialize_plan.hpp"
#include "common/align.hpp"
#include "common/endian.hpp"
#include "common/hot_path.hpp"
#include "common/lockdep.hpp"
#include "common/relaxed.hpp"
#include "metrics/metrics.hpp"

namespace dpurpc::adt {

namespace {
// One mutex for every Adt's plan cache rebuild path. Since the lane
// sharding PR this is NOT on any read path: plans() serves published
// snapshots with a lock-free acquire-load, and this mutex serializes only
// build-and-publish / invalidation (a setup-phase event). A global keeps
// Adt copyable/movable; it guards only the cache slot (plans_) and the
// ownership history behind it (plan_history_); the PlanSet the slot points
// to — parse and serialize plans together — is immutable after
// publication — see the contract in plans().
lockdep::Mutex& plan_cache_mutex() {
  static lockdep::Mutex m{"adt.Adt.plan_cache"};
  return m;
}

// Process-wide mirror of the per-table rebuild counter, for the
// monitoring pipeline (ISSUE 4: plan-snapshot refresh count).
metrics::Counter& plan_rebuild_counter() {
  static metrics::Counter& c = metrics::default_counter(
      "dpurpc_plan_snapshot_rebuilds_total",
      "PlanSet compilations published to the lock-free snapshot slot");
  return c;
}
}  // namespace

Adt::Adt(const Adt& other)
    : classes_(other.classes_),
      by_name_(other.by_name_),
      fingerprint_(other.fingerprint_) {
  lockdep::ScopedLock lk(plan_cache_mutex());
  // Share the source's *current* snapshot only (it describes an identical
  // class table); the source keeps its own history.
  if (const PlanSet* snap = other.plans_.load(std::memory_order_acquire)) {
    for (const auto& owned : other.plan_history_) {
      if (owned.get() == snap) {
        plan_history_.push_back(owned);
        break;
      }
    }
    plans_.store(snap, std::memory_order_release);
  }
  relaxed::store(plan_hits_, relaxed::load(other.plan_hits_));
  relaxed::store(plan_rebuilds_, relaxed::load(other.plan_rebuilds_));
  relaxed::store(plan_mutex_entries_, relaxed::load(other.plan_mutex_entries_));
}

Adt& Adt::operator=(const Adt& other) {
  if (this == &other) return *this;
  classes_ = other.classes_;
  by_name_ = other.by_name_;
  fingerprint_ = other.fingerprint_;
  lockdep::ScopedLock lk(plan_cache_mutex());
  // Existing history is retained (readers may still hold pointers into
  // it); the source's current snapshot is shared on top.
  const PlanSet* snap = other.plans_.load(std::memory_order_acquire);
  if (snap != nullptr) {
    for (const auto& owned : other.plan_history_) {
      if (owned.get() == snap) {
        plan_history_.push_back(owned);
        break;
      }
    }
  }
  plans_.store(snap, std::memory_order_release);
  relaxed::store(plan_hits_, relaxed::load(other.plan_hits_));
  relaxed::store(plan_rebuilds_, relaxed::load(other.plan_rebuilds_));
  relaxed::store(plan_mutex_entries_, relaxed::load(other.plan_mutex_entries_));
  return *this;
}

// Moves steal the snapshot and its ownership history and leave the source
// invalidated; the moved-from table is only destroyed or re-assigned by
// our callers.
Adt::Adt(Adt&& other) noexcept
    : classes_(std::move(other.classes_)),
      by_name_(std::move(other.by_name_)),
      fingerprint_(other.fingerprint_) {
  lockdep::ScopedLock lk(plan_cache_mutex());
  // Slot handoff under the plan_cache mutex: the mutex publishes, so the
  // stores need no ordering of their own.
  plans_.store(
      other.plans_.load(std::memory_order_acquire),
      std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): mutex-published slot handoff
  other.plans_.store(
      nullptr,
      std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): mutex-published slot handoff
  plan_history_ = std::move(other.plan_history_);
  other.plan_history_.clear();
  relaxed::store(plan_hits_, relaxed::load(other.plan_hits_));
  relaxed::store(plan_rebuilds_, relaxed::load(other.plan_rebuilds_));
  relaxed::store(plan_mutex_entries_, relaxed::load(other.plan_mutex_entries_));
}

Adt& Adt::operator=(Adt&& other) noexcept {
  if (this == &other) return *this;
  classes_ = std::move(other.classes_);
  by_name_ = std::move(other.by_name_);
  fingerprint_ = other.fingerprint_;
  lockdep::ScopedLock lk(plan_cache_mutex());
  plans_.store(other.plans_.load(std::memory_order_acquire),
               std::memory_order_release);
  other.plans_.store(
      nullptr,
      std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): mutex-published slot handoff
  // Keep our own retired snapshots alive (readers may still hold pointers
  // into them) and adopt the source's on top.
  for (auto& owned : other.plan_history_)
    plan_history_.push_back(std::move(owned));
  other.plan_history_.clear();
  relaxed::store(plan_hits_, relaxed::load(other.plan_hits_));
  relaxed::store(plan_rebuilds_, relaxed::load(other.plan_rebuilds_));
  relaxed::store(plan_mutex_entries_, relaxed::load(other.plan_mutex_entries_));
  return *this;
}

void ClassEntry::build_index() {
  // Dense up to twice the field count (plus slack for a few gaps), so a
  // class numbered 1..N indexes every field and a sparse or hostile
  // numbering still costs O(fields).
  uint32_t max_number = 0;
  for (const FieldEntry& f : fields) max_number = std::max(max_number, f.number);
  const size_t bound = std::min<size_t>(static_cast<size_t>(max_number) + 1,
                                        2 * fields.size() + 16);
  by_number_.assign(bound, kNoSlot);
  for (size_t i = 0; i < fields.size(); ++i) {
    const uint32_t n = fields[i].number;
    if (n < bound && by_number_[n] == kNoSlot) by_number_[n] = static_cast<uint32_t>(i);
  }
}

const FieldEntry* ClassEntry::search_field(uint32_t number) const noexcept {
  auto it = std::lower_bound(
      fields.begin(), fields.end(), number,
      [](const FieldEntry& f, uint32_t n) { return f.number < n; });
  if (it == fields.end() || it->number != number) return nullptr;
  return &*it;
}

AbiFingerprint AbiFingerprint::current(arena::StdLibFlavor flavor) noexcept {
  AbiFingerprint fp;
  fp.pointer_size = sizeof(void*);
  fp.little_endian = std::endian::native == std::endian::little ? 1 : 0;
  fp.string_flavor = static_cast<uint8_t>(flavor);
  fp.string_size = flavor == arena::StdLibFlavor::kLibstdcpp ? 32 : 24;
  fp.ieee754 = std::numeric_limits<double>::is_iec559 ? 1 : 0;
  return fp;
}

Status AbiFingerprint::compatible_with(const AbiFingerprint& other) const noexcept {
  if (pointer_size != other.pointer_size) {
    return Status(Code::kFailedPrecondition, "pointer size mismatch");
  }
  if (little_endian != other.little_endian) {
    return Status(Code::kFailedPrecondition, "endianness mismatch");
  }
  if (string_flavor != other.string_flavor || string_size != other.string_size) {
    return Status(Code::kFailedPrecondition, "std::string ABI mismatch");
  }
  if (ieee754 != other.ieee754) {
    return Status(Code::kFailedPrecondition, "floating point format mismatch");
  }
  return Status::ok();
}

uint32_t Adt::add_class(ClassEntry entry) {
  auto index = static_cast<uint32_t>(classes_.size());
  by_name_.emplace(entry.name, index);
  entry.build_index();
  classes_.push_back(std::move(entry));
  // Invalidation swaps the cache slot; it never touches the old set, so
  // deserializers holding the previous shared_ptr keep a valid (stale
  // but internally consistent) snapshot.
  invalidate_plans();
  return index;
}

void Adt::replace_class(uint32_t index, ClassEntry entry) {
  entry.build_index();
  classes_.at(index) = std::move(entry);
  invalidate_plans();
}

void Adt::invalidate_plans() const {
  lockdep::ScopedLock lk(plan_cache_mutex());
  plans_.store(nullptr, std::memory_order_release);
}

PlanCacheStats Adt::plan_cache_stats() const noexcept {
  return {relaxed::load(plan_hits_), relaxed::load(plan_rebuilds_),
          relaxed::load(plan_mutex_entries_)};
}

DPURPC_HOT_PATH std::shared_ptr<const PlanSet> Adt::plans() const {
  // Immutable-after-publication contract: once a PlanSet pointer leaves
  // this function, NOTHING may write through it — every consumer (DPU
  // proxy lanes, codec-pool workers, host compat codecs) reads it
  // lock-free and concurrently, for both plan directions. The
  // static_asserts are the compile-time half of the contract (no
  // non-const access path exists — PlanSet additionally pins itself with
  // deleted assignment, serialize_plan.hpp); the lockdep rule in
  // ArenaDeserializer::deserialize is the runtime half (no lock is
  // needed, so none may be held).
  static_assert(
      std::is_const_v<std::remove_reference_t<
          decltype(*plans_.load(std::memory_order_acquire))>>,
      "plan cache must publish const snapshots");
  static_assert(
      std::is_const_v<std::remove_reference_t<decltype(*std::declval<Adt>().plans())>>,
      "plans() must hand out pointers-to-const only");

  // RCU fast path: one acquire-load of a raw pointer, zero locks, zero
  // shared refcount traffic (the returned shared_ptr is a non-owning
  // alias — the set it names is retained in plan_history_ until this Adt
  // dies, so the pointer can never dangle; see the plans_ member doc for
  // why this beats std::atomic<shared_ptr> here). This is what every codec
  // constructor (and therefore every decode worker spin-up) hits once a
  // snapshot exists; the steady-state decode path itself never even gets
  // here — it reads the pointer captured at construction.
  if (const PlanSet* snap = plans_.load(std::memory_order_acquire)) {
    relaxed::add(plan_hits_, 1);
    return {std::shared_ptr<const void>(), snap};
  }

  // dpulint: allow(hot-path): cold spill — no snapshot published yet, so
  // this caller pays the one-time mutex-serialized PlanSet compile.
  return rebuild_plans();
}

std::shared_ptr<const PlanSet> Adt::rebuild_plans() const {
  // Serialize the rebuild. Double-check under the mutex so N racing cold
  // readers compile the PlanSet once.
  lockdep::ScopedLock lk(plan_cache_mutex());
  relaxed::add(plan_mutex_entries_, 1);
  const PlanSet* snap = plans_.load(
      std::memory_order_relaxed);  // dpulint: allow(relaxed-atomic): double-check under plan_cache mutex
  if (snap == nullptr) {
    plan_history_.push_back(
        std::make_shared<const PlanSet>(PlanSet::build(*this)));
    snap = plan_history_.back().get();
    plans_.store(snap, std::memory_order_release);
    relaxed::add(plan_rebuilds_, 1);
    plan_rebuild_counter().inc();
  }
  return {std::shared_ptr<const void>(), snap};
}

uint32_t Adt::find_class(std::string_view name) const noexcept {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? UINT32_MAX : it->second;
}

Status Adt::validate() const {
  const auto flavor = static_cast<arena::StdLibFlavor>(fingerprint_.string_flavor);
  for (const auto& cls : classes_) {
    if (cls.default_bytes.size() != cls.size) {
      return Status(Code::kInternal, "ADT class " + cls.name +
                                         ": default bytes do not match size");
    }
    if (!is_pow2(cls.align) || cls.align > kBlockAlign) {
      return Status(Code::kInternal, "ADT class " + cls.name + ": bad alignment");
    }
    uint32_t prev = 0;
    for (const auto& f : cls.fields) {
      if (f.number <= prev) {
        return Status(Code::kInternal,
                      "ADT class " + cls.name + ": fields not sorted by number");
      }
      prev = f.number;
      if (f.number > kMaxFieldNumber) {
        return Status(Code::kInternal,
                      "ADT class " + cls.name + ": field number above 2^29-1");
      }
      // LayoutView and LayoutBuilder read and write the whole storage
      // without further checks, so all of it must lie inside the instance.
      if (static_cast<uint64_t>(f.offset) +
              field_storage_size(f.type, f.repeated, flavor) > cls.size) {
        return Status(Code::kInternal, "ADT class " + cls.name + ": field storage "
                                           "overruns the instance");
      }
      if (f.type == proto::FieldType::kMessage) {
        if (f.child_class == kNoChild || f.child_class >= classes_.size()) {
          return Status(Code::kInternal, "ADT class " + cls.name +
                                             ": dangling child class link");
        }
      }
      if (f.has_bit >= 32) {
        return Status(Code::kInternal, "ADT class " + cls.name +
                                           ": has-bit beyond the 32-bit word");
      }
      if (f.has_bit >= 0 && static_cast<uint64_t>(cls.has_bits_offset) + 4 > cls.size) {
        return Status(Code::kInternal, "ADT class " + cls.name +
                                           ": has-bits word outside the instance");
      }
    }
  }
  return Status::ok();
}

namespace {

void put_u8(Bytes& out, uint8_t v) { out.push_back(static_cast<std::byte>(v)); }
void put_u32(Bytes& out, uint32_t v) {
  uint8_t b[4];
  store_le(b, v);
  for (uint8_t x : b) out.push_back(static_cast<std::byte>(x));
}
void put_i32(Bytes& out, int32_t v) { put_u32(out, static_cast<uint32_t>(v)); }
void put_str(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  const auto* b = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), b, b + s.size());
}

struct Cursor {
  const uint8_t* p;
  const uint8_t* end;

  bool need(size_t n) const { return static_cast<size_t>(end - p) >= n; }
  StatusOr<uint8_t> u8() {
    if (!need(1)) return Status(Code::kDataLoss, "truncated ADT");
    return *p++;
  }
  StatusOr<uint32_t> u32() {
    if (!need(4)) return Status(Code::kDataLoss, "truncated ADT");
    uint32_t v = load_le<uint32_t>(p);
    p += 4;
    return v;
  }
  StatusOr<std::string> str() {
    auto n = u32();
    if (!n.is_ok()) return n.status();
    if (!need(*n)) return Status(Code::kDataLoss, "truncated ADT string");
    std::string s(reinterpret_cast<const char*>(p), *n);
    p += *n;
    return s;
  }
};

constexpr uint32_t kAdtMagic = 0x31544441;  // "ADT1"

}  // namespace

Bytes Adt::serialize() const {
  Bytes out;
  put_u32(out, kAdtMagic);
  put_u8(out, fingerprint_.pointer_size);
  put_u8(out, fingerprint_.little_endian);
  put_u8(out, fingerprint_.string_flavor);
  put_u8(out, fingerprint_.string_size);
  put_u8(out, fingerprint_.ieee754);
  put_u32(out, static_cast<uint32_t>(classes_.size()));
  for (const auto& cls : classes_) {
    put_str(out, cls.name);
    put_u32(out, cls.size);
    put_u32(out, cls.align);
    put_u32(out, cls.has_bits_offset);
    put_u32(out, static_cast<uint32_t>(cls.default_bytes.size()));
    const auto* b = reinterpret_cast<const std::byte*>(cls.default_bytes.data());
    out.insert(out.end(), b, b + cls.default_bytes.size());
    put_u32(out, static_cast<uint32_t>(cls.fields.size()));
    for (const auto& f : cls.fields) {
      put_u32(out, f.number);
      put_u8(out, static_cast<uint8_t>(f.type));
      put_u8(out, f.repeated ? 1 : 0);
      put_u32(out, f.offset);
      put_i32(out, f.has_bit);
      put_u32(out, f.child_class);
    }
  }
  return out;
}

StatusOr<Adt> Adt::deserialize(ByteSpan data) {
  Cursor c{reinterpret_cast<const uint8_t*>(data.data()),
           reinterpret_cast<const uint8_t*>(data.data()) + data.size()};
  auto magic = c.u32();
  if (!magic.is_ok()) return magic.status();
  if (*magic != kAdtMagic) return Status(Code::kDataLoss, "bad ADT magic");

  Adt adt;
  AbiFingerprint fp;
  DPURPC_ASSIGN_OR_RETURN(fp.pointer_size, c.u8());
  DPURPC_ASSIGN_OR_RETURN(fp.little_endian, c.u8());
  DPURPC_ASSIGN_OR_RETURN(fp.string_flavor, c.u8());
  DPURPC_ASSIGN_OR_RETURN(fp.string_size, c.u8());
  DPURPC_ASSIGN_OR_RETURN(fp.ieee754, c.u8());
  adt.set_fingerprint(fp);

  auto count = c.u32();
  if (!count.is_ok()) return count.status();
  for (uint32_t i = 0; i < *count; ++i) {
    ClassEntry cls;
    DPURPC_ASSIGN_OR_RETURN(cls.name, c.str());
    DPURPC_ASSIGN_OR_RETURN(cls.size, c.u32());
    DPURPC_ASSIGN_OR_RETURN(cls.align, c.u32());
    DPURPC_ASSIGN_OR_RETURN(cls.has_bits_offset, c.u32());
    auto nbytes = c.u32();
    if (!nbytes.is_ok()) return nbytes.status();
    if (!c.need(*nbytes)) return Status(Code::kDataLoss, "truncated ADT defaults");
    cls.default_bytes.assign(c.p, c.p + *nbytes);
    c.p += *nbytes;
    auto nfields = c.u32();
    if (!nfields.is_ok()) return nfields.status();
    for (uint32_t j = 0; j < *nfields; ++j) {
      FieldEntry f;
      DPURPC_ASSIGN_OR_RETURN(f.number, c.u32());
      auto type = c.u8();
      if (!type.is_ok()) return type.status();
      if (*type > static_cast<uint8_t>(proto::FieldType::kEnum)) {
        return Status(Code::kDataLoss, "bad ADT field type");
      }
      f.type = static_cast<proto::FieldType>(*type);
      auto rep = c.u8();
      if (!rep.is_ok()) return rep.status();
      f.repeated = *rep != 0;
      DPURPC_ASSIGN_OR_RETURN(f.offset, c.u32());
      auto hb = c.u32();
      if (!hb.is_ok()) return hb.status();
      f.has_bit = static_cast<int32_t>(*hb);
      DPURPC_ASSIGN_OR_RETURN(f.child_class, c.u32());
      cls.fields.push_back(f);
    }
    adt.add_class(std::move(cls));
  }
  if (c.p != c.end) return Status(Code::kDataLoss, "trailing bytes after ADT");
  DPURPC_RETURN_IF_ERROR(adt.validate());
  return adt;
}

// ------------------------------------------------- synthesized layouts

uint32_t field_storage_size(proto::FieldType t, bool repeated,
                            arena::StdLibFlavor flavor) noexcept {
  if (repeated) return 16;  // RepeatedField / RepeatedPtrField
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
    case proto::FieldType::kInt64:
    case proto::FieldType::kUint64:
    case proto::FieldType::kSint64:
    case proto::FieldType::kFixed64:
    case proto::FieldType::kSfixed64:
    case proto::FieldType::kDouble:
      return 8;
    case proto::FieldType::kString:
    case proto::FieldType::kBytes:
      return flavor == arena::StdLibFlavor::kLibstdcpp ? 32 : 24;
    case proto::FieldType::kMessage:
      return 8;  // pointer to child instance
  }
  return 8;
}

uint32_t field_storage_align(proto::FieldType t, bool repeated,
                             arena::StdLibFlavor flavor) noexcept {
  uint32_t size = field_storage_size(t, repeated, flavor);
  if (t == proto::FieldType::kString || t == proto::FieldType::kBytes || repeated) {
    return 8;
  }
  return size;  // natural alignment for scalars / pointers
}

StatusOr<uint32_t> DescriptorAdtBuilder::add_message(
    const proto::MessageDescriptor* message) {
  return add_message_impl(message, 0);
}

StatusOr<uint32_t> DescriptorAdtBuilder::add_message_impl(
    const proto::MessageDescriptor* message, int depth) {
  if (depth > 64) {
    return Status(Code::kInvalidArgument,
                  "message type nesting too deep for ADT construction");
  }
  if (auto it = built_.find(message); it != built_.end()) return it->second;

  // Reserve the index first so self-referential types (message R { R next })
  // link to themselves correctly.
  ClassEntry placeholder;
  placeholder.name = message->full_name();
  uint32_t index = adt_.add_class(std::move(placeholder));
  built_[message] = index;

  ClassEntry cls;
  cls.name = message->full_name();
  // Synthesized layout: 8-byte header word standing in for the vptr of a
  // generated class, then the 32-bit has-bits word, then fields in
  // declaration order at natural alignment.
  uint32_t offset = 8;
  cls.has_bits_offset = offset;
  offset += 4;
  int32_t next_has_bit = 0;
  uint32_t max_align = 8;

  std::vector<FieldEntry> fields;
  for (const auto& fptr : message->fields()) {
    const proto::FieldDescriptor* fd = fptr.get();
    FieldEntry f;
    f.number = fd->number();
    f.type = fd->type();
    f.repeated = fd->is_repeated();
    uint32_t fsize = field_storage_size(f.type, f.repeated, flavor_);
    uint32_t falign = field_storage_align(f.type, f.repeated, flavor_);
    max_align = std::max(max_align, falign);
    offset = static_cast<uint32_t>(align_up(offset, falign));
    f.offset = offset;
    offset += fsize;
    if (!f.repeated) {
      if (next_has_bit >= 32) {
        return Status(Code::kInvalidArgument,
                      "more than 32 singular fields in " + message->full_name() +
                          " (ADT has-bits word is 32 bits)");
      }
      f.has_bit = next_has_bit++;
    }
    if (fd->type() == proto::FieldType::kMessage) {
      DPURPC_ASSIGN_OR_RETURN(f.child_class,
                              add_message_impl(fd->message_type(), depth + 1));
    }
    fields.push_back(f);
  }
  std::sort(fields.begin(), fields.end(),
            [](const FieldEntry& a, const FieldEntry& b) { return a.number < b.number; });
  cls.fields = std::move(fields);
  cls.align = max_align;
  cls.size = static_cast<uint32_t>(align_up(offset, max_align));
  cls.default_bytes.assign(cls.size, 0);  // synthesized default: all zero

  adt_.replace_class(index, std::move(cls));
  return index;
}

Adt DescriptorAdtBuilder::take() && { return std::move(adt_); }

}  // namespace dpurpc::adt
