#include "adt/arena_deserializer.hpp"

#include <bit>
#include <cstring>

#include "adt/serialize_plan.hpp"
#include "common/endian.hpp"
#include "common/lockdep.hpp"
#include "metrics/metrics.hpp"
#include "wire/coded_stream.hpp"
#include "wire/utf8.hpp"
#include "wire/varint.hpp"
#include "wire/varint_batch.hpp"

namespace dpurpc::adt {

namespace {

using proto::FieldType;
using wire::Reader;

/// Grow a repeated header's buffer to hold `needed` elements of
/// `elem_size` bytes. Data pointer stays *local* during parsing.
Status ensure_capacity(RepHeader& h, uint32_t needed, uint32_t elem_size,
                       uint32_t elem_align, arena::Arena& arena) {
  if (needed <= h.capacity) return Status::ok();
  uint32_t new_cap = h.capacity ? h.capacity : 8;
  while (new_cap < needed) new_cap *= 2;
  void* fresh = arena.allocate(static_cast<size_t>(new_cap) * elem_size, elem_align);
  if (fresh == nullptr) {
    return Status(Code::kResourceExhausted, "arena full growing repeated field");
  }
  if (h.size > 0) std::memcpy(fresh, h.data, static_cast<size_t>(h.size) * elem_size);
  h.data = fresh;
  h.capacity = new_cap;
  return Status::ok();
}

/// Process-wide deserializer counters (default metrics registry). Looked
/// up once; the hot path only pays relaxed atomic adds at flush time.
struct DeserCounters {
  metrics::Counter& plan_parses;
  metrics::Counter& plan_fields;
  metrics::Counter& prediction_hits;
};

DeserCounters& deser_counters() {
  static DeserCounters c{
      metrics::default_counter("dpurpc_deser_plan_parses_total",
                               "Messages deserialized through a parse plan"),
      metrics::default_counter("dpurpc_deser_plan_fields_total",
                               "Wire fields dispatched through parse-plan slots"),
      metrics::default_counter("dpurpc_deser_prediction_hits_total",
                               "Parse-plan next-tag predictions that hit"),
  };
  return c;
}

}  // namespace

ArenaDeserializer::ArenaDeserializer(const Adt* adt, CodecOptions options)
    : adt_(adt),
      flavor_(static_cast<arena::StdLibFlavor>(adt->fingerprint().string_flavor)),
      options_(options),
      plans_(adt->plans()) {}

StatusOr<void*> ArenaDeserializer::deserialize(
    uint32_t class_index, ByteSpan wire, arena::Arena& arena,
    const arena::AddressTranslator& xlate) const {
  // Domain rule (DESIGN.md §3.12): the deserialization hot path is
  // lock-free — it reads only the immutable ADT/plan snapshot captured
  // at construction. A caller holding any lock here either stalls every
  // lane on an unrelated critical section or, worse, implies the plan
  // data it reads needs that lock. Debug builds enforce the rule.
  DPURPC_LOCKDEP_ASSERT_NO_LOCKS_HELD("ArenaDeserializer::deserialize");
  const ParsePlan* plan = plans_->parse().for_class(class_index);
  if (plan == nullptr) {
    return Status(Code::kNotFound, "unknown ADT class index");
  }
  const ClassEntry& cls = adt_->class_at(class_index);
  auto* base = static_cast<std::byte*>(arena.allocate(cls.size, cls.align));
  if (base == nullptr) {
    return Status(Code::kResourceExhausted, "arena full allocating message instance");
  }
  // The default-instance copy seeds unset fields *and* the vptr (§V.B).
  std::memcpy(base, cls.default_bytes.data(), cls.size);
  PlanParseStats stats;
  DPURPC_RETURN_IF_ERROR(parse_msg(*plan, base, wire, arena, xlate, 0, stats));
  if (xlate.delta != 0) fix_pointers(cls, base, xlate);
  DeserCounters& c = deser_counters();
  c.plan_parses.inc();
  if (stats.fields != 0) {
    c.plan_fields.inc(stats.fields);
    c.prediction_hits.inc(stats.prediction_hits);
  }
  return static_cast<void*>(base);
}

// The plan-driven hot loop: one flat switch on a precompiled opcode per
// wire field, with the next slot predicted from the encoder's ascending
// field order.
Status ArenaDeserializer::parse_msg(const ParsePlan& plan, std::byte* base,
                                    ByteSpan wire, arena::Arena& arena,
                                    const arena::AddressTranslator& xlate,
                                    int depth, PlanParseStats& stats) const {
  if (depth > options_.max_recursion_depth) {
    return Status(Code::kDataLoss, "message nesting exceeds recursion limit");
  }
  Reader r(wire);
  const uint32_t string_slot_size = adt_->fingerprint().string_size;
  uint32_t predicted = plan.first_tag();
  const PlanSlot* predicted_slot = plan.slot(predicted);
  uint64_t fields = 0, hits = 0;

  auto set_has = [&](const PlanSlot* s) {
    if (s->has_mask != 0) {
      auto* word = reinterpret_cast<uint32_t*>(base + plan.has_bits_offset());
      *word |= s->has_mask;
    }
  };

  while (!r.done()) {
    auto tag_or = r.read_tag();
    if (!tag_or.is_ok()) return tag_or.status();
    const uint32_t tag = *tag_or;
    ++fields;
    const PlanSlot* s;
    if (tag == predicted && predicted_slot != nullptr) [[likely]] {
      s = predicted_slot;
      ++hits;
    } else {
      s = plan.slot(tag);
    }
    if (s == nullptr || s->op == PlanOp::kSkip) {
      DPURPC_RETURN_IF_ERROR(r.skip_value(wire::tag_wire_type(tag)));
      predicted = 0;  // unknown field: no prediction until the next hit
      predicted_slot = nullptr;
      continue;
    }
    std::byte* dst = base + s->offset;

    switch (s->op) {
      case PlanOp::kWireMismatch:
        return Status(Code::kDataLoss, "wire type mismatch");
      case PlanOp::kScalarLen: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        return Status(Code::kDataLoss, "length-delimited data for scalar field");
      }

      // ---------------------------------------------- singular scalars
      case PlanOp::kVarint32: {
        auto v = r.read_varint();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, static_cast<uint32_t>(*v));
        set_has(s);
        break;
      }
      case PlanOp::kVarint64: {
        auto v = r.read_varint();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, *v);
        set_has(s);
        break;
      }
      case PlanOp::kVarintSint32: {
        auto v = r.read_varint();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, static_cast<uint32_t>(wire::zigzag_decode32(
                                  static_cast<uint32_t>(*v))));
        set_has(s);
        break;
      }
      case PlanOp::kVarintSint64: {
        auto v = r.read_varint();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, static_cast<uint64_t>(wire::zigzag_decode64(*v)));
        set_has(s);
        break;
      }
      case PlanOp::kVarintBool: {
        auto v = r.read_varint();
        if (!v.is_ok()) return v.status();
        *reinterpret_cast<uint8_t*>(dst) = *v != 0 ? 1 : 0;
        set_has(s);
        break;
      }
      case PlanOp::kFixed32: {
        auto v = r.read_fixed32();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, *v);
        set_has(s);
        break;
      }
      case PlanOp::kFixed64: {
        auto v = r.read_fixed64();
        if (!v.is_ok()) return v.status();
        dpurpc::store_le(dst, *v);
        set_has(s);
        break;
      }

      // ------------------------------- unpacked repeated scalar element
      case PlanOp::kRepVarint32:
      case PlanOp::kRepVarint64:
      case PlanOp::kRepVarintSint32:
      case PlanOp::kRepVarintSint64:
      case PlanOp::kRepVarintBool:
      case PlanOp::kRepFixed32:
      case PlanOp::kRepFixed64: {
        uint64_t raw;
        if (s->op == PlanOp::kRepFixed32) {
          auto v = r.read_fixed32();
          if (!v.is_ok()) return v.status();
          raw = *v;
        } else if (s->op == PlanOp::kRepFixed64) {
          auto v = r.read_fixed64();
          if (!v.is_ok()) return v.status();
          raw = *v;
        } else {
          auto v = r.read_varint();
          if (!v.is_ok()) return v.status();
          raw = *v;
        }
        const uint32_t elem = s->elem_size;
        auto& h = *reinterpret_cast<RepHeader*>(dst);
        DPURPC_RETURN_IF_ERROR(ensure_capacity(h, h.size + 1, elem, elem, arena));
        std::byte* out = static_cast<std::byte*>(h.data) +
                         static_cast<size_t>(h.size) * elem;
        switch (s->op) {
          case PlanOp::kRepVarintSint32:
            dpurpc::store_le(out, static_cast<uint32_t>(wire::zigzag_decode32(
                                      static_cast<uint32_t>(raw))));
            break;
          case PlanOp::kRepVarintSint64:
            dpurpc::store_le(out, static_cast<uint64_t>(wire::zigzag_decode64(raw)));
            break;
          case PlanOp::kRepVarintBool:
            *reinterpret_cast<uint8_t*>(out) = raw != 0 ? 1 : 0;
            break;
          default:
            if (elem == 4) {
              dpurpc::store_le(out, static_cast<uint32_t>(raw));
            } else {
              dpurpc::store_le(out, raw);
            }
            break;
        }
        ++h.size;
        break;
      }

      // ------------------------------------------ packed repeated scalars
      case PlanOp::kPackedFixed32:
      case PlanOp::kPackedFixed64: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        const uint32_t elem = s->elem_size;
        if (payload->size() % elem != 0) {
          return Status(Code::kDataLoss,
                        elem == 4 ? "packed fixed32 payload not a multiple of 4"
                                  : "packed fixed64 payload not a multiple of 8");
        }
        auto count = static_cast<uint32_t>(payload->size() / elem);
        auto& h = *reinterpret_cast<RepHeader*>(dst);
        DPURPC_RETURN_IF_ERROR(ensure_capacity(h, h.size + count, elem, elem, arena));
        std::memcpy(static_cast<std::byte*>(h.data) +
                        static_cast<size_t>(h.size) * elem,
                    payload->data(), payload->size());
        h.size += count;
        break;
      }
      case PlanOp::kPackedVarint32:
      case PlanOp::kPackedVarint64:
      case PlanOp::kPackedSint32:
      case PlanOp::kPackedSint64:
      case PlanOp::kPackedBool: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        const auto* pp = reinterpret_cast<const uint8_t*>(payload->data());
        const auto* pend = pp + payload->size();
        // Terminator scan: exact element count for a single allocation,
        // and a mid-element truncation check. Values are decoded by the
        // batch decoder below.
        uint32_t count = wire::count_varint_terminators(pp, pend);
        if (pp != pend && (pend[-1] & 0x80) != 0) {
          return Status(Code::kDataLoss, "packed varint payload ends mid-element");
        }
        const uint32_t elem = s->elem_size;
        auto& h = *reinterpret_cast<RepHeader*>(dst);
        DPURPC_RETURN_IF_ERROR(ensure_capacity(h, h.size + count, elem, elem, arena));
        std::byte* out = static_cast<std::byte*>(h.data) +
                         static_cast<size_t>(h.size) * elem;
        const uint8_t* next = nullptr;
        switch (s->op) {
          case PlanOp::kPackedVarint32:
            next = wire::decode_varint_batch32(pp, pend, count,
                                               reinterpret_cast<uint32_t*>(out));
            break;
          case PlanOp::kPackedVarint64:
            next = wire::decode_varint_batch64(pp, pend, count,
                                               reinterpret_cast<uint64_t*>(out));
            break;
          case PlanOp::kPackedSint32:
            next = wire::decode_varint_run(
                pp, pend, count, reinterpret_cast<uint32_t*>(out), [](uint64_t v) {
                  return static_cast<uint32_t>(
                      wire::zigzag_decode32(static_cast<uint32_t>(v)));
                });
            break;
          case PlanOp::kPackedSint64:
            next = wire::decode_varint_run(
                pp, pend, count, reinterpret_cast<uint64_t*>(out), [](uint64_t v) {
                  return static_cast<uint64_t>(wire::zigzag_decode64(v));
                });
            break;
          default:  // kPackedBool
            next = wire::decode_varint_run(
                pp, pend, count, reinterpret_cast<uint8_t*>(out),
                [](uint64_t v) { return static_cast<uint8_t>(v != 0 ? 1 : 0); });
            break;
        }
        if (next == nullptr) [[unlikely]] {
          return Status(Code::kDataLoss, "malformed packed varint");
        }
        h.size += count;
        break;
      }

      // ------------------------------------------------ strings / bytes
      case PlanOp::kString:
      case PlanOp::kBytes: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        if (s->op == PlanOp::kString && options_.validate_utf8 &&
            !wire::validate_utf8(*payload)) {  // SWAR ASCII fast path inside
          return Status(Code::kDataLoss, "invalid UTF-8 in string field");
        }
        DPURPC_RETURN_IF_ERROR(
            arena::craft_string(dst, *payload, arena, xlate, flavor_));
        set_has(s);
        break;
      }
      case PlanOp::kRepString:
      case PlanOp::kRepBytes: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        if (s->op == PlanOp::kRepString && options_.validate_utf8 &&
            !wire::validate_utf8(*payload)) {
          return Status(Code::kDataLoss, "invalid UTF-8 in string field");
        }
        auto& h = *reinterpret_cast<RepHeader*>(dst);
        DPURPC_RETURN_IF_ERROR(ensure_capacity(h, h.size + 1, sizeof(void*), 8, arena));
        void* slot = arena.allocate(string_slot_size, 8);
        if (slot == nullptr) {
          return Status(Code::kResourceExhausted, "arena full (string slot)");
        }
        DPURPC_RETURN_IF_ERROR(
            arena::craft_string(slot, *payload, arena, xlate, flavor_));
        static_cast<void**>(h.data)[h.size++] = slot;  // local; fixed up later
        break;
      }

      // ------------------------------------------------------- messages
      case PlanOp::kMessage: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        const ClassEntry& child_cls = adt_->class_at(s->aux);
        // proto3 merge semantics: a repeated occurrence of a singular
        // message field merges into the existing instance.
        auto* existing =
            reinterpret_cast<std::byte*>(dpurpc::load_le<uint64_t>(dst));
        std::byte* child = existing;
        if (child == nullptr) {
          child = static_cast<std::byte*>(
              arena.allocate(child_cls.size, child_cls.align));
          if (child == nullptr) {
            return Status(Code::kResourceExhausted, "arena full (child message)");
          }
          std::memcpy(child, child_cls.default_bytes.data(), child_cls.size);
        }
        DPURPC_RETURN_IF_ERROR(parse_msg(*plans_->parse().for_class(s->aux), child,
                                         as_bytes_view(*payload), arena, xlate,
                                         depth + 1, stats));
        dpurpc::store_le(dst, reinterpret_cast<uint64_t>(child));  // local
        set_has(s);
        break;
      }
      case PlanOp::kRepMessage: {
        auto payload = r.read_length_delimited();
        if (!payload.is_ok()) return payload.status();
        const ClassEntry& child_cls = adt_->class_at(s->aux);
        auto& h = *reinterpret_cast<RepHeader*>(dst);
        DPURPC_RETURN_IF_ERROR(ensure_capacity(h, h.size + 1, sizeof(void*), 8, arena));
        auto* child = static_cast<std::byte*>(
            arena.allocate(child_cls.size, child_cls.align));
        if (child == nullptr) {
          return Status(Code::kResourceExhausted, "arena full (child message)");
        }
        std::memcpy(child, child_cls.default_bytes.data(), child_cls.size);
        DPURPC_RETURN_IF_ERROR(parse_msg(*plans_->parse().for_class(s->aux), child,
                                         as_bytes_view(*payload), arena, xlate,
                                         depth + 1, stats));
        static_cast<void**>(h.data)[h.size++] = child;  // local; fixed up later
        break;
      }

      case PlanOp::kSkip:
        break;  // handled above; unreachable
    }

    predicted = s->next_tag;
    predicted_slot = plan.slot(predicted);
  }

  stats.fields += fields;
  stats.prediction_hits += hits;
  return Status::ok();
}

// Pointer fixup: rebase every embedded pointer into the receiver's address
// space. Runs exactly once, after the whole object tree is parsed (all
// intermediate pointers are local during parsing, which keeps proto3 merge
// semantics from translating a child twice). Under the paper's mirrored
// shared address space (delta == 0) this pass vanishes — the measured
// benefit of mirroring (see bench/ablation_fixup). Strings were crafted
// directly with `xlate`, so they need no attention here.
void ArenaDeserializer::fix_pointers(const ClassEntry& cls, std::byte* base,
                                     const arena::AddressTranslator& xlate) const {
  const auto has_bits = dpurpc::load_le<uint32_t>(base + cls.has_bits_offset);
  for (const FieldEntry& f : cls.fields) {
    std::byte* dst = base + f.offset;
    if (f.repeated) {
      auto& h = *reinterpret_cast<RepHeader*>(dst);
      if (h.data == nullptr) continue;
      if (f.type == FieldType::kMessage) {
        auto** elems = static_cast<void**>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) {
          fix_pointers(adt_->class_at(f.child_class),
                       static_cast<std::byte*>(elems[i]), xlate);
          elems[i] = xlate.translate(elems[i]);
        }
      } else if (f.type == FieldType::kString || f.type == FieldType::kBytes) {
        auto** elems = static_cast<void**>(h.data);
        for (uint32_t i = 0; i < h.size; ++i) elems[i] = xlate.translate(elems[i]);
      }
      h.data = xlate.translate(h.data);
    } else if (f.type == FieldType::kMessage && f.has_bit >= 0 &&
               (has_bits & (1u << f.has_bit)) != 0) {
      auto* child = reinterpret_cast<std::byte*>(dpurpc::load_le<uint64_t>(dst));
      if (child != nullptr) {
        fix_pointers(adt_->class_at(f.child_class), child, xlate);
        dpurpc::store_le(dst, reinterpret_cast<uint64_t>(xlate.translate(child)));
      }
    }
  }
}

// Slice relocation: the codec-pool variant of fix_pointers. The walk runs
// over the *copied* slice, whose pointer slots still hold pre-move (old)
// addresses: each slot in [old_begin, old_end) is rewritten to
// old + publish_delta, and recursion follows old + move_delta (the child's
// address inside the copy). Unlike fix_pointers, crafted strings DO need
// attention here — they were crafted with a zero-delta translator into the
// scratch slice, so their data pointers (including SSO self-references)
// moved with it. The range check doubles as the presence test: absent
// fields keep default-instance bytes whose pointers are null or static.
void ArenaDeserializer::relocate(uint32_t class_index, std::byte* base,
                                 const SliceRelocation& r) const {
  const ClassEntry& cls = adt_->class_at(class_index);
  for (const FieldEntry& f : cls.fields) {
    std::byte* dst = base + f.offset;
    if (f.repeated) {
      auto& h = *reinterpret_cast<RepHeader*>(dst);
      if (h.data == nullptr || !r.contains(h.data)) continue;
      auto* moved = static_cast<std::byte*>(h.data) + r.move_delta;
      if (f.type == FieldType::kMessage) {
        auto** elems = reinterpret_cast<std::byte**>(moved);
        for (uint32_t i = 0; i < h.size; ++i) {
          std::byte* old_child = elems[i];
          relocate(f.child_class, old_child + r.move_delta, r);
          elems[i] = old_child + r.publish_delta;
        }
      } else if (f.type == FieldType::kString || f.type == FieldType::kBytes) {
        auto** elems = reinterpret_cast<std::byte**>(moved);
        for (uint32_t i = 0; i < h.size; ++i) {
          std::byte* old_rep = elems[i];
          arena::relocate_crafted_string(old_rep + r.move_delta, flavor_,
                                         r.old_begin, r.old_end, r.publish_delta);
          elems[i] = old_rep + r.publish_delta;
        }
      }
      h.data = static_cast<std::byte*>(h.data) + r.publish_delta;
    } else if (f.type == FieldType::kString || f.type == FieldType::kBytes) {
      arena::relocate_crafted_string(dst, flavor_, r.old_begin, r.old_end,
                                     r.publish_delta);
    } else if (f.type == FieldType::kMessage) {
      auto* child = reinterpret_cast<std::byte*>(dpurpc::load_le<uint64_t>(dst));
      if (child == nullptr || !r.contains(child)) continue;
      relocate(f.child_class, child + r.move_delta, r);
      dpurpc::store_le(dst, reinterpret_cast<uint64_t>(child + r.publish_delta));
    }
  }
}

// ------------------------------------------------------------ LayoutView

namespace {
const ClassEntry& empty_class() noexcept {
  static const ClassEntry empty{};
  return empty;
}
}  // namespace

LayoutView::LayoutView(const Adt* adt) noexcept
    : adt_(adt), cls_(&empty_class()), class_index_(kNoChild), base_(nullptr) {}

std::string_view LayoutView::get_string(uint32_t n) const noexcept {
  const FieldEntry* f = singular_entry(n);
  if (f == nullptr || (f->type != FieldType::kString && f->type != FieldType::kBytes)) {
    return {};
  }
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  auto v = arena::read_crafted_string(at(*f), flavor);
  return v.is_ok() ? *v : std::string_view{};
}

LayoutView LayoutView::get_message(uint32_t n) const noexcept {
  const FieldEntry* f = singular_entry(n);
  if (f == nullptr || f->type != FieldType::kMessage) return LayoutView(adt_);
  const auto* child =
      reinterpret_cast<const std::byte*>(dpurpc::load_le<uint64_t>(at(*f)));
  return child == nullptr ? LayoutView(adt_) : LayoutView(adt_, f->child_class, child);
}

std::string_view LayoutView::repeated_string(uint32_t n, uint32_t i) const noexcept {
  const FieldEntry* f = repeated_entry(n);
  if (f == nullptr || (f->type != FieldType::kString && f->type != FieldType::kBytes)) {
    return {};
  }
  const RepHeader h = rep(*f);
  if (i >= h.size) return {};
  auto flavor = static_cast<arena::StdLibFlavor>(adt_->fingerprint().string_flavor);
  const void* slot = static_cast<void* const*>(h.data)[i];
  auto v = arena::read_crafted_string(slot, flavor);
  return v.is_ok() ? *v : std::string_view{};
}

LayoutView LayoutView::repeated_message(uint32_t n, uint32_t i) const noexcept {
  const FieldEntry* f = repeated_entry(n);
  if (f == nullptr || f->type != FieldType::kMessage) return LayoutView(adt_);
  const RepHeader h = rep(*f);
  if (i >= h.size) return LayoutView(adt_);
  const void* child = static_cast<void* const*>(h.data)[i];
  return LayoutView(adt_, f->child_class, child);
}

}  // namespace dpurpc::adt
