// Contiguous stack (arena) allocation.
//
// A deserialized message must live in one contiguous, position-independent
// slice so the whole object can be moved with a single RDMA write (§V.C of
// the paper). This arena is a bump allocator over a borrowed region: no
// per-allocation headers (bookkeeping is external, like the VMA-style
// allocator used one level up for blocks), aligned allocations, wholesale
// reset. Objects in an arena are never destructed individually — memory is
// recycled by recycling the enclosing block.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/align.hpp"
#include "common/status.hpp"

namespace dpurpc::arena {

/// Bump allocator over [base, base+capacity). Does not own the memory.
class Arena {
 public:
  Arena() noexcept = default;
  Arena(void* base, size_t capacity) noexcept
      : base_(static_cast<std::byte*>(base)), capacity_(capacity) {}

  /// Allocate `size` bytes at `align` (power of two, <= kBlockAlign).
  /// Returns nullptr when the arena is exhausted — the caller decides
  /// whether that means "flush the block" or "message too large".
  void* allocate(size_t size, size_t align = kPayloadAlign) noexcept {
    uintptr_t cur = reinterpret_cast<uintptr_t>(base_) + used_;
    uintptr_t aligned = align_up(cur, align);
    size_t new_used = static_cast<size_t>(aligned - reinterpret_cast<uintptr_t>(base_)) + size;
    if (new_used > capacity_) return nullptr;
    used_ = new_used;
    return reinterpret_cast<void*>(aligned);
  }

  template <typename T>
  T* allocate_array(size_t count) noexcept {
    return static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
  }

  /// Grow the allocation that ends at `end` by `extra` bytes in place.
  /// Succeeds only if that allocation is the arena's last one and the
  /// arena has `extra` bytes left; otherwise nothing changes.
  bool extend(const void* end, size_t extra) noexcept {
    if (static_cast<const std::byte*>(end) != base_ + used_ || extra > capacity_ - used_) {
      return false;
    }
    used_ += extra;
    return true;
  }

  /// Discard everything (objects are trivially abandoned, never destructed).
  void reset() noexcept { used_ = 0; }

  std::byte* base() const noexcept { return base_; }
  size_t capacity() const noexcept { return capacity_; }
  size_t used() const noexcept { return used_; }
  size_t remaining() const noexcept { return capacity_ - used_; }

  bool contains(const void* p) const noexcept {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base_ && b < base_ + capacity_;
  }

 private:
  std::byte* base_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

/// Arena that owns its (aligned) backing storage. Convenience for tests,
/// examples, and the non-offloaded (host-local) deserialization scenario.
class OwningArena : public Arena {
 public:
  explicit OwningArena(size_t capacity);
  ~OwningArena();
  OwningArena(const OwningArena&) = delete;
  OwningArena& operator=(const OwningArena&) = delete;
};

}  // namespace dpurpc::arena
