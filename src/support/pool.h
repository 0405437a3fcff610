// Fixed-capacity object pool with overflow accounting.
//
// Paper §4.4.1: "we preallocate a fixed-size memory block per thread, giving
// a deterministic memory footprint, and report overflows so that we can
// adjust preallocation size on the next run." FixedPool implements exactly
// that contract: allocation never touches the heap after construction, and
// exhaustion is counted rather than fatal.
#ifndef TESLA_SUPPORT_POOL_H_
#define TESLA_SUPPORT_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace tesla {

template <typename T>
class FixedPool {
 public:
  explicit FixedPool(size_t capacity)
      : capacity_(capacity),
        storage_(static_cast<Slot*>(::operator new[](capacity * sizeof(Slot)))) {
    free_list_.reserve(capacity);
    for (size_t i = 0; i < capacity_; i++) {
      free_list_.push_back(&storage_[capacity_ - 1 - i]);
    }
  }

  ~FixedPool() {
    assert(live_ == 0 && "pool destroyed with live objects");
    ::operator delete[](storage_);
  }

  FixedPool(const FixedPool&) = delete;
  FixedPool& operator=(const FixedPool&) = delete;

  // Returns nullptr (and bumps the overflow counter) when the pool is full.
  template <typename... Args>
  T* Allocate(Args&&... args) {
    if (free_list_.empty()) {
      overflows_++;
      return nullptr;
    }
    Slot* slot = free_list_.back();
    free_list_.pop_back();
    live_++;
    high_water_ = live_ > high_water_ ? live_ : high_water_;
    return new (slot->bytes) T(std::forward<Args>(args)...);
  }

  void Free(T* object) {
    assert(object != nullptr);
    object->~T();
    live_--;
    free_list_.push_back(reinterpret_cast<Slot*>(object));
  }

  size_t capacity() const { return capacity_; }
  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  uint64_t overflows() const { return overflows_; }
  void ResetOverflows() { overflows_ = 0; }
  // Rewinds the mark to the current live population so a measurement window
  // opened now isn't polluted by earlier peaks.
  void ResetHighWater() { high_water_ = live_; }

 private:
  union Slot {
    alignas(T) char bytes[sizeof(T)];
  };

  const size_t capacity_;
  Slot* storage_;
  std::vector<Slot*> free_list_;
  size_t live_ = 0;
  size_t high_water_ = 0;
  uint64_t overflows_ = 0;
};

// Fixed-capacity *slot* allocator: the index-based sibling of FixedPool.
//
// SlotPool hands out dense uint32 slot ids instead of pointers, which lets a
// client keep the per-object fields in structure-of-arrays form (parallel
// vectors indexed by slot) so that hot loops touch only the arrays they need.
// Same contract as FixedPool: no heap traffic after construction, exhaustion
// is counted (kNoSlot) rather than fatal. The free list is a preallocated
// stack of `capacity` slot ids, so Allocate and Free are a load or store
// and a count update — no vector growth check on the hot path.
class SlotPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  explicit SlotPool(size_t capacity)
      : capacity_(capacity),
        free_(std::make_unique<uint32_t[]>(capacity)),
        free_count_(capacity) {
    for (size_t i = 0; i < capacity; i++) {
      free_[i] = static_cast<uint32_t>(capacity - 1 - i);
    }
  }

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // Returns kNoSlot (and bumps the overflow counter) when the pool is full.
  uint32_t Allocate() {
    if (free_count_ == 0) {
      overflows_++;
      return kNoSlot;
    }
    const uint32_t slot = free_[--free_count_];
    live_++;
    high_water_ = live_ > high_water_ ? live_ : high_water_;
    return slot;
  }

  void Free(uint32_t slot) {
    assert(slot < capacity_ && free_count_ < capacity_);
    live_--;
    free_[free_count_++] = slot;
  }

  size_t capacity() const { return capacity_; }
  size_t live() const { return live_; }
  size_t high_water() const { return high_water_; }
  uint64_t overflows() const { return overflows_; }
  void ResetOverflows() { overflows_ = 0; }
  // Rewinds the mark to the current live population so a measurement window
  // opened now isn't polluted by earlier peaks.
  void ResetHighWater() { high_water_ = live_; }

 private:
  const size_t capacity_;
  std::unique_ptr<uint32_t[]> free_;  // free slot ids; the top is free_[free_count_ - 1]
  size_t free_count_;
  size_t live_ = 0;
  size_t high_water_ = 0;
  uint64_t overflows_ = 0;
};

}  // namespace tesla

#endif  // TESLA_SUPPORT_POOL_H_
