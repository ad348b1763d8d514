// A flat open-addressing hash table keyed by 64-bit integers.
//
// One contiguous buffer holds a power-of-two array of slots followed by one
// control byte per slot. Lookups probe linearly from the slot the key's
// hash names; the control byte of a full slot carries five hash bits, so a
// probe reads slot memory only when those bits match. The table never
// deletes, so there are no tombstones: a probe ends at the first empty
// control byte. It grows by doubling once it would pass 7/8 full, which is
// the only time it allocates.
//
// The slot type carries its own key (KeyOf extracts it), so a record that
// already names its variable is stored as is, with no key beside it. Each
// full slot also has a two-bit user mark, kept in its control byte, for
// owners that need a per-slot state without widening the slot.
//
// Iteration visits full slots in slot order, which is a pure function of
// the insert sequence. Slot pointers stay valid until the next insert.
//
// Keys are mixed with the MurmurHash3 finalizer, and the low bits index the
// table. Callers that route keys by the high bits of a different mixer
// (KvService::shard_of uses SplitMix64's) therefore still spread each
// route's keys over the whole table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pqs::util {

inline std::uint64_t flat_table_hash(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}

template <typename Slot, typename KeyOf>
class FlatTable {
  static_assert(std::is_trivially_copyable_v<Slot> &&
                    std::is_trivially_destructible_v<Slot>,
                "slots are moved bytewise on growth");

 public:
  static constexpr std::uint8_t kMaxMark = 3;

  FlatTable() = default;
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;
  ~FlatTable() {
    if (slots_ != nullptr) {
      std::allocator<Slot>().deallocate(slots_, buffer_slots(capacity_));
    }
  }

  std::size_t size() const { return size_; }

  // The slot holding `key`, or nullptr.
  Slot* find(std::uint64_t key) {
    return const_cast<Slot*>(std::as_const(*this).find(key));
  }
  const Slot* find(std::uint64_t key) const {
    if (size_ == 0) return nullptr;
    const std::uint64_t h = flat_table_hash(key);
    const std::uint8_t tag = tag_of(h);
    for (std::size_t i = h & (capacity_ - 1);; i = (i + 1) & (capacity_ - 1)) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) return nullptr;
      if ((c & kTagMask) == tag && KeyOf{}(slots_[i]) == key) {
        return &slots_[i];
      }
    }
  }

  // Inserts a copy of `value` under its key with `mark` unless the key is
  // already present. Returns the key's slot and whether it was inserted.
  std::pair<Slot*, bool> try_emplace(const Slot& value, std::uint8_t mark = 0) {
    const std::uint64_t key = KeyOf{}(value);
    if ((size_ + 1) * 8 > capacity_ * 7) grow();
    const std::uint64_t h = flat_table_hash(key);
    const std::uint8_t tag = tag_of(h);
    std::size_t i = h & (capacity_ - 1);
    for (;; i = (i + 1) & (capacity_ - 1)) {
      const std::uint8_t c = ctrl_[i];
      if (c == kEmpty) break;
      if ((c & kTagMask) == tag && KeyOf{}(slots_[i]) == key) {
        return {&slots_[i], false};
      }
    }
    ::new (static_cast<void*>(&slots_[i])) Slot(value);
    ctrl_[i] = static_cast<std::uint8_t>(kFull | (mark << kMarkShift) | tag);
    ++size_;
    return {&slots_[i], true};
  }

  std::uint8_t mark(const Slot& slot) const {
    return static_cast<std::uint8_t>((ctrl_[index_of(slot)] >> kMarkShift) &
                                     kMaxMark);
  }
  void set_mark(const Slot& slot, std::uint8_t mark) {
    std::uint8_t& c = ctrl_[index_of(slot)];
    c = static_cast<std::uint8_t>((c & ~(kMaxMark << kMarkShift)) |
                                  (mark << kMarkShift));
  }

  // Calls f(slot, mark) for every full slot, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] != kEmpty) {
        f(slots_[i], static_cast<std::uint8_t>((ctrl_[i] >> kMarkShift) &
                                               kMaxMark));
      }
    }
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 0x80;
  static constexpr int kMarkShift = 5;
  static constexpr std::uint8_t kTagMask = 0x1f;
  static constexpr std::size_t kMinCapacity = 16;

  // Five hash bits far from the index bits.
  static std::uint8_t tag_of(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 59);
  }

  std::size_t index_of(const Slot& slot) const {
    return static_cast<std::size_t>(&slot - slots_);
  }

  // Slots first, then the control bytes, in one allocation of whole slots.
  static std::size_t buffer_slots(std::size_t capacity) {
    return capacity + (capacity + sizeof(Slot) - 1) / sizeof(Slot);
  }

  // Rehashes into a table of twice the capacity; the old buffer is freed
  // when `bigger`, which takes it over, goes out of scope.
  void grow() {
    FlatTable bigger;
    const std::size_t cap = capacity_ == 0 ? kMinCapacity : capacity_ * 2;
    bigger.capacity_ = cap;
    bigger.slots_ = std::allocator<Slot>().allocate(buffer_slots(cap));
    bigger.ctrl_ = reinterpret_cast<std::uint8_t*>(bigger.slots_ + cap);
    std::memset(bigger.ctrl_, kEmpty, cap);
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (ctrl_[i] == kEmpty) continue;
      std::size_t j = flat_table_hash(KeyOf{}(slots_[i])) & (cap - 1);
      while (bigger.ctrl_[j] != kEmpty) j = (j + 1) & (cap - 1);
      ::new (static_cast<void*>(&bigger.slots_[j])) Slot(slots_[i]);
      bigger.ctrl_[j] = ctrl_[i];
    }
    std::swap(slots_, bigger.slots_);
    std::swap(ctrl_, bigger.ctrl_);
    std::swap(capacity_, bigger.capacity_);
  }

  Slot* slots_ = nullptr;
  std::uint8_t* ctrl_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pqs::util
