#pragma once
// Open-addressed flat hash map from int64 keys to pointer values.
//
// Purpose-built for the EventQueue's timestamp -> bucket index (and similar
// int-keyed hot maps): linear probing over a power-of-two slot array,
// splitmix64-mixed keys, backward-shift deletion (no tombstones, so probe
// chains never rot), and nullptr as the empty-slot sentinel — values must
// never be null. Unlike unordered_map there is one flat allocation, no
// per-node malloc, and clear() keeps the slot array, so a warmed map serves
// steady-state insert/find/erase without touching the heap.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sa::util {

template <typename P>
class FlatPtrMap64 {
    static_assert(std::is_pointer_v<P>, "values must be (non-null) pointers");

public:
    FlatPtrMap64() = default;

    /// The value mapped to `key`, or nullptr when absent.
    [[nodiscard]] P find(std::int64_t key) const noexcept {
        if (size_ == 0) {
            return nullptr;
        }
        std::size_t i = home(key);
        while (slots_[i].value != nullptr) {
            if (slots_[i].key == key) {
                return slots_[i].value;
            }
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    /// Insert a mapping. `key` must be absent and `value` non-null.
    void insert(std::int64_t key, P value) {
        SA_ASSERT(value != nullptr, "flat map values must be non-null");
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            grow();
        }
        std::size_t i = home(key);
        while (slots_[i].value != nullptr) {
            SA_ASSERT(slots_[i].key != key, "duplicate key in flat map insert");
            i = (i + 1) & mask_;
        }
        slots_[i] = Slot{key, value};
        ++size_;
    }

    /// Remove a mapping if present (backward-shift: the probe chain behind
    /// the hole is compacted so later lookups never scan a tombstone).
    void erase(std::int64_t key) noexcept {
        if (size_ == 0) {
            return;
        }
        std::size_t i = home(key);
        while (slots_[i].value != nullptr && slots_[i].key != key) {
            i = (i + 1) & mask_;
        }
        if (slots_[i].value == nullptr) {
            return; // absent
        }
        std::size_t hole = i;
        std::size_t j = (hole + 1) & mask_;
        while (slots_[j].value != nullptr) {
            // Slot j may fill the hole iff the hole lies within j's probe
            // chain, i.e. the cyclic distance home(j)->hole does not exceed
            // home(j)->j.
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
            j = (j + 1) & mask_;
        }
        slots_[hole] = Slot{};
        --size_;
    }

    /// Drop every mapping, keeping the slot array's allocation.
    void clear() noexcept {
        for (Slot& slot : slots_) {
            slot = Slot{};
        }
        size_ = 0;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    /// Slot-array capacity (diagnostic; 0 until the first insert).
    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

private:
    struct Slot {
        std::int64_t key = 0;
        P value = nullptr; ///< nullptr == empty
    };

    /// Full-avalanche mix of the key: raw timestamps share low bits across
    /// periodic grids.
    [[nodiscard]] std::size_t home(std::int64_t key) const noexcept {
        return static_cast<std::size_t>(mix64(static_cast<std::uint64_t>(key))) & mask_;
    }

    void grow() {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t next = old.empty() ? 16 : old.size() * 2;
        slots_.assign(next, Slot{});
        mask_ = next - 1;
        for (const Slot& slot : old) {
            if (slot.value != nullptr) {
                std::size_t i = home(slot.key);
                while (slots_[i].value != nullptr) {
                    i = (i + 1) & mask_;
                }
                slots_[i] = slot;
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace sa::util
