#pragma once
// Bucketed event queue for the discrete-event kernel.
//
// Events are grouped into per-timestamp *buckets*: a binary min-heap orders
// the distinct timestamps while each bucket holds its events in insertion
// order. Pushing into an existing bucket and popping within a bucket are
// amortised O(1); the O(log n) heap work is paid once per distinct timestamp
// instead of once per event. This is what makes dense same-time cohorts
// (periodic monitors, batched CAN windows) cheap. pop_until() is the only
// way an event leaves the queue; Simulator::run_until() drains through it.
//
// Memory layout (the steady-state hot path is allocation-free):
//  - Actions are util::InlineCallable with 24 bytes of inline storage — an
//    Item is 40 bytes and typical captures ({this, id, token}) never touch
//    the heap. Dense-cohort push throughput is bandwidth-bound in
//    sizeof(Item), so the buffer is sized for three pointers, not for the
//    fattest caller: bigger captures fall back to one heap allocation
//    (long-lived callables such as periodic bodies pay it once at
//    registration — relocation of a heap target just moves a pointer).
//  - Buckets are recycled through a util::Pool: a drained bucket goes back
//    to the free list with its items vector's CAPACITY intact, so the next
//    timestamp reuses the same line-sized storage instead of reallocating.
//    (The old design kept a vector<unique_ptr<Bucket>> that allocated each
//    bucket individually and never shrank.)
//  - The timestamp -> bucket index is a last-bucket cache over an
//    open-addressed flat table (util::FlatPtrMap64): repeated pushes to the
//    current cohort hit the cache, everything else is one mixed probe into
//    a flat array — no per-node malloc, and clear() keeps the table.
//
// Cancellation uses generation counters: every event owns a slot in a slot
// table and its handle stores the slot's generation at push time. cancel()
// is O(1) — it just kills the slot — and a handle can never revoke a later
// event that happens to reuse the same slot, because reuse bumps the
// generation. There is no tombstone scan and no retained heap entry.

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/flat_map.hpp"
#include "util/inline_callable.hpp"
#include "util/pool.hpp"

namespace sa::sim {

/// Opaque handle for cancelling a scheduled event.
///
/// A handle stays valid-looking forever, but cancel() only succeeds while
/// the event it names is still pending: once the event has fired, been
/// cancelled, or the queue has been cleared, cancel() returns false. Slot
/// reuse is made safe by the generation counter — a stale handle can never
/// cancel a newer event.
class EventHandle {
public:
    EventHandle() = default;

    /// True if this handle was ever bound to an event. Note this does NOT
    /// mean the event is still pending — see cancel().
    [[nodiscard]] bool valid() const noexcept { return slot_ != 0; }

private:
    friend class EventQueue;
    EventHandle(std::uint32_t slot_plus1, std::uint32_t generation)
        : slot_(slot_plus1), generation_(generation) {}
    std::uint32_t slot_ = 0; ///< slot index + 1; 0 = never bound
    std::uint32_t generation_ = 0;
};

/// Priority event queue with stable FIFO order inside each timestamp.
///
/// Ordering contract: events fire in ascending timestamp order; events with
/// equal timestamps fire in push order (stable), which keeps simulations
/// deterministic regardless of heap internals.
class EventQueue {
public:
    /// Move-only small-buffer callable (24 inline bytes; see header note).
    using Action = util::InlineCallable<void(), 24>;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;
    ~EventQueue() { clear(); }

    /// Schedule an action at absolute time `at`. Returns a cancellation
    /// handle. Amortised O(1) when `at` already has pending events,
    /// O(log n distinct timestamps) otherwise.
    EventHandle push(Time at, Action action);

    /// Cancel a previously scheduled event in O(1). Returns false if it
    /// already fired, was already cancelled, or the queue was cleared since.
    /// The cancelled action is destroyed lazily when its bucket drains.
    bool cancel(EventHandle handle);

    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }

    /// Earliest pending event time. Requires !empty().
    [[nodiscard]] Time next_time() const;

    struct Popped {
        Time at;
        Action action;
    };
    /// Pop the earliest event into `out` if its time is <= `until`; returns
    /// false (leaving `out` untouched) when the queue is empty or the next
    /// event is later. Amortised O(1) within a timestamp cohort; heap
    /// maintenance happens only on cohort boundaries.
    bool pop_until(Time until, Popped& out);

    void clear() noexcept;

    /// Bucket-pool statistics: the queue microbench asserts the recycle-hit
    /// rate so the pool fix stays a regression-tested invariant.
    [[nodiscard]] std::size_t buckets_created() const noexcept {
        return bucket_pool_.created();
    }
    [[nodiscard]] std::uint64_t bucket_acquires() const noexcept {
        return bucket_pool_.acquires();
    }
    [[nodiscard]] double bucket_recycle_hit_rate() const noexcept {
        return bucket_pool_.recycle_hit_rate();
    }

private:
    struct Item {
        Action action;
        std::uint32_t slot;
    };
    /// All events at one timestamp, in insertion order. `next` marks how far
    /// the bucket has been consumed; buckets are recycled once drained.
    struct Bucket {
        std::int64_t at = 0;
        std::size_t next = 0;
        std::vector<Item> items;
    };
    /// Generation-counted cancellation slot. `live` flips false on cancel or
    /// pop; `generation` bumps when the slot is physically released so a
    /// stale handle can never match a reused slot.
    struct Slot {
        std::uint32_t generation = 1;
        bool live = false;
    };

    /// Heap ordering for std::push_heap/pop_heap (max-heap builders):
    /// "greater-than" yields a min-heap on bucket timestamp.
    static bool bucket_after(const Bucket* a, const Bucket* b) noexcept {
        return a->at > b->at;
    }

    Bucket* acquire_bucket(std::int64_t at);
    void retire_front_bucket();
    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot) noexcept;
    /// Drop leading cancelled items (and exhausted buckets) so the heap
    /// front is a live event.
    void prune_front();

    // Min-heap over bucket timestamps (std::push_heap/pop_heap with a
    // greater-than comparator). Holds one entry per *distinct* timestamp.
    std::vector<Bucket*> heap_;
    /// Timestamp index: cache of the bucket the last push landed in (dense
    /// cohorts hit it almost always), backed by the flat table.
    Bucket* last_bucket_ = nullptr;
    util::FlatPtrMap64<Bucket*> by_time_;
    util::Pool<Bucket> bucket_pool_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t live_ = 0;
};

} // namespace sa::sim
