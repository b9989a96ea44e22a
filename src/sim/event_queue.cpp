#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sa::sim {

EventQueue::Bucket* EventQueue::acquire_bucket(std::int64_t at) {
    // Pool recycling keeps the bucket's items CAPACITY from its previous
    // life; only the logical state is reset here.
    Bucket* bucket = bucket_pool_.acquire();
    bucket->at = at;
    bucket->next = 0;
    bucket->items.clear();
    by_time_.insert(at, bucket);
    heap_.push_back(bucket);
    std::push_heap(heap_.begin(), heap_.end(), &EventQueue::bucket_after);
    last_bucket_ = bucket;
    return bucket;
}

void EventQueue::retire_front_bucket() {
    Bucket* bucket = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), &EventQueue::bucket_after);
    heap_.pop_back();
    by_time_.erase(bucket->at);
    bucket->items.clear();
    bucket->next = 0;
    if (last_bucket_ == bucket) {
        last_bucket_ = nullptr;
    }
    bucket_pool_.release(bucket);
}

std::uint32_t EventQueue::acquire_slot() {
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    slots_.push_back(Slot{});
    // Keep the free list's capacity >= total slots so release_slot (called
    // from the noexcept clear()/destructor path) never needs to allocate.
    free_slots_.reserve(slots_.capacity());
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.live = false;
    ++s.generation; // stale handles can never match this slot again
    free_slots_.push_back(slot);
}

EventHandle EventQueue::push(Time at, Action action) {
    SA_REQUIRE(static_cast<bool>(action), "cannot schedule an empty action");
    const std::int64_t at_ns = at.ns();
    Bucket* bucket = (last_bucket_ != nullptr && last_bucket_->at == at_ns)
                         ? last_bucket_
                         : by_time_.find(at_ns);
    if (bucket == nullptr) {
        bucket = acquire_bucket(at_ns);
    } else {
        last_bucket_ = bucket;
    }
    const std::uint32_t slot = acquire_slot();
    slots_[slot].live = true;
    bucket->items.emplace_back(std::move(action), slot);
    ++live_;
    return EventHandle(slot + 1, slots_[slot].generation);
}

bool EventQueue::cancel(EventHandle handle) {
    if (!handle.valid()) {
        return false;
    }
    const std::uint32_t slot = handle.slot_ - 1;
    if (slot >= slots_.size()) {
        return false;
    }
    Slot& s = slots_[slot];
    if (!s.live || s.generation != handle.generation_) {
        return false; // already fired, already cancelled, or slot reused
    }
    s.live = false; // the action itself is reaped when its bucket drains
    --live_;
    return true;
}

void EventQueue::prune_front() {
    while (!heap_.empty()) {
        Bucket* bucket = heap_.front();
        while (bucket->next < bucket->items.size()) {
            Item& item = bucket->items[bucket->next];
            if (slots_[item.slot].live) {
                return; // front is a live event
            }
            item.action = nullptr; // reap the cancelled action eagerly
            release_slot(item.slot);
            ++bucket->next;
        }
        retire_front_bucket();
    }
}

Time EventQueue::next_time() const {
    auto* self = const_cast<EventQueue*>(this);
    self->prune_front();
    SA_REQUIRE(!heap_.empty(), "next_time on empty queue");
    return Time(heap_.front()->at);
}

bool EventQueue::pop_until(Time until, Popped& out) {
    prune_front();
    if (heap_.empty()) {
        return false;
    }
    Bucket* bucket = heap_.front();
    if (bucket->at > until.ns()) {
        return false;
    }
    Item& item = bucket->items[bucket->next];
    out.at = Time(bucket->at);
    out.action = std::move(item.action);
    item.action = nullptr;
    release_slot(item.slot);
    ++bucket->next;
    --live_;
    if (bucket->next == bucket->items.size()) {
        retire_front_bucket();
    }
    return true;
}

void EventQueue::clear() noexcept {
    // Release every pending slot (bumping its generation) so outstanding
    // handles can never cancel events scheduled after the clear.
    for (Bucket* bucket : heap_) {
        for (std::size_t i = bucket->next; i < bucket->items.size(); ++i) {
            release_slot(bucket->items[i].slot);
        }
        bucket->items.clear();
        bucket->next = 0;
        bucket_pool_.release(bucket);
    }
    heap_.clear();
    by_time_.clear();
    last_bucket_ = nullptr;
    live_ = 0;
}

} // namespace sa::sim
