#pragma once
// A tiny signal/slot utility for decoupled publish/subscribe between
// substrates (e.g. monitors observing the RTE).

#include <cstdint>
#include <functional>
#include <list>

namespace sa::sim {

/// A minimal typed signal. Subscribers are invoked synchronously in
/// subscription order; subscription order is deterministic.
///
/// Slots may subscribe and unsubscribe re-entrantly during emit(): a slot
/// added during an emission is called in that same emission, and an
/// unsubscribed slot is never called again. The running callable is never
/// moved or destroyed under it: slots live in a std::list (appending
/// relocates nothing), and unsubscribed slots are erased only after the
/// outermost emit() returns.
template <typename... Args>
class Signal {
public:
    using Slot = std::function<void(Args...)>;

    /// Returns a subscription id usable with unsubscribe().
    std::uint64_t subscribe(Slot slot) {
        slots_.push_back({next_id_, std::move(slot)});
        return next_id_++;
    }

    void unsubscribe(std::uint64_t id) {
        for (auto& s : slots_) {
            if (s.id == id) {
                s.live = false;
                unsubscribed_ = true;
            }
        }
        if (depth_ == 0) {
            erase_unsubscribed();
        }
    }

    void emit(Args... args) const {
        if (slots_.empty()) {
            return;
        }
        // Counts nested emissions; the count drops even when a slot throws.
        struct Depth {
            const Signal& signal;
            explicit Depth(const Signal& s) : signal(s) { ++signal.depth_; }
            ~Depth() {
                if (--signal.depth_ == 0 && signal.unsubscribed_) {
                    signal.erase_unsubscribed();
                }
            }
        } depth(*this);
        // A std::list's end() never moves, so this loop also reaches slots
        // appended while it runs.
        for (const Entry& s : slots_) {
            if (s.live && s.slot) {
                s.slot(args...);
            }
        }
    }

    [[nodiscard]] std::size_t subscriber_count() const noexcept {
        std::size_t n = 0;
        for (const auto& s : slots_) {
            if (s.live && s.slot) {
                ++n;
            }
        }
        return n;
    }

private:
    struct Entry {
        std::uint64_t id;
        Slot slot;
        bool live = true;
    };

    void erase_unsubscribed() const {
        slots_.remove_if([](const Entry& s) { return !s.live; });
        unsubscribed_ = false;
    }

    // Mutable so the outermost emit() can release what its slots
    // unsubscribed.
    mutable std::list<Entry> slots_;
    mutable int depth_ = 0;
    mutable bool unsubscribed_ = false;
    std::uint64_t next_id_ = 1;
};

} // namespace sa::sim
