#pragma once
// Discrete-event simulation kernel. Single-threaded and deterministic:
// the same seed and setup always produce the same trace. Substrates that
// share a Simulator (CAN bus, ECU schedulers, vehicle dynamics, platoon
// messaging) have their interleavings globally ordered. A ShardedKernel
// (sim/sharded_kernel.hpp) owns one Simulator per ECU domain and coordinates
// them with conservative lookahead; each domain remains exactly this
// single-threaded kernel inside its window.
//
// One drain path: run_until() (and run_for()) take events off the queue one
// at a time through EventQueue::pop_until() and honour stop() between any
// two events.

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/random.hpp"

namespace sa::sim {

class ShardedKernel;
class Simulator;

namespace detail {
/// The simulator whose sharded window is executing on the calling thread,
/// or nullptr outside a window (between runs, inside a script barrier, a
/// plain Simulator's run). Set by ShardedKernel around each domain window;
/// the thread running the window (the caller of run_until() for the domains
/// of group 0, a worker for the others) is the domain's sole owner for it,
/// hence mutable.
[[nodiscard]] Simulator* executing_domain() noexcept;
void set_executing_domain(Simulator* simulator) noexcept;
/// Count of live ShardedKernels in this process that have more than one
/// domain and have run, whatever their thread count: a one-thread kernel
/// counts too, so a foreign mutation fails at every thread budget, not only
/// where it would race. While zero, the ownership guards reduce to one
/// relaxed global load — no thread-local access on the scheduling hot path.
[[nodiscard]] int multi_domain_kernels() noexcept;
void add_multi_domain_kernels(int delta) noexcept;
} // namespace detail

class Simulator {
public:
    explicit Simulator(std::uint64_t seed = 0x5AA5F00DULL) : seed_(seed) {}

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Schedule `action` to run after `delay` (>= 0) from now.
    EventHandle schedule(Duration delay, EventQueue::Action action);

    /// Schedule `action` at absolute time `at` (>= now).
    EventHandle schedule_at(Time at, EventQueue::Action action);

    /// Schedule a periodic activity; the first firing happens after `phase`.
    /// The returned id can be passed to cancel_periodic().
    ///
    /// Sharding contract: the periodic registry is single-threaded state.
    /// Under a ShardedKernel this must be called from the owning domain (its
    /// thread during a window, or any quiescent context between windows);
    /// a foreign domain thread must post() the registration instead.
    std::uint64_t schedule_periodic(Duration period, EventQueue::Action action,
                                    Duration phase = Duration::zero());

    /// Stop a periodic activity. The in-flight occurrence is cancelled
    /// eagerly (O(1) via the queue's generation counters), so no stale event
    /// lingers in the queue.
    ///
    /// Sharding contract: like schedule_periodic(), only the owning domain
    /// may call this while a sharded window is executing — a foreign domain
    /// thread must post() the cancellation to the owning domain (enforced
    /// with SA_REQUIRE, so a Vehicle torn down from the wrong thread fails
    /// loudly instead of racing the owner's fire_periodic()).
    void cancel_periodic(std::uint64_t id);

    bool cancel(EventHandle handle) {
        SA_REQUIRE(owned_by_caller(),
                   "event cancelled on a foreign simulator from inside a "
                   "window; post() the cancellation to the owning domain "
                   "instead");
        return queue_.cancel(handle);
    }

    /// Run until the event queue is empty or `until` is reached (whichever is
    /// first). Returns the number of events executed. Executes one event at a
    /// time; stop() takes effect after the current event completes.
    std::size_t run_until(Time until);

    /// Run for `span` from now.
    std::size_t run_for(Duration span) { return run_until(now_ + span); }

    /// Request that run_until return after the current event completes.
    /// Thread-safe: the flag is atomic, so a monitor in another domain's
    /// window (or any external thread) may request a stop without
    /// racing the owning drain loop. Note run_until() still consumes the
    /// flag on entry, so a stop aimed at an idle simulator is discarded; to
    /// stop a whole sharded run use ShardedKernel::stop().
    void stop() noexcept { stop_requested_.store(true, std::memory_order_relaxed); }

    /// Advance the clock to `at` without executing anything. Requires that
    /// no event is pending before `at` and `at` >= now(). The sharded
    /// kernel uses this to align domain clocks on script barriers and at
    /// the end of a run, so "schedule after delay from now" means the same
    /// thing at every domain count.
    void advance_to(Time at);

    /// Earliest pending event time, or Time::max() when idle.
    [[nodiscard]] Time next_pending_time() const {
        return queue_.empty() ? Time::max() : queue_.next_time();
    }

    [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
    [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

    /// Non-null when this simulator is one domain of a ShardedKernel.
    [[nodiscard]] ShardedKernel* shard() const noexcept { return shard_; }
    [[nodiscard]] std::size_t shard_domain() const noexcept { return shard_domain_; }

    /// Deterministic RNG seeded from the constructor seed. Constructed
    /// lazily on first access: seeding a mt19937_64 costs ~0.6 us, which
    /// purely-deterministic simulations (no noise, no fault injection)
    /// never need to pay. The drawn sequence is identical either way.
    RandomEngine& rng() noexcept {
        if (!rng_.has_value()) {
            rng_.emplace(seed_);
        }
        return *rng_;
    }

private:
    /// One periodic activity, stored flat in `periodics_`. Slots are reused
    /// after cancellation; the generation counter makes reuse safe (a stale
    /// id can never act on a later registration in the same slot) exactly
    /// like EventQueue's cancellation slots. The public id encodes both:
    /// id = (generation << 32) | (slot + 1), so a valid id is never 0.
    struct PeriodicSlot {
        Duration period;
        EventQueue::Action action;
        EventHandle next; ///< the in-flight occurrence, cancelled eagerly
        std::uint32_t generation = 1;
        bool live = false;
    };

    friend class ShardedKernel; ///< binds shard_/shard_domain_ at construction

    void fire_periodic(std::uint64_t id);
    void arm_periodic(PeriodicSlot& slot, std::uint64_t id, Duration delay);
    /// True when the calling thread may mutate single-threaded state: either
    /// no sharded window is executing on this thread, or the window is ours.
    /// Applies to EVERY simulator, sharded or not — a domain window holding
    /// a reference to some foreign standalone simulator must not race its
    /// owner either.
    [[nodiscard]] bool owned_by_caller() const noexcept {
        if (detail::multi_domain_kernels() == 0) {
            return true; // fast path: no multi-domain kernel has run
        }
        const Simulator* executing = detail::executing_domain();
        return executing == nullptr || executing == this;
    }

    EventQueue queue_;
    Time now_ = Time::zero();
    std::uint64_t seed_;
    std::optional<RandomEngine> rng_;
    std::atomic<bool> stop_requested_{false};
    ShardedKernel* shard_ = nullptr;
    std::size_t shard_domain_ = 0;
    std::uint64_t executed_ = 0;
    // Flat slot storage: a firing decodes its slot index straight from the
    // id — no hashing, no per-task heap node. fire_periodic moves the action
    // out of the slot before invoking it, so an action that cancels its own
    // id (or registers new periodics, reallocating the vector) never
    // destroys its own captures mid-call; this replaces the shared_ptr
    // pinning the old map-based registry needed.
    std::vector<PeriodicSlot> periodics_;
    std::vector<std::uint32_t> free_periodics_;
};

} // namespace sa::sim
