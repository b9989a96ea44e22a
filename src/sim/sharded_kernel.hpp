#pragma once
// Sharded discrete-event kernel: one Simulator per ECU domain, coordinated
// with conservative lookahead so domains advance in parallel on worker
// threads while staying deterministic.
//
// Partitioning model. A ShardedKernel owns N DomainKernels; each DomainKernel
// owns a private Simulator (bucketed event queue, clock, RNG, periodic
// registry) and a worker thread. Everything scheduled on a domain's
// simulator executes on that domain's worker — a domain is exactly the
// single-threaded kernel it always was, so no subsystem needs locks for its
// own state.
//
// Conservative lookahead. Cross-domain interactions (CAN gateway forwards,
// V2V delivery) carry a minimum link latency, declared up front via
// declare_lookahead(). Each round the coordinator computes the global safe
// horizon
//
//     horizon = min over domains d of (next_event(d) + lookahead(d))
//
// — no event a domain has yet to execute can cause an effect in another
// domain earlier than that — and every domain drains its queue up to (but
// excluding) the horizon in parallel. Cross-domain sends made during the
// window land in per-(source, target) outboxes (plain vectors, written only
// by the owning worker) and are flushed into the target queues at the
// barrier, ordered by (delivery time, source domain, send order): the merge
// is deterministic, so the whole run is seed-stable regardless of thread
// scheduling. post() rejects any send below the current horizon, which turns
// a forgotten declare_lookahead() into a loud contract violation instead of
// a silent causality leak.
//
// Scripts. schedule_script() actions are global barriers: the coordinator
// runs each one at exactly its timestamp with every domain quiescent and
// every clock aligned (Simulator::advance_to), so a script may touch any
// domain — inject faults, rewire routes, destroy a vehicle — without racing
// the workers. This is how scenario-level interventions stay race-free
// without carrying a lookahead of their own.
//
// Determinism. Within a domain, execution order is the single-queue order of
// that domain's events. Entities that do not share simulator-level state
// (distinct vehicles) therefore observe event sequences identical to a
// single-queue run, and per-entity counters reproduce bit-for-bit across
// domain counts — the property the sharded determinism suite locks in. The
// one documented reorder: a script whose time collides with the *first*
// occurrence of a periodic armed before build finished runs before it here,
// after it on the single queue.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace sa::sim {

/// Lookahead value meaning "this domain never emits cross-domain events".
inline constexpr Duration kUnboundedLookahead = Duration(INT64_MAX);

/// One shard of a sharded simulation: a private Simulator plus its worker
/// thread and outboxes. Created and owned by ShardedKernel.
class DomainKernel {
public:
    DomainKernel(const DomainKernel&) = delete;
    DomainKernel& operator=(const DomainKernel&) = delete;

    [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] const Simulator& simulator() const noexcept { return simulator_; }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    /// Minimum latency of any cross-domain event this domain may emit.
    [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }

private:
    friend class ShardedKernel;
    DomainKernel(std::size_t index, std::uint64_t seed, std::size_t num_domains);

    /// A cross-domain event waiting for the barrier flush.
    struct Envelope {
        Time at;
        EventQueue::Action action;
    };

    Simulator simulator_;
    std::size_t index_;
    Duration lookahead_ = kUnboundedLookahead;
    /// outbox_[target]: sends made by this domain's worker during the
    /// current window. Written only by the owning worker, drained by the
    /// coordinator at the barrier (synchronised through the round mutex).
    std::vector<std::vector<Envelope>> outbox_;
    /// An exception thrown inside this domain's window (e.g. a contract
    /// violation); captured by the worker and rethrown by the coordinator
    /// at the barrier so it surfaces on the calling thread.
    std::exception_ptr error_;
    std::thread worker_;
};

/// Coordinator of N DomainKernels. See the header comment for the model.
class ShardedKernel {
public:
    /// Domain 0 is seeded with `seed` itself (identical to a standalone
    /// Simulator(seed)); domains 1+ get independent streams derived via
    /// splitmix64, so a sharded run is reproducible from one seed and
    /// domain-0 workloads are stream-identical across domain counts.
    explicit ShardedKernel(std::size_t num_domains,
                           std::uint64_t seed = 0x5AA5F00DULL);
    /// Joins the worker threads. Pending events are dropped with their
    /// queues, like a Simulator destroyed mid-run.
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel&) = delete;
    ShardedKernel& operator=(const ShardedKernel&) = delete;

    [[nodiscard]] std::size_t num_domains() const noexcept { return domains_.size(); }
    [[nodiscard]] Simulator& domain(std::size_t index);
    [[nodiscard]] const DomainKernel& domain_kernel(std::size_t index) const;

    /// Declare that `domain` may emit cross-domain events with at least
    /// `min_latency` of delay; its lookahead becomes the minimum of all
    /// declarations. Must be > 0: a zero-latency cross-domain link would
    /// forbid any parallel progress.
    void declare_lookahead(std::size_t domain, Duration min_latency);
    /// Same, resolving the domain from one of this kernel's simulators.
    void declare_lookahead(const Simulator& from, Duration min_latency);

    /// Run `action` at exactly `at` with every domain quiescent and every
    /// domain clock advanced to `at` (global barrier; see header comment).
    /// Scripts at equal times run in registration order. Call from the
    /// coordinator context only (before run_until(), or from a script).
    void schedule_script(Time at, std::function<void()> action);

    /// Drain every domain up to and including `until` through conservative
    /// windows. Returns the number of events executed across all domains.
    /// On return (without stop()) every domain clock reads `until`.
    std::size_t run_until(Time until);
    std::size_t run_for(Duration span) { return run_until(now_ + span); }

    /// Request that run_until() return at the next barrier, leaving
    /// remaining events queued. Thread-safe; consumed like Simulator::stop().
    void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

    /// Barrier time: the coordinator's lower bound on global progress.
    [[nodiscard]] Time now() const noexcept { return now_; }
    /// Actual global progress: the furthest any domain clock has advanced,
    /// never below now(). Unlike now() this stays meaningful when a window
    /// threw (now() is only updated after a window completes) — partial
    /// reports after a mid-run violation read this. Call from the
    /// coordinator context with the kernel quiescent (between runs, after a
    /// caught window exception, or inside a script): the workers' clock
    /// writes happened-before the barrier handshake completed.
    [[nodiscard]] Time progress() const noexcept;
    /// Every event timestamped before settled() has executed on every
    /// domain: the earliest domain clock at the last barrier (below now()
    /// only when a domain's own Simulator::stop() cut its window short).
    /// It changes only between windows, so a domain worker may read it
    /// mid-window — the V2V medium recycles delivered payloads against it.
    [[nodiscard]] Time settled() const noexcept { return settled_; }
    /// Events executed across all domains since construction.
    [[nodiscard]] std::uint64_t executed_events() const noexcept;
    /// Parallel windows executed (diagnostic: work per barrier).
    [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
    /// Cross-domain events delivered through the mailboxes (diagnostic).
    [[nodiscard]] std::uint64_t cross_domain_events() const noexcept {
        return cross_posts_;
    }

    /// True when `simulator` is one of this kernel's domains.
    [[nodiscard]] bool owns(const Simulator& simulator) const noexcept {
        return simulator.shard() == this;
    }

private:
    friend void post(Simulator& target, Time at, EventQueue::Action action);

    void ensure_workers();
    void worker_main(DomainKernel& domain);
    /// Run one parallel window: every domain drains to `window_end`.
    void run_window(Time window_end);
    /// Merge all outboxes into their target queues, deterministically.
    void flush_outboxes();
    /// Recompute settled_ from the domain clocks (coordinator, quiescent).
    void settle() noexcept;
    /// Called from a worker thread (via post()) for a cross-domain send.
    void post_from(std::size_t from, std::size_t to, Time at,
                   EventQueue::Action action);

    std::vector<std::unique_ptr<DomainKernel>> domains_;
    Time now_ = Time::zero();
    Time settled_ = Time::zero();
    std::atomic<bool> stop_{false};
    std::uint64_t windows_ = 0;
    std::uint64_t cross_posts_ = 0;
    /// Scripts kept sorted by time in a flat vector (equal times stay in
    /// registration order: inserts land after existing equal-time entries).
    /// scripts_head_ is the drain cursor — executed entries are skipped, not
    /// erased, and the vector compacts only when fully drained, so the
    /// script queue reuses one allocation instead of a tree node per script.
    struct Script {
        Time at;
        std::function<void()> action;
    };
    std::vector<Script> scripts_;
    std::size_t scripts_head_ = 0;

    // Round coordination. The coordinator publishes {window_end_, horizon_,
    // round_} under mutex_ and workers acknowledge through done_; outbox
    // contents ride the same mutex, so every window is a full
    // happens-before edge in both directions (ThreadSanitizer-clean).
    std::mutex mutex_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    std::uint64_t round_ = 0;
    std::size_t done_ = 0;
    bool shutdown_ = false;
    bool workers_started_ = false;
    Time window_end_ = Time::zero();
    Time horizon_ = Time::max(); ///< current window's safe horizon (post() check)
};

/// Schedule `action` at absolute time `at` on `target`, routing through the
/// sharded mailboxes when (and only when) the caller is executing a window
/// of a *different* domain. From quiescent contexts (main thread between
/// runs, a script barrier) or for an unsharded simulator this is exactly
/// Simulator::schedule_at. Cross-domain sends must satisfy the conservative
/// contract: `at` must lie at or beyond the current window's horizon, which
/// holds by construction when `at` = sender-domain now + a declared link
/// latency.
void post(Simulator& target, Time at, EventQueue::Action action);

} // namespace sa::sim
