#pragma once
// Sharded discrete-event kernel: one Simulator per ECU domain, coordinated
// with conservative lookahead so domains advance in parallel while staying
// deterministic. It is the one kernel every Scenario runs on; domains(1) is
// a single domain.
//
// Partitioning model. A ShardedKernel owns N DomainKernels; each DomainKernel
// owns a private Simulator (bucketed event queue, clock, RNG, periodic
// registry). The domains are the partition; threads are a budget. A kernel
// runs its N domains on T = min(N, budget) threads (set_thread_budget();
// by default the CPUs in the process's affinity mask), fixed when the
// kernel is created. Each thread owns a fixed, contiguous group of domains
// and runs their windows in index order. Group 0 holds domain 0 and runs on
// the thread that calls run_until(); the other T-1 groups each get a worker
// thread, started by the first run. So a kernel with T = 1 — one domain, or
// a budget of one — starts no thread and runs every domain's window on the
// caller. A domain's events execute only on its group's thread — a domain
// is exactly the single-threaded kernel it always was, so no subsystem
// needs locks for its own state. T changes no result: windows, horizons and
// the mailbox merge order depend on the domains alone.
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
// by the owning domain's thread) and are flushed into the target queues at
// the barrier, ordered by (delivery time, source domain, send order): the
// merge is deterministic, so the whole run is seed-stable regardless of
// thread scheduling. post() rejects any send below the current horizon,
// which turns a forgotten declare_lookahead() into a loud contract violation
// instead of a silent causality leak.
//
// Scripts. schedule_script() actions are global barriers: the coordinator
// runs each one at exactly its timestamp with every domain quiescent and
// every clock aligned (Simulator::advance_to), before any event at that
// timestamp, so a script may touch any domain — inject faults, rewire
// routes, destroy a vehicle — without racing a window. This is how
// scenario-level interventions stay race-free without carrying a lookahead
// of their own.
//
// Determinism. Within a domain, execution order is the single-queue order of
// that domain's events, and scripts run at barriers at every domain count,
// one included. Entities that do not share simulator-level state (distinct
// vehicles) therefore observe the same event sequence whatever the domain
// count, and per-entity counters reproduce bit-for-bit across domain counts
// and thread budgets — the property the sharded determinism suite locks
// in. This holds only while nothing draws randomness: a random draw comes
// from its domain's Simulator::rng(), which vehicles on one domain share
// and which is seeded per domain, so a scenario with randomised execution
// times, CAN bit errors or sensor noise reads different results at
// different domain counts. ROADMAP direction 9 gives each entity its own
// stream.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace sa::sim {

/// Lookahead value meaning "this domain never emits cross-domain events".
inline constexpr Duration kUnboundedLookahead = Duration(INT64_MAX);

/// One shard of a sharded simulation: a private Simulator plus its outboxes.
/// Created and owned by ShardedKernel.
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
    /// outbox_[target]: sends made by this domain during the current window.
    /// Written only by the thread of the domain's group, drained by the
    /// coordinator at the barrier (published by a worker's pending_
    /// decrement).
    std::vector<std::vector<Envelope>> outbox_;
    /// An exception thrown inside this domain's window (e.g. a contract
    /// violation); captured by run_domain_window() and rethrown by the
    /// coordinator at the barrier so it surfaces on the calling thread.
    std::exception_ptr error_;
};

/// Set the process-wide thread budget (>= 1) and return the previous one.
/// A kernel created after this call runs its N domains on min(N, threads)
/// threads; kernels created earlier keep theirs. The default is the number
/// of CPUs in the process's affinity mask at start-up, so `taskset -c 0`
/// makes it 1.
std::size_t set_thread_budget(std::size_t threads);

/// Coordinator of N DomainKernels. See the header comment for the model.
class ShardedKernel {
public:
    /// Domain 0 is seeded with `seed` itself (identical to a standalone
    /// Simulator(seed)); domains 1+ get independent streams derived via
    /// splitmix64, so a sharded run is reproducible from one seed and
    /// domain-0 workloads are stream-identical across domain counts.
    explicit ShardedKernel(std::size_t num_domains,
                           std::uint64_t seed = 0x5AA5F00DULL);
    /// Joins the worker threads, if any. Pending events are dropped with
    /// their queues, like a Simulator destroyed mid-run.
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
    /// remaining events queued. Thread-safe. Called from inside one of this
    /// kernel's windows it also stops that domain after the current event,
    /// so the stopping domain halts where a one-domain run would; the other
    /// domains finish their window. Consumed like Simulator::stop(); a
    /// consumed stop leaves now() at settled().
    void stop() noexcept;

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
    /// It changes only between windows, so any domain may read it
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

    /// On the first run: arm the ownership guards (more than one domain)
    /// and start the workers of groups 1..T-1.
    void start();
    void worker_main(std::size_t group);
    /// First domain of thread `group`'s group. Groups split the domains as
    /// evenly as T divides N, the smaller ones first.
    [[nodiscard]] std::size_t group_begin(std::size_t group) const noexcept {
        return group * domains_.size() / threads_;
    }
    /// Drain one domain to `window_end` on the calling thread, marked as
    /// that domain's executing thread; an exception lands in error_.
    static void run_domain_window(DomainKernel& domain, Time window_end);
    /// Drain every domain of thread `group`'s group, in index order.
    void run_group(std::size_t group, Time window_end);
    /// Run one window: every domain drains to `window_end`, group 0 on the
    /// calling thread and the others on their workers.
    void run_window(Time window_end);
    /// Merge all outboxes into their target queues, deterministically.
    void flush_outboxes();
    /// Recompute settled_ from the domain clocks (coordinator, quiescent).
    void settle() noexcept;
    /// Called from a domain's window (via post()) for a cross-domain send.
    void post_from(std::size_t from, std::size_t to, Time at,
                   EventQueue::Action action);

    std::vector<std::unique_ptr<DomainKernel>> domains_;
    std::size_t threads_; ///< T = min(N, budget at construction)
    bool started_ = false;
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

    // Round coordination (T > 1): two handoff words, no lock. The
    // coordinator writes window_end_, horizon_ (and, once, shutdown_), then
    // bumps round_ with a release RMW; a worker that acquires the new round
    // reads them. A worker writes its group's outboxes and error_, then
    // decrements pending_ with a release RMW; the decrements form one
    // release sequence, so the coordinator's acquire of zero reads every
    // worker's writes.
    //
    // Each waiter — a worker waiting for the next round, the coordinator
    // waiting for the last worker — spins on its word with a CPU-relax hint
    // for a time budget of its own, then parks with std::atomic::wait. A
    // wait that spinning satisfied doubles the budget (cap 50 us), one that
    // had to park halves it (floor 1 us), so spinning persists only while
    // it pays. The waker calls notify_all only when the word's parked count
    // is non-zero. The parker's increment and re-check of the word and the
    // waker's bump and read of the count are all seq_cst: either the waker
    // sees the parker or the parker sees the bump, so no wake-up is lost and
    // the usual handoff makes no system call. A one-thread kernel has no
    // worker and touches none of this. Each word has a cache line of its
    // own, so spinning on one does not contend with writes to the other.
    struct alignas(64) HandoffWord {
        std::atomic<std::uint32_t> value{0};
        std::atomic<std::uint32_t> parked{0}; ///< waiters asleep on value
    };
    HandoffWord round_;   ///< bumped once per window (and at shutdown)
    HandoffWord pending_; ///< worker threads still inside the current window
    std::chrono::nanoseconds spin_budget_; ///< the coordinator's
    bool shutdown_ = false;
    Time window_end_ = Time::zero();
    Time horizon_ = Time::max(); ///< current window's safe horizon (post() check)
    /// Groups 1..T-1, started by the first run; after every member they use.
    std::vector<std::thread> workers_;
};

/// Schedule `action` at absolute time `at` on `target`, routing through the
/// sharded mailboxes when (and only when) the caller is executing a window
/// of a *different* domain. From quiescent contexts (between runs, a script
/// barrier) or from the target's own window this is exactly
/// Simulator::schedule_at. Cross-domain sends must satisfy the conservative
/// contract: `at` must lie at or beyond the current window's horizon, which
/// holds by construction when `at` = sender-domain now + a declared link
/// latency.
void post(Simulator& target, Time at, EventQueue::Action action);

} // namespace sa::sim
