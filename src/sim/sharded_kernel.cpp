#include "sim/sharded_kernel.hpp"

#include <algorithm>
#include <chrono>

#include <sched.h>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sa::sim {

namespace {

/// Decorrelates per-domain seeds derived from one.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t domain) {
    return util::mix64(seed + 0x9E3779B97F4A7C15ULL * (domain + 1));
}

/// `at + delta`, saturating at Time::max() (unbounded lookaheads, horizons).
Time saturating_after(Time at, Duration delta) {
    if (at == Time::max() || delta.count_ns() >= INT64_MAX - at.ns()) {
        return Time::max();
    }
    return at + delta;
}

/// The CPUs this process may run on: its affinity mask, which `taskset`
/// narrows and std::thread::hardware_concurrency() ignores.
std::size_t affinity_cpus() noexcept {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return std::max(1U, std::thread::hardware_concurrency());
}

/// Read at start-up, before any thread of the process narrows its own mask
/// (a benchmark pinning its measured thread to one CPU keeps the default).
std::atomic<std::size_t> g_thread_budget{affinity_cpus()};

// How long a waiter spins on its word before it parks, and how much of that
// spin it makes without yielding its CPU (see the header's round
// coordination comment).
constexpr std::chrono::nanoseconds kSpinCap = std::chrono::microseconds(50);
constexpr std::chrono::nanoseconds kYieldAfter = std::chrono::microseconds(2);

/// Tell the core this thread is spinning: frees pipeline resources for a
/// sibling hyperthread and paces the polling load.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/// Wait until `done(word)` holds and return the value that satisfied it:
/// spin for kSpinCap, yielding between polls after kYieldAfter, then park.
template <typename Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word,
                    std::atomic<std::uint32_t>& parked, Done done) noexcept {
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        const std::uint32_t value = word.load(std::memory_order_acquire);
        if (done(value)) {
            return value;
        }
        const auto spun = std::chrono::steady_clock::now() - start;
        if (spun >= kSpinCap) {
            break;
        }
        if (spun >= kYieldAfter) {
            // The thread this waits for may share the CPU; a pure spin would
            // keep it off for the whole kSpinCap.
            std::this_thread::yield();
        } else {
            cpu_relax();
        }
    }
    // Announce the sleep before the re-check (both seq_cst, pairing with
    // wake()): a bump this re-check misses sees the count and notifies.
    parked.fetch_add(1, std::memory_order_seq_cst);
    std::uint32_t value = word.load(std::memory_order_seq_cst);
    while (!done(value)) {
        word.wait(value, std::memory_order_seq_cst);
        value = word.load(std::memory_order_seq_cst);
    }
    parked.fetch_sub(1, std::memory_order_relaxed);
    return value;
}

/// Wake the waiters parked on `word`, called right after a seq_cst RMW of
/// it. No system call unless a waiter announced that it sleeps.
void wake(std::atomic<std::uint32_t>& word,
          const std::atomic<std::uint32_t>& parked) noexcept {
    if (parked.load(std::memory_order_seq_cst) != 0) {
        word.notify_all();
    }
}

} // namespace

DomainKernel::DomainKernel(std::size_t index, std::uint64_t seed,
                           std::size_t num_domains)
    : simulator_(seed),
      index_(index),
      outbox_{std::vector<Outbox>(num_domains), std::vector<Outbox>(num_domains)} {}

std::size_t set_thread_budget(std::size_t threads) {
    SA_REQUIRE(threads >= 1, "the thread budget must be at least one");
    return g_thread_budget.exchange(threads, std::memory_order_relaxed);
}

ShardedKernel::ShardedKernel(std::size_t num_domains, std::uint64_t seed)
    : threads_(std::min(num_domains, g_thread_budget.load(std::memory_order_relaxed))) {
    SA_REQUIRE(num_domains >= 1, "a sharded kernel needs at least one domain");
    domains_.reserve(num_domains);
    for (std::size_t d = 0; d < num_domains; ++d) {
        // Domain 0 keeps the raw seed: a standalone Simulator(seed) and
        // domain 0 at any domain count draw the same stream, so moving a
        // workload between domain counts never changes what its domain-0
        // noise sources produce.
        domains_.push_back(std::unique_ptr<DomainKernel>(new DomainKernel(
            d, d == 0 ? seed : mix_seed(seed, d), num_domains)));
        domains_.back()->simulator_.shard_ = this;
        domains_.back()->simulator_.shard_domain_ = d;
    }
}

ShardedKernel::~ShardedKernel() {
    if (!workers_.empty()) {
        // Every worker is between windows here: the last window's pending_
        // handshake completed before the coordinator could get here.
        shutdown_ = true;
        round_.value.fetch_add(1, std::memory_order_seq_cst);
        wake(round_.value, round_.parked);
        for (std::thread& worker : workers_) {
            worker.join();
        }
    }
    if (started_ && domains_.size() > 1) {
        detail::add_multi_domain_kernels(-1);
    }
}

Simulator& ShardedKernel::domain(std::size_t index) {
    SA_REQUIRE(index < domains_.size(), "domain index out of range");
    return domains_[index]->simulator_;
}

const DomainKernel& ShardedKernel::domain_kernel(std::size_t index) const {
    SA_REQUIRE(index < domains_.size(), "domain index out of range");
    return *domains_[index];
}

void ShardedKernel::declare_lookahead(std::size_t domain, Duration min_latency) {
    SA_REQUIRE(domain < domains_.size(), "domain index out of range");
    SA_REQUIRE(min_latency.count_ns() > 0,
               "cross-domain lookahead must be positive: a zero-latency link "
               "admits no parallel progress");
    domains_[domain]->lookahead_ =
        std::min(domains_[domain]->lookahead_, min_latency);
}

void ShardedKernel::declare_lookahead(const Simulator& from, Duration min_latency) {
    SA_REQUIRE(owns(from), "simulator is not a domain of this kernel");
    declare_lookahead(from.shard_domain(), min_latency);
}

void ShardedKernel::schedule_script(Time at, std::function<void()> action) {
    SA_REQUIRE(action != nullptr, "script needs an action");
    SA_REQUIRE(at >= now_, "cannot schedule a script into the past");
    // Sorted insert into the flat vector after any equal-time entries, so
    // same-time scripts keep their registration order. Only the live tail
    // [scripts_head_, end) is searched — entries before the cursor are
    // already executed.
    const auto it = std::upper_bound(
        scripts_.begin() + static_cast<std::ptrdiff_t>(scripts_head_),
        scripts_.end(), at, [](Time t, const Script& s) { return t < s.at; });
    scripts_.insert(it, Script{at, std::move(action)});
}

Time ShardedKernel::progress() const noexcept {
    Time furthest = now_;
    for (const auto& domain : domains_) {
        furthest = std::max(furthest, domain->simulator_.now());
    }
    return furthest;
}

std::uint64_t ShardedKernel::executed_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& domain : domains_) {
        total += domain->simulator_.executed_events();
    }
    return total;
}

std::uint64_t ShardedKernel::cross_domain_events() const noexcept {
    std::uint64_t total = 0;
    for (const auto& domain : domains_) {
        total += domain->received_;
    }
    return total;
}

void ShardedKernel::stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    if (Simulator* executing = detail::executing_domain();
        executing != nullptr && owns(*executing)) {
        executing->stop();
    }
}

void ShardedKernel::start() {
    if (started_) {
        return;
    }
    started_ = true;
    if (domains_.size() > 1) {
        // Flips the process-wide ownership guards from their fast path to
        // the full thread-local check (see Simulator::owned_by_caller), at
        // every thread count: a foreign mutation that would race at T > 1
        // fails at T = 1 too.
        detail::add_multi_domain_kernels(1);
    }
    for (std::size_t group = 1; group < threads_; ++group) {
        workers_.emplace_back([this, group] { worker_main(group); });
    }
}

void ShardedKernel::run_domain_window(DomainKernel& domain, Time window_end) {
    // The domain is the plain single-threaded kernel inside its window; the
    // thread-local marks this thread as its (sole) owner so foreign
    // mutations trip the Simulator's contracts instead of racing.
    detail::set_executing_domain(&domain.simulator_);
    try {
        // The previous window's mail lands after the events the domain
        // scheduled for itself then and before any event of this window.
        take_mail(domain, post_parity_ ^ 1U);
        domain.simulator_.run_until(window_end);
    } catch (...) {
        domain.error_ = std::current_exception();
    }
    detail::set_executing_domain(nullptr);
}

void ShardedKernel::run_group(std::size_t group, Time window_end) {
    for (std::size_t d = group_begin(group); d < group_begin(group + 1); ++d) {
        run_domain_window(*domains_[d], window_end);
    }
}

void ShardedKernel::worker_main(std::size_t group) {
    std::uint32_t seen_round = 0;
    for (;;) {
        seen_round = await(round_.value, round_.parked, [seen_round](std::uint32_t round) {
            return round != seen_round;
        });
        if (shutdown_) {
            return;
        }
        run_group(group, window_end_);
        if (pending_.value.fetch_sub(1, std::memory_order_seq_cst) == 1) {
            wake(pending_.value, pending_.parked);
        }
    }
}

void ShardedKernel::run_window(Time window_end) {
    // This window posts into the outboxes the one before last drained; its
    // domains take the last window's mail from the others.
    post_parity_ ^= 1U;
    if (workers_.empty()) {
        // One thread: the caller runs every domain's window, in index order.
        run_group(0, window_end);
    } else {
        window_end_ = window_end;
        pending_.value.store(static_cast<std::uint32_t>(workers_.size()),
                             std::memory_order_relaxed);
        round_.value.fetch_add(1, std::memory_order_seq_cst);
        wake(round_.value, round_.parked);
        run_group(0, window_end);
        (void)await(pending_.value, pending_.parked,
                    [](std::uint32_t left) { return left == 0; });
    }
    ++windows_;
    // Surface window failures on the calling thread, lowest domain first
    // (deterministic, if arbitrary relative to simulated time). A failed
    // window aborts the whole round: every domain's error and the mail of
    // both parities is dropped, so a caller that catches and re-runs cannot
    // deliver stale envelopes below a later horizon.
    std::exception_ptr first_error;
    for (auto& domain : domains_) {
        if (domain->error_ && !first_error) {
            first_error = domain->error_;
        }
        domain->error_ = nullptr;
    }
    if (first_error) {
        for (auto& domain : domains_) {
            for (auto& boxes : domain->outbox_) {
                for (auto& box : boxes) {
                    box.mail.clear();
                    box.earliest = Time::max();
                }
            }
        }
        std::rethrow_exception(first_error);
    }
}

void ShardedKernel::take_mail(DomainKernel& target, unsigned parity) {
    // Within one timestamp bucket of the target queue this yields (source
    // domain, send order): stable across runs and independent of thread
    // scheduling.
    for (auto& source : domains_) {
        DomainKernel::Outbox& box = source->outbox_[parity][target.index_];
        for (auto& envelope : box.mail) {
            (void)target.simulator_.schedule_at(envelope.at, std::move(envelope.action));
        }
        target.received_ += box.mail.size();
        box.mail.clear();
        box.earliest = Time::max();
    }
}

void ShardedKernel::deliver_mail() {
    for (auto& target : domains_) {
        take_mail(*target, post_parity_);
    }
}

Time ShardedKernel::next_time(const DomainKernel& target) const noexcept {
    Time next = target.simulator_.next_pending_time();
    for (const auto& source : domains_) {
        next = std::min(next, source->outbox_[post_parity_][target.index_].earliest);
    }
    return next;
}

void ShardedKernel::settle() noexcept {
    settled_ = Time::max();
    for (const auto& domain : domains_) {
        settled_ = std::min(settled_, domain->simulator_.now());
    }
}

void ShardedKernel::post_from(std::size_t from, std::size_t to, Time at,
                              EventQueue::Action action) {
    SA_REQUIRE(at >= horizon_,
               "cross-domain event scheduled below the conservative horizon; "
               "declare_lookahead() a bound no larger than the link latency");
    DomainKernel::Outbox& box = domains_[from]->outbox_[post_parity_][to];
    box.mail.push_back(DomainKernel::Envelope{at, std::move(action)});
    box.earliest = std::min(box.earliest, at);
}

std::size_t ShardedKernel::run_until(Time until) {
    SA_REQUIRE(until >= now_, "cannot run into the past");
    start();
    const std::uint64_t executed_before = executed_events();
    // Consume any stale stop request on entry, mirroring
    // Simulator::run_until: a stop aimed at an idle kernel is discarded
    // instead of silently skipping the next span.
    stop_.store(false, std::memory_order_relaxed);
    bool stopped = false;
    for (;;) {
        settle();
        if (stop_.exchange(false, std::memory_order_relaxed)) {
            // Resume from the earliest domain clock: a domain that stopped
            // itself mid-window left its later events queued.
            now_ = settled_;
            stopped = true;
            break;
        }
        const Time script_at = scripts_head_ == scripts_.size()
                                   ? Time::max()
                                   : scripts_[scripts_head_].at;
        Time next_min = script_at;
        Time bound = Time::max();
        for (const auto& domain : domains_) {
            const Time next = next_time(*domain);
            next_min = std::min(next_min, next);
            bound = std::min(bound, saturating_after(next, domain->lookahead_));
        }
        if (next_min == Time::max() || next_min > until) {
            break; // drained, or nothing due inside the requested span
        }
        if (script_at <= until && next_min == script_at) {
            // Global barrier: every domain is quiescent strictly before
            // script_at, and since every pending event is >= script_at with
            // positive lookahead, no cross-domain effect can land at or
            // before it either. Deliver the mail so the script(s) see
            // complete queues, align the clocks and run the script(s).
            deliver_mail();
            for (auto& domain : domains_) {
                domain->simulator_.advance_to(script_at);
            }
            now_ = script_at;
            while (scripts_head_ < scripts_.size() &&
                   scripts_[scripts_head_].at == script_at) {
                auto action = std::move(scripts_[scripts_head_].action);
                ++scripts_head_;
                if (scripts_head_ == scripts_.size()) {
                    // Fully drained: compact now so the action below (which
                    // may register new scripts) starts a fresh, dead-free
                    // vector that reuses the same allocation.
                    scripts_.clear();
                    scripts_head_ = 0;
                }
                action();
            }
            continue;
        }
        // Conservative window: everything strictly before the horizon is
        // safe to execute in parallel. Positive lookaheads guarantee
        // horizon > next_min, so every round makes progress.
        Time horizon = std::min(bound, script_at);
        horizon = std::min(horizon, saturating_after(until, Duration::ns(1)));
        SA_ASSERT(horizon > next_min, "lookahead admitted no progress");
        horizon_ = horizon;
        if (horizon == Time::max()) {
            // Unbounded window (run-to-completion with no cross-domain
            // coupling due): pass Time::max() through so each domain's
            // run_until leaves its clock at its last executed event instead
            // of advancing it to the numeric limit and poisoning later
            // relative scheduling.
            run_window(Time::max());
            for (const auto& domain : domains_) {
                now_ = std::max(now_, domain->simulator_.now());
            }
        } else {
            run_window(Time(horizon.ns() - 1));
            now_ = Time(horizon.ns() - 1);
        }
    }
    // The caller, like a script, sees complete queues.
    deliver_mail();
    if (!stopped && until != Time::max()) {
        // Align every clock with the end of the observed span, mirroring
        // Simulator::run_until — relative scheduling after the run starts
        // from the same "now" at every domain count.
        for (auto& domain : domains_) {
            domain->simulator_.advance_to(until);
        }
        now_ = until;
        settle();
    }
    return static_cast<std::size_t>(executed_events() - executed_before);
}

void post(Simulator& target, Time at, EventQueue::Action action) {
    const Simulator* executing = detail::executing_domain();
    if (executing == nullptr || executing == &target) {
        // Quiescent context (between runs, a script barrier) or a
        // same-domain send: plain scheduling is already safe and keeps the
        // domain's single-queue order.
        (void)target.schedule_at(at, std::move(action));
        return;
    }
    ShardedKernel* kernel = target.shard();
    // A foreign simulator with no kernel has no mailbox and no safe way to
    // be mutated from inside a window — fail loudly instead of racing.
    SA_REQUIRE(kernel != nullptr,
               "post() to an unsharded foreign simulator from inside a "
               "domain window; foreign simulators cannot be mutated from "
               "inside a window");
    SA_REQUIRE(executing->shard() == kernel,
               "cross-kernel post: source and target belong to different "
               "sharded kernels");
    kernel->post_from(executing->shard_domain(), target.shard_domain(), at,
                      std::move(action));
}

} // namespace sa::sim
