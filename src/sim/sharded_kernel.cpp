#include "sim/sharded_kernel.hpp"

#include <algorithm>

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

// Bounds of a waiter's adaptive spin budget (see the header's round
// coordination comment).
constexpr std::chrono::nanoseconds kSpinFloor = std::chrono::microseconds(1);
constexpr std::chrono::nanoseconds kSpinCap = std::chrono::microseconds(50);

/// Tell the core this thread is spinning: frees pipeline resources for a
/// sibling hyperthread and paces the polling load.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/// Wait until `done(word)` holds and return the value that satisfied it:
/// spin for up to `budget`, then park. Adapts `budget`: doubled when
/// spinning sufficed, halved when the wait had to park.
template <typename Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word,
                    std::atomic<std::uint32_t>& parked,
                    std::chrono::nanoseconds& budget, Done done) noexcept {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (;;) {
        const std::uint32_t value = word.load(std::memory_order_acquire);
        if (done(value)) {
            budget = std::min(budget * 2, kSpinCap);
            return value;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
            break;
        }
        cpu_relax();
    }
    budget = std::max(budget / 2, kSpinFloor);
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
    : simulator_(seed), index_(index), outbox_(num_domains) {}

ShardedKernel::ShardedKernel(std::size_t num_domains, std::uint64_t seed)
    : spin_budget_(kSpinCap) {
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
    if (!workers_started_) {
        return;
    }
    // Every worker is between windows here: the last window's pending_
    // handshake completed before the coordinator could get here.
    shutdown_ = true;
    round_.value.fetch_add(1, std::memory_order_seq_cst);
    wake(round_.value, round_.parked);
    for (auto& domain : domains_) {
        if (domain->worker_.joinable()) {
            domain->worker_.join();
        }
    }
    detail::add_active_sharded_kernels(-1);
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

void ShardedKernel::stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    if (Simulator* executing = detail::executing_domain();
        executing != nullptr && owns(*executing)) {
        executing->stop();
    }
}

void ShardedKernel::ensure_workers() {
    if (workers_started_ || domains_.size() == 1) {
        return;
    }
    workers_started_ = true;
    // Flips the process-wide ownership guards from their one-thread fast
    // path to the full thread-local check (see Simulator::owned_by_caller).
    detail::add_active_sharded_kernels(1);
    for (std::size_t d = 1; d < domains_.size(); ++d) {
        DomainKernel* raw = domains_[d].get();
        raw->worker_ = std::thread([this, raw] { worker_main(*raw); });
    }
}

void ShardedKernel::run_domain_window(DomainKernel& domain, Time window_end) {
    // The domain is the plain single-threaded kernel inside its window; the
    // thread-local marks this thread as its (sole) owner so foreign
    // mutations trip the Simulator's contracts instead of racing.
    detail::set_executing_domain(&domain.simulator_);
    try {
        domain.simulator_.run_until(window_end);
    } catch (...) {
        domain.error_ = std::current_exception();
    }
    detail::set_executing_domain(nullptr);
}

void ShardedKernel::worker_main(DomainKernel& domain) {
    std::uint32_t seen_round = 0;
    std::chrono::nanoseconds budget = kSpinCap;
    for (;;) {
        seen_round = await(round_.value, round_.parked, budget,
                           [seen_round](std::uint32_t round) {
                               return round != seen_round;
                           });
        if (shutdown_) {
            return;
        }
        run_domain_window(domain, window_end_);
        if (pending_.value.fetch_sub(1, std::memory_order_seq_cst) == 1) {
            wake(pending_.value, pending_.parked);
        }
    }
}

void ShardedKernel::run_window(Time window_end) {
    if (workers_started_) {
        window_end_ = window_end;
        pending_.value.store(static_cast<std::uint32_t>(domains_.size() - 1),
                             std::memory_order_relaxed);
        round_.value.fetch_add(1, std::memory_order_seq_cst);
        wake(round_.value, round_.parked);
    }
    run_domain_window(*domains_[0], window_end);
    if (workers_started_) {
        (void)await(pending_.value, pending_.parked, spin_budget_,
                    [](std::uint32_t left) { return left == 0; });
    }
    ++windows_;
    // Surface window failures on the calling thread, lowest domain first
    // (deterministic, if arbitrary relative to simulated time). A failed
    // window aborts the whole round: every domain's error and outbox is
    // dropped, so a caller that catches and re-runs cannot flush stale
    // envelopes below a later horizon.
    std::exception_ptr first_error;
    for (auto& domain : domains_) {
        if (domain->error_ && !first_error) {
            first_error = domain->error_;
        }
        domain->error_ = nullptr;
    }
    if (first_error) {
        for (auto& domain : domains_) {
            for (auto& box : domain->outbox_) {
                box.clear();
            }
        }
        std::rethrow_exception(first_error);
    }
}

void ShardedKernel::flush_outboxes() {
    // Deterministic merge: targets in index order, sources in index order,
    // sends in emission order. Within one timestamp bucket of the target
    // queue this yields (source domain, send order) — stable across runs
    // and independent of thread scheduling.
    for (auto& target : domains_) {
        Simulator& sim = target->simulator_;
        for (auto& source : domains_) {
            auto& box = source->outbox_[target->index_];
            for (auto& envelope : box) {
                SA_ASSERT(envelope.at >= horizon_,
                          "cross-domain event below the safe horizon");
                (void)sim.schedule_at(envelope.at, std::move(envelope.action));
                ++cross_posts_;
            }
            box.clear();
        }
    }
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
    domains_[from]->outbox_[to].push_back(
        DomainKernel::Envelope{at, std::move(action)});
}

std::size_t ShardedKernel::run_until(Time until) {
    SA_REQUIRE(until >= now_, "cannot run into the past");
    ensure_workers();
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
            const Time next = domain->simulator_.next_pending_time();
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
            // before it either. Align the clocks and run the script(s).
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
            flush_outboxes();
            for (const auto& domain : domains_) {
                now_ = std::max(now_, domain->simulator_.now());
            }
        } else {
            run_window(Time(horizon.ns() - 1));
            flush_outboxes();
            now_ = Time(horizon.ns() - 1);
        }
    }
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
