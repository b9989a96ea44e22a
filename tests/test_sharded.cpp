// Tests for the sharded kernel: conservative-lookahead windows, the
// deterministic cross-domain mailboxes, script barriers, the foreign-thread
// contracts on the periodic registry, thread budgets and their placement of
// domains on threads, cross-domain gateway routes and V2V — and the
// determinism suite: the dual-bus platoon produces identical per-vehicle
// counters and CAN event traces for num_domains in {1, 2, 4} and every
// thread budget up to the domain count, and identical everything when
// re-run with the same seed.
//
// The whole file is ThreadSanitizer-relevant: the CI tsan job runs it with
// SA_SANITIZE=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "can/bus.hpp"
#include "can/bus_gateway.hpp"
#include "can/controller.hpp"
#include "mesh/medium.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "sim/sharded_kernel.hpp"
#include "thread_budget.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;
using testutil::ScopedThreadBudget;

// --- kernel mechanics --------------------------------------------------------------

TEST(ShardedKernel, RunsIndependentDomainsToTheHorizon) {
    sim::ShardedKernel kernel(2, 42);
    // One slot per domain: both workers run in the same window, so a shared
    // container would be a data race.
    std::vector<int> fired[2];
    kernel.domain(0).schedule(Duration::us(10), [&] { fired[0].push_back(0); });
    kernel.domain(1).schedule(Duration::us(20), [&] { fired[1].push_back(1); });

    const std::size_t executed = kernel.run_until(Time(Duration::ms(1).count_ns()));

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(kernel.executed_events(), 2u);
    EXPECT_EQ(fired[0].size() + fired[1].size(), 2u);
    EXPECT_EQ(fired[0], std::vector<int>{0});
    EXPECT_EQ(fired[1], std::vector<int>{1});
    EXPECT_EQ(kernel.now(), Time(Duration::ms(1).count_ns()));
    EXPECT_EQ(kernel.domain(0).now(), Time(Duration::ms(1).count_ns()));
    EXPECT_EQ(kernel.domain(1).now(), Time(Duration::ms(1).count_ns()));
}

TEST(ShardedKernel, CrossDomainPostDeliversAtDeclaredLatency) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::us(50));
    Time delivered_at = Time::zero();
    kernel.domain(0).schedule(Duration::us(10), [&] {
        sim::Simulator& target = kernel.domain(1);
        sim::post(target, kernel.domain(0).now() + Duration::us(50),
                  [&] { delivered_at = kernel.domain(1).now(); });
    });

    kernel.run_until(Time(Duration::ms(1).count_ns()));

    EXPECT_EQ(delivered_at, Time(Duration::us(60).count_ns()));
    EXPECT_EQ(kernel.cross_domain_events(), 1u);
}

TEST(ShardedKernel, MailboxMergeIsOrderedBySourceDomain) {
    // Two domains post to a third at the SAME delivery time; the flush must
    // order them (source domain, send order), independent of which worker
    // finished first.
    sim::ShardedKernel kernel(3, 42);
    kernel.declare_lookahead(0, Duration::us(100));
    kernel.declare_lookahead(1, Duration::us(100));
    const Time deliver(Duration::us(100).count_ns());
    std::vector<int> order;
    kernel.domain(1).schedule(Duration::zero(), [&] {
        sim::post(kernel.domain(2), deliver, [&] { order.push_back(1); });
        sim::post(kernel.domain(2), deliver, [&] { order.push_back(11); });
    });
    kernel.domain(0).schedule(Duration::zero(), [&] {
        sim::post(kernel.domain(2), deliver, [&] { order.push_back(0); });
    });

    kernel.run_until(Time(Duration::ms(1).count_ns()));

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 11}));
}

TEST(ShardedKernel, ForeignDirectScheduleIsRejected) {
    // At budget 1 both domains run on the caller, where the schedule would
    // not race; it must fail there too, or a one-thread run hides the bug.
    for (std::size_t budget : {1u, 2u}) {
        const ScopedThreadBudget threads(budget);
        sim::ShardedKernel kernel(2, 42);
        kernel.domain(0).schedule(Duration::us(10), [&] {
            // The legal pre-sharding pattern — holding a reference to
            // another simulator and scheduling on it directly — must trip a
            // contract inside a window instead of racing the owning thread.
            (void)kernel.domain(1).schedule(Duration::ms(1), [] {});
        });

        EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                     sa::ContractViolation)
            << "budget " << budget;
    }
}

TEST(ShardedKernel, PostBelowTheHorizonIsRejected) {
    for (std::size_t budget : {1u, 2u}) {
        const ScopedThreadBudget threads(budget);
        sim::ShardedKernel kernel(2, 42);
        kernel.declare_lookahead(0, Duration::us(50));
        kernel.domain(0).schedule(Duration::us(10), [&] {
            // 10 us < horizon: the declared lookahead promised >= 50 us.
            sim::post(kernel.domain(1), kernel.domain(0).now() + Duration::us(10),
                      [] {});
        });

        EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                     sa::ContractViolation)
            << "budget " << budget;
    }
}

TEST(ShardedKernel, UndeclaredLookaheadFailsLoudlyInsteadOfLeakingCausality) {
    sim::ShardedKernel kernel(2, 42);
    kernel.domain(0).schedule(Duration::us(10), [&] {
        // A 5 ms link latency that was never declared: without a lookahead
        // the whole span is one window, so the send lands below the horizon.
        sim::post(kernel.domain(1), kernel.domain(0).now() + Duration::ms(5),
                  [] {});
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(100).count_ns())),
                 sa::ContractViolation);
}

TEST(ShardedKernel, ScriptBarrierAlignsClocksAndMayTouchEveryDomain) {
    sim::ShardedKernel kernel(2, 42);
    std::uint64_t fired0 = 0;
    std::uint64_t fired1 = 0;
    kernel.domain(0).schedule_periodic(Duration::ms(1), [&] { ++fired0; });
    const std::uint64_t periodic1 =
        kernel.domain(1).schedule_periodic(Duration::ms(1), [&] { ++fired1; });
    bool script_ran = false;
    kernel.schedule_script(Time(Duration::ms(5).count_ns()), [&] {
        script_ran = true;
        EXPECT_EQ(kernel.domain(0).now(), Time(Duration::ms(5).count_ns()));
        EXPECT_EQ(kernel.domain(1).now(), Time(Duration::ms(5).count_ns()));
        // The coordinator context may mutate any domain's periodic registry.
        kernel.domain(1).cancel_periodic(periodic1);
    });

    kernel.run_until(Time(Duration::ms(10).count_ns()));

    EXPECT_TRUE(script_ran);
    EXPECT_EQ(fired0, 11u); // occurrences at 0, 1, ..., 10 ms
    // Cancelled at the 5 ms barrier, before the 5 ms occurrence executed:
    // only 0..4 ms fired.
    EXPECT_EQ(fired1, 5u);
}

TEST(ShardedKernel, ScriptsAtEqualTimesRunInRegistrationOrder) {
    sim::ShardedKernel kernel(2, 42);
    std::vector<int> order;
    const Time at(Duration::ms(1).count_ns());
    kernel.schedule_script(at, [&] { order.push_back(1); });
    kernel.schedule_script(at, [&] { order.push_back(2); });
    kernel.run_until(Time(Duration::ms(2).count_ns()));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedKernel, RunToTimeMaxDrainsAndReturns) {
    sim::ShardedKernel kernel(2, 42);
    // One counter per domain: both workers may run in the same window.
    std::uint64_t fired[2] = {};
    kernel.domain(0).schedule(Duration::us(10), [&] { ++fired[0]; });
    kernel.domain(1).schedule(Duration::ms(3), [&] { ++fired[1]; });

    const std::size_t executed = kernel.run_until(Time::max());

    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(fired[0] + fired[1], 2u);
    // Clocks stay at the last executed events — NOT at the numeric limit —
    // so the kernel remains usable for further relative scheduling.
    EXPECT_EQ(kernel.domain(0).now(), Time(Duration::us(10).count_ns()));
    EXPECT_EQ(kernel.domain(1).now(), Time(Duration::ms(3).count_ns()));
    EXPECT_EQ(kernel.now(), Time(Duration::ms(3).count_ns()));
    kernel.domain(0).schedule(Duration::ms(1), [&] { ++fired[0]; });
    kernel.run_for(Duration::ms(10));
    EXPECT_EQ(fired[0] + fired[1], 3u);
}

TEST(ShardedKernel, SettledTrailsADomainThatStoppedMidWindow) {
    // Domain 1 stops its own window at 2 ms with a 3 ms event still queued,
    // so the barrier time (now()) overstates global progress; settled()
    // must not, or state recycled against it (V2V payloads) would be reused
    // before domain 1 reads it.
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::ms(10));
    kernel.declare_lookahead(1, Duration::ms(10));
    Time seen_settled = Time::max();
    Time seen_now = Time::zero();
    bool late_fired = false;
    kernel.domain(0).schedule(Duration::ms(1), [] {});
    kernel.domain(0).schedule(Duration::ms(12), [&] {
        seen_settled = kernel.settled(); // second window: read mid-window
        seen_now = kernel.now();
    });
    kernel.domain(1).schedule(Duration::ms(2), [&] { kernel.domain(1).stop(); });
    kernel.domain(1).schedule(Duration::ms(3), [&] { late_fired = true; });

    kernel.run_until(Time(Duration::ms(20).count_ns()));

    EXPECT_TRUE(late_fired);
    EXPECT_EQ(seen_settled, Time(Duration::ms(2).count_ns()));
    EXPECT_GT(seen_now, seen_settled);
    EXPECT_EQ(kernel.settled(), Time(Duration::ms(20).count_ns()));
}

TEST(ShardedKernel, PostToAnUnshardedSimulatorFromAWindowIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    sim::Simulator standalone(7);
    kernel.domain(0).schedule(Duration::us(10), [&] {
        sim::post(standalone, standalone.now() + Duration::ms(1), [] {});
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                 sa::ContractViolation);
}

TEST(ShardedKernel, DirectScheduleOnAForeignUnshardedSimulatorIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    sim::Simulator standalone(7);
    kernel.domain(0).schedule(Duration::us(10), [&] {
        // Not even the raw Simulator API may race a foreign standalone
        // simulator from a worker thread.
        (void)standalone.schedule(Duration::ms(1), [] {});
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                 sa::ContractViolation);
}

TEST(ShardedKernel, StaleStopOnAnIdleKernelIsDiscarded) {
    sim::ShardedKernel kernel(2, 42);
    std::uint64_t fired = 0;
    kernel.domain(0).schedule(Duration::ms(1), [&] { ++fired; });
    kernel.stop(); // lands while idle: the next run must not be skipped

    kernel.run_until(Time(Duration::ms(10).count_ns()));

    EXPECT_EQ(fired, 1u);
    EXPECT_EQ(kernel.now(), Time(Duration::ms(10).count_ns()));
}

TEST(ShardedKernel, StopFromAWorkerReturnsAtTheNextBarrier) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::ms(1));
    kernel.declare_lookahead(1, Duration::ms(1));
    std::uint64_t late_events = 0;
    kernel.domain(0).schedule(Duration::us(100), [&] { kernel.stop(); });
    kernel.domain(1).schedule(Duration::ms(50), [&] { ++late_events; });

    kernel.run_until(Time(Duration::sec(1).count_ns()));

    EXPECT_EQ(late_events, 0u);
    EXPECT_EQ(kernel.domain(1).pending_events(), 1u); // still queued
    EXPECT_LT(kernel.now(), Time(Duration::sec(1).count_ns()));

    kernel.run_until(Time(Duration::sec(1).count_ns()));
    EXPECT_EQ(late_events, 1u);
}

TEST(ShardedKernel, StopIsSafeFromAnExternalThread) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::us(100));
    kernel.declare_lookahead(1, Duration::us(100));
    // A long busy schedule so the run is still in flight when the external
    // thread pulls the brake.
    for (int d = 0; d < 2; ++d) {
        kernel.domain(static_cast<std::size_t>(d))
            .schedule_periodic(Duration::us(10), [] {});
    }
    std::thread stopper([&] { kernel.stop(); });
    kernel.run_until(Time(Duration::sec(5).count_ns()));
    stopper.join();
    SUCCEED(); // termination (early or not) without a race is the assertion
}

/// The threads of this process, from /proc/self/status.
int process_threads() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            return std::stoi(line.substr(8));
        }
    }
    return -1;
}

/// The thread each of a 4-domain kernel's domains ran its window on, and
/// the ownership-guard count and process thread count seen from inside it.
struct Placement {
    std::thread::id ran_on[4];
    int guarded = -1;
    int threads = -1;
};

Placement place_four_domains(std::size_t budget) {
    const ScopedThreadBudget threads(budget);
    sim::ShardedKernel kernel(4, 42);
    Placement placement;
    for (std::size_t d = 0; d < 4; ++d) {
        kernel.domain(d).schedule(Duration::us(10), [&placement, d] {
            placement.ran_on[d] = std::this_thread::get_id();
        });
    }
    kernel.domain(0).schedule(Duration::us(20), [&placement] {
        placement.guarded = sim::detail::multi_domain_kernels();
        placement.threads = process_threads();
    });
    kernel.run_until(Time(Duration::ms(1).count_ns()));
    return placement;
}

TEST(ShardedKernel, DomainZeroRunsOnTheCallingThread) {
    const std::thread::id caller = std::this_thread::get_id();
    {
        // One domain starts no thread: its events run on the caller, and the
        // process-wide ownership guards stay on their fast path.
        sim::ShardedKernel kernel(1, 42);
        std::thread::id ran_on;
        int guarded = -1;
        kernel.domain(0).schedule(Duration::us(10), [&] {
            ran_on = std::this_thread::get_id();
            guarded = sim::detail::multi_domain_kernels();
        });
        kernel.run_until(Time(Duration::ms(1).count_ns()));
        EXPECT_EQ(ran_on, caller);
        EXPECT_EQ(guarded, 0);
    }
    // Budget 1: all four domains run on the caller and no thread starts,
    // yet the ownership guards are armed.
    const int threads_before = process_threads();
    const Placement one = place_four_domains(1);
    for (std::size_t d = 0; d < 4; ++d) {
        EXPECT_EQ(one.ran_on[d], caller) << "domain " << d;
    }
    EXPECT_EQ(one.threads, threads_before);
    EXPECT_EQ(one.guarded, 1);

    // Budget 2: domains {0, 1} on the caller, {2, 3} on one other thread.
    const Placement two = place_four_domains(2);
    EXPECT_EQ(two.ran_on[0], caller);
    EXPECT_EQ(two.ran_on[1], caller);
    EXPECT_NE(two.ran_on[2], std::thread::id()) << "domain 2 never ran";
    EXPECT_NE(two.ran_on[2], caller);
    EXPECT_EQ(two.ran_on[3], two.ran_on[2]);
    EXPECT_EQ(two.guarded, 1);

    // Budget 4: domain 0 stays on the caller, each other domain gets a
    // worker of its own.
    const Placement four = place_four_domains(4);
    EXPECT_EQ(four.ran_on[0], caller);
    for (std::size_t d = 1; d < 4; ++d) {
        EXPECT_NE(four.ran_on[d], std::thread::id()) << "domain " << d << " never ran";
        EXPECT_NE(four.ran_on[d], caller) << "domain " << d;
        for (std::size_t e = 1; e < d; ++e) {
            EXPECT_NE(four.ran_on[d], four.ran_on[e]) << "domains " << e << " and " << d;
        }
    }
}

TEST(ShardedKernel, DomainsLoggingInOneWindowSerialiseTheSink) {
    // The sink appends without a lock of its own: the logger serialises
    // sink calls, and the level is an atomic a window may set while another
    // domain's window reads it.
    std::vector<std::string> lines;
    const LogLevel level = Log::level();
    Log::set_level(LogLevel::Warn);
    Log::set_sink([&lines](LogLevel, const std::string& line) { lines.push_back(line); });
    {
        // No lookahead declared: the whole span is one window, so both
        // domains log concurrently.
        sim::ShardedKernel kernel(2, 42);
        for (std::size_t d = 0; d < 2; ++d) {
            kernel.domain(d).schedule_periodic(Duration::us(10), [d] {
                Log::set_level(LogLevel::Warn);
                SA_LOG_WARN << "domain " << d;
            });
        }
        kernel.run_until(Time(Duration::us(995).count_ns()));
        EXPECT_EQ(kernel.windows(), 1u);
    }
    Log::set_sink(nullptr);
    Log::set_level(level);
    ASSERT_EQ(lines.size(), 200u);
    EXPECT_EQ(std::count(lines.begin(), lines.end(), "domain 0"), 100);
    EXPECT_EQ(std::count(lines.begin(), lines.end(), "domain 1"), 100);
}

// --- barrier stress: thousands of tiny windows, parked waiters ----------------------
//
// These pin the window handoff's behaviour, not its speed, at every thread
// budget from one to the domain count. Every few hundred windows a stall
// longer than any spin budget (capped at 50 us) makes every waiter give up
// spinning and park, so the next window must wake it.

constexpr auto kStall = std::chrono::microseconds(300);
constexpr std::int64_t kStressWindows = 10'000;
constexpr std::int64_t kStallEvery = 250; // windows between stalls

/// One event of the ping-pong as its domain saw it.
struct TokenVisit {
    std::int64_t at_us;
    std::size_t token;
    bool operator==(const TokenVisit&) const = default;
};

/// Cross-domain ping-pong on 1 us links: one token per domain, each passed
/// to the next domain 1 us later, so every window is one 1 us tick in which
/// every domain runs exactly one event. A script stalls the coordinator
/// between windows (every worker parks waiting for the next round) and the
/// last domain stalls inside a window half-way between scripts (the
/// coordinator and the other workers park waiting for it).
class PingPong {
public:
    explicit PingPong(std::size_t domains) : visits_(domains), kernel_(domains, 42) {
        for (std::size_t d = 0; d < domains; ++d) {
            kernel_.declare_lookahead(d, Duration::us(1));
            kernel_.domain(d).schedule(Duration::zero(), [this, d] { visit(d, d); });
        }
        for (std::int64_t w = kStallEvery; w < kStressWindows; w += kStallEvery) {
            kernel_.schedule_script(Time(Duration::us(w).count_ns()),
                                    [] { std::this_thread::sleep_for(kStall); });
        }
    }

    void run() { kernel_.run_until(Time(Duration::us(kStressWindows - 1).count_ns())); }

    [[nodiscard]] const sim::ShardedKernel& kernel() const { return kernel_; }
    [[nodiscard]] const std::vector<TokenVisit>& visits(std::size_t domain) const {
        return visits_[domain];
    }

private:
    void visit(std::size_t domain, std::size_t token) {
        sim::Simulator& here = kernel_.domain(domain);
        const std::int64_t at_us = here.now().ns() / 1000;
        visits_[domain].push_back({at_us, token});
        if (domain + 1 == kernel_.num_domains() && at_us % kStallEvery == kStallEvery / 2) {
            std::this_thread::sleep_for(kStall);
        }
        const std::size_t next = (domain + 1) % kernel_.num_domains();
        sim::post(kernel_.domain(next), here.now() + Duration::us(1),
                  [this, next, token] { visit(next, token); });
    }

    std::vector<std::vector<TokenVisit>> visits_; ///< one per domain
    sim::ShardedKernel kernel_;
};

void expect_exact_ping_pong(std::size_t domains, std::size_t budget) {
    const ScopedThreadBudget threads(budget);
    PingPong game(domains);
    game.run();

    const auto windows = static_cast<std::uint64_t>(kStressWindows);
    EXPECT_EQ(game.kernel().windows(), windows);
    EXPECT_EQ(game.kernel().executed_events(), windows * domains);
    EXPECT_EQ(game.kernel().cross_domain_events(), windows * domains);
    for (std::size_t d = 0; d < domains; ++d) {
        // At tick t, domain d holds the token that started on d - t.
        std::vector<TokenVisit> expected;
        for (std::int64_t t = 0; t < kStressWindows; ++t) {
            const auto back = static_cast<std::size_t>(t) % domains;
            expected.push_back({t, (d + domains - back) % domains});
        }
        EXPECT_EQ(game.visits(d), expected)
            << "domain " << d << " of " << domains << ", budget " << budget;
    }
}

// Every thread budget runs the same windows, events and mailbox traffic.

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtTwoDomains) { expect_exact_ping_pong(2, 2); }

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtTwoDomainsOnOneThread) {
    expect_exact_ping_pong(2, 1);
}

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtFourDomains) { expect_exact_ping_pong(4, 4); }

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtFourDomainsOnOneThread) {
    expect_exact_ping_pong(4, 1);
}

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtFourDomainsOnTwoThreads) {
    expect_exact_ping_pong(4, 2);
}

TEST(ShardedBarrierStress, TenThousandTinyWindowsAtFourDomainsOnThreeThreads) {
    expect_exact_ping_pong(4, 3);
}

/// (domains, thread budget) pairs of the teardown cases: a worker per
/// domain, and two domains per thread.
constexpr std::size_t kTeardownCases[][2] = {{2, 2}, {4, 4}, {4, 2}};

TEST(ShardedBarrierStress, KernelDestroyedWhileItsWorkersAreParked) {
    for (const auto& [domains, budget] : kTeardownCases) {
        const ScopedThreadBudget threads(budget);
        std::vector<int> ran(domains, 0); // one slot per domain
        {
            sim::ShardedKernel kernel(domains, 42);
            for (std::size_t d = 0; d < domains; ++d) {
                kernel.domain(d).schedule(Duration::us(1), [&ran, d] { ++ran[d]; });
            }
            kernel.run_until(Time(Duration::us(10).count_ns()));
            // Longer than any spin budget: the destructor finds every worker
            // parked and must wake it to join it.
            std::this_thread::sleep_for(kStall);
        }
        EXPECT_EQ(ran, std::vector<int>(domains, 1))
            << domains << " domains, budget " << budget;
    }
}

TEST(ShardedBarrierStress, KernelDestroyedRightAfterAWindowThatThrewInDomainOne) {
    for (const auto& [domains, budget] : kTeardownCases) {
        const ScopedThreadBudget threads(budget);
        sim::ShardedKernel kernel(domains, 42);
        for (std::size_t d = 0; d < domains; ++d) {
            kernel.declare_lookahead(d, Duration::us(1));
            (void)kernel.domain(d).schedule_periodic(Duration::us(1), [] {});
        }
        kernel.domain(1).schedule(Duration::us(500), [] {
            SA_REQUIRE(false, "domain 1 fails inside its window");
        });
        EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                     sa::ContractViolation);
        // Ticks 0..500, the last one the window that threw; the kernel is
        // destroyed right away, its workers still spinning.
        EXPECT_EQ(kernel.windows(), 501u) << domains << " domains, budget " << budget;
    }
}

// --- the periodic-registry audit (Simulator::stop / Vehicle teardown) -------------

TEST(ShardedKernel, ForeignThreadCancelPeriodicIsRejected) {
    for (std::size_t budget : {1u, 2u}) {
        const ScopedThreadBudget threads(budget);
        sim::ShardedKernel kernel(2, 42);
        kernel.declare_lookahead(0, Duration::us(50));
        const std::uint64_t id =
            kernel.domain(1).schedule_periodic(Duration::ms(1), [] {});
        kernel.domain(0).schedule(Duration::us(10), [&] {
            kernel.domain(1).cancel_periodic(id); // foreign domain: a race at budget 2
        });

        EXPECT_THROW(kernel.run_until(Time(Duration::ms(10).count_ns())),
                     sa::ContractViolation)
            << "budget " << budget;
    }
}

TEST(ShardedKernel, PostedCancelPeriodicFromForeignDomainIsSafe) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::ms(1));
    std::uint64_t fired = 0;
    const std::uint64_t id =
        kernel.domain(1).schedule_periodic(Duration::ms(1), [&] { ++fired; });
    kernel.domain(0).schedule(Duration::us(100), [&] {
        // The safe pattern: route the cancellation through the mailbox so it
        // executes on the owning domain's worker.
        sim::post(kernel.domain(1), kernel.domain(0).now() + Duration::ms(3),
                  [&] { kernel.domain(1).cancel_periodic(id); });
    });

    kernel.run_until(Time(Duration::ms(10).count_ns()));

    // Cancelled at 3.1 ms: the 0, 1, 2 and 3 ms occurrences fired.
    EXPECT_EQ(fired, 4u);
}

TEST(ShardedKernel, VehicleDestroyedAtAScriptBarrierWhileTheKernelKeepsRunning) {
    // The Vehicle::~Vehicle audit: tearing a vehicle down mid-run is safe
    // exactly when it happens in a quiescent context (a script barrier), and
    // its periodics stop firing afterwards.
    sim::ShardedKernel kernel(2, 42);
    scenario::VehicleBuilder builder("doomed");
    builder.ecu({"ecu0", 1.0, 0.75, model::Asil::D, "cabin", "main"})
        .contracts(R"(
            component ctrl {
              asil D;
              security_level 2;
              task control { wcet 500us; period 10ms; deadline 8ms; }
              provides service cmd { max_rate 200/s; }
            }
        )")
        .skill_graph("acc")
        .full_layer_stack()
        .self_model(Duration::ms(5));
    auto vehicle = builder.build(kernel.domain(1));
    kernel.domain(0).schedule_periodic(Duration::ms(1), [] {}); // keep 0 busy
    kernel.schedule_script(Time(Duration::ms(20).count_ns()),
                           [&] { vehicle.reset(); });

    kernel.run_until(Time(Duration::ms(100).count_ns()));

    EXPECT_EQ(vehicle, nullptr);
    // Everything the vehicle had registered is gone: domain 1 executes
    // nothing further while domain 0 keeps running.
    const std::uint64_t settled = kernel.domain(1).executed_events();
    kernel.run_until(Time(Duration::ms(200).count_ns()));
    EXPECT_EQ(kernel.domain(1).executed_events(), settled);
}

// --- cross-domain CAN gateway routes ----------------------------------------------

TEST(ShardedGateway, RoutesFramesAcrossDomainsAndDeclaresLookahead) {
    sim::ShardedKernel kernel(2, 42);
    can::CanBus sense(kernel.domain(0), "sense");
    can::CanBus act(kernel.domain(1), "act");
    can::BusGateway gateway("gw", Duration::us(50));
    gateway.add_route(sense, act, 0x120, 0x7F0);
    EXPECT_EQ(kernel.domain_kernel(0).lookahead(), Duration::us(50));
    EXPECT_EQ(kernel.domain_kernel(1).lookahead(), sim::kUnboundedLookahead);

    can::CanController producer(sense, "producer");
    can::CanController sink(act, "sink");
    std::uint64_t received = 0;
    Time received_at = Time::zero();
    sink.add_rx_filter(0x120, 0x7F0, [&](const can::CanFrame&, Time at) {
        ++received;
        received_at = at;
    });
    producer.send(can::CanFrame::make(0x120, {1, 2, 3, 4}));

    kernel.run_until(Time(Duration::ms(5).count_ns()));

    EXPECT_EQ(gateway.frames_forwarded(), 1u);
    EXPECT_EQ(gateway.frames_dropped(), 0u);
    EXPECT_EQ(received, 1u);
    // Wire time on sense, + 50 us gateway latency, + wire time on act.
    EXPECT_GT(received_at, Time(Duration::us(50).count_ns()));
}

TEST(ShardedGateway, ForwardsInFlightAcrossDomainsSurviveGatewayDestruction) {
    // A frame crosses every 300 us and a forward takes 500 us (the window
    // length), so in one window the ingress worker takes route references
    // while the egress worker drops the previous window's. The gateway is
    // then destroyed with forwards in flight: those forwards are dropped.
    sim::ShardedKernel kernel(2, 42);
    can::CanBus sense(kernel.domain(0), "sense");
    can::CanBus act(kernel.domain(1), "act");
    auto gateway = std::make_unique<can::BusGateway>("gw", Duration::us(500));
    gateway->add_route(sense, act, 0x120, 0x7F0);
    can::CanController producer(sense, "producer");
    can::CanController sink(act, "sink");
    std::uint64_t received = 0;
    sink.add_rx_filter(0x120, 0x7F0, [&](const can::CanFrame&, Time) { ++received; });
    for (int i = 0; i < 64; ++i) {
        kernel.domain(0).schedule_at(Time(Duration::us(300 * i).count_ns()), [&producer] {
            producer.send(can::CanFrame::make(0x120, {1, 2, 3, 4}));
        });
    }
    kernel.run_until(Time(Duration::ms(10).count_ns()));
    const std::uint64_t forwarded = gateway->frames_forwarded();
    const std::uint64_t received_before = received;
    gateway.reset();
    kernel.run_until(Time(Duration::ms(30).count_ns()));
    EXPECT_EQ(forwarded, 33u);
    EXPECT_EQ(received_before, 31u);
    // The frame already on the act wire still arrives; the forward still
    // inside the gateway does not.
    EXPECT_EQ(received, 32u);
}

TEST(ShardedGateway, ZeroLatencyCrossDomainRouteIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    can::CanBus a(kernel.domain(0), "a");
    can::CanBus b(kernel.domain(1), "b");
    can::BusGateway gateway("gw", Duration::zero());
    EXPECT_THROW(gateway.add_route(a, b, 0, 0), sa::ContractViolation);
}

TEST(ShardedGateway, RouteAcrossDistinctKernelsIsRejected) {
    sim::ShardedKernel kernel_a(2, 1);
    sim::ShardedKernel kernel_b(2, 2);
    can::CanBus a(kernel_a.domain(0), "a");
    can::CanBus b(kernel_b.domain(0), "b");
    can::BusGateway gateway("gw", Duration::us(50));
    EXPECT_THROW(gateway.add_route(a, b, 0, 0), sa::ContractViolation);
}

// --- cross-domain V2V --------------------------------------------------------------

TEST(ShardedV2v, DeliversFramesToEndpointsOnTheirHomeDomains) {
    sim::ShardedKernel kernel(2, 42);
    v2v::Medium medium(kernel.domain(0), {.latency = Duration::ms(20)});
    // The medium's latency bounds every domain's lookahead.
    EXPECT_EQ(kernel.domain_kernel(0).lookahead(), Duration::ms(20));
    EXPECT_EQ(kernel.domain_kernel(1).lookahead(), Duration::ms(20));

    Time b_received = Time::zero();
    medium.attach("a", kernel.domain(0), [](const v2v::Frame&, double) {});
    medium.attach("b", kernel.domain(1), [&](const v2v::Frame& frame, double) {
        EXPECT_EQ(frame.origin, "a");
        b_received = kernel.domain(1).now();
    });
    kernel.domain(0).schedule(Duration::ms(1), [&] {
        medium.transmit(v2v::Medium::cam("a", 100.0, 22.0));
    });

    kernel.run_until(Time(Duration::ms(50).count_ns()));

    EXPECT_EQ(medium.transmissions(), 1u);
    EXPECT_EQ(medium.deliveries(), 1u);
    EXPECT_EQ(b_received, Time(Duration::ms(21).count_ns()));
}

TEST(ShardedV2v, MidRunMembershipMutationIsRejected) {
    // Regression: membership and positions are read lock-free by every
    // domain's transmit(), so mutating them from inside a sharded window
    // must fail loudly instead of racing. Quiescent contexts (between runs,
    // script barriers) stay allowed.
    sim::ShardedKernel kernel(2, 42);
    v2v::Medium medium(kernel.domain(0), {.latency = Duration::ms(20)});
    medium.attach("a", kernel.domain(0), [](const v2v::Frame&, double) {});

    std::atomic<bool> attach_threw{false};
    std::atomic<bool> detach_threw{false};
    std::atomic<bool> move_threw{false};
    kernel.domain(1).schedule(Duration::ms(1), [&] {
        try {
            medium.attach("b", kernel.domain(1), [](const v2v::Frame&, double) {});
        } catch (const sa::ContractViolation&) {
            attach_threw = true;
        }
        try {
            medium.detach("a");
        } catch (const sa::ContractViolation&) {
            detach_threw = true;
        }
        try {
            medium.move("a", 10.0);
        } catch (const sa::ContractViolation&) {
            move_threw = true;
        }
    });
    kernel.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_TRUE(attach_threw);
    EXPECT_TRUE(detach_threw);
    EXPECT_TRUE(move_threw);
    EXPECT_TRUE(medium.attached("a"));
    EXPECT_FALSE(medium.attached("b"));

    // Between runs the kernel is quiescent again: mutation is fine.
    EXPECT_NO_THROW(
        medium.attach("b", kernel.domain(1), [](const v2v::Frame&, double) {}));
    EXPECT_NO_THROW(medium.move("a", 25.0));
}

TEST(ShardedV2v, ZeroLatencyMediumOnAShardedKernelIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    EXPECT_THROW(v2v::Medium(kernel.domain(0), {.latency = Duration::zero()}),
                 sa::ContractViolation);
}

// --- determinism: the dual-bus platoon across domain counts ------------------------

const char* const kPlatoonVehicles[] = {"alpha", "beta", "gamma"};

void declare_platoon_vehicle(scenario::ScenarioBuilder& builder,
                             const std::string& name) {
    // The canonical preset — the same declaration bench/sharded_kernel.cpp
    // measures, so the benchmarked workload IS the determinism-tested one.
    scenario::presets::declare_dual_bus_platoon_vehicle(builder, name);
}

/// Everything a run can observably produce, flattened into strings.
struct RunFingerprint {
    std::vector<std::string> vehicles; ///< per-vehicle counters + CAN traces
    std::string v2v;
    bool operator==(const RunFingerprint&) const = default;
};

std::string trace_fingerprint(const can::CanTrace& trace) {
    std::string out;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        out += std::to_string(trace[i].at.ns()) + " " + std::string(trace[i].tag()) + " " +
               trace.detail(trace[i]) + "\n";
    }
    return out;
}

RunFingerprint run_platoon(std::size_t num_domains, std::uint64_t seed) {
    scenario::ScenarioBuilder builder(seed);
    builder.domains(num_domains);
    for (const char* name : kPlatoonVehicles) {
        declare_platoon_vehicle(builder, name);
    }
    builder.trust("alpha", 14)
        .trust("beta", 14)
        .trust("gamma", 14)
        .v2v(0.0, Duration::ms(20))
        .at(Duration::sec(1), [](scenario::Scenario& s) {
            auto& beta = s.vehicle("beta");
            beta.rte().access().grant("perception", "brake_cmd");
            beta.faults().compromise_with_message_storm("perception", "brake_cmd",
                                                        Duration::ms(2));
        });
    auto scenario = builder.build();
    for (const char* name : kPlatoonVehicles) {
        scenario->v2v().attach(name, scenario->vehicle(name).simulator(),
                               [](const v2v::Frame&, double) {});
    }
    int slot = 0;
    for (const char* name : kPlatoonVehicles) {
        scenario->simulator().schedule_periodic(
            Duration::ms(100),
            [&v2v = scenario->v2v(), name] {
                v2v.transmit(v2v::Medium::cam(name, 0.0, 22.0));
            },
            Duration::ms(10 * ++slot));
    }

    scenario->run(Duration::sec(2), num_domains);

    RunFingerprint fp;
    for (const char* name : kPlatoonVehicles) {
        auto& v = scenario->vehicle(name);
        std::string s = v.report().str();
        s += "| gw fwd=" + std::to_string(v.bus_gateway("gw").frames_forwarded());
        s += " drop=" + std::to_string(v.bus_gateway("gw").frames_dropped());
        s += " rx_act=" +
             std::to_string(v.can_endpoint("zone_rear", "can_act").activations());
        s += " perception=" +
             std::string(rte::to_string(v.rte().component("perception").state()));
        s += "\n" + trace_fingerprint(v.rte().can_bus("can_sense").trace());
        s += trace_fingerprint(v.rte().can_bus("can_act").trace());
        fp.vehicles.push_back(std::move(s));
    }
    fp.v2v = std::to_string(scenario->v2v().transmissions()) + "/" +
             std::to_string(scenario->v2v().deliveries());
    return fp;
}

TEST(ShardedDeterminism, SameSeedSameTracePerDomainCount) {
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint first = run_platoon(domains, 2026);
        const RunFingerprint second = run_platoon(domains, 2026);
        EXPECT_EQ(first, second) << "non-reproducible at domains=" << domains;
    }
}

TEST(ShardedDeterminism, DomainCountDoesNotChangeTheResults) {
    const RunFingerprint one = run_platoon(1, 2026);
    const RunFingerprint two = run_platoon(2, 2026);
    const RunFingerprint four = run_platoon(4, 2026);
    ASSERT_EQ(one.vehicles.size(), 3u);
    for (std::size_t i = 0; i < one.vehicles.size(); ++i) {
        EXPECT_EQ(one.vehicles[i], two.vehicles[i])
            << kPlatoonVehicles[i] << " diverged between 1 and 2 domains";
        EXPECT_EQ(one.vehicles[i], four.vehicles[i])
            << kPlatoonVehicles[i] << " diverged between 1 and 4 domains";
    }
    EXPECT_EQ(one.v2v, two.v2v);
    EXPECT_EQ(one.v2v, four.v2v);
}

// --- determinism: degradation-triggered split across domain counts ------------------

/// One seeded maneuver run: when the degrade script hits beta, and how often
/// the maneuver engine evaluates the policy.
struct ManeuverCase {
    std::uint64_t seed;
    Duration degrade_at;
    Duration check_period;
};

/// The first case degrades beta between grid points. The others land the
/// degrade script on build-time periodic occurrences — t = 0, where every
/// periodic of the preset fires first, the 20 ms task grid and the 500 ms
/// self-model grid — with maneuver checks on the same grids.
const ManeuverCase kManeuverCases[] = {
    {4242, Duration::ms(600), Duration::ms(247)},
    {7, Duration::zero(), Duration::ms(250)},
    {11, Duration::ms(40), Duration::ms(100)},
    {13, Duration::ms(1000), Duration::ms(500)},
};

/// The platoon-maneuver workload: three dual-bus platoon_follow vehicles
/// under the maneuver engine. A script degrades beta's radar+V2V
/// capabilities; its follow skill collapses and the engine splits the
/// platoon at beta — counters, CAN traces, self-model snapshots, platoon
/// membership and the maneuver history must reproduce bit-for-bit across
/// domain counts.
RunFingerprint run_maneuver_platoon(std::size_t num_domains, const ManeuverCase& run) {
    scenario::ScenarioBuilder builder(run.seed);
    builder.domains(num_domains);
    for (const char* name : kPlatoonVehicles) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
        builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    policy.check_period = run.check_period;
    builder.platoon_maneuvers(policy);
    builder
        .at(Duration::ms(100),
            [](scenario::Scenario& s) { (void)s.form_managed_platoon(); })
        .at(run.degrade_at, [](scenario::Scenario& s) {
            auto& abilities = s.vehicle("beta").abilities();
            abilities.set_source_level(skills::caps::kV2vLink, 0.0);
            abilities.set_source_level(skills::acc::kRadar, 0.0);
            abilities.propagate();
        });
    auto scenario = builder.build();
    scenario->run(Duration::sec(2), num_domains);

    RunFingerprint fp;
    for (const char* name : kPlatoonVehicles) {
        auto& v = scenario->vehicle(name);
        std::string s = v.report().str();
        s += "| follow=" +
             std::to_string(v.abilities().level(skills::caps::kPlatoonFollow));
        for (const auto& snapshot : v.self_model().history()) {
            s += "\n" + snapshot.str();
        }
        s += "\n" + trace_fingerprint(v.rte().can_bus("can_sense").trace());
        s += trace_fingerprint(v.rte().can_bus("can_act").trace());
        fp.vehicles.push_back(std::move(s));
    }
    std::string platoon_state = "members:";
    for (const auto& name : scenario->platoon().member_names()) {
        platoon_state += " " + name;
    }
    platoon_state += " detached:";
    for (const auto& m : scenario->detached_members()) {
        platoon_state += " " + m.id;
    }
    for (const auto& record : scenario->platoon().history()) {
        platoon_state += "\n" + record.str();
    }
    fp.v2v = std::move(platoon_state);
    return fp;
}

/// Every (domains, thread budget) pair with a budget no larger than the
/// domain count: one thread, a few domains per thread, a thread per domain.
constexpr std::size_t kBudgetPairs[][2] = {{1, 1}, {2, 1}, {2, 2}, {4, 1},
                                           {4, 2}, {4, 3}, {4, 4}};

TEST(ShardedDeterminism, ThreadBudgetDoesNotChangeTheResults) {
    RunFingerprint platoon;
    std::vector<RunFingerprint> maneuvers;
    for (const auto& [domains, budget] : kBudgetPairs) {
        const ScopedThreadBudget threads(budget);
        const RunFingerprint fp = run_platoon(domains, 2026);
        if (domains == 1) {
            platoon = fp;
        }
        EXPECT_EQ(fp, platoon) << "platoon at " << domains << " domains, budget " << budget;
        for (std::size_t i = 0; i < std::size(kManeuverCases); ++i) {
            const RunFingerprint maneuver = run_maneuver_platoon(domains, kManeuverCases[i]);
            if (domains == 1) {
                maneuvers.push_back(maneuver);
            }
            EXPECT_EQ(maneuver, maneuvers[i])
                << "maneuver seed " << kManeuverCases[i].seed << " at " << domains
                << " domains, budget " << budget;
        }
    }
}

TEST(ShardedDeterminism, ManeuverScenarioReproducesPerDomainCount) {
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint first = run_maneuver_platoon(domains, kManeuverCases[0]);
        const RunFingerprint second = run_maneuver_platoon(domains, kManeuverCases[0]);
        EXPECT_EQ(first, second) << "non-reproducible at domains=" << domains;
    }
}

TEST(ShardedDeterminism, ManeuverScenarioIdenticalAcrossDomainCounts) {
    // Scripts run before simultaneous periodic occurrences at every domain
    // count, so even the cases that collide with them match.
    for (const ManeuverCase& run : kManeuverCases) {
        const RunFingerprint one = run_maneuver_platoon(1, run);
        const RunFingerprint two = run_maneuver_platoon(2, run);
        const RunFingerprint four = run_maneuver_platoon(4, run);
        ASSERT_EQ(one.vehicles.size(), 3u);
        for (std::size_t i = 0; i < one.vehicles.size(); ++i) {
            EXPECT_EQ(one.vehicles[i], two.vehicles[i])
                << kPlatoonVehicles[i] << " diverged between 1 and 2 domains (seed "
                << run.seed << ")";
            EXPECT_EQ(one.vehicles[i], four.vehicles[i])
                << kPlatoonVehicles[i] << " diverged between 1 and 4 domains (seed "
                << run.seed << ")";
        }
        EXPECT_EQ(one.v2v, two.v2v)
            << "platoon/maneuver state diverged (2 domains, seed " << run.seed << ")";
        EXPECT_EQ(one.v2v, four.v2v)
            << "platoon/maneuver state diverged (4 domains, seed " << run.seed << ")";
        // And the degradation actually triggered the maneuver we claim to test.
        EXPECT_NE(one.v2v.find("split(beta)"), std::string::npos) << one.v2v;
    }
}

TEST(ShardedDeterminism, PinnedVehiclesDoNotConsumeRoundRobinSlots) {
    scenario::ScenarioBuilder builder(7);
    builder.domains(2);
    declare_platoon_vehicle(builder, "pinned");
    builder.vehicle("pinned").domain(1);
    declare_platoon_vehicle(builder, "floating");
    auto scenario = builder.build();
    // "pinned" took domain 1 by pin; "floating" is the FIRST round-robin
    // vehicle and must land on domain 0, not inherit a skipped slot.
    EXPECT_EQ(scenario->vehicle("pinned").simulator().shard_domain(), 1u);
    EXPECT_EQ(scenario->vehicle("floating").simulator().shard_domain(), 0u);
}

TEST(ShardedDeterminism, RunKnobCrossChecksThePartition) {
    scenario::ScenarioBuilder builder(7);
    builder.domains(2);
    declare_platoon_vehicle(builder, "solo");
    auto scenario = builder.build();
    EXPECT_EQ(scenario->num_domains(), 2u);
    EXPECT_THROW(scenario->run(Duration::ms(1), 4), sa::ContractViolation);
    EXPECT_NO_THROW(scenario->run(Duration::ms(1), 2));
    EXPECT_NO_THROW(scenario->run(Duration::ms(2)));
}

} // namespace
