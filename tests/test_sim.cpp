// Unit tests for the discrete-event kernel: time, queue, simulator and
// signals.

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/signal.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using namespace sa::sim;
using namespace sa::sim::literals;

// --- Time / Duration -----------------------------------------------------------

TEST(Time, ArithmeticAndComparisons) {
    const Time t0(1'000);
    const Time t1 = t0 + Duration::us(2);
    EXPECT_EQ(t1.ns(), 3'000);
    EXPECT_EQ((t1 - t0).count_ns(), 2'000);
    EXPECT_LT(t0, t1);
    EXPECT_EQ(t1 - Duration::ns(2'000), t0);
}

TEST(Time, UnitConversions) {
    const Duration d = Duration::ms(3);
    EXPECT_DOUBLE_EQ(d.to_us(), 3'000.0);
    EXPECT_DOUBLE_EQ(d.to_seconds(), 0.003);
    EXPECT_EQ((5_us).count_ns(), 5'000);
    EXPECT_EQ((2_ms).count_ns(), 2'000'000);
    EXPECT_EQ((1_s).count_ns(), 1'000'000'000);
}

TEST(Time, HumanReadable) {
    EXPECT_EQ(Duration::us(12).str(), "12.000us");
    EXPECT_EQ(Time(1'500'000).str(), "1.500ms");
}

// --- EventQueue -----------------------------------------------------------------

/// Pop and run every pending event, in queue order.
void drain(EventQueue& q) {
    EventQueue::Popped popped;
    while (q.pop_until(Time::max(), popped)) {
        popped.action();
    }
}

TEST(EventQueue, OrdersByTime) {
    EventQueue q;
    std::vector<int> fired;
    q.push(Time(30), [&] { fired.push_back(3); });
    q.push(Time(10), [&] { fired.push_back(1); });
    q.push(Time(20), [&] { fired.push_back(2); });
    drain(q);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableForEqualTimes) {
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i) {
        q.push(Time(5), [&fired, i] { fired.push_back(i); });
    }
    drain(q);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
    }
}

TEST(EventQueue, CancelPreventsExecution) {
    EventQueue q;
    bool ran = false;
    auto h = q.push(Time(10), [&] { ran = true; });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.cancel(h)); // double cancel
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
    EventQueue q;
    std::vector<int> fired;
    q.push(Time(1), [&] { fired.push_back(1); });
    auto h = q.push(Time(2), [&] { fired.push_back(2); });
    q.push(Time(3), [&] { fired.push_back(3); });
    q.cancel(h);
    drain(q);
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PopEmptyThrows) {
    EventQueue q;
    EXPECT_THROW((void)q.next_time(), ContractViolation);
    // pop_until on an empty queue reports nothing and leaves `out` alone.
    bool untouched = false;
    EventQueue::Popped out{Time(7), [&] { untouched = true; }};
    EXPECT_FALSE(q.pop_until(Time::max(), out));
    EXPECT_EQ(out.at, Time(7));
    ASSERT_TRUE(static_cast<bool>(out.action));
    out.action();
    EXPECT_TRUE(untouched);
}

TEST(EventQueue, CancelAfterPopIsRejected) {
    EventQueue q;
    int runs = 0;
    auto h = q.push(Time(10), [&] { ++runs; });
    EventQueue::Popped popped;
    ASSERT_TRUE(q.pop_until(Time::max(), popped));
    popped.action();
    EXPECT_EQ(runs, 1);
    // The event already fired; its handle must be dead even though the
    // queue internally reuses the slot for the next push.
    EXPECT_FALSE(q.cancel(h));
    bool second = false;
    auto h2 = q.push(Time(20), [&] { second = true; });
    EXPECT_FALSE(q.cancel(h)) << "stale handle must not cancel a reused slot";
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(h2));
    EXPECT_FALSE(second);
}

TEST(EventQueue, CancelAfterClearIsRejected) {
    EventQueue q;
    auto h = q.push(Time(10), [] {});
    q.clear();
    EXPECT_FALSE(q.cancel(h));
    q.push(Time(5), [] {}); // may reuse the cleared slot
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.size(), 1u);
}

// --- Simulator -------------------------------------------------------------------

TEST(Simulator, RunsEventsInOrder) {
    Simulator sim;
    std::vector<std::int64_t> at;
    sim.schedule(Duration::us(5), [&] { at.push_back(sim.now().ns()); });
    sim.schedule(Duration::us(1), [&] { at.push_back(sim.now().ns()); });
    sim.run_until(Time(1'000'000));
    ASSERT_EQ(at.size(), 2u);
    EXPECT_EQ(at[0], 1'000);
    EXPECT_EQ(at[1], 5'000);
}

TEST(Simulator, TimeAdvancesToHorizon) {
    Simulator sim;
    sim.run_until(Time(500));
    EXPECT_EQ(sim.now().ns(), 500);
}

TEST(Simulator, NestedScheduling) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) {
            sim.schedule(Duration::us(1), recurse);
        }
    };
    sim.schedule(Duration::us(1), recurse);
    sim.run_until(Time::max());
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now().ns(), 5'000);
}

TEST(Simulator, CannotScheduleIntoThePast) {
    Simulator sim;
    sim.run_until(Time(100));
    EXPECT_THROW(sim.schedule_at(Time(50), [] {}), ContractViolation);
    EXPECT_THROW(sim.schedule(Duration::ns(-1), [] {}), ContractViolation);
}

TEST(Simulator, PeriodicFiresAtPeriod) {
    Simulator sim;
    int count = 0;
    sim.schedule_periodic(Duration::ms(10), [&] { ++count; });
    sim.run_until(Time(Duration::ms(95).count_ns()));
    // Firings at 0, 10, ..., 90 (phase 0 fires immediately).
    EXPECT_EQ(count, 10);
}

TEST(Simulator, PeriodicWithPhase) {
    Simulator sim;
    std::vector<std::int64_t> at;
    sim.schedule_periodic(Duration::ms(10), [&] { at.push_back(sim.now().ns()); },
                          Duration::ms(3));
    sim.run_until(Time(Duration::ms(25).count_ns()));
    ASSERT_EQ(at.size(), 3u);
    EXPECT_EQ(at[0], Duration::ms(3).count_ns());
    EXPECT_EQ(at[1], Duration::ms(13).count_ns());
    EXPECT_EQ(at[2], Duration::ms(23).count_ns());
}

TEST(Simulator, CancelPeriodicStopsFiring) {
    Simulator sim;
    int count = 0;
    const auto id = sim.schedule_periodic(Duration::ms(1), [&] { ++count; });
    sim.run_until(Time(Duration::ms(5).count_ns()));
    const int seen = count;
    sim.cancel_periodic(id);
    sim.run_until(Time(Duration::ms(20).count_ns()));
    EXPECT_EQ(count, seen);
}

TEST(Simulator, StopBreaksRun) {
    Simulator sim;
    int count = 0;
    sim.schedule_periodic(Duration::ms(1), [&] {
        if (++count == 3) {
            sim.stop();
        }
    });
    sim.run_until(Time(Duration::ms(100).count_ns()));
    EXPECT_EQ(count, 3);
}

TEST(Simulator, NestedSameTimeSchedulingRunsAfterItsCohort) {
    // An event scheduled at the current timestamp from within a cohort runs
    // after every event already pending at that timestamp, still at t=10.
    Simulator sim;
    std::vector<std::pair<int, std::int64_t>> log;
    for (int i = 0; i < 4; ++i) {
        sim.schedule_at(Time(10), [&log, &sim, i] {
            log.emplace_back(i, sim.now().ns());
            if (i == 1) {
                sim.schedule_at(Time(10), [&log, &sim] {
                    log.emplace_back(100, sim.now().ns());
                });
            }
        });
    }
    sim.schedule_at(Time(20), [&log, &sim] { log.emplace_back(200, sim.now().ns()); });
    EXPECT_EQ(sim.run_until(Time::max()), 6u);
    EXPECT_EQ(log, (std::vector<std::pair<int, std::int64_t>>{
                       {0, 10}, {1, 10}, {2, 10}, {3, 10}, {100, 10}, {200, 20}}));
    EXPECT_EQ(sim.now(), Time(20));
}

TEST(Simulator, StopDoesNotAdvanceTimePastPendingEvents) {
    // stop() with a finite horizon must leave now() at the stop point, not
    // jump to the horizon and strand still-queued events in the past.
    Simulator sim;
    int runs = 0;
    sim.schedule_at(Time(10), [&] {
        ++runs;
        sim.stop();
    });
    sim.schedule_at(Time(20), [&] { ++runs; });
    sim.run_until(Time(100));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sim.now().ns(), 10);
    sim.run_until(Time(100)); // resumes cleanly: drains t=20, then horizon
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(sim.now().ns(), 100);
}

TEST(Simulator, StopConsumedByRunUntilDoesNotStarveLaterRuns) {
    // A stop() honored by run_until() must not leak into a later run_until()
    // and no-op it.
    Simulator sim;
    int runs = 0;
    sim.schedule_at(Time(10), [&] {
        ++runs;
        sim.stop();
    });
    sim.schedule_at(Time(20), [&] { ++runs; });
    sim.run_until(Time::max()); // returns after the stop; t=20 stays queued
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sim.run_until(Time::max()), 1u); // the drain actually ran
    EXPECT_EQ(runs, 2);
}

TEST(Simulator, CancelledEventLeavesQueueEagerly) {
    Simulator sim;
    auto h = sim.schedule(Duration::us(10), [] { FAIL() << "cancelled event fired"; });
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_TRUE(sim.cancel(h));
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_FALSE(sim.cancel(h));
    sim.run_until(Time(Duration::ms(1).count_ns()));
}

TEST(Simulator, PeriodicSelfCancelFromAction) {
    Simulator sim;
    int count = 0;
    std::uint64_t id = 0;
    id = sim.schedule_periodic(Duration::ms(1), [&] {
        if (++count == 3) {
            sim.cancel_periodic(id);
        }
    });
    sim.run_until(Time(Duration::ms(20).count_ns()));
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(sim.idle()); // eager cancel: no stale event left behind
}

TEST(Simulator, PeriodicSelfCancelKeepsActionAlive) {
    // A periodic action that cancels its own id must stay alive (captures
    // included) for the remainder of the call — under ASan this test fails
    // if cancel_periodic destroys the executing std::function.
    Simulator sim;
    int reads = 0;
    std::uint64_t id = 0;
    const std::string tag = "periodic-task-capture-must-outlive-self-cancel";
    id = sim.schedule_periodic(Duration::ms(1), [&sim, &id, &reads, tag] {
        sim.cancel_periodic(id);
        if (tag == "periodic-task-capture-must-outlive-self-cancel") {
            ++reads; // capture read after the self-cancel
        }
    });
    sim.run_until(Time(Duration::ms(10).count_ns()));
    EXPECT_EQ(reads, 1);
    EXPECT_TRUE(sim.idle());
}

// --- Signal ----------------------------------------------------------------------

TEST(Signal, DeliversToAllSubscribers) {
    Signal<int> sig;
    int sum = 0;
    sig.subscribe([&](int v) { sum += v; });
    sig.subscribe([&](int v) { sum += 10 * v; });
    sig.emit(3);
    EXPECT_EQ(sum, 33);
}

TEST(Signal, UnsubscribeStopsDelivery) {
    Signal<int> sig;
    int count = 0;
    const auto id = sig.subscribe([&](int) { ++count; });
    sig.emit(1);
    sig.unsubscribe(id);
    sig.emit(1);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sig.subscriber_count(), 0u);
}

TEST(Signal, ReentrantSubscribeDuringEmitIsSafe) {
    Signal<> sig;
    int count = 0;
    sig.subscribe([&] {
        ++count;
        if (count == 1) {
            sig.subscribe([&] { ++count; });
        }
    });
    sig.emit();
    EXPECT_GE(count, 1);
    sig.emit();
    EXPECT_GE(count, 3);
}

TEST(Signal, SlotSubscribingDuringEmitKeepsItsCaptures) {
    // The running slot reads a capture after its nested subscribe grows the
    // slot storage; under ASan this fails if emit() relocates the slot.
    Signal<> sig;
    int count = 0;
    sig.subscribe([&] {
        if (count == 0) {
            sig.subscribe([&] { ++count; });
        }
        ++count;
    });
    sig.emit();
    EXPECT_EQ(count, 2); // the slot added during emit() ran in that emission
    sig.emit();
    EXPECT_EQ(count, 4);
}

TEST(Signal, SlotUnsubscribingDuringEmitKeepsItsCaptures) {
    // The running slot unsubscribes itself and a later slot, then reads a
    // capture; under ASan this fails if unsubscribe() destroys the running
    // callable. Neither slot is called again.
    Signal<> sig;
    int first = 0;
    int second = 0;
    std::uint64_t first_id = 0;
    std::uint64_t second_id = 0;
    first_id = sig.subscribe([&] {
        sig.unsubscribe(first_id);
        sig.unsubscribe(second_id);
        ++first;
    });
    second_id = sig.subscribe([&] { ++second; });
    sig.emit();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    EXPECT_EQ(sig.subscriber_count(), 0u);
    sig.emit();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
}

} // namespace
