// Allocation-count harness tests plus the steady-state zero-allocation pins
// for the kernel hot paths (the arena/pool memory layout). Linking this
// suite pulls the interposing operator new/delete from alloc_hook.cpp into
// the binary (static-library pull-in IS the hook); the pins then assert that
// a warmed simulation schedules/pops events, completes CAN round trips,
// ingests metrics and fans V2V frames out without touching the heap.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/virtual_controller.hpp"
#include "mesh/mesh_stack.hpp"
#include "monitor/manager.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_hook.hpp"
#include "util/flat_map.hpp"
#include "util/inline_callable.hpp"
#include "util/pool.hpp"

namespace {

using namespace sa;
using namespace sa::sim;
namespace alloc_hook = sa::util::alloc_hook;

// --- harness ---------------------------------------------------------------

TEST(AllocHook, InterposedOperatorsAreLinked) {
    EXPECT_TRUE(alloc_hook::interposed());
}

// The harness tests call ::operator new/delete directly: a plain
// `delete new int` pair is a new-EXPRESSION the compiler may elide entirely
// ([expr.new]/10), which would make these assertions vacuous. Direct calls
// to the replaceable functions cannot be elided.
TEST(AllocHook, CountsOnlyWhileEnabled) {
    EXPECT_FALSE(alloc_hook::counting());
    const std::uint64_t before = alloc_hook::thread_allocations();
    ::operator delete(::operator new(16)); // counting disabled: no advance
    EXPECT_EQ(alloc_hook::thread_allocations(), before);
    {
        alloc_hook::CountScope scope;
        EXPECT_TRUE(alloc_hook::counting());
        ::operator delete(::operator new(16));
        EXPECT_GE(scope.allocations(), 1u);
        EXPECT_GE(scope.deallocations(), 1u);
    }
    EXPECT_FALSE(alloc_hook::counting());
}

TEST(AllocHook, ScopesNestAndOuterIncludesInner) {
    alloc_hook::CountScope outer;
    ::operator delete(::operator new(16));
    std::uint64_t inner_allocs = 0;
    {
        alloc_hook::CountScope inner;
        ::operator delete(::operator new(16));
        inner_allocs = inner.allocations();
        EXPECT_GE(inner_allocs, 1u);
    }
    EXPECT_TRUE(alloc_hook::counting()); // inner restored, outer still active
    EXPECT_GE(outer.allocations(), inner_allocs + 1);
}

TEST(AllocHook, CountsArrayAndNothrowForms) {
    alloc_hook::CountScope scope;
    ::operator delete[](::operator new[](32));
    void* p = ::operator new(16, std::nothrow);
    ASSERT_NE(p, nullptr);
    ::operator delete(p, std::nothrow);
    EXPECT_GE(scope.allocations(), 2u);
    EXPECT_GE(scope.deallocations(), 2u);
}

// --- InlineCallable --------------------------------------------------------

using Callable = util::InlineCallable<void(), 48>;

TEST(InlineCallable, InvokesAndReturnsValues) {
    int hits = 0;
    Callable c = [&hits] { ++hits; };
    ASSERT_TRUE(static_cast<bool>(c));
    c();
    c();
    EXPECT_EQ(hits, 2);

    util::InlineCallable<int(int), 48> add = [](int x) { return x + 5; };
    EXPECT_EQ(add(2), 7);
}

TEST(InlineCallable, SmallCapturesStayInlineAndDoNotAllocate) {
    std::uint64_t sum = 0;
    alloc_hook::CountScope scope;
    Callable c = [&sum, a = std::uint64_t{1}, b = std::uint64_t{2},
                  d = std::uint64_t{3}] { sum += a + b + d; };
    EXPECT_TRUE(c.is_inline());
    c();
    Callable moved = std::move(c);
    moved();
    EXPECT_EQ(scope.allocations(), 0u);
    EXPECT_EQ(sum, 12u);
}

TEST(InlineCallable, FatCapturesFallBackToHeapCorrectly) {
    struct Fat {
        std::uint64_t words[16] = {}; // 128 bytes > 48-byte inline buffer
    };
    Fat fat;
    fat.words[7] = 42;
    std::uint64_t seen = 0;
    alloc_hook::CountScope scope;
    Callable c = [fat, &seen] { seen = fat.words[7]; };
    EXPECT_FALSE(c.is_inline());
    EXPECT_GE(scope.allocations(), 1u);
    c();
    EXPECT_EQ(seen, 42u);
}

TEST(InlineCallable, MoveTransfersStateAndNullsSource) {
    int hits = 0;
    Callable a = [&hits] { ++hits; };
    Callable b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT(bugprone-use-after-move): post-move state is the contract under test
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 1);

    Callable c;
    EXPECT_TRUE(c == nullptr);
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 2);
    c = nullptr;
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(InlineCallable, DestroysCapturesExactlyOnce) {
    auto token = std::make_shared<int>(7);
    EXPECT_EQ(token.use_count(), 1);
    {
        Callable c = [token] { (void)*token; };
        EXPECT_EQ(token.use_count(), 2);
        Callable d = std::move(c);
        EXPECT_EQ(token.use_count(), 2); // moved, not copied
        d();
    }
    EXPECT_EQ(token.use_count(), 1);
}

// --- Pool ------------------------------------------------------------------

TEST(Pool, RecyclesReleasedObjects) {
    util::Pool<std::vector<int>, 4> pool;
    std::vector<int>* first = pool.acquire();
    first->assign(100, 1); // give the object some capacity
    const std::size_t cap = first->capacity();
    pool.release(first);
    std::vector<int>* again = pool.acquire();
    EXPECT_EQ(again, first);          // LIFO free list hands the same object back
    EXPECT_GE(again->capacity(), cap); // release never destroys: capacity survives
    pool.release(again);
}

TEST(Pool, RecycleHitRateReflectsReuse) {
    util::Pool<int, 4> pool;
    EXPECT_EQ(pool.recycle_hit_rate(), 0.0); // no acquires yet
    std::vector<int*> held;
    for (int i = 0; i < 4; ++i) {
        held.push_back(pool.acquire());
    }
    EXPECT_EQ(pool.created(), 4u);
    for (int* p : held) {
        pool.release(p);
    }
    for (int round = 0; round < 9; ++round) {
        for (int i = 0; i < 4; ++i) {
            held[static_cast<std::size_t>(i)] = pool.acquire();
        }
        for (int* p : held) {
            pool.release(p);
        }
    }
    EXPECT_EQ(pool.created(), 4u); // no growth after the first chunk
    EXPECT_EQ(pool.acquires(), 40u);
    EXPECT_DOUBLE_EQ(pool.recycle_hit_rate(), 1.0 - 4.0 / 40.0);
}

TEST(Pool, SteadyStateAcquireReleaseDoesNotAllocate) {
    util::Pool<int, 8> pool;
    int* warm = pool.acquire();
    pool.release(warm);
    alloc_hook::CountScope scope;
    for (int i = 0; i < 100; ++i) {
        int* p = pool.acquire();
        pool.release(p);
    }
    EXPECT_EQ(scope.allocations(), 0u);
}

// --- FlatPtrMap64 ----------------------------------------------------------

TEST(FlatPtrMap64, InsertFindEraseBasics) {
    int a = 1;
    int b = 2;
    util::FlatPtrMap64<int*> map;
    EXPECT_EQ(map.find(10), nullptr);
    map.insert(10, &a);
    map.insert(-3, &b);
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map.find(10), &a);
    EXPECT_EQ(map.find(-3), &b);
    EXPECT_EQ(map.find(11), nullptr);
    map.erase(10);
    EXPECT_EQ(map.find(10), nullptr);
    EXPECT_EQ(map.find(-3), &b);
    map.erase(999); // absent: no-op
    EXPECT_EQ(map.size(), 1u);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(-3), nullptr);
}

TEST(FlatPtrMap64, RandomOpsMatchUnorderedMapOracle) {
    // Backward-shift deletion is the subtle part: drive both maps through
    // the same random insert/erase/find stream over a small key space (high
    // collision pressure) and require identical observable state throughout.
    static int storage[64];
    util::FlatPtrMap64<int*> map;
    std::unordered_map<std::int64_t, int*> oracle;
    std::mt19937_64 rng(0xA110CA7EULL);
    for (int step = 0; step < 20'000; ++step) {
        const auto key = static_cast<std::int64_t>(rng() % 64);
        const auto op = rng() % 3;
        if (op == 0) {
            if (oracle.find(key) == oracle.end()) {
                int* value = &storage[key];
                map.insert(key, value);
                oracle.emplace(key, value);
            }
        } else if (op == 1) {
            map.erase(key);
            oracle.erase(key);
        }
        const auto it = oracle.find(key);
        EXPECT_EQ(map.find(key), it == oracle.end() ? nullptr : it->second);
        ASSERT_EQ(map.size(), oracle.size());
    }
    for (const auto& [key, value] : oracle) {
        EXPECT_EQ(map.find(key), value);
    }
}

TEST(FlatPtrMap64, ClearKeepsCapacityAndSteadyStateIsAllocFree) {
    static int value = 0;
    util::FlatPtrMap64<int*> map;
    for (std::int64_t k = 0; k < 8; ++k) {
        map.insert(k, &value);
    }
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_EQ(map.capacity(), cap);
    alloc_hook::CountScope scope;
    for (int round = 0; round < 50; ++round) {
        for (std::int64_t k = 0; k < 8; ++k) {
            map.insert(k, &value);
        }
        for (std::int64_t k = 0; k < 8; ++k) {
            map.erase(k);
        }
    }
    EXPECT_EQ(scope.allocations(), 0u);
}

// --- steady-state zero-allocation pins -------------------------------------

/// Pin helper for paths with rare amortised growth (SampleSet doubling in
/// the virtualized CAN path): run up to `windows` counted windows and pass
/// if ANY window is allocation-free — growth gaps widen geometrically, so a
/// clean window must appear quickly unless the path allocates per iteration.
template <typename Body>
bool eventually_alloc_free(int windows, Body body) {
    for (int w = 0; w < windows; ++w) {
        alloc_hook::CountScope scope;
        body();
        if (scope.allocations() == 0) {
            return true;
        }
    }
    return false;
}

TEST(ZeroAllocPins, EventSchedulePopSteadyState) {
    EventQueue q;
    std::uint64_t sink = 0;
    auto wave = [&] {
        for (int t = 0; t < 32; ++t) {
            for (int i = 0; i < 8; ++i) {
                q.push(Time(t + 1), [&sink] { ++sink; });
            }
        }
        EventQueue::Popped popped;
        while (q.pop_until(Time::max(), popped)) {
            popped.action();
        }
    };
    wave(); // warm: pool chunk, slot table, flat table, heap vector
    alloc_hook::CountScope scope;
    for (int round = 0; round < 10; ++round) {
        wave();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "event schedule/pop allocated in steady state";
    EXPECT_EQ(sink, 32u * 8u * 11u);
}

TEST(ZeroAllocPins, RunUntilAndPeriodicsSteadyState) {
    Simulator sim;
    std::uint64_t ticks = 0;
    const std::uint64_t id =
        sim.schedule_periodic(Duration::us(100), [&ticks] { ++ticks; });
    sim.run_for(Duration::ms(10)); // warm: queue buckets, periodic slot
    alloc_hook::CountScope scope;
    sim.run_for(Duration::ms(50));
    EXPECT_EQ(scope.allocations(), 0u)
        << "periodic fire/re-arm allocated in steady state";
    EXPECT_EQ(ticks, 601u); // t=0 through t=60ms inclusive, every 100us
    sim.cancel_periodic(id);
}

TEST(ZeroAllocPins, NativeCanRoundTripSteadyState) {
    Simulator simulator;
    can::CanBus bus(simulator, "native", can::CanBusConfig{500'000, 0.0, 64});
    can::CanController a(bus, "a");
    can::CanController b(bus, "b");
    std::uint64_t echoes = 0;
    b.add_rx_filter(0x100, 0x7FF, [&](const can::CanFrame&, Time) {
        b.send(can::CanFrame::make(0x200, {1}));
    });
    a.add_rx_filter(0x200, 0x7FF, [&](const can::CanFrame&, Time) { ++echoes; });
    auto round_trip = [&] {
        a.send(can::CanFrame::make(0x100, {1}));
        simulator.run_for(Duration::ms(1));
    };
    // Warm: queues, bucket pool, and the trace ring past its wrap point so
    // records recycle in place (64-record capacity, 4 records per trip).
    for (int i = 0; i < 40; ++i) {
        round_trip();
    }
    EXPECT_TRUE(eventually_alloc_free(12, [&] {
        for (int i = 0; i < 5; ++i) {
            round_trip();
        }
    })) << "native CAN round trip allocated in every probe window";
    EXPECT_GE(echoes, 40u);
}

TEST(ZeroAllocPins, VirtualizedCanRoundTripSteadyState) {
    Simulator simulator;
    can::CanBus bus(simulator, "virt", can::CanBusConfig{500'000, 0.0, 64});
    can::VirtualCanController a(bus, "va");
    can::VirtualCanController b(bus, "vb");
    auto ta = a.take_pf_token();
    auto tb = b.take_pf_token();
    for (int i = 0; i < 8; ++i) {
        a.pf_create_vf(ta);
        b.pf_create_vf(tb);
    }
    std::uint64_t echoes = 0;
    b.vf(0).add_rx_filter(0x100, 0x7FF, [&](const can::CanFrame&, Time) {
        b.vf(0).send(can::CanFrame::make(0x200, {1}));
    });
    a.vf(0).add_rx_filter(0x200, 0x7FF,
                          [&](const can::CanFrame&, Time) { ++echoes; });
    auto round_trip = [&] {
        a.vf(0).send(can::CanFrame::make(0x100, {1}));
        simulator.run_for(Duration::ms(1));
    };
    // The VF latency SampleSet grows without bound (by design: percentile
    // reporting), so the pin is eventually-zero: windows between vector
    // doublings must be clean.
    for (int i = 0; i < 70; ++i) {
        round_trip();
    }
    EXPECT_TRUE(eventually_alloc_free(12, [&] {
        for (int i = 0; i < 5; ++i) {
            round_trip();
        }
    })) << "virtualized CAN round trip allocated in every probe window";
    EXPECT_GE(echoes, 70u);
}

TEST(ZeroAllocPins, MonitorIngestSteadyState) {
    Simulator simulator;
    monitor::MonitorManager manager(simulator);
    const monitor::MetricId gap = manager.metric_id("drive.gap");
    const monitor::MetricId speed = manager.metric_id("drive.speed");
    double tap_sum = 0.0;
    manager.metric_ingested().subscribe(
        [&tap_sum](const monitor::Metric& m) { tap_sum += m.value; });
    manager.ingest(gap, 1.0, Time(1)); // warm the emit scratch
    manager.ingest(speed, 2.0, Time(1));
    alloc_hook::CountScope scope;
    for (int i = 0; i < 1'000; ++i) {
        manager.ingest(gap, 40.0 + i, Time(i));
        manager.ingest(speed, 25.0, Time(i));
    }
    EXPECT_EQ(scope.allocations(), 0u) << "interned metric ingest allocated";
    EXPECT_GT(tap_sum, 0.0);
    EXPECT_DOUBLE_EQ(manager.last_value("drive.speed"), 25.0);
    ASSERT_NE(manager.stats("drive.gap"), nullptr);
    EXPECT_EQ(manager.stats("drive.gap")->count(), 1'001u);
}

TEST(ZeroAllocPins, V2vBroadcastFanOutSteadyState) {
    // Eight endpoints, each beaconing a CAM every 100 ms: every transmit
    // fans out to seven receivers through one pooled payload.
    Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(20)});
    std::uint64_t heard = 0;
    const char* const names[] = {"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"};
    for (int i = 0; i < 8; ++i) {
        medium.attach(names[i], sim, [&heard](const v2v::Frame&, double) { ++heard; },
                      10.0 * i);
        sim.schedule_periodic(
            Duration::ms(100),
            [&medium, name = names[i], position = 10.0 * i] {
                medium.transmit(v2v::Medium::cam(name, position, 22.0));
            },
            Duration::us(500 * (i + 1)));
    }
    sim.run_for(Duration::sec(1)); // warm: payload pool, queue buckets
    const std::uint64_t before = heard;
    alloc_hook::CountScope scope;
    sim.run_for(Duration::sec(2));
    EXPECT_EQ(scope.allocations(), 0u) << "V2V fan-out allocated in steady state";
    EXPECT_EQ(heard - before, 20u * 8u * 7u);
}

TEST(ZeroAllocPins, MeshChainRelaySteadyState) {
    // A lossless 4-stack chain (120 m apart, 150 m radio): announcements
    // flood with relays, and the head's unicast CAMs cross two relays.
    Simulator sim;
    v2v::Medium medium(sim, {.latency = Duration::ms(5), .range_m = 150.0});
    std::vector<std::unique_ptr<mesh::MeshStack>> stacks;
    const char* const names[] = {"a", "b", "c", "d"};
    for (int i = 0; i < 4; ++i) {
        stacks.push_back(std::make_unique<mesh::MeshStack>(
            names[i], medium, sim,
            mesh::MeshConfig{.beacon_phase = Duration::us(913 * i + 11)}, 120.0 * i));
    }
    std::uint64_t arrived = 0;
    stacks.back()->on_cam([&arrived](const v2v::Frame&) { ++arrived; });
    sim.schedule_periodic(Duration::ms(50),
                          [&head = *stacks.front()] { (void)head.send_cam("d"); },
                          Duration::ms(500));
    sim.run_for(Duration::sec(2)); // warm: tables, routes, payload pool
    const std::uint64_t relayed_before = stacks[1]->cams_relayed();
    const std::uint64_t arrived_before = arrived;
    alloc_hook::CountScope scope;
    sim.run_for(Duration::sec(4));
    EXPECT_EQ(scope.allocations(), 0u) << "mesh relay allocated in steady state";
    EXPECT_EQ(arrived - arrived_before, 80u);
    EXPECT_EQ(stacks[1]->cams_relayed() - relayed_before, 80u);
    EXPECT_GT(stacks[2]->announces_relayed(), 0u);
}

} // namespace
