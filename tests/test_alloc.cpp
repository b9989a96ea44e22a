// Allocation-count harness tests plus the steady-state zero-allocation pins
// for the kernel hot paths (the arena/pool memory layout). Linking this
// suite pulls the interposing operator new/delete from alloc_hook.cpp into
// the binary (static-library pull-in IS the hook); the pins then assert that
// a warmed simulation schedules/pops events, completes CAN round trips and
// gateway forwards, ingests metrics, fans V2V frames out and propagates
// ability levels without touching the heap. The assembly pins at the end
// bound what building identical vehicles allocates.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/campaign_spec.hpp"
#include "campaign/runner.hpp"
#include "can/bus.hpp"
#include "can/bus_gateway.hpp"
#include "can/controller.hpp"
#include "can/virtual_controller.hpp"
#include "core/coordinator.hpp"
#include "core/self_model.hpp"
#include "mesh/mesh_stack.hpp"
#include "monitor/manager.hpp"
#include "rte/scheduler.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "skills/ability_graph.hpp"
#include "skills/capability_registry.hpp"
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
    can::CanBus bus(simulator);
    can::CanController a(bus);
    can::CanController b(bus);
    std::uint64_t echoes = 0;
    b.add_rx_filter(0x100, 0x7FF, [&](const can::CanFrame&, Time) {
        b.send(can::CanFrame::make(0x200, {1}));
    });
    a.add_rx_filter(0x200, 0x7FF, [&](const can::CanFrame&, Time) { ++echoes; });
    auto round_trip = [&] {
        a.send(can::CanFrame::make(0x100, {1}));
        simulator.run_for(Duration::ms(1));
    };
    // Warm: queues and bucket pool.
    for (int i = 0; i < 40; ++i) {
        round_trip();
    }
    alloc_hook::CountScope scope;
    for (int i = 0; i < 60; ++i) {
        round_trip();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "native CAN round trip allocated in steady state";
    EXPECT_EQ(echoes, 100u);
}

TEST(ZeroAllocPins, GatewayForwardSteadyState) {
    Simulator simulator;
    can::CanBus ingress(simulator);
    can::CanBus egress(simulator);
    can::BusGateway gateway;
    gateway.add_route(ingress, egress, 0x100, 0x7FF);
    can::CanController sender(ingress);
    can::CanController sink(egress);
    std::uint64_t received = 0;
    sink.add_rx_filter(0x100, 0x7FF, [&](const can::CanFrame&, Time) { ++received; });
    auto forward = [&] {
        sender.send(can::CanFrame::make(0x100, {1, 2, 3, 4}));
        simulator.run_for(Duration::ms(1));
    };
    // Warm: queues and bucket pool.
    for (int i = 0; i < 50; ++i) {
        forward();
    }
    alloc_hook::CountScope scope;
    for (int i = 0; i < 100; ++i) {
        forward();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "gateway forward allocated in steady state";
    EXPECT_EQ(gateway.frames_forwarded(), 150u);
    EXPECT_EQ(received, 150u);
}

TEST(ZeroAllocPins, CanBusCarriesFramesWithoutAllocating) {
    // The bus keeps nothing per frame: once one frame has warmed the
    // queues, 4,096 more frames between two controllers allocate nothing.
    Simulator simulator;
    can::CanBus bus(simulator);
    can::CanController sender(bus);
    can::CanController sink(bus);
    std::uint64_t received = 0;
    sink.add_rx_filter(0, 0, [&](const can::CanFrame&, Time) { ++received; });
    auto send = [&] {
        sender.send(can::CanFrame::make(0x123, {1, 2, 3, 4}));
        simulator.run_for(Duration::us(500));
    };
    send();
    alloc_hook::CountScope scope;
    for (int i = 0; i < 4096; ++i) {
        send();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "the CAN bus allocated while carrying frames";
    EXPECT_EQ(received, 4097u);
    EXPECT_EQ(bus.frames_transmitted(), 4097u);
}

TEST(ZeroAllocPins, VirtualizedCanRoundTripSteadyState) {
    Simulator simulator;
    can::CanBus bus(simulator);
    can::VirtualCanController a(bus);
    can::VirtualCanController b(bus);
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

TEST(ZeroAllocPins, JobCompletionSteadyState) {
    // A task name past the small-string buffer: copying it into the
    // completion record allocates unless the reused record keeps capacity.
    Simulator sim;
    rte::FixedPriorityScheduler scheduler(sim, "ecu");
    rte::RtTaskConfig task;
    task.name = "perception.track_objects";
    task.priority = 1;
    task.period = Duration::ms(10);
    task.wcet = Duration::ms(2);
    (void)scheduler.add_task(task);
    std::uint64_t completions = 0;
    scheduler.job_completed().subscribe(
        [&completions](const rte::JobRecord&) { ++completions; });
    scheduler.start();
    sim.run_for(Duration::ms(100)); // warm: record name, queue buckets
    const std::uint64_t before = completions;
    alloc_hook::CountScope scope;
    sim.run_for(Duration::ms(500));
    EXPECT_EQ(scope.allocations(), 0u) << "job completion allocated in steady state";
    EXPECT_EQ(completions - before, 50u);
}

TEST(ZeroAllocPins, MonitorIngestSteadyState) {
    Simulator simulator;
    monitor::MonitorManager manager(simulator);
    const monitor::MetricId gap = manager.metric_id("drive.gap");
    const monitor::MetricId speed = manager.metric_id("drive.speed");
    std::uint64_t gap_samples = 0;
    double last_speed = 0.0;
    manager.metric_ingested().subscribe(
        [&gap_samples, &last_speed, gap](monitor::MetricId id, double value, Time) {
            if (id == gap) {
                ++gap_samples;
            } else {
                last_speed = value;
            }
        });
    manager.ingest(gap, 1.0, Time(1));
    manager.ingest(speed, 2.0, Time(1));
    alloc_hook::CountScope scope;
    for (int i = 0; i < 1'000; ++i) {
        manager.ingest(gap, 40.0 + i, Time(i));
        manager.ingest(speed, 25.0, Time(i));
    }
    EXPECT_EQ(scope.allocations(), 0u) << "interned metric ingest allocated";
    EXPECT_EQ(gap_samples, 1'001u);
    EXPECT_DOUBLE_EQ(last_speed, 25.0);
}

class ConstantHealthLayer : public core::Layer {
public:
    ConstantHealthLayer(core::LayerId id, double health)
        : Layer(id), health_(health) {}
    std::vector<core::Proposal> propose(const core::Problem&) override { return {}; }
    double health() const override { return health_; }

private:
    double health_;
};

TEST(ZeroAllocPins, SelfModelCaptureSteadyState) {
    // After the first capture, capture() rewrites the one snapshot in place
    // and returns it by reference, so it allocates nothing.
    Simulator simulator;
    core::CrossLayerCoordinator coordinator(simulator);
    coordinator.register_layer(
        std::make_unique<ConstantHealthLayer>(core::LayerId::Platform, 0.75));
    coordinator.register_layer(
        std::make_unique<ConstantHealthLayer>(core::LayerId::Ability, 0.5));
    skills::AbilityGraph abilities(*skills::CapabilityRegistry::builtin().spec("acc"));
    core::SelfModel self(simulator, coordinator);
    self.bind_abilities(abilities, skills::acc::kAccDriving);
    std::uint64_t published = 0;
    self.snapshot_taken().subscribe(
        [&published](const core::SelfSnapshot&) { ++published; });
    (void)self.capture(); // fills the health map and the root-skill name
    double overall = 0.0;
    alloc_hook::CountScope scope;
    for (int i = 0; i < 100; ++i) {
        overall += self.capture().overall;
    }
    EXPECT_EQ(scope.allocations(), 0u) << "self-model capture allocated";
    EXPECT_EQ(published, 101u);
    EXPECT_EQ(self.latest().version, 101u);
    EXPECT_EQ(self.latest().layer_health.size(), 2u);
    EXPECT_EQ(overall, 50.0); // the minimum over the layers, 100 times
}

TEST(ZeroAllocPins, VehicleSelfModelCaptureSteadyState) {
    // A full platoon_follow vehicle: its platform and network layers walk
    // the RTE's ECUs and components in place, so a warm capture allocates
    // nothing.
    scenario::ScenarioBuilder builder(3);
    scenario::presets::declare_platoon_follow_vehicle(builder, "ego");
    auto scenario = builder.build();
    scenario->run(Duration::sec(2));
    core::SelfModel& self = scenario->vehicle("ego").self_model();
    const std::uint64_t version = self.latest().version;
    alloc_hook::CountScope scope;
    for (int i = 0; i < 100; ++i) {
        (void)self.capture();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "vehicle self-model capture allocated";
    EXPECT_EQ(self.latest().version, version + 100);
    EXPECT_EQ(self.latest().layer_health.size(), 5u);
}

TEST(ZeroAllocPins, AbilityPropagateSteadyState) {
    // The §IV ACC graph: a camera update and propagate() walk dense ids and
    // reuse one scratch buffer, level changes and their signal included.
    skills::AbilityGraph abilities(*skills::CapabilityRegistry::builtin().spec("acc"));
    std::uint64_t changed = 0;
    abilities.level_changed().subscribe(
        [&changed](const std::string&, skills::AbilityLevel, skills::AbilityLevel) {
            ++changed;
        });
    const std::string camera = skills::acc::kCamera;
    abilities.set_source_level(camera, 0.1); // warm
    (void)abilities.propagate();
    std::size_t changes = 0;
    alloc_hook::CountScope scope;
    for (int i = 0; i < 100; ++i) {
        abilities.set_source_level(camera, i % 2 == 0 ? 1.0 : 0.1);
        changes += abilities.propagate();
    }
    EXPECT_EQ(scope.allocations(), 0u) << "ability propagation allocated";
    // The camera reaches perception and the 4 skills above it.
    EXPECT_EQ(changes, 100u * 5u);
    EXPECT_EQ(changed, 5u + changes);
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

// --- assembly pins ---------------------------------------------------------
// Vehicles declared the same way share their skill-graph spec (with its
// compiled graph) and the analysed MCC (with its report) instead of each
// holding a copy. Before that sharing (GCC 12.2, libstdc++): the second
// identical declare_platoon_follow_vehicle build() made 302 allocations, a
// 3-vehicle campaign platoon cell's declare and build made 1,140 (257 + 883),
// and instantiating the platoon_follow graph made 71. With it they make
// 142, 465 (62 + 403) and 2. The pins hold the first two at half the old
// counts and the third at the graph's own levels and scratch buffer.

TEST(AssemblyAllocPins, SecondIdenticalPlatoonVehicleBuildIsHalved) {
    scenario::ScenarioBuilder builder(13);
    for (const char* name : {"warm", "first", "second"}) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
    }
    Simulator warm_simulator(1);
    Simulator first_simulator(1);
    Simulator second_simulator(1);
    // One-time set-up (catalogue, memoised analysis) lands in the first two.
    auto warm = builder.vehicle("warm").build(warm_simulator);
    auto first = builder.vehicle("first").build(first_simulator);
    std::uint64_t allocations = 0;
    {
        alloc_hook::CountScope scope;
        auto second = builder.vehicle("second").build(second_simulator);
        allocations = scope.allocations();
    }
    EXPECT_LE(allocations, 302u / 2) << "second identical platoon vehicle";
}

TEST(AssemblyAllocPins, PlatoonCellDeclareAndBuildIsHalved) {
    const campaign::CellConfig cell; // the 3-vehicle dual-bus platoon template
    const auto assemble = [&cell] {
        scenario::ScenarioBuilder builder(cell.seed);
        campaign::declare_cell_scenario(builder, cell);
        return builder.build();
    };
    (void)assemble(); // one-time set-up
    std::uint64_t allocations = 0;
    {
        alloc_hook::CountScope scope;
        auto scenario = assemble();
        allocations = scope.allocations();
    }
    EXPECT_LE(allocations, 1'140u / 2) << "3-vehicle platoon cell, declare + build";
}

TEST(AssemblyAllocPins, GraphsOfOneSpecShareItsCompiledStructure) {
    const skills::SkillGraphSpec& spec =
        *skills::CapabilityRegistry::builtin().spec("platoon_follow");
    std::uint64_t allocations = 0;
    {
        alloc_hook::CountScope scope;
        const skills::AbilityGraph abilities(spec);
        allocations = scope.allocations();
    }
    EXPECT_LE(allocations, 2u) << "levels and the propagate() scratch only";
}

} // namespace
