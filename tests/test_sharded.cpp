// Tests for the sharded kernel: conservative-lookahead windows, the
// deterministic cross-domain mailboxes, script barriers, the foreign-thread
// contracts on the periodic registry, cross-domain gateway routes and V2V —
// and the determinism suite: the dual-bus platoon produces identical
// per-vehicle counters and CAN event traces for num_domains in {1, 2, 4},
// and identical everything when re-run with the same seed.
//
// The whole file is ThreadSanitizer-relevant: the CI tsan job runs it with
// SA_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "mesh/medium.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario_builder.hpp"
#include "sim/sharded_kernel.hpp"
#include "util/assert.hpp"

namespace {

using namespace sa;
using sim::Duration;
using sim::Time;

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
    sim::ShardedKernel kernel(2, 42);
    kernel.domain(0).schedule(Duration::us(10), [&] {
        // The legal pre-sharding pattern — holding a reference to another
        // simulator and scheduling on it directly — must trip a contract
        // inside a window instead of racing the owning worker.
        (void)kernel.domain(1).schedule(Duration::ms(1), [] {});
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                 sa::ContractViolation);
}

TEST(ShardedKernel, PostBelowTheHorizonIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::us(50));
    kernel.domain(0).schedule(Duration::us(10), [&] {
        // 10 us < horizon: the declared lookahead promised >= 50 us.
        sim::post(kernel.domain(1), kernel.domain(0).now() + Duration::us(10),
                  [] {});
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(1).count_ns())),
                 sa::ContractViolation);
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

// --- the periodic-registry audit (Simulator::stop / Vehicle teardown) -------------

TEST(ShardedKernel, ForeignThreadCancelPeriodicIsRejected) {
    sim::ShardedKernel kernel(2, 42);
    kernel.declare_lookahead(0, Duration::us(50));
    const std::uint64_t id =
        kernel.domain(1).schedule_periodic(Duration::ms(1), [] {});
    kernel.domain(0).schedule(Duration::us(10), [&] {
        kernel.domain(1).cancel_periodic(id); // foreign domain thread: race
    });

    EXPECT_THROW(kernel.run_until(Time(Duration::ms(10).count_ns())),
                 sa::ContractViolation);
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
        .acc_skills()
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

std::string trace_fingerprint(const sim::Trace& trace) {
    std::string out;
    for (const auto& record : trace.records()) {
        out += std::to_string(record.at.ns()) + " " + record.tag + " " +
               record.detail + "\n";
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

/// The platoon-maneuver workload: three dual-bus platoon_follow vehicles
/// under the maneuver engine. A script degrades beta's radar+V2V
/// capabilities mid-run; its follow skill collapses and the engine splits
/// the platoon at beta — counters, CAN traces, platoon membership and the
/// maneuver history must reproduce bit-for-bit across domain counts.
RunFingerprint run_maneuver_platoon(std::size_t num_domains, std::uint64_t seed) {
    scenario::ScenarioBuilder builder(seed);
    builder.domains(num_domains);
    for (const char* name : kPlatoonVehicles) {
        scenario::presets::declare_platoon_follow_vehicle(builder, name);
        builder.trust(name, 14).platoon_candidate({name, 0.9, 24.0, 10.0, false});
    }
    platoon::ManeuverPolicy policy;
    // Off-grid check period: no collision with any periodic of the preset
    // (20 ms tasks, 500 ms self-model), so script-barrier ordering vs.
    // single-queue ordering cannot diverge at shared timestamps.
    policy.check_period = Duration::ms(247);
    builder.platoon_maneuvers(policy);
    builder
        .at(Duration::ms(100),
            [](scenario::Scenario& s) { (void)s.form_managed_platoon(); })
        .at(Duration::ms(600), [](scenario::Scenario& s) {
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

TEST(ShardedDeterminism, ManeuverScenarioReproducesPerDomainCount) {
    for (std::size_t domains : {1u, 2u, 4u}) {
        const RunFingerprint first = run_maneuver_platoon(domains, 4242);
        const RunFingerprint second = run_maneuver_platoon(domains, 4242);
        EXPECT_EQ(first, second) << "non-reproducible at domains=" << domains;
    }
}

TEST(ShardedDeterminism, ManeuverScenarioIdenticalAcrossDomainCounts) {
    const RunFingerprint one = run_maneuver_platoon(1, 4242);
    const RunFingerprint two = run_maneuver_platoon(2, 4242);
    const RunFingerprint four = run_maneuver_platoon(4, 4242);
    ASSERT_EQ(one.vehicles.size(), 3u);
    for (std::size_t i = 0; i < one.vehicles.size(); ++i) {
        EXPECT_EQ(one.vehicles[i], two.vehicles[i])
            << kPlatoonVehicles[i] << " diverged between 1 and 2 domains";
        EXPECT_EQ(one.vehicles[i], four.vehicles[i])
            << kPlatoonVehicles[i] << " diverged between 1 and 4 domains";
    }
    EXPECT_EQ(one.v2v, two.v2v) << "platoon/maneuver state diverged (2 domains)";
    EXPECT_EQ(one.v2v, four.v2v) << "platoon/maneuver state diverged (4 domains)";
    // And the degradation actually triggered the maneuver we claim to test.
    EXPECT_NE(one.v2v.find("split(beta)"), std::string::npos) << one.v2v;
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
