#include "scenario_op.hpp"

#include <memory>

#include "util/assert.hpp"
#ifdef PERFBENCH_TRACED
#include <optional>

#include "util/alloc_hook.hpp"
#endif

namespace perfbench {

namespace sc = sa::scenario;

namespace {

void collect_layers(sc::Scenario& scenario, const std::vector<std::string>& buses,
                    LayerCounters& out) {
    for (const std::string& name : scenario.vehicle_names()) {
        sc::Vehicle& vehicle = scenario.vehicle(name);
        for (const std::string& bus_name : buses) {
            const auto& bus = vehicle.rte().can_bus(bus_name);
            out.can_frames += bus.frames_transmitted();
            out.can_arbitration_rounds += bus.arbitration_rounds();
            out.can_controller_polls += bus.controller_polls();
        }
        if (vehicle.has_bus_gateway("gw")) {
            out.can_gateway_forwarded += vehicle.bus_gateway("gw").frames_forwarded();
        }
        out.rte_jobs += vehicle.rte().total_completed_jobs();
        out.rte_deadline_misses += vehicle.rte().total_deadline_misses();
        out.monitor_checks += vehicle.monitors().total_checks();
        out.monitor_anomalies += vehicle.monitors().total_anomalies();
        if (vehicle.has_learned_monitor()) {
            out.learn_evaluations += vehicle.learned_monitor().evaluations();
        }
        out.core_problems_handled += vehicle.coordinator().problems_handled();
        if (scenario.has_mesh(name)) {
            const auto& stack = scenario.mesh(name);
            out.mesh_relays += stack.announces_relayed() + stack.cams_relayed();
        }
    }
    if (scenario.has_v2v()) {
        out.mesh_transmissions = scenario.v2v().transmissions();
        out.mesh_deliveries = scenario.v2v().deliveries();
        out.mesh_losses = scenario.v2v().losses();
    }
    if (scenario.has_platoon()) {
        out.platoon_maneuvers = scenario.platoon().history().size();
    }
}

std::string layers_json(const LayerCounters& c) {
    return Json()
        .count("can_frames", c.can_frames)
        .count("can_arbitration_rounds", c.can_arbitration_rounds)
        .count("can_controller_polls", c.can_controller_polls)
        .count("can_gateway_forwarded", c.can_gateway_forwarded)
        .count("rte_jobs", c.rte_jobs)
        .count("rte_deadline_misses", c.rte_deadline_misses)
        .count("monitor_checks", c.monitor_checks)
        .count("monitor_anomalies", c.monitor_anomalies)
        .count("learn_evaluations", c.learn_evaluations)
        .count("core_problems_handled", c.core_problems_handled)
        .count("platoon_maneuvers", c.platoon_maneuvers)
        .count("mesh_transmissions", c.mesh_transmissions)
        .count("mesh_deliveries", c.mesh_deliveries)
        .count("mesh_losses", c.mesh_losses)
        .count("mesh_relays", c.mesh_relays)
        .done();
}

} // namespace

std::string OpRecord::json() const {
    return Json()
        .count("traced", traced ? 1 : 0)
        .count("domains", domains)
        .num("declare_s", declare_s)
        .num("lint_s", lint_s)
        .num("build_s", build_s)
        .num("setup_s", setup_s())
        .num("propagate_s", propagate_s)
        .count("propagate_calls", propagate_calls)
        .num("run_wall_s", run_wall_s)
        .num("run_cpu_s", run_cpu_s)
        .num("op_wall_s", op_wall_s)
        .num("op_cpu_s", op_cpu_s)
        .num("sim_s", sim_s)
        .count("events", events)
        .count("windows", windows)
        .count("cross_domain_events", cross_domain_events)
        .count("context_switches", context_switches)
        .count("allocations", allocations)
        .num("gauge_wall_s", gauge.wall_s)
        .num("gauge_cpu_s", gauge.cpu_s)
        .str("violation", violation)
        .raw("layers", layers_json(layers))
        .raw("outputs", outputs.done())
        .raw("extra", extra.done())
        .done();
}

OpRecord run_scenario_op(std::uint64_t seed, std::size_t domains,
                         sa::sim::Duration duration, const ScenarioHooks& hooks,
                         bool traced, Spans& spans, std::uint64_t op) {
    OpRecord record;
    record.traced = traced;
    record.domains = domains;
    Spans quiet(false);
    Spans& out = traced ? spans : quiet;

    const double op_wall0 = wall_now();
    const double op_cpu0 = cpu_now();
    {
        SpanScope op_span(out, "op", op);
        std::unique_ptr<sc::Scenario> scenario;
        {
            const double t0 = wall_now();
            sc::ScenarioBuilder builder(seed);
            builder.domains(domains);
            hooks.declare(builder);
            const double t1 = wall_now();
            out.add("scenario.declare", t0, t1, op);
            record.declare_s = t1 - t0;
            if (traced) {
                SpanScope span(out, "lint.scenario", op);
                const double l0 = wall_now();
                const auto report = builder.lint();
                record.lint_s = wall_now() - l0;
                SA_REQUIRE(report.error_count() == 0, "benchmark scenario fails lint");
            }
            try {
                const double b0 = wall_now();
                scenario = builder.build();
                const double b1 = wall_now();
                out.add("scenario.build", b0, b1, op);
                record.build_s = b1 - b0;
            } catch (const std::exception& error) {
                record.violation = error.what();
            }
        }
        if (scenario) {
            if (traced) {
                SpanScope span(out, "skills.propagate", op);
                for (const std::string& name : scenario->vehicle_names()) {
                    sc::Vehicle& vehicle = scenario->vehicle(name);
                    if (vehicle.has_abilities()) {
                        const double p0 = wall_now();
                        (void)vehicle.abilities().propagate();
                        record.propagate_s += wall_now() - p0;
                        ++record.propagate_calls;
                    }
                }
            }
            if (hooks.prepare) {
                hooks.prepare(*scenario);
            }

            const Usage usage0 = usage_now();
            const double cpu0 = cpu_now();
            const double wall0 = wall_now();
            try {
#ifdef PERFBENCH_TRACED
                std::optional<sa::util::alloc_hook::CountScope> counting;
                if (traced) {
                    counting.emplace();
                }
                (void)scenario->run(duration, domains);
                if (counting) {
                    record.allocations = counting->allocations();
                }
#else
                (void)scenario->run(duration, domains);
#endif
            } catch (const std::exception& error) {
                record.violation = error.what();
            }
            const double wall1 = wall_now();
            const double cpu1 = cpu_now();
            const Usage usage1 = usage_now();
            out.add("sim.run", wall0, wall1, op);
            record.run_wall_s = wall1 - wall0;
            record.run_cpu_s = cpu1 - cpu0;
            record.context_switches =
                static_cast<std::uint64_t>(usage1.context_switches - usage0.context_switches);
            record.sim_s = duration.to_seconds();

            if (scenario->sharded()) {
                record.events = scenario->kernel().executed_events();
                record.windows = scenario->kernel().windows();
                record.cross_domain_events = scenario->kernel().cross_domain_events();
            } else {
                record.events = scenario->simulator().executed_events();
            }
            collect_layers(*scenario, hooks.buses, record.layers);
            if (hooks.collect) {
                hooks.collect(*scenario, record);
            }
            SpanScope span(out, "scenario.teardown", op);
            scenario.reset();
        }
    }
    record.op_wall_s = wall_now() - op_wall0;
    record.op_cpu_s = cpu_now() - op_cpu0;
    return record;
}

OpRecord gauged(std::size_t threads, const std::function<OpRecord()>& op) {
    const GaugeReading before = gauge_host(threads);
    OpRecord record = op();
    record.gauge = mean(before, gauge_host(threads));
    return record;
}

SetupSamples extra_setups(std::uint64_t seed, std::size_t domains, const ScenarioHooks& hooks,
                          std::size_t count) {
    SetupSamples samples;
    // build() starts no threads (domain workers start in run()).
    CpuRotation rotation;
    for (std::size_t i = 0; i < count; ++i) {
        rotation.next();
        const GaugeReading before = gauge_host(1);
        const double t0 = wall_now();
        {
            sc::ScenarioBuilder builder(seed);
            builder.domains(domains);
            hooks.declare(builder);
            const auto scenario = builder.build();
            samples.setup_s.push_back(wall_now() - t0);
        }
        samples.gauge_wall_s.push_back(mean(before, gauge_host(1)).wall_s);
    }
    return samples;
}

sa::sim::Duration beacon_phase(std::uint64_t seed, std::size_t i) {
    const auto index = static_cast<std::int64_t>(i);
    const auto jitter = static_cast<std::int64_t>(mix(seed * 1000 + i) % 50);
    return sa::sim::Duration::us(500 * (index + 1) + 1 + 2 * jitter);
}

void Beacon::fire() {
    if (timed) {
        const double t0 = wall_now();
        medium->transmit(sa::v2v::Medium::cam(name, position_m, 22.0));
        transmit_s += wall_now() - t0;
    } else {
        medium->transmit(sa::v2v::Medium::cam(name, position_m, 22.0));
    }
    ++transmits;
}

void Beacon::receive(const sa::v2v::Frame& frame) {
    ++received;
    digest += mix(static_cast<std::uint64_t>(frame.sent.ns()) ^
                  (static_cast<std::uint64_t>(frame.position_m) << 48));
}

void add_transmit_timing(const std::vector<Beacon>& beacons, OpRecord& record) {
    double transmit_s = 0.0;
    std::uint64_t transmits = 0;
    for (const Beacon& beacon : beacons) {
        transmit_s += beacon.transmit_s;
        transmits += beacon.transmits;
    }
    record.extra.num("transmit_s", transmit_s).count("transmits", transmits);
}

void repeat_for(double seconds, std::size_t min_ops,
                const std::function<void(std::size_t)>& body) {
    const double start = wall_now();
    std::size_t index = 0;
    while (index < min_ops || wall_now() - start < seconds) {
        body(index++);
    }
}

} // namespace perfbench
