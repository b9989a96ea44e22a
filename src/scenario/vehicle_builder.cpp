#include "scenario/vehicle_builder.hpp"

#include <algorithm>

#include "core/ability_layer.hpp"
#include "core/network_layer.hpp"
#include "core/safety_layer.hpp"
#include "model/contract_parser.hpp"
#include "monitor/budget_monitor.hpp"
#include "monitor/deadline_monitor.hpp"
#include "monitor/heartbeat_monitor.hpp"
#include "util/assert.hpp"

namespace sa::scenario {

namespace {

template <class... Ts>
struct overloaded : Ts... {
    using Ts::operator()...;
};

} // namespace

VehicleBuilder::VehicleBuilder(std::string name) : name_(std::move(name)) {
    SA_REQUIRE(!name_.empty(), "vehicle needs a name");
}

VehicleBuilder& VehicleBuilder::domain(std::size_t index) {
    domain_ = index;
    return *this;
}

VehicleBuilder& VehicleBuilder::ecu(model::EcuDescriptor descriptor) {
    return ecu(std::move(descriptor), {1.0, 0.8, 0.6, 0.4});
}

VehicleBuilder& VehicleBuilder::ecu(model::EcuDescriptor descriptor,
                                    std::vector<double> dvfs_levels,
                                    rte::ThermalConfig thermal) {
    SA_REQUIRE(!descriptor.name.empty(), "ECU needs a name");
    SA_REQUIRE(!dvfs_levels.empty(), "ECU needs at least one DVFS level");
    ecus_.push_back(EcuSpec{std::move(descriptor), std::move(dvfs_levels), thermal});
    return *this;
}

VehicleBuilder& VehicleBuilder::can_bus(model::BusDescriptor descriptor,
                                        can::CanBusConfig config) {
    SA_REQUIRE(!descriptor.name.empty(), "bus needs a name");
    buses_.push_back(BusSpec{std::move(descriptor), config});
    return *this;
}

VehicleBuilder& VehicleBuilder::can_gateway(GatewaySpec spec) {
    SA_REQUIRE(!spec.name.empty(), "gateway needs a name");
    SA_REQUIRE(!spec.routes.empty(), "gateway needs at least one route");
    gateways_.push_back(std::move(spec));
    return *this;
}

VehicleBuilder& VehicleBuilder::contracts(std::string_view text) {
    contract_text_.append(text);
    contract_text_.push_back('\n');
    return *this;
}

VehicleBuilder& VehicleBuilder::contracts(std::vector<model::Contract> parsed) {
    contracts_.insert(contracts_.end(), std::make_move_iterator(parsed.begin()),
                      std::make_move_iterator(parsed.end()));
    return *this;
}

VehicleBuilder& VehicleBuilder::mcc_options(model::MccOptions options) {
    mcc_options_ = options;
    return *this;
}

VehicleBuilder& VehicleBuilder::integration_policy(IntegrationPolicy policy) {
    policy_ = policy;
    return *this;
}

VehicleBuilder& VehicleBuilder::rt_task(std::string ecu_name, rte::RtTaskConfig task) {
    SA_REQUIRE(!task.name.empty(), "raw task needs a name");
    raw_tasks_.push_back(RawTaskSpec{std::move(ecu_name), std::move(task)});
    return *this;
}

VehicleBuilder& VehicleBuilder::can_tx_on_completion(std::string ecu_name,
                                                     std::string task, std::string bus,
                                                     can::CanFrame frame) {
    can_tx_.push_back(
        CanTxSpec{std::move(ecu_name), std::move(task), std::move(bus), frame});
    return *this;
}

VehicleBuilder& VehicleBuilder::can_rx_activation(std::string ecu_name, std::string task,
                                                  std::string bus, std::uint32_t id,
                                                  std::uint32_t mask) {
    can_rx_.push_back(
        CanRxSpec{std::move(ecu_name), std::move(task), std::move(bus), id, mask});
    return *this;
}

VehicleBuilder& VehicleBuilder::rate_ids(sim::Duration window, double default_bound) {
    monitor_decls_.emplace_back(RateIdsDecl{window, default_bound});
    return *this;
}

VehicleBuilder& VehicleBuilder::thermal_guard(std::string ecu_name, double lo_c,
                                              double hi_c, monitor::Severity severity) {
    monitor_decls_.emplace_back(ThermalGuardDecl{std::move(ecu_name), lo_c, hi_c,
                                                 severity});
    return *this;
}

VehicleBuilder& VehicleBuilder::deadline_monitor(std::string ecu_name) {
    monitor_decls_.emplace_back(DeadlineDecl{std::move(ecu_name)});
    return *this;
}

VehicleBuilder& VehicleBuilder::budget_monitor(std::string ecu_name,
                                               monitor::BudgetMode mode,
                                               sim::Duration budget) {
    monitor_decls_.emplace_back(BudgetDecl{std::move(ecu_name), mode, budget});
    return *this;
}

VehicleBuilder& VehicleBuilder::heartbeat_monitor(std::string watched,
                                                  sim::Duration timeout) {
    monitor_decls_.emplace_back(HeartbeatDecl{std::move(watched), timeout});
    return *this;
}

VehicleBuilder& VehicleBuilder::monitor_overhead_task(std::string ecu_name,
                                                      sim::Duration period,
                                                      sim::Duration wcet, int priority) {
    monitor_decls_.emplace_back(OverheadDecl{std::move(ecu_name), period, wcet,
                                             priority});
    return *this;
}

VehicleBuilder& VehicleBuilder::learned_monitor(learn::LearnedMonitorConfig config) {
    monitor_decls_.emplace_back(LearnedDecl{std::move(config)});
    return *this;
}

std::vector<std::string> VehicleBuilder::resolved_learned_metrics(
    const learn::LearnedMonitorConfig& config) const {
    if (!config.metrics.empty()) {
        return config.metrics;
    }
    std::vector<std::string> names;
    if (!config.auto_metrics) {
        return names;
    }
    if (driving_.has_value()) {
        names.emplace_back("drive.gap");
        names.emplace_back("drive.speed");
    }
    for (const auto& spec : sensors_) {
        names.push_back("sensor." + spec.config.name);
    }
    if (!root_skill_.empty()) {
        names.push_back("skill." + root_skill_);
    }
    return names;
}

VehicleBuilder& VehicleBuilder::skill_graph(skills::SkillGraph graph,
                                            std::string root_skill) {
    skill_graph_ = std::move(graph);
    skill_spec_.reset();
    root_skill_ = std::move(root_skill);
    return *this;
}

VehicleBuilder& VehicleBuilder::skill_graph(skills::SkillGraphSpec spec) {
    SA_REQUIRE(!spec.root_skill().empty(),
               "skill_graph(spec): spec '" + spec.name() + "' declares no root");
    root_skill_ = spec.root_skill();
    skill_spec_ = std::move(spec);
    skill_graph_.reset();
    return *this;
}

VehicleBuilder& VehicleBuilder::skill_graph(const std::string& registry_spec_name,
                                            const skills::CapabilityRegistry& registry) {
    return skill_graph(registry.spec(registry_spec_name));
}

VehicleBuilder& VehicleBuilder::degradation_policy(skills::DegradationPolicy policy) {
    degradation_policy_ = std::move(policy);
    return *this;
}

VehicleBuilder& VehicleBuilder::acc_skills(skills::AccGraphOptions options) {
    return skill_graph(skills::make_acc_skill_graph(options), skills::acc::kAccDriving);
}

VehicleBuilder& VehicleBuilder::aggregation(std::string skill,
                                            skills::Aggregation aggregation) {
    aggregations_.push_back(AggregationSpec{std::move(skill), aggregation});
    return *this;
}

VehicleBuilder& VehicleBuilder::dependency_weight(std::string skill, std::string child,
                                                  double weight) {
    weights_.push_back(WeightSpec{std::move(skill), std::move(child), weight});
    return *this;
}

VehicleBuilder& VehicleBuilder::tactic(std::string name, std::string target_skill,
                                       double min_level, double max_level, int cost,
                                       VehicleTactic apply) {
    SA_REQUIRE(apply != nullptr, "tactic needs an action");
    tactics_.push_back(TacticSpec{std::move(name), std::move(target_skill), min_level,
                                  max_level, cost, std::move(apply)});
    return *this;
}

VehicleBuilder& VehicleBuilder::plan_tactics_every(sim::Duration period) {
    tactic_plan_period_ = period;
    return *this;
}

VehicleBuilder& VehicleBuilder::layers(std::vector<core::LayerId> which) {
    layers_ = std::move(which);
    return *this;
}

VehicleBuilder& VehicleBuilder::full_layer_stack() {
    layers_ = {core::LayerId::Platform, core::LayerId::Network, core::LayerId::Safety,
               core::LayerId::Ability, core::LayerId::Objective};
    return *this;
}

VehicleBuilder& VehicleBuilder::coordinator(core::CoordinatorConfig config) {
    coordinator_config_ = config;
    return *this;
}

VehicleBuilder& VehicleBuilder::ability_update_hook(UpdateHook hook) {
    update_hook_ = std::move(hook);
    return *this;
}

VehicleBuilder& VehicleBuilder::self_model(sim::Duration period) {
    self_model_period_ = period;
    return *this;
}

VehicleBuilder& VehicleBuilder::driving(vehicle::ScenarioConfig config) {
    driving_ = config;
    return *this;
}

VehicleBuilder& VehicleBuilder::sensor(vehicle::SensorConfig sensor) {
    require_unique_sensor(sensor.name);
    sensors_.push_back(SensorSpec{sensor, std::nullopt, {}});
    return *this;
}

VehicleBuilder& VehicleBuilder::sensor(vehicle::SensorConfig sensor,
                                       monitor::SensorQualityConfig quality,
                                       std::string skill_node) {
    require_unique_sensor(sensor.name);
    sensors_.push_back(SensorSpec{sensor, quality, std::move(skill_node)});
    return *this;
}

void VehicleBuilder::require_unique_sensor(const std::string& name) const {
    SA_REQUIRE(!name.empty(), "sensor needs a name");
    for (const auto& spec : sensors_) {
        SA_REQUIRE(spec.config.name != name, "duplicate sensor name: " + name);
    }
}

VehicleBuilder& VehicleBuilder::lead_profile(vehicle::LeadProfile profile) {
    lead_profile_ = std::move(profile);
    return *this;
}

VehicleBuilder& VehicleBuilder::v2v(double position_m) {
    SA_REQUIRE(!v2v_endpoint_.has_value(),
               "vehicle already declared a V2V endpoint");
    v2v_endpoint_ = V2vEndpointSpec{false, {}, position_m};
    return *this;
}

VehicleBuilder& VehicleBuilder::mesh(mesh::MeshConfig config, double position_m) {
    SA_REQUIRE(!v2v_endpoint_.has_value(),
               "vehicle already declared a V2V endpoint");
    v2v_endpoint_ = V2vEndpointSpec{true, config, position_m};
    return *this;
}

model::PlatformModel VehicleBuilder::platform_model() const {
    model::PlatformModel platform;
    platform.ecus.reserve(ecus_.size());
    for (const auto& spec : ecus_) {
        platform.ecus.push_back(spec.model);
    }
    platform.buses.reserve(buses_.size());
    for (const auto& spec : buses_) {
        platform.buses.push_back(spec.model);
    }
    return platform;
}

model::ChangeRequest VehicleBuilder::change_request() const {
    model::ChangeRequest change;
    change.description = name_ + " system";
    change.contracts = contracts_;
    if (!contract_text_.empty()) {
        model::ContractParser parser;
        auto parsed = parser.parse(contract_text_);
        change.contracts.insert(change.contracts.end(),
                                std::make_move_iterator(parsed.begin()),
                                std::make_move_iterator(parsed.end()));
    }
    return change;
}

void VehicleBuilder::describe(lint::VehicleShape& shape) const {
    shape.name = name_;
    shape.domain_pin = domain_;
    for (const auto& spec : ecus_) {
        shape.ecus.push_back(spec.model.name);
    }
    for (const auto& spec : buses_) {
        shape.buses.push_back(spec.model.name);
    }
    for (const auto& spec : sensors_) {
        shape.sensors.push_back(spec.config.name);
        if (!spec.skill_node.empty()) {
            shape.sensor_skill_bindings.emplace_back(spec.config.name,
                                                     spec.skill_node);
        }
    }
    for (const auto& spec : raw_tasks_) {
        shape.raw_tasks.push_back(spec.task.name);
    }
    for (const auto& gateway : gateways_) {
        lint::GatewayShape out;
        out.name = gateway.name;
        out.forward_latency_ns = gateway.forward_latency.count_ns();
        for (const auto& route : gateway.routes) {
            out.routes.push_back(lint::RouteShape{route.from_bus, route.to_bus,
                                                  route.id, route.mask});
        }
        shape.gateways.push_back(std::move(out));
    }
    for (const auto& decl : monitor_decls_) {
        std::visit(
            overloaded{
                [&](const RateIdsDecl&) {},
                [&](const ThermalGuardDecl& d) {
                    shape.ecu_monitors.push_back({"thermal_guard", d.ecu});
                },
                [&](const DeadlineDecl& d) {
                    shape.ecu_monitors.push_back({"deadline_monitor", d.ecu});
                },
                [&](const BudgetDecl& d) {
                    shape.ecu_monitors.push_back({"budget_monitor", d.ecu});
                },
                [&](const HeartbeatDecl& d) {
                    shape.heartbeat_watches.push_back(d.watched);
                },
                [&](const OverheadDecl& d) {
                    shape.ecu_monitors.push_back({"monitor_overhead", d.ecu});
                },
                [&](const LearnedDecl& d) {
                    shape.learned_monitors.push_back(
                        {resolved_learned_metrics(d.config).size(),
                         d.config.warmup.count_ns()});
                },
            },
            decl);
    }
    if (v2v_endpoint_.has_value()) {
        shape.v2v_endpoint = lint::MeshEndpointShape{
            v2v_endpoint_->is_mesh, v2v_endpoint_->position_m,
            v2v_endpoint_->is_mesh ? v2v_endpoint_->config.beacon_ttl : 0};
    }
    if (skill_spec_.has_value()) {
        shape.has_skill_graph = true;
        shape.skill_nodes = skill_spec_->node_names();
    } else if (skill_graph_.has_value()) {
        shape.has_skill_graph = true;
        shape.skill_nodes = skill_graph_->node_names();
    }
    // Parse failures surface as TXT001 via ScenarioBuilder::lint(); here
    // they only mean the component list stays unknown.
    try {
        for (const auto& contract : change_request().contracts) {
            shape.components.push_back(contract.component);
        }
    } catch (const util::ParseError&) {
        // Swallowed deliberately — see the comment above the try.
    }
}

void VehicleBuilder::build_monitors(Vehicle& v) const {
    for (const auto& decl : monitor_decls_) {
        std::visit(
            overloaded{
                [&](const RateIdsDecl& d) {
                    SA_REQUIRE(v.ids_ == nullptr, "rate_ids() declared twice");
                    auto& ids = v.monitors_->add<monitor::RateMonitor>(
                        v.rte_->services(), d.window);
                    if (v.mcc_ != nullptr) {
                        for (const auto& rb : v.mcc_->security_policy().rate_bounds) {
                            ids.set_rate_bound(rb.client, rb.service, rb.max_rate_hz);
                        }
                    }
                    if (d.default_bound > 0.0) {
                        ids.set_default_bound(d.default_bound);
                    }
                    ids.start();
                    v.ids_ = &ids;
                },
                [&](const ThermalGuardDecl& d) {
                    if (v.thermal_guard_ == nullptr) {
                        v.thermal_guard_ = &v.monitors_->add<monitor::RangeMonitor>(
                            "thermal", monitor::Domain::Platform);
                    }
                    monitor::RangeMonitor* guard = v.thermal_guard_;
                    const std::string signal = "temp." + d.ecu;
                    guard->set_bounds(signal, d.lo, d.hi, d.severity);
                    v.rte_->ecu(d.ecu).thermal().temperature_updated().subscribe(
                        [guard, signal](double celsius) {
                            (void)guard->sample(signal, celsius);
                        });
                },
                [&](const DeadlineDecl& d) {
                    v.monitors_->add<monitor::DeadlineMonitor>(
                        v.rte_->ecu(d.ecu).scheduler());
                },
                [&](const BudgetDecl& d) {
                    auto& budget = v.monitors_->add<monitor::BudgetMonitor>(
                        v.rte_->ecu(d.ecu).scheduler());
                    budget.set_mode(d.mode);
                    if (d.budget.count_ns() > 0) {
                        for (const auto& raw : raw_tasks_) {
                            if (raw.ecu == d.ecu) {
                                budget.set_budget(
                                    v.raw_tasks_.at({raw.ecu, raw.task.name}),
                                    d.budget);
                            }
                        }
                    }
                },
                [&](const HeartbeatDecl& d) {
                    auto& heartbeat = v.monitors_->add<monitor::HeartbeatMonitor>(
                        d.watched, d.timeout);
                    heartbeat.start();
                },
                [&](const OverheadDecl& d) {
                    (void)v.monitors_->attach_overhead_task(v.rte_->ecu(d.ecu),
                                                            d.period, d.wcet,
                                                            d.priority);
                },
                [&](const LearnedDecl& d) {
                    SA_REQUIRE(v.learned_ == nullptr,
                               "learned_monitor() declared twice");
                    learn::LearnedMonitorConfig config = d.config;
                    config.metrics = resolved_learned_metrics(d.config);
                    v.learned_ = &v.monitors_->add<learn::AnomalyModelMonitor>(
                        *v.monitors_, std::move(config));
                },
            },
            decl);
    }
}

std::unique_ptr<Vehicle> VehicleBuilder::build(sim::Simulator& simulator) const {
    auto owned = std::unique_ptr<Vehicle>(new Vehicle(name_, simulator));
    Vehicle& v = *owned;

    // 1. Model domain: the MCC integrates the declared contract set. A
    //    vehicle with nothing for the model domain to do (no contracts and
    //    no model-consulting layer) skips the MCC entirely — pure
    //    driving-loop or raw-task scenarios have no model domain.
    const model::ChangeRequest change = change_request();
    const bool wants_model_layer =
        std::any_of(layers_.begin(), layers_.end(), [](core::LayerId id) {
            return id == core::LayerId::Platform || id == core::LayerId::Safety;
        });
    bool deploy = false;
    if (!ecus_.empty() && (!change.contracts.empty() || wants_model_layer)) {
        v.mcc_ = std::make_unique<model::Mcc>(platform_model(), mcc_options_);
    } else {
        SA_REQUIRE(change.contracts.empty(), "contracts require at least one ECU");
    }
    if (!change.contracts.empty()) {
        v.integration_report_ = v.mcc_->integrate(change);
        if (policy_ == IntegrationPolicy::RequireAccepted) {
            SA_REQUIRE(v.integration_report_.accepted,
                       "vehicle '" + name_ + "': initial integration rejected: " +
                           v.integration_report_.rejection_reason);
        }
        deploy = v.integration_report_.accepted;
    }

    // 2. Execution domain: platform assembly, deployment, start.
    v.rte_ = std::make_unique<rte::Rte>(simulator);
    for (const auto& spec : ecus_) {
        v.rte_->add_ecu(rte::EcuConfig{spec.model.name, spec.dvfs_levels, spec.thermal});
    }
    for (const auto& spec : buses_) {
        can::CanBusConfig config = spec.config;
        config.bitrate_bps = spec.model.bitrate_bps;
        v.rte_->add_can_bus(spec.model.name, config);
    }
    for (const auto& spec : gateways_) {
        SA_REQUIRE(!v.bus_gateways_.contains(spec.name),
                   "duplicate gateway name: " + spec.name);
        auto gateway = std::make_unique<can::BusGateway>(name_ + "." + spec.name,
                                                         spec.forward_latency);
        for (const auto& route : spec.routes) {
            gateway->add_route(v.rte_->can_bus(route.from_bus),
                               v.rte_->can_bus(route.to_bus), route.id, route.mask);
        }
        v.bus_gateways_.emplace(spec.name, std::move(gateway));
    }
    for (const auto& raw : raw_tasks_) {
        const rte::TaskId id = v.rte_->ecu(raw.ecu).scheduler().add_task(raw.task);
        const bool inserted = v.raw_tasks_.emplace(std::pair{raw.ecu, raw.task.name}, id)
                                  .second;
        SA_REQUIRE(inserted, "duplicate raw task: " + raw.ecu + "." + raw.task.name);
    }
    auto endpoint = [&](const std::string& ecu_name,
                        const std::string& bus) -> rte::CanGateway& {
        auto key = std::pair{ecu_name, bus};
        auto it = v.can_endpoints_.find(key);
        if (it == v.can_endpoints_.end()) {
            it = v.can_endpoints_
                     .emplace(key, std::make_unique<rte::CanGateway>(
                                       v.rte_->can_bus(bus),
                                       name_ + "." + ecu_name + "@" + bus))
                     .first;
        }
        return *it->second;
    };
    for (const auto& tx : can_tx_) {
        endpoint(tx.ecu, tx.bus)
            .transmit_on_completion(v.rte_->ecu(tx.ecu).scheduler(),
                                    v.rt_task(tx.ecu, tx.task), tx.frame);
    }
    for (const auto& rx : can_rx_) {
        endpoint(rx.ecu, rx.bus)
            .activate_on_rx(v.rte_->ecu(rx.ecu).scheduler(), v.rt_task(rx.ecu, rx.task),
                            rx.id, rx.mask);
    }
    if (deploy) {
        v.rte_->apply(v.mcc_->make_rte_config());
    }
    v.rte_->start();
    v.faults_ = std::make_unique<rte::FaultInjector>(*v.rte_);

    // 3. Monitors, in declaration order.
    v.monitors_ = std::make_unique<monitor::MonitorManager>(simulator);
    build_monitors(v);

    // 4. Closed-loop driving + sensors (created, started in step 7).
    if (driving_.has_value()) {
        v.driving_ = std::make_unique<vehicle::VehicleSim>(simulator, *driving_);
        for (const auto& spec : sensors_) {
            const std::size_t index = v.driving_->add_sensor(spec.config);
            if (spec.quality.has_value()) {
                auto& quality = v.monitors_->add<monitor::SensorQualityMonitor>(
                    spec.config.name, *spec.quality);
                v.driving_->attach_quality_monitor(index, quality);
                v.sensor_quality_.emplace(spec.config.name, &quality);
            }
        }
        if (lead_profile_) {
            v.driving_->set_lead_profile(lead_profile_);
        }
    } else {
        SA_REQUIRE(sensors_.empty(), "sensor() requires driving() to be declared");
    }

    // 5. Ability graph: from the declarative spec (aggregations/weights of
    //    the spec applied first) or a raw SkillGraph; builder-level
    //    aggregation()/dependency_weight() declarations refine either.
    if (skill_spec_.has_value()) {
        v.abilities_ = std::make_unique<skills::AbilityGraph>(
            skill_spec_->instantiate_abilities());
    } else if (skill_graph_.has_value()) {
        v.abilities_ = std::make_unique<skills::AbilityGraph>(*skill_graph_);
    }
    if (v.abilities_ != nullptr) {
        v.root_skill_ = root_skill_;
        for (const auto& spec : aggregations_) {
            v.abilities_->set_aggregation(spec.skill, spec.aggregation);
        }
        for (const auto& spec : weights_) {
            v.abilities_->set_dependency_weight(spec.skill, spec.child, spec.weight);
        }
        for (const auto& spec : sensors_) {
            if (!spec.skill_node.empty()) {
                v.abilities_->bind_source(spec.skill_node,
                                          v.sensor_quality(spec.config.name));
            }
        }
    }
    if (degradation_policy_.has_value()) {
        // The unified degradation flow: every monitor alarm is mapped onto
        // capability-quality downgrades before the coordinator (connected in
        // step 8, i.e. after this subscription) consults its layers.
        SA_REQUIRE(v.abilities_ != nullptr,
                   "degradation_policy() requires a skill graph");
        v.policy_ = std::make_unique<skills::DegradationPolicy>(*degradation_policy_);
        Vehicle* vp = &v;
        v.monitors_->anomalies().subscribe([vp](const monitor::Anomaly& anomaly) {
            if (vp->policy_->apply(anomaly, *vp->abilities_)) {
                vp->abilities_->propagate();
            }
        });
    }

    // 6. Degradation tactics + the periodic planner.
    for (const auto& spec : tactics_) {
        skills::Tactic tactic;
        tactic.name = spec.name;
        tactic.target_skill = spec.target_skill;
        tactic.min_level = spec.min_level;
        tactic.max_level = spec.max_level;
        tactic.cost = spec.cost;
        tactic.apply = [&v, action = spec.apply] { action(v); };
        v.tactics_.register_tactic(std::move(tactic));
    }
    if (tactic_plan_period_.has_value()) {
        SA_REQUIRE(v.abilities_ != nullptr,
                   "plan_tactics_every() requires a skill graph");
        v.tactic_planner_id_ = simulator.schedule_periodic(
            *tactic_plan_period_, [&v] { (void)v.tactics_.execute(*v.abilities_); });
    }

    // 7. Start the quality monitors (declaration order), then the driving loop.
    if (v.driving_ != nullptr) {
        for (const auto& spec : sensors_) {
            if (spec.quality.has_value()) {
                v.sensor_quality(spec.config.name).start();
            }
        }
        v.driving_->start();
    }

    // 7b. Learned-monitor metric pump: one periodic at the monitor's period
    //     feeding the resolved metrics into the monitor manager (and thereby
    //     the learned monitor's tap). Metric names that match no standard
    //     feed are skipped here — external producers ingest them directly.
    if (v.learned_ != nullptr) {
        // Names are interned once here; the pump ingests by MetricId, so the
        // periodic feed never re-hashes (or copies) a metric name.
        struct Feed {
            monitor::MetricId id;
            std::function<std::optional<double>(Vehicle&)> read;
        };
        auto feeds = std::make_shared<std::vector<Feed>>();
        const auto feed_id = [&v](const std::string& name) {
            return v.monitors_->metric_id(name);
        };
        for (const auto& metric : v.learned_->config().metrics) {
            if (metric == "drive.gap") {
                feeds->push_back({feed_id(metric), [](Vehicle& veh) -> std::optional<double> {
                    if (veh.driving_ == nullptr) {
                        return std::nullopt;
                    }
                    return veh.driving_->last_fused_gap();
                }});
            } else if (metric == "drive.speed") {
                feeds->push_back({feed_id(metric), [](Vehicle& veh) -> std::optional<double> {
                    if (veh.driving_ == nullptr) {
                        return std::nullopt;
                    }
                    return veh.driving_->ego_speed();
                }});
            } else if (metric.starts_with("sensor.")) {
                const std::string sensor_name = metric.substr(7);
                for (std::size_t i = 0; i < sensors_.size(); ++i) {
                    if (sensors_[i].config.name == sensor_name) {
                        feeds->push_back(
                            {feed_id(metric), [i](Vehicle& veh) -> std::optional<double> {
                                if (veh.driving_ == nullptr) {
                                    return std::nullopt;
                                }
                                return veh.driving_->last_measurement(i);
                            }});
                        break;
                    }
                }
            } else if (metric.starts_with("skill.")) {
                const std::string node = metric.substr(6);
                feeds->push_back({feed_id(metric), [node](Vehicle& veh) -> std::optional<double> {
                    if (veh.abilities_ == nullptr ||
                        !veh.abilities_->structure().has_node(node)) {
                        return std::nullopt;
                    }
                    return veh.abilities_->level(node);
                }});
            }
        }
        Vehicle* vp = &v;
        v.learned_pump_id_ = simulator.schedule_periodic(
            v.learned_->config().period, [vp, feeds] {
                const sim::Time now = vp->simulator_.now();
                for (const auto& feed : *feeds) {
                    if (const std::optional<double> value = feed.read(*vp)) {
                        vp->monitors_->ingest(feed.id, *value, now);
                    }
                }
            });
    }

    // 8. Layer stack; the coordinator subscribes to the anomaly stream.
    v.coordinator_ =
        std::make_unique<core::CrossLayerCoordinator>(simulator, coordinator_config_);
    for (const core::LayerId id : layers_) {
        switch (id) {
        case core::LayerId::Platform:
            SA_REQUIRE(v.mcc_ != nullptr, "platform layer requires an ECU platform");
            v.coordinator_->register_layer(
                std::make_unique<core::PlatformLayer>(*v.rte_, *v.mcc_));
            break;
        case core::LayerId::Network:
            v.coordinator_->register_layer(std::make_unique<core::NetworkLayer>(*v.rte_));
            break;
        case core::LayerId::Safety:
            SA_REQUIRE(v.mcc_ != nullptr, "safety layer requires an ECU platform");
            v.coordinator_->register_layer(
                std::make_unique<core::SafetyLayer>(*v.rte_, *v.mcc_));
            break;
        case core::LayerId::Ability: {
            SA_REQUIRE(v.abilities_ != nullptr, "ability layer requires a skill graph");
            auto layer = std::make_unique<core::AbilityLayer>(*v.abilities_, v.tactics_,
                                                              root_skill_);
            if (update_hook_ || v.policy_ != nullptr) {
                // The degradation policy runs first: coordinator-internal
                // follow-up problems (containment consequences) that never
                // hit the monitor stream still map onto capability
                // downgrades. A user hook refines with vehicle-specific
                // actuation on top.
                layer->set_update_hook([&v, hook = update_hook_](
                                           const core::Problem& problem) {
                    bool updated = false;
                    if (v.policy_ != nullptr) {
                        updated = v.policy_->apply(problem.anomaly, *v.abilities_);
                    }
                    if (hook) {
                        updated = hook(v, problem) || updated;
                    }
                    return updated;
                });
            }
            v.coordinator_->register_layer(std::move(layer));
            break;
        }
        case core::LayerId::Objective: {
            auto layer = std::make_unique<core::ObjectiveLayer>();
            v.objective_ = layer.get();
            v.coordinator_->register_layer(std::move(layer));
            break;
        }
        }
    }
    if (!layers_.empty()) {
        v.coordinator_->connect(*v.monitors_);
    }

    // 9. Self-model capture; with a skill graph the root ability level is
    //    part of every snapshot (the degradation-policy outcome in the
    //    self-representation).
    if (self_model_period_.has_value()) {
        v.self_ = std::make_unique<core::SelfModel>(simulator, *v.coordinator_);
        if (v.abilities_ != nullptr && !root_skill_.empty()) {
            v.self_->bind_abilities(*v.abilities_, root_skill_);
        }
        v.self_->start(*self_model_period_);
    }
    return owned;
}

} // namespace sa::scenario
