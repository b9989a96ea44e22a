#include "skills/capability_registry.hpp"

#include "monitor/anomaly_kinds.hpp"

#include <algorithm>

#include "skills/ability_graph.hpp"
#include "util/assert.hpp"

namespace sa::skills {

namespace kinds = sa::monitor::kinds;

const char* to_string(QualityKind kind) noexcept {
    switch (kind) {
    case QualityKind::Availability: return "availability";
    case QualityKind::Accuracy: return "accuracy";
    case QualityKind::Latency: return "latency";
    case QualityKind::Integrity: return "integrity";
    }
    return "?";
}

bool Capability::has_quality(QualityKind kind) const {
    return std::any_of(qualities.begin(), qualities.end(),
                       [kind](const QualityAttribute& q) { return q.kind == kind; });
}

bool AlarmBinding::matches(const monitor::Anomaly& anomaly) const {
    if (anomaly.kind != anomaly_kind) {
        return false;
    }
    if (domain.has_value() && anomaly.domain != *domain) {
        return false;
    }
    if (!source.empty() && anomaly.source != source) {
        return false;
    }
    return true;
}

const std::string& AlarmBinding::capability_for(const monitor::Anomaly& anomaly) const {
    return capability.empty() ? anomaly.source : capability;
}

// --- catalogue --------------------------------------------------------------------

CapabilityRegistry& CapabilityRegistry::register_capability(Capability capability) {
    SA_REQUIRE(!capability.name.empty(), "capability needs a name");
    SA_REQUIRE(!capability.qualities.empty(),
               "capability needs at least one quality attribute: " + capability.name);
    for (const auto& quality : capability.qualities) {
        SA_REQUIRE(quality.nominal >= 0.0 && quality.nominal <= 1.0,
                   "nominal quality must be within [0,1]: " + capability.name);
    }
    const std::string name = capability.name;
    const bool inserted =
        capabilities_.emplace(name, std::move(capability)).second;
    SA_REQUIRE(inserted, "duplicate capability: " + name);
    return *this;
}

bool CapabilityRegistry::has_capability(const std::string& name) const {
    return capabilities_.contains(name);
}

const Capability& CapabilityRegistry::capability(const std::string& name) const {
    auto it = capabilities_.find(name);
    SA_REQUIRE(it != capabilities_.end(), "unknown capability: " + name);
    return it->second;
}

std::vector<std::string> CapabilityRegistry::capability_names() const {
    std::vector<std::string> out;
    out.reserve(capabilities_.size());
    for (const auto& [name, _] : capabilities_) {
        out.push_back(name);
    }
    return out;
}

// --- specs ------------------------------------------------------------------------

CapabilityRegistry& CapabilityRegistry::register_spec(SkillGraphSpec spec) {
    SA_REQUIRE(!spec.name().empty(), "spec needs a name");
    SA_REQUIRE(!specs_.contains(spec.name()), "duplicate spec: " + spec.name());
    for (const auto& node : spec.node_names()) {
        SA_REQUIRE(has_capability(node),
                   "spec '" + spec.name() + "' references unregistered capability: " +
                       node);
        SA_REQUIRE(capability(node).node_kind == spec.node_kind(node),
                   "spec '" + spec.name() + "' uses capability '" + node +
                       "' as a different kind than the catalogue declares");
    }
    // A registered spec must instantiate cleanly: catch structural errors at
    // registration, not first use. The shared copy keeps the compiled graph.
    auto shared = std::make_shared<const SkillGraphSpec>(std::move(spec));
    (void)AbilityGraph(*shared);
    specs_.emplace(shared->name(), std::move(shared));
    return *this;
}

const std::shared_ptr<const SkillGraphSpec>&
CapabilityRegistry::spec(const std::string& name) const {
    auto it = specs_.find(name);
    SA_REQUIRE(it != specs_.end(), "unknown skill-graph spec: " + name);
    return it->second;
}

std::vector<std::string> CapabilityRegistry::spec_names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const auto& [name, _] : specs_) {
        out.push_back(name);
    }
    return out;
}

// --- alarm bindings ---------------------------------------------------------------

CapabilityRegistry& CapabilityRegistry::bind_alarm(AlarmBinding binding) {
    SA_REQUIRE(!binding.anomaly_kind.empty(), "alarm binding needs an anomaly kind");
    SA_REQUIRE(binding.degraded_value >= 0.0 && binding.degraded_value <= 1.0,
               "degraded value must be within [0,1]");
    if (!binding.capability.empty()) {
        SA_REQUIRE(has_capability(binding.capability),
                   "alarm binding references unregistered capability: " +
                       binding.capability);
        SA_REQUIRE(capability(binding.capability).has_quality(binding.quality),
                   "capability '" + binding.capability + "' has no " +
                       std::string(to_string(binding.quality)) + " quality");
    }
    // Re-registering an identical binding is always a composition bug (the
    // rule would silently fire twice); fail loudly like duplicate
    // capabilities and specs do.
    for (const AlarmBinding& existing : bindings_) {
        SA_REQUIRE(!(existing.anomaly_kind == binding.anomaly_kind &&
                     existing.capability == binding.capability &&
                     existing.quality == binding.quality &&
                     existing.degraded_value == binding.degraded_value &&
                     existing.domain == binding.domain &&
                     existing.source == binding.source),
                   "duplicate alarm binding for anomaly kind '" +
                       binding.anomaly_kind + "'");
    }
    bindings_.push_back(std::move(binding));
    return *this;
}

std::vector<const AlarmBinding*>
CapabilityRegistry::match(const monitor::Anomaly& anomaly) const {
    std::vector<const AlarmBinding*> out;
    for (const auto& binding : bindings_) {
        if (binding.matches(anomaly)) {
            out.push_back(&binding);
        }
    }
    return out;
}

// --- builtin catalogue ------------------------------------------------------------

namespace {

/// Shorthand for the three capability shapes of the stock catalogue.
Capability skill_cap(const char* name, const char* description) {
    return Capability{name,
                      SkillNodeKind::Skill,
                      description,
                      {{QualityKind::Availability, 1.0}, {QualityKind::Accuracy, 1.0}}};
}

Capability source_cap(const char* name, const char* description,
                      std::vector<QualityAttribute> qualities = {
                          {QualityKind::Availability, 1.0},
                          {QualityKind::Accuracy, 1.0}}) {
    return Capability{name, SkillNodeKind::DataSource, description,
                      std::move(qualities)};
}

Capability sink_cap(const char* name, const char* description) {
    return Capability{name,
                      SkillNodeKind::DataSink,
                      description,
                      {{QualityKind::Availability, 1.0}}};
}

/// The §IV ACC skill graph. Each skill's dependencies are declared in the
/// order its aggregation consumes them.
SkillGraphSpec make_acc_spec(bool split_environment_sensors) {
    using namespace acc;
    SkillGraphSpec spec(split_environment_sensors ? "acc" : "acc_aggregate_sensors");
    spec.root(kAccDriving)
        .skill(kAccDriving, "main skill: ACC driving")
        .skill(kControlDistance, "control distance to the preceding vehicle")
        .skill(kControlSpeed, "control speed of the ego vehicle")
        .skill(kKeepControllable, "keep the vehicle controllable for the driver")
        .skill(kEstimateDriverIntent, "estimate the driver's intent")
        .skill(kSelectTarget, "select a target object")
        .skill(kPerceiveTrack, "perceive and track dynamic objects")
        .skill(kAccelerate, "accelerate the vehicle")
        .skill(kDecelerate, "decelerate the vehicle")
        .sink(kPowertrain, "powertrain system (data sink)")
        .sink(kBrakeSystem, "braking system (data sink)")
        .source(kHmi, "human-machine interface (data source)");
    if (split_environment_sensors) {
        spec.source(kRadar, "radar sensor (data source)")
            .source(kCamera, "camera sensor (data source)")
            .source(kLidar, "lidar sensor (data source)");
    } else {
        spec.source("environment_sensors", "environment sensors (data source)");
    }
    spec.depends(kAccDriving, {kControlDistance, kControlSpeed, kKeepControllable})
        .depends(kKeepControllable, {kEstimateDriverIntent, kDecelerate})
        .depends(kControlDistance,
                 {kSelectTarget, kEstimateDriverIntent, kAccelerate, kDecelerate})
        .depends(kControlSpeed,
                 {kSelectTarget, kEstimateDriverIntent, kAccelerate, kDecelerate})
        .depends(kSelectTarget, {kPerceiveTrack});
    if (split_environment_sensors) {
        spec.depends(kPerceiveTrack, {kRadar, kCamera, kLidar});
    } else {
        spec.depends(kPerceiveTrack, {"environment_sensors"});
    }
    spec.depends(kEstimateDriverIntent, {kHmi})
        .depends(kAccelerate, {kPowertrain})
        .depends(kDecelerate, {kPowertrain, kBrakeSystem});
    return spec;
}

SkillGraphSpec make_lane_keep_spec() {
    using namespace caps;
    SkillGraphSpec spec("lane_keep");
    spec.root(kLaneKeeping)
        .skill(kLaneKeeping, "main skill: keep the vehicle in its lane")
        .skill(kDetectLaneMarkings, "detect and track lane markings")
        .skill(kLateralControl, "control the lateral position within the lane")
        .skill(kEstimateVehicleState, "estimate the ego motion state")
        .skill(acc::kEstimateDriverIntent, "estimate the driver's intent")
        .source(acc::kCamera, "camera sensor (data source)")
        .source(kImu, "inertial measurement unit (data source)")
        .source(kWheelOdometry, "wheel odometry (data source)")
        .source(acc::kHmi, "human-machine interface (data source)")
        .sink(kSteering, "steering actuator (data sink)")
        .depends(kLaneKeeping,
                 {kDetectLaneMarkings, kLateralControl, acc::kEstimateDriverIntent})
        .depends(kDetectLaneMarkings, {acc::kCamera})
        .depends(kLateralControl, {kEstimateVehicleState, kSteering})
        .depends(kEstimateVehicleState, {kImu, kWheelOdometry})
        .depends(acc::kEstimateDriverIntent, {acc::kHmi});
    return spec;
}

SkillGraphSpec make_emergency_stop_spec() {
    using namespace caps;
    SkillGraphSpec spec("emergency_stop");
    spec.root(kEmergencyStop)
        .skill(kEmergencyStop, "main skill: bring the vehicle to a safe stop")
        .skill(kDetectObstacle, "detect obstacles in the stopping corridor")
        .skill(kFullBraking, "apply full braking force")
        .skill(kWarnTraffic, "warn following traffic")
        .source(acc::kRadar, "radar sensor (data source)")
        .source(acc::kCamera, "camera sensor (data source)")
        .sink(acc::kBrakeSystem, "braking system (data sink)")
        .sink(kHazardLights, "hazard lights (data sink)")
        .depends(kEmergencyStop, {kDetectObstacle, kFullBraking, kWarnTraffic})
        .depends(kDetectObstacle, {acc::kRadar, acc::kCamera})
        .depends(kFullBraking, {acc::kBrakeSystem})
        .depends(kWarnTraffic, {kHazardLights})
        // Obstacle detection tolerates one degraded sensor: radar dominant.
        .aggregate(kDetectObstacle, Aggregation::WeightedMean)
        .weight(kDetectObstacle, acc::kRadar, 3.0)
        .weight(kDetectObstacle, acc::kCamera, 1.0);
    return spec;
}

SkillGraphSpec make_platoon_follow_spec() {
    using namespace caps;
    SkillGraphSpec spec("platoon_follow");
    spec.root(kPlatoonFollow)
        .skill(kPlatoonFollow, "main skill: follow the platoon lead vehicle")
        .skill(kTrackLeadVehicle, "track the immediate lead vehicle")
        .skill(kControlGap, "control the gap to the lead vehicle")
        .skill(kReceivePlatoonCommands, "receive platoon coordination commands")
        .skill(acc::kAccelerate, "accelerate the vehicle")
        .skill(acc::kDecelerate, "decelerate the vehicle")
        .source(acc::kRadar, "radar sensor (data source)")
        .source(kV2vLink, "V2V communication link (data source)")
        .sink(acc::kPowertrain, "powertrain system (data sink)")
        .sink(acc::kBrakeSystem, "braking system (data sink)")
        .depends(kPlatoonFollow,
                 {kTrackLeadVehicle, kControlGap, kReceivePlatoonCommands})
        .depends(kTrackLeadVehicle, {acc::kRadar, kV2vLink})
        .depends(kControlGap, {kTrackLeadVehicle, acc::kAccelerate, acc::kDecelerate})
        .depends(kReceivePlatoonCommands, {kV2vLink})
        .depends(acc::kAccelerate, {acc::kPowertrain})
        .depends(acc::kDecelerate, {acc::kPowertrain, acc::kBrakeSystem})
        // Tracking fuses radar and V2V: either alone keeps partial ability.
        .aggregate(kTrackLeadVehicle, Aggregation::WeightedMean)
        .weight(kTrackLeadVehicle, acc::kRadar, 2.0)
        .weight(kTrackLeadVehicle, kV2vLink, 1.0);
    return spec;
}

CapabilityRegistry make_builtin() {
    using namespace acc;
    using namespace caps;
    CapabilityRegistry registry;

    // Skills.
    registry
        .register_capability(skill_cap(kAccDriving, "ACC driving"))
        .register_capability(skill_cap(kControlDistance, "distance control"))
        .register_capability(skill_cap(kControlSpeed, "speed control"))
        .register_capability(skill_cap(kKeepControllable, "driver controllability"))
        .register_capability(skill_cap(kEstimateDriverIntent, "driver intent"))
        .register_capability(skill_cap(kSelectTarget, "target selection"))
        .register_capability(skill_cap(kPerceiveTrack, "object perception"))
        .register_capability(skill_cap(kAccelerate, "acceleration"))
        .register_capability(skill_cap(kDecelerate, "deceleration"))
        .register_capability(skill_cap(kLaneKeeping, "lane keeping"))
        .register_capability(skill_cap(kDetectLaneMarkings, "lane-marking detection"))
        .register_capability(skill_cap(kLateralControl, "lateral control"))
        .register_capability(skill_cap(kEstimateVehicleState, "ego-state estimation"))
        .register_capability(skill_cap(kEmergencyStop, "emergency stop"))
        .register_capability(skill_cap(kDetectObstacle, "obstacle detection"))
        .register_capability(skill_cap(kFullBraking, "full braking"))
        .register_capability(skill_cap(kWarnTraffic, "traffic warning"))
        .register_capability(skill_cap(kPlatoonFollow, "platoon following"))
        .register_capability(skill_cap(kTrackLeadVehicle, "lead-vehicle tracking"))
        .register_capability(skill_cap(kControlGap, "gap control"))
        .register_capability(skill_cap(kReceivePlatoonCommands, "platoon commands"));

    // Data sources.
    registry
        .register_capability(source_cap(kRadar, "radar sensor"))
        .register_capability(source_cap(kCamera, "camera sensor"))
        .register_capability(source_cap(kLidar, "lidar sensor"))
        .register_capability(source_cap("environment_sensors", "aggregate sensors"))
        .register_capability(
            source_cap(kHmi, "human-machine interface",
                       {{QualityKind::Availability, 1.0}}))
        .register_capability(source_cap(kImu, "inertial measurement unit"))
        .register_capability(source_cap(kWheelOdometry, "wheel odometry"))
        .register_capability(
            source_cap(kV2vLink, "V2V communication link",
                       {{QualityKind::Availability, 1.0},
                        {QualityKind::Latency, 1.0},
                        {QualityKind::Integrity, 1.0}}));

    // Data sinks.
    registry.register_capability(sink_cap(kPowertrain, "powertrain"))
        .register_capability(sink_cap(kBrakeSystem, "braking system"))
        .register_capability(sink_cap(kSteering, "steering actuator"))
        .register_capability(sink_cap(kHazardLights, "hazard lights"));

    // Specs.
    registry.register_spec(make_acc_spec(/*split_environment_sensors=*/true))
        .register_spec(make_acc_spec(/*split_environment_sensors=*/false))
        .register_spec(make_lane_keep_spec())
        .register_spec(make_emergency_stop_spec())
        .register_spec(make_platoon_follow_spec());

    // Default alarm bindings for the stock monitors. Sensor alarms name the
    // degraded sensor in `source`, so the capability resolves from there.
    AlarmBinding failed;
    failed.anomaly_kind = kinds::kSensorFailed;
    failed.quality = QualityKind::Availability;
    failed.degraded_value = 0.0;
    failed.domain = monitor::Domain::Sensor;
    registry.bind_alarm(failed);

    AlarmBinding degraded;
    degraded.anomaly_kind = kinds::kSensorDegraded;
    degraded.quality = QualityKind::Accuracy;
    degraded.degraded_value = 0.35;
    degraded.domain = monitor::Domain::Sensor;
    registry.bind_alarm(degraded);

    AlarmBinding recovered;
    recovered.anomaly_kind = kinds::kSensorRecovered;
    recovered.quality = QualityKind::Accuracy;
    recovered.degraded_value = 1.0;
    recovered.domain = monitor::Domain::Sensor;
    registry.bind_alarm(recovered);
    recovered.quality = QualityKind::Availability;
    registry.bind_alarm(recovered);

    AlarmBinding heartbeat;
    heartbeat.anomaly_kind = kinds::kHeartbeatLoss;
    heartbeat.quality = QualityKind::Availability;
    heartbeat.degraded_value = 0.0;
    registry.bind_alarm(heartbeat);

    return registry;
}

} // namespace

const CapabilityRegistry& CapabilityRegistry::builtin() {
    static const CapabilityRegistry registry = make_builtin();
    return registry;
}

} // namespace sa::skills
