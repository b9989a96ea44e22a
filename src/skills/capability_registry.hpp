#pragma once
// CapabilityRegistry: the capability catalogue the declarative skills layer
// composes graphs from. Nolte et al. frame skill graphs as development
// artifacts assembled from a shared catalogue of skills and abilities; here
// the registry holds
//   - *capabilities*: named skills / data sources / data sinks with typed
//     quality attributes (what can degrade, and what "nominal" means),
//   - *skill-graph specs*: named SkillGraphSpec instances whose nodes must
//     all be registered capabilities of the matching kind — a spec is only
//     as good as the catalogue behind it,
//   - *alarm bindings*: mappings from monitor anomaly kinds onto
//     capability-quality downgrades, the bridge from monitor::MonitorManager
//     alarms into ability-graph levels (consumed by DegradationPolicy).
//
// builtin() exposes the paper's catalogue: the §IV ACC graph as the "acc"
// spec (and "acc_aggregate_sensors", the paper's minimal narration with one
// environment-sensor source) plus lane-keep, emergency-stop and
// platoon-follow maneuvers, with default alarm bindings for the stock
// monitors. AbilityGraph(*registry.spec(name)) instantiates a spec.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitor/metric.hpp"
#include "skills/skill_graph_spec.hpp"

namespace sa::skills {

/// What a quality attribute of a capability measures.
enum class QualityKind {
    Availability, ///< is the capability there at all (fault, containment)
    Accuracy,     ///< how good its output is (sensor noise, weather)
    Latency,      ///< is it timely (deadline misses, overload)
    Integrity,    ///< can it be trusted (intrusion, implausible data)
};

const char* to_string(QualityKind kind) noexcept;

/// One typed quality dimension of a capability.
struct QualityAttribute {
    QualityKind kind = QualityKind::Availability;
    double nominal = 1.0; ///< level when nothing degraded it, in [0, 1]
};

/// A catalogue entry: a named skill / source / sink with its quality model.
struct Capability {
    std::string name;
    SkillNodeKind node_kind = SkillNodeKind::Skill;
    std::string description;
    std::vector<QualityAttribute> qualities;

    [[nodiscard]] bool has_quality(QualityKind kind) const;
};

/// One mapping from a monitor anomaly onto a capability-quality downgrade.
/// Matching: `anomaly_kind` must equal the anomaly's kind; `domain` (when
/// set) must equal its domain; `source` (when non-empty) must equal its
/// source. The matched capability is `capability`, or the anomaly's source
/// when `capability` is empty (sensor alarms name the degraded sensor).
struct AlarmBinding {
    std::string anomaly_kind;
    std::string capability;     ///< empty: capability = anomaly.source
    QualityKind quality = QualityKind::Availability;
    double degraded_value = 0.0; ///< level imposed on match, in [0, 1]
    std::optional<monitor::Domain> domain;
    std::string source;         ///< empty: any source

    [[nodiscard]] bool matches(const monitor::Anomaly& anomaly) const;
    /// The capability this binding downgrades for `anomaly`.
    [[nodiscard]] const std::string& capability_for(const monitor::Anomaly& anomaly) const;
};

class CapabilityRegistry {
public:
    CapabilityRegistry() = default;

    // --- capability catalogue ----------------------------------------------
    /// Register a capability; names are unique across kinds.
    CapabilityRegistry& register_capability(Capability capability);
    [[nodiscard]] bool has_capability(const std::string& name) const;
    [[nodiscard]] const Capability& capability(const std::string& name) const;
    /// Registered capability names, sorted.
    [[nodiscard]] std::vector<std::string> capability_names() const;
    [[nodiscard]] std::size_t capability_count() const noexcept {
        return capabilities_.size();
    }

    // --- skill-graph specs -------------------------------------------------
    /// Register a named spec. Every node the spec declares must already be a
    /// registered capability of the same kind — a spec referencing an
    /// unknown capability is a catalogue bug and fails loudly here, as does
    /// a spec AbilityGraph cannot instantiate (which compiles its graph).
    CapabilityRegistry& register_spec(SkillGraphSpec spec);
    /// The registered spec: every vehicle that declares it shares this one.
    [[nodiscard]] const std::shared_ptr<const SkillGraphSpec>&
    spec(const std::string& name) const;
    /// Registered spec names, sorted.
    [[nodiscard]] std::vector<std::string> spec_names() const;

    // --- alarm bindings ----------------------------------------------------
    /// Bind a monitor anomaly kind to a capability-quality downgrade. A
    /// named capability must be registered (and carry the quality); an
    /// empty capability defers resolution to the anomaly source at match
    /// time.
    CapabilityRegistry& bind_alarm(AlarmBinding binding);
    [[nodiscard]] const std::vector<AlarmBinding>& alarm_bindings() const noexcept {
        return bindings_;
    }
    /// All bindings matching `anomaly`, in registration order.
    [[nodiscard]] std::vector<const AlarmBinding*>
    match(const monitor::Anomaly& anomaly) const;

    /// The built-in catalogue: capabilities of all four stock maneuvers, the
    /// specs ("acc", "acc_aggregate_sensors", "lane_keep", "emergency_stop",
    /// "platoon_follow") and default alarm bindings for the stock monitors.
    /// Immutable; copy it to extend.
    [[nodiscard]] static const CapabilityRegistry& builtin();

private:
    std::map<std::string, Capability> capabilities_;
    std::map<std::string, std::shared_ptr<const SkillGraphSpec>> specs_;
    std::vector<AlarmBinding> bindings_;
};

/// Canonical node names of the §IV ACC graph (specs "acc" and
/// "acc_aggregate_sensors"). The structure follows the paper's text:
///   - ACC driving (main skill) requires: control distance, control speed,
///     keep the vehicle controllable for the driver
///   - keep vehicle controllable requires: estimate driver intent, decelerate
///   - control distance / control speed require: select target object,
///     estimate driver intent, accelerate & decelerate
///   - select target object requires: perceive and track dynamic objects
///   - perceive/track requires the environment sensors as data sources
///   - estimate driver intent requires the HMI as data source
///   - accelerate requires the powertrain data sink; decelerate requires both
///     powertrain and braking system sinks
namespace acc {
inline constexpr const char* kAccDriving = "acc_driving";
inline constexpr const char* kControlDistance = "control_distance";
inline constexpr const char* kControlSpeed = "control_speed";
inline constexpr const char* kKeepControllable = "keep_vehicle_controllable";
inline constexpr const char* kEstimateDriverIntent = "estimate_driver_intent";
inline constexpr const char* kSelectTarget = "select_target_object";
inline constexpr const char* kPerceiveTrack = "perceive_track_dynamic_objects";
inline constexpr const char* kAccelerate = "accelerate";
inline constexpr const char* kDecelerate = "decelerate";
inline constexpr const char* kRadar = "radar";
inline constexpr const char* kCamera = "camera";
inline constexpr const char* kLidar = "lidar";
inline constexpr const char* kHmi = "hmi";
inline constexpr const char* kPowertrain = "powertrain";
inline constexpr const char* kBrakeSystem = "brake_system";
} // namespace acc

/// Canonical node names of the other built-in specs (beyond skills::acc).
namespace caps {
// lane_keep
inline constexpr const char* kLaneKeeping = "lane_keeping";
inline constexpr const char* kDetectLaneMarkings = "detect_lane_markings";
inline constexpr const char* kLateralControl = "lateral_control";
inline constexpr const char* kEstimateVehicleState = "estimate_vehicle_state";
inline constexpr const char* kSteering = "steering";
inline constexpr const char* kImu = "imu";
inline constexpr const char* kWheelOdometry = "wheel_odometry";
// emergency_stop
inline constexpr const char* kEmergencyStop = "emergency_stop";
inline constexpr const char* kDetectObstacle = "detect_obstacle";
inline constexpr const char* kFullBraking = "full_braking";
inline constexpr const char* kWarnTraffic = "warn_traffic";
inline constexpr const char* kHazardLights = "hazard_lights";
// platoon_follow
inline constexpr const char* kPlatoonFollow = "platoon_follow";
inline constexpr const char* kTrackLeadVehicle = "track_lead_vehicle";
inline constexpr const char* kControlGap = "control_gap";
inline constexpr const char* kReceivePlatoonCommands = "receive_platoon_commands";
inline constexpr const char* kV2vLink = "v2v_link";
} // namespace caps

} // namespace sa::skills
