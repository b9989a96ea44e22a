#include "core/platform_layer.hpp"

#include "monitor/anomaly_kinds.hpp"

#include <algorithm>

#include "util/string_util.hpp"

namespace sa::core {
namespace {

/// Thermal health is 1 up to kRecoverTempC and falls linearly to 0 at 20 °C
/// past kOvertempThresholdC, which matches the RangeMonitor bound.
constexpr double kOvertempThresholdC = 85.0;
constexpr double kRecoverTempC = 70.0;

} // namespace

namespace kinds = sa::monitor::kinds;

PlatformLayer::PlatformLayer(rte::Rte& rte, model::Mcc& mcc)
    : Layer(LayerId::Platform), rte_(rte), mcc_(mcc) {}

std::string PlatformLayer::ecu_from_source(const std::string& source) const {
    // Convention: thermal monitors name signals "temp.<ecu>".
    if (starts_with(source, "temp.")) {
        return source.substr(5);
    }
    return source;
}

std::vector<Proposal> PlatformLayer::propose(const Problem& problem) {
    std::vector<Proposal> out;
    const auto& a = problem.anomaly;

    // Thermal stress: propose stepping DVFS down, but only with adequacy if
    // the timing model still holds at the reduced speed (self-awareness of
    // the consequence, not just the local fix).
    if (a.kind == kinds::kRangeViolation && starts_with(a.source, "temp.")) {
        const std::string ecu_name = ecu_from_source(a.source);
        if (rte_.has_ecu(ecu_name)) {
            rte::Ecu& ecu = rte_.ecu(ecu_name);
            const int next_level = ecu.dvfs_level() + 1;
            if (next_level < ecu.dvfs_level_count()) {
                // Self-awareness of the consequence: would the committed
                // configuration still be schedulable at the reduced speed?
                const double factor_after = ecu.dvfs_speed(next_level);
                const bool still_schedulable =
                    mcc_.revalidate_with_speed(ecu_name, factor_after);
                Proposal p;
                p.layer = id();
                p.action = "dvfs_down";
                p.target = ecu_name;
                p.scope = 0.15; ///< one ECU slows down
                p.cost = 0.2;
                p.adequacy = still_schedulable ? 0.9 : 0.3;
                p.execute = [this, &ecu, next_level] {
                    ecu.set_dvfs_level(next_level);
                    ++dvfs_actions_;
                };
                if (!still_schedulable) {
                    // Escalation hint: the ability layer should shed load /
                    // reduce function performance instead.
                    p.follow_up = monitor::Anomaly{
                        a.at, monitor::Domain::Sensor, monitor::Severity::Warning,
                        ecu_name, "platform_performance_reduced",
                        "DVFS throttling would break deadlines; function-level "
                        "degradation required",
                        a.magnitude};
                }
                out.push_back(std::move(p));
            }
        }
    }

    // Execution-budget violation: restart the offending component (transient
    // fault hypothesis). Low cost, small scope.
    if (a.kind == kinds::kBudgetViolation || a.kind == kinds::kMissRatioHigh) {
        // source is "component.task" for budget violations; take the prefix.
        std::string component = a.source;
        if (auto dot = component.find('.'); dot != std::string::npos) {
            component = component.substr(0, dot);
        }
        if (rte_.has_component(component)) {
            Proposal p;
            p.layer = id();
            p.action = "restart_component";
            p.target = component;
            p.scope = 0.1;
            p.cost = 0.15;
            p.adequacy = a.kind == kinds::kBudgetViolation ? 0.7 : 0.4;
            p.execute = [this, component] { rte_.component(component).restart(); };
            out.push_back(std::move(p));
        }
    }

    return out;
}

double PlatformLayer::health() const {
    // Health from thermal headroom and deadline performance across ECUs.
    double worst = 1.0;
    rte_.for_each_ecu([&worst](rte::Ecu& ecu) {
        const double temp = ecu.thermal().temperature_c();
        const double thermal_health =
            std::clamp(1.0 - (temp - kRecoverTempC) /
                                 (kOvertempThresholdC + 20.0 - kRecoverTempC),
                       0.0, 1.0);
        const auto& sched = ecu.scheduler();
        const double miss_health =
            sched.completed_jobs() == 0
                ? 1.0
                : 1.0 - std::min(1.0, 10.0 * static_cast<double>(sched.missed_deadlines()) /
                                          static_cast<double>(sched.completed_jobs()));
        worst = std::min({worst, thermal_health, miss_health});
    });
    return worst;
}

} // namespace sa::core
