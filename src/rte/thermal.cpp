#include "rte/thermal.hpp"

#include <algorithm>

#include "rte/scheduler.hpp"
#include "util/assert.hpp"

namespace sa::rte {

namespace {

constexpr double kRthCPerW = 6.0; ///< junction-to-ambient thermal resistance
constexpr double kPIdleW = 1.5;
constexpr double kPDynW = 8.0;    ///< at 100% utilization, speed 1.0
constexpr sim::Duration kUpdatePeriod = sim::Duration::ms(100);

} // namespace

ThermalModel::ThermalModel(sim::Simulator& simulator, FixedPriorityScheduler& scheduler,
                           ThermalConfig config)
    : simulator_(simulator), scheduler_(scheduler), config_(config) {
    SA_REQUIRE(config_.tau_s > 0.0, "thermal time constant must be positive");
}

void ThermalModel::start() {
    if (periodic_id_ != 0) {
        return;
    }
    last_update_ = simulator_.now();
    last_busy_ns_ = scheduler_.busy_ns();
    periodic_id_ = simulator_.schedule_periodic(kUpdatePeriod, [this] { update(); });
}

void ThermalModel::stop() {
    if (periodic_id_ != 0) {
        simulator_.cancel_periodic(periodic_id_);
        periodic_id_ = 0;
    }
}

void ThermalModel::set_ambient_c(double ambient) { config_.ambient_c = ambient; }

void ThermalModel::update() {
    const sim::Time now = simulator_.now();
    const double dt = (now - last_update_).to_seconds();
    if (dt <= 0.0) {
        return;
    }
    const std::int64_t busy = scheduler_.busy_ns();
    const double util = std::clamp(
        static_cast<double>(busy - last_busy_ns_) / ((now - last_update_).to_seconds() * 1e9),
        0.0, 1.0);
    last_busy_ns_ = busy;
    last_update_ = now;

    const double speed = scheduler_.speed_factor();
    const double power = kPIdleW + kPDynW * util * speed * speed;
    const double steady = config_.ambient_c + kRthCPerW * power;
    // Exponential relaxation towards the steady-state temperature.
    const double alpha = 1.0 - std::exp(-dt / config_.tau_s);
    temp_c_ += (steady - temp_c_) * alpha;
    updated_.emit(temp_c_);
}

} // namespace sa::rte
