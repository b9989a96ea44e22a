#include "monitor/range_monitor.hpp"

#include "monitor/anomaly_kinds.hpp"

#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::monitor {

RangeMonitor::RangeMonitor(sim::Simulator& simulator, std::string name, Domain domain)
    : Monitor(simulator, "range:" + name, domain) {}

void RangeMonitor::set_bounds(const std::string& signal, double lo, double hi,
                              Severity severity) {
    SA_REQUIRE(lo <= hi, "bounds must satisfy lo <= hi for " + signal);
    bounds_[signal] = Bounds{lo, hi, severity, false};
}

bool RangeMonitor::sample(const std::string& signal, double value) {
    note_check();
    auto it = bounds_.find(signal);
    if (it == bounds_.end()) {
        return true;
    }
    Bounds& b = it->second;
    const bool ok = value >= b.lo && value <= b.hi;
    if (!ok && !b.in_violation) {
        b.in_violation = true;
        ++violations_;
        const double span = b.hi - b.lo;
        const double excess =
            value < b.lo ? (b.lo - value) : (value - b.hi);
        raise(b.severity, signal, kinds::kRangeViolation,
              sa::format("%.3f outside [%.3f, %.3f]", value, b.lo, b.hi),
              span > 0 ? 1.0 + excess / span : 1.0);
    } else if (ok && b.in_violation) {
        b.in_violation = false;
        raise(Severity::Info, signal, kinds::kRangeRecovered,
              sa::format("%.3f back within [%.3f, %.3f]", value, b.lo, b.hi), 0.0);
    }
    return ok;
}

} // namespace sa::monitor
